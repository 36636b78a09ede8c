type t = {
  id : string;
  what : string;
  runs : int;
  scale : int;
  run :
    runs:int ->
    scale:int ->
    jobs:int ->
    shard_domains:int ->
    cache:Runner.cache option ->
    scheduling:[ `Cost | `Fifo ] ->
    Format.formatter ->
    unit;
}

(* The shapes the figure modules come in; annotated so each constructor
   below can take a module's function with its optional arguments. *)
type sweep =
  ?runs:int -> ?scale:int -> ?jobs:int -> ?shard_domains:int ->
  ?cache:Runner.cache -> ?scheduling:[ `Cost | `Fifo ] ->
  Format.formatter -> unit

type ablation = ?runs:int -> ?scale:int -> ?jobs:int -> Format.formatter -> unit

let table id what ?(scale = 1) render =
  {
    id;
    what;
    runs = 1;
    scale;
    run =
      (fun ~runs:_ ~scale ~jobs:_ ~shard_domains:_ ~cache:_ ~scheduling:_ fmt ->
        render ~scale fmt);
  }

let sweep id what ~runs ~scale (fig : sweep) =
  {
    id;
    what;
    runs;
    scale;
    run =
      (fun ~runs ~scale ~jobs ~shard_domains ~cache ~scheduling fmt ->
        fig ~runs ~scale ~jobs ~shard_domains ?cache ~scheduling fmt);
  }

let ablation id what (fig : ablation) =
  {
    id;
    what;
    runs = 3;
    scale = 2;
    run =
      (fun ~runs ~scale ~jobs ~shard_domains:_ ~cache:_ ~scheduling:_ fmt ->
        fig ~runs ~scale ~jobs fmt);
  }

let all =
  [
    table "t1" "Table 1: ZGC page size classes" (fun ~scale:_ -> Tables.t1);
    table "t2" "Table 2: the 19 benchmark configurations" (fun ~scale:_ ->
        Tables.t2);
    table "t3" "Table 3: LAW graph datasets (generator stand-ins)" ~scale:4
      (fun ~scale -> Tables.t3 ~scale);
    sweep "f4" "Fig. 4: synthetic, single phase" ~runs:3 ~scale:2
      Fig_synthetic.fig4;
    sweep "f5" "Fig. 5: synthetic, three phases" ~runs:3 ~scale:2
      Fig_synthetic.fig5;
    {
      id = "f6";
      what = "Fig. 6: ample relocation, saturated core";
      runs = 2;
      scale = 4;
      run =
        (fun ~runs ~scale ~jobs ~shard_domains ~cache ~scheduling fmt ->
          if shard_domains > 0 then
            Format.eprintf
              "[f6] saturated single core: shard_domains %d ignored@."
              shard_domains;
          Fig_synthetic.fig6 ~runs ~scale ~jobs ?cache ~scheduling fmt);
    };
    sweep "f7" "Fig. 7: CC on uk" ~runs:3 ~scale:16 Fig_graph.fig7;
    sweep "f8" "Fig. 8: CC on enwiki" ~runs:3 ~scale:16 Fig_graph.fig8;
    sweep "f9" "Fig. 9: MC on uk" ~runs:2 ~scale:4 Fig_graph.fig9;
    sweep "f10" "Fig. 10: MC on enwiki" ~runs:2 ~scale:4 Fig_graph.fig10;
    sweep "f11" "Fig. 11: DaCapo tradebeans (simulated)" ~runs:3 ~scale:2
      Fig_dacapo.fig11;
    sweep "f12" "Fig. 12: DaCapo h2 (simulated)" ~runs:2 ~scale:2
      Fig_dacapo.fig12;
    sweep "f13" "Fig. 13: SPECjbb2015 (simulated)" ~runs:2 ~scale:2
      Fig_specjbb.fig13;
    sweep "fserve" "serving tier: tail latency and SLO attribution" ~runs:3
      ~scale:2
      (fun ?runs ?scale ?jobs ?shard_domains ?cache ?scheduling fmt ->
        Fig_serve.figure ?runs ?scale ?jobs ?shard_domains ?cache ?scheduling
          fmt);
    sweep "ftier" "far-memory tier: capacity sweep" ~runs:3 ~scale:2
      (fun ?runs ?scale ?jobs ?shard_domains ?cache ?scheduling fmt ->
        Fig_tier.figure ?runs ?scale ?jobs ?shard_domains ?cache ?scheduling
          fmt);
    ablation "abl-prefetch" "ablation: access-order layout needs prefetching"
      Ablations.prefetcher;
    ablation "abl-tlb" "ablation: page-locality (dTLB) effect" Ablations.tlb;
    ablation "abl-pagesize" "ablation: page-size-class granularity"
      Ablations.page_size;
    ablation "abl-autotune" "ablation: COLDCONFIDENCE feedback loop"
      Ablations.autotuner;
  ]

let find id = List.find_opt (fun a -> a.id = id) all
