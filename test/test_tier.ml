(* Tests for the far-memory tier: raw Tier residency against a naive
   reference model, heap tier-byte accounting against a reference, the
   far-counter scoping discipline at the machine level, end-to-end
   tiering effectiveness, the determinism battery (shard counts, worker
   counts, verified runs, warm store replay), and Corrupt_tier fault
   injection through the sanitizer. *)

module Tier = Hcsgc_memsim.Tier
module Machine = Hcsgc_memsim.Machine
module H = Hcsgc_memsim.Hierarchy
module Heap = Hcsgc_heap.Heap
module Page = Hcsgc_heap.Page
module Layout = Hcsgc_heap.Layout
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Runner = Hcsgc_experiments.Runner
module Fig_tier = Hcsgc_experiments.Fig_tier
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fuzz = Hcsgc_fuzz.Fuzz
module Result_store = Hcsgc_store.Result_store

let check = Alcotest.check
let case = Alcotest.test_case

let with_temp_dir f =
  let dir = Filename.temp_dir "hcsgc_tier_test" "" in
  Fun.protect (fun () -> f dir) ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      try rm dir with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Raw tier vs a naive reference model                                 *)
(* ------------------------------------------------------------------ *)

(* Operations over a 32-granule address window against a 12-granule
   tier; the model is a plain set of resident granule indices. *)
type tier_op = Demote of int * int | Promote of int * int | Reset

let granule = 64
let window = 32
let cap_granules = 12

let arbitrary_tier_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Demote (s, l) -> Printf.sprintf "D%d+%d" s l
             | Promote (s, l) -> Printf.sprintf "P%d+%d" s l
             | Reset -> "R")
           ops))
    QCheck.Gen.(
      list_size (int_range 0 200)
        (frequency
           [
             (10, map2 (fun s l -> Demote (s, 1 + l))
                (int_bound (window - 5)) (int_bound 3));
             (8, map2 (fun s l -> Promote (s, 1 + l))
                (int_bound (window - 5)) (int_bound 3));
             (1, return Reset);
           ]))

let prop_tier_matches_model =
  QCheck.Test.make ~name:"tier: residency/bytes/peak match a naive model"
    ~count:200 arbitrary_tier_ops (fun ops ->
      let t =
        Tier.create ~granule_bytes:granule
          ~capacity_bytes:(cap_granules * granule) ~lat_far:500 ()
      in
      let model = Hashtbl.create 32 in
      let peak = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Reset ->
              Tier.reset t;
              Hashtbl.reset model;
              peak := 0
          | Demote (s, l) ->
              (* Mirror the API contract: only issue legal demotions
                 (no granule already resident); an over-capacity one
                 must return false and change nothing. *)
              let gs = List.init l (fun i -> s + i) in
              if List.for_all (fun g -> not (Hashtbl.mem model g)) gs then begin
                let fits = Hashtbl.length model + l <= cap_granules in
                let accepted =
                  Tier.demote t ~addr:(s * granule) ~bytes:(l * granule)
                in
                if accepted <> fits then
                  QCheck.Test.fail_reportf "demote %d+%d: accepted=%b fits=%b"
                    s l accepted fits;
                if accepted then begin
                  List.iter (fun g -> Hashtbl.replace model g ()) gs;
                  peak := max !peak (Hashtbl.length model)
                end
              end
          | Promote (s, l) ->
              let gs = List.init l (fun i -> s + i) in
              if List.for_all (Hashtbl.mem model) gs then begin
                Tier.promote t ~addr:(s * granule) ~bytes:(l * granule);
                List.iter (Hashtbl.remove model) gs
              end)
        ops;
      (* Final agreement: per-granule residency, used bytes, peak. *)
      for g = 0 to window - 1 do
        if Tier.resident t (g * granule) <> Hashtbl.mem model g then
          QCheck.Test.fail_reportf "granule %d residency diverged" g
      done;
      Tier.used_bytes t = Hashtbl.length model * granule
      && Tier.peak_bytes t = !peak * granule
      && Tier.would_fit t ~bytes:((cap_granules - Hashtbl.length model) * granule))

let tier_rejects_illegal_transitions () =
  let t =
    Tier.create ~granule_bytes:64 ~capacity_bytes:512 ~lat_far:500 ()
  in
  check Alcotest.bool "demote fits" true (Tier.demote t ~addr:0 ~bytes:128);
  Alcotest.check_raises "double demotion"
    (Invalid_argument "Tier.demote: granule already resident") (fun () ->
      ignore (Tier.demote t ~addr:64 ~bytes:64));
  Alcotest.check_raises "promote of non-resident"
    (Invalid_argument "Tier.promote: granule not resident") (fun () ->
      Tier.promote t ~addr:256 ~bytes:64);
  check Alcotest.bool "over-capacity demote refused" false
    (Tier.demote t ~addr:1024 ~bytes:1024);
  check Alcotest.int "refused demote left state alone" 128 (Tier.used_bytes t)

(* ------------------------------------------------------------------ *)
(* Heap tier-byte accounting vs a naive reference                      *)
(* ------------------------------------------------------------------ *)

let heap_accounting_matches_reference () =
  let layout = Layout.scaled ~small_page:(16 * 1024) in
  let heap = Heap.create ~layout ~max_bytes:(1024 * 1024) () in
  let rng = Hcsgc_util.Rng.create 7 in
  let pages = ref [] in
  let far = Hashtbl.create 16 in
  let reference () =
    Hashtbl.fold (fun _ size acc -> acc + size) far 0
  in
  let walked () =
    let sum = ref 0 in
    Heap.iter_pages heap (fun p ->
        if p.Page.tier = Page.Far then sum := !sum + p.Page.size);
    !sum
  in
  for _ = 1 to 400 do
    (match Hcsgc_util.Rng.int rng 4 with
    | 0 -> (
        match Heap.alloc_page heap ~cls:Layout.Small ~bytes:0 ~birth_cycle:0 with
        | Some p -> pages := p :: !pages
        | None -> ())
    | 1 -> (
        match !pages with
        | [] -> ()
        | l ->
            let p = List.nth l (Hcsgc_util.Rng.int rng (List.length l)) in
            if p.Page.tier = Page.Dram then begin
              Heap.set_tier_far heap p;
              Hashtbl.replace far p.Page.id p.Page.size
            end)
    | 2 -> (
        match !pages with
        | [] -> ()
        | l ->
            let p = List.nth l (Hcsgc_util.Rng.int rng (List.length l)) in
            if p.Page.tier = Page.Far then begin
              Heap.set_tier_dram heap p;
              Hashtbl.remove far p.Page.id
            end)
    | _ -> (
        match !pages with
        | [] -> ()
        | l ->
            let p = List.nth l (Hcsgc_util.Rng.int rng (List.length l)) in
            Heap.free_page heap p;
            Hashtbl.remove far p.Page.id;
            pages := List.filter (fun q -> q != p) !pages;
            (* Freeing must reset the tier bit so a recycled page never
               inherits far residency. *)
            check Alcotest.bool "freed page back to DRAM" true
              (p.Page.tier = Page.Dram)));
    check Alcotest.int "far_bytes = reference" (reference ())
      (Heap.far_bytes heap);
    check Alcotest.int "far_bytes = page walk" (walked ())
      (Heap.far_bytes heap)
  done;
  check Alcotest.bool "exercised the far path" true (Hashtbl.length far >= 0)

let heap_set_tier_far_rejects_freed () =
  let layout = Layout.scaled ~small_page:(16 * 1024) in
  let heap = Heap.create ~layout ~max_bytes:(256 * 1024) () in
  let p =
    Option.get (Heap.alloc_page heap ~cls:Layout.Small ~bytes:0 ~birth_cycle:0)
  in
  Heap.free_page heap p;
  Alcotest.check_raises "freed pages cannot go far"
    (Invalid_argument "Heap.set_tier_far: page is freed") (fun () ->
      Heap.set_tier_far heap p)

(* ------------------------------------------------------------------ *)
(* Machine-level far counters and latency                              *)
(* ------------------------------------------------------------------ *)

let machine_far_latency_and_counters () =
  let cfg = H.default_config in
  let mk () =
    let m = Machine.create ~cfg ~cores:2 () in
    let t =
      Tier.create ~granule_bytes:4096 ~capacity_bytes:8192
        ~lat_far:(cfg.H.lat_mem + 123) ()
    in
    check Alcotest.bool "demoted" true (Tier.demote t ~addr:0 ~bytes:4096);
    Machine.set_tier m (Some t);
    m
  in
  (* A cold demand load of a far-resident line costs lat_far where the
     DRAM line costs lat_mem; stores stay write-buffered and never pay
     far latency. *)
  let m = mk () in
  let far_cost = Machine.load m ~core:0 0 in
  let m2 = mk () in
  let dram_cost = Machine.load m2 ~core:0 8192 in
  check Alcotest.int "far load costs lat_far - lat_mem extra" 123
    (far_cost - dram_cost);
  let m3 = mk () in
  let far_store = Machine.store m3 ~core:0 0 in
  let m4 = mk () in
  let dram_store = Machine.store m4 ~core:0 8192 in
  check Alcotest.int "stores never pay far latency" dram_store far_store;
  (* Counter scoping: machine-wide far_loads is the sum of the per-core
     counters, and far loads are a subset of LLC misses. *)
  let m = mk () in
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.load m ~core:1 512);
  ignore (Machine.load m ~core:1 8192);
  check Alcotest.int "two far loads" 2 (Machine.far_loads m);
  check Alcotest.int "machine = sum of cores" (Machine.far_loads m)
    (Machine.core_far_loads m ~core:0 + Machine.core_far_loads m ~core:1);
  check Alcotest.bool "far subset of LLC misses" true
    (Machine.far_loads m <= (Machine.counters m).H.llc_misses);
  Machine.reset_counters m;
  check Alcotest.int "reset zeroes far counters" 0
    (Machine.far_loads m + Machine.core_far_loads m ~core:0)

(* ------------------------------------------------------------------ *)
(* End-to-end effectiveness and the counter discipline on a VM         *)
(* ------------------------------------------------------------------ *)

let tiered_config ?(capacity = 16) () =
  Fig_tier.tier_config ~capacity ~lat_far:800 ~promote:true

(* One tiered cold-heavy synthetic run, shared across assertions. *)
let tiered_run =
  lazy
    (let exp = Fig_synthetic.experiment ~cold_ratio:4 ~scale:25 () in
     let vm = exp.Runner.make_vm (tiered_config ()) in
     exp.Runner.workload vm ~run:0;
     Vm.finish vm;
     vm)

let tiering_is_effective () =
  let vm = Lazy.force tiered_run in
  let st = Vm.gc_stats vm in
  let tier = Option.get (Vm.tier vm) in
  check Alcotest.bool "cold pages were demoted" true
    (Gc_stats.pages_demoted st > 0);
  check Alcotest.bool "far tier served loads" true (Vm.far_loads vm > 0);
  check Alcotest.bool "peak residency recorded" true (Tier.peak_bytes tier > 0);
  check Alcotest.bool "far loads subset of LLC misses" true
    (Vm.far_loads vm <= (Vm.counters vm).H.llc_misses);
  let m = Runner.collect vm in
  check Alcotest.int "metrics carry demotions" (Gc_stats.pages_demoted st)
    m.Runner.pages_demoted;
  check Alcotest.bool "metrics carry far loads" true
    (m.Runner.far_loads = float_of_int (Vm.far_loads vm))

let tiering_off_is_inert () =
  let exp = Fig_synthetic.experiment ~cold_ratio:4 ~scale:25 () in
  let vm = exp.Runner.make_vm (Config.of_id 16) in
  exp.Runner.workload vm ~run:0;
  Vm.finish vm;
  check Alcotest.bool "no tier attached" true (Vm.tier vm = None);
  check Alcotest.int "no far loads" 0 (Vm.far_loads vm);
  let m = Runner.collect vm in
  check Alcotest.int "no demotions" 0 m.Runner.pages_demoted;
  check Alcotest.int "no promotions" 0 m.Runner.pages_promoted;
  (* The knobs do not leak into untiered configuration names, so every
     historical figure label is unchanged. *)
  check Alcotest.string "config 16 name unchanged" "hot+cp+cc1.0+lazy"
    (Config.to_string (Config.of_id 16));
  check Alcotest.string "tier knobs visible when on" "hot+cp+cc1.0+lazy+tier16"
    (Config.to_string (tiered_config ()))

let config_validation () =
  Alcotest.check_raises "tier requires hotness"
    (Invalid_argument "Config: TIER requires HOTNESS to be enabled")
    (fun () -> ignore (Config.make ~tier_capacity_pages:4 ()));
  Alcotest.check_raises "capacity must be non-negative"
    (Invalid_argument "Config: TIER capacity must be non-negative")
    (fun () ->
      ignore (Config.make ~hotness:true ~tier_capacity_pages:(-1) ()));
  Alcotest.check_raises "lat_far must be positive"
    (Invalid_argument "Config: LATFAR must be positive") (fun () ->
      ignore (Config.make ~hotness:true ~tier_capacity_pages:4 ~lat_far:0 ()))

(* ------------------------------------------------------------------ *)
(* Determinism battery                                                 *)
(* ------------------------------------------------------------------ *)

let tiered_metrics ?(capacity = 16) ~shard_domains ~verify () =
  let exp = Fig_synthetic.experiment ~cold_ratio:4 ~shard_domains ~scale:50 () in
  let vm = exp.Runner.make_vm (tiered_config ~capacity ()) in
  if verify then Vm.enable_verification vm;
  exp.Runner.workload vm ~run:0;
  Vm.finish vm;
  Runner.metrics_to_string (Runner.collect vm)

(* Every capacity of the ftier sweep, the tier-off point 0 included. *)
let tiered_shard_counts_identical () =
  List.iter
    (fun capacity ->
      let reference =
        tiered_metrics ~capacity ~shard_domains:1 ~verify:false ()
      in
      List.iter
        (fun sd ->
          check Alcotest.string
            (Printf.sprintf "capacity %d: shard %d = shard 1" capacity sd)
            reference
            (tiered_metrics ~capacity ~shard_domains:sd ~verify:false ()))
        [ 2; 4 ])
    Fig_tier.default_capacities

let tiered_verified_equals_unverified () =
  check Alcotest.string "verified = unverified"
    (tiered_metrics ~shard_domains:0 ~verify:false ())
    (tiered_metrics ~shard_domains:0 ~verify:true ())

let render_sweep results =
  String.concat "\n"
    (List.concat_map
       (fun (fam, caps) ->
         List.concat_map
           (fun (cap, outcomes) ->
             Printf.sprintf "%s@%d" fam cap
             :: Array.to_list
                  (Array.map
                     (Hcsgc_store.Codec.to_string Fig_tier.codec)
                     outcomes))
           caps)
       results)

let tier_sweep_jobs_identical () =
  let sweep jobs = render_sweep (Fig_tier.sweep ~capacities:[ 8 ] ~runs:1 ~jobs ~scale:8 ()) in
  check Alcotest.string "-j4 sweep = -j1 sweep" (sweep 1) (sweep 4)

let tier_sweep_warm_store_identical () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let sweep () =
        render_sweep
          (Fig_tier.sweep ~capacities:[ 0; 8 ] ~runs:1 ~jobs:1 ~cache ~scale:8 ())
      in
      let cold = sweep () in
      let after_cold = Result_store.counters cache.Runner.store in
      check Alcotest.int "cold sweep computed everything" 8
        after_cold.Result_store.stored;
      let warm = sweep () in
      let after_warm = Result_store.counters cache.Runner.store in
      check Alcotest.string "warm replay byte-identical" cold warm;
      check Alcotest.int "warm sweep computed nothing" 8
        after_warm.Result_store.stored;
      check Alcotest.int "warm sweep all hits" 8
        (after_warm.Result_store.hits - after_cold.Result_store.hits))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let tiered_fuzz_clean_seeds_pass () =
  for seed = 1 to 3 do
    match
      Fuzz.check_seed
        ~config:(tiered_config ~capacity:8 ())
        ~slots:24 ~ops:1_000 ~seed ()
    with
    | None -> ()
    | Some cex ->
        Alcotest.failf "clean tiered seed %d failed:@.%a" seed
          Fuzz.pp_counterexample cex
  done

let corrupt_tier_detected () =
  (* Flip a page's tier bit behind the accounting mid-run: the sanitizer's
     far-sum round-trip must flag it at the next phase edge (forced right
     after the corruption), and the corruption must survive shrinking. *)
  match
    Fuzz.check_seed ~shrink_budget:200
      ~inject:[ (400, Fuzz.Corrupt_tier); (401, Fuzz.Force_gc) ]
      ~config:(tiered_config ~capacity:8 ())
      ~slots:16 ~ops:800 ~seed:11 ()
  with
  | None -> Alcotest.fail "tier corruption was not detected"
  | Some cex ->
      check Alcotest.bool "corruption survives shrinking" true
        (List.exists
           (function Fuzz.Corrupt_tier -> true | _ -> false)
           cex.Fuzz.actions);
      (match Fuzz.replay ~config:(tiered_config ~capacity:8 ()) cex with
      | Fuzz.Fail _ -> ()
      | Fuzz.Pass _ -> Alcotest.fail "minimal counterexample no longer fails")

let corrupt_tier_detected_without_tier () =
  (* A Far-flagged page in an untiered run is itself corruption: the
     checks run with no Tier attached too. *)
  match
    Fuzz.check_seed ~shrink_budget:100
      ~inject:[ (300, Fuzz.Corrupt_tier); (301, Fuzz.Force_gc) ]
      ~config:(Config.of_id 18) ~slots:16 ~ops:600 ~seed:3 ()
  with
  | None -> Alcotest.fail "untiered tier corruption was not detected"
  | Some _ -> ()

let suite =
  [
    ( "tier.model",
      [
        QCheck_alcotest.to_alcotest prop_tier_matches_model;
        case "illegal transitions rejected" `Quick
          tier_rejects_illegal_transitions;
        case "heap accounting matches reference" `Quick
          heap_accounting_matches_reference;
        case "freed pages cannot go far" `Quick heap_set_tier_far_rejects_freed;
        case "machine far latency and counter scoping" `Quick
          machine_far_latency_and_counters;
      ] );
    ( "tier.effect",
      [
        case "tiering demotes and serves far loads" `Quick tiering_is_effective;
        case "tiering off is inert" `Quick tiering_off_is_inert;
        case "config validation" `Quick config_validation;
      ] );
    ( "tier.determinism",
      [
        case "shard counts byte-identical" `Slow tiered_shard_counts_identical;
        case "verified = unverified" `Slow tiered_verified_equals_unverified;
        case "sweep -j4 = -j1" `Slow tier_sweep_jobs_identical;
        case "warm store replay byte-identical" `Slow
          tier_sweep_warm_store_identical;
        Payload_props.roundtrip
          ~name:"tier: outcome codec round-trips bit-exactly" Fig_tier.codec
          Payload_props.tier_outcome;
      ] );
    ( "tier.faults",
      [
        case "tiered fuzz seeds pass" `Slow tiered_fuzz_clean_seeds_pass;
        case "Corrupt_tier detected and shrunk" `Slow corrupt_tier_detected;
        case "Corrupt_tier detected without a tier" `Quick
          corrupt_tier_detected_without_tier;
      ] );
  ]
