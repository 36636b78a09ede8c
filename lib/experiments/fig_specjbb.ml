module Vm = Hcsgc_runtime.Vm
module Layout = Hcsgc_heap.Layout
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Specjbb = Hcsgc_workloads.Specjbb_sim
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render
module Codec = Hcsgc_store.Codec
module Reporter = Hcsgc_exec.Reporter

let layout = Layout.scaled ~small_page:(64 * 1024)

let max_heap = 24 * 1024 * 1024

let experiment_params ~scale =
  let base = Specjbb.default in
  {
    base with
    Specjbb.warehouses = max 2 (base.Specjbb.warehouses / scale);
    items_per_warehouse = max 200 (base.Specjbb.items_per_warehouse / scale);
    txns_per_step = max 100 (base.Specjbb.txns_per_step / scale);
  }

(* What a job stores: the workload's scores, then its run metrics (the
   heap samples feed the usage series). *)
let codec =
  Codec.(
    record (fun max_jops critical_jops mean_latency survival_rate metrics ->
        ( { Specjbb.max_jops; critical_jops; mean_latency; survival_rate },
          metrics ))
    |> lit "hcsgc-specjbb-metrics 1" |> newline
    |> field float (fun (r, _) -> r.Specjbb.max_jops)
    |> field float (fun (r, _) -> r.Specjbb.critical_jops)
    |> field float (fun (r, _) -> r.Specjbb.mean_latency)
    |> field float (fun (r, _) -> r.Specjbb.survival_rate)
    |> newline
    |> field Runner.metrics_codec snd
    |> seal)

let experiment_key ~params ~shard_domains =
  let p = params in
  Printf.sprintf
    "specjbb;wh=%d;items=%d;handlers=%d;steps=%d;txns=%d;ia=%d;lines=%d;\
     sla=%h;heap=%d%s"
    p.Specjbb.warehouses p.Specjbb.items_per_warehouse p.Specjbb.handlers
    p.Specjbb.ramp_steps p.Specjbb.txns_per_step p.Specjbb.base_interarrival
    p.Specjbb.lines_per_txn p.Specjbb.sla_factor max_heap
    (Runner.em_tag shard_domains)

let fig13 ?(runs = 3) ?(scale = 1) ?jobs ?(shard_domains = 0) ?cache
    ?scheduling fmt =
  let params = experiment_params ~scale in
  Format.fprintf fmt "=== Fig. 13 — SPECjbb2015 (simulated composite) ===@.";
  Format.fprintf fmt
    "paper: overlapping CIs — no conclusive effect (survival ~1%%); heap \
     usage grows as the injector ramps@.@.";
  let key = experiment_key ~params ~shard_domains in
  let reporter = Reporter.create () in
  let compute (id, run) =
    if run = 0 then Reporter.sayf reporter "[bench] specjbb: config %d" id;
    let vm =
      Vm.create ~layout ~machine_config:Scaled_machine.config
        ~mutators:params.Specjbb.handlers ~shard_domains
        ~config:(Config.of_id id) ~max_heap ()
    in
    let r = Specjbb.run vm { params with Specjbb.seed = run } in
    Vm.finish vm;
    (r, Runner.collect vm)
  in
  let per_config =
    Runner.sweep ?jobs ?cache ?scheduling
      (Runner.config_spec ~key ~verify:false ~compute codec)
      ~runs ~job:(fun id run -> (id, run))
      (List.map fst Config.table2)
  in
  let seed = 42 in
  let estimate f samples = Bootstrap.estimate ~seed (Array.map f samples) in
  let base = List.assoc 0 per_config in
  let base_tp = estimate (fun (r, _) -> r.Specjbb.max_jops) base in
  let base_lat = estimate (fun (r, _) -> r.Specjbb.critical_jops) base in
  Render.table fmt
    ~headers:
      [ "cfg"; "throughput (max-jOPS) [CI]"; "latency (critical-jOPS) [CI]";
        "overlap vs ZGC?"; "survival" ]
    ~rows:
      (List.map
         (fun (id, samples) ->
           let tp = estimate (fun (r, _) -> r.Specjbb.max_jops) samples in
           let lat = estimate (fun (r, _) -> r.Specjbb.critical_jops) samples in
           let surv =
             Array.fold_left (fun acc (r, _) -> acc +. r.Specjbb.survival_rate)
               0.0 samples
             /. float_of_int (Array.length samples)
           in
           [
             string_of_int id;
             Render.estimate_cell tp;
             Render.estimate_cell lat;
             (if Bootstrap.overlaps tp base_tp && Bootstrap.overlaps lat base_lat
              then "yes (inconclusive)"
              else "no");
             Printf.sprintf "%.1f%%" (100.0 *. surv);
           ])
         per_config);
  Format.pp_print_newline fmt ();
  (* Heap usage over time, config 0, first run (Fig. 13 rightmost). *)
  if Array.length base > 0 then
    Report.heap_usage_series fmt ~max_heap (snd base.(0)).Runner.heap_samples;
  Format.pp_print_newline fmt ()
