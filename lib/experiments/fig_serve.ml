module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo
module Arrival = Hcsgc_serve.Arrival
module Keydist = Hcsgc_workloads.Keydist
module Analyzer = Hcsgc_telemetry.Analyzer
module Reporter = Hcsgc_exec.Reporter
module Codec = Hcsgc_store.Codec
module Bootstrap = Hcsgc_stats.Bootstrap
module Render = Hcsgc_stats.Render

let layout = Layout.scaled ~small_page:(64 * 1024)

(* Tight enough that the default workload's update churn paces several GC
   cycles through the run (the live set is ~3 MiB), so the tail actually
   contains pause stalls. *)
let max_heap = 8 * 1024 * 1024
let trigger = 0.10

let default_configs = [ 0; 4; 16; 18 ]
let default_slo = 5 * Slo.cycles_per_us

type outcome = {
  report : Slo.report;
  histogram : int array;
  checksum : int;
  metrics : Runner.run_metrics;
}

(* ------------------------------------------------------------------ *)
(* Payload codec: what a job stores under its fingerprint.             *)
(* ------------------------------------------------------------------ *)

let codec =
  Codec.(
    record (fun report histogram checksum metrics ->
        { report; histogram; checksum; metrics })
    |> lit "hcsgc-serve-metrics 1" |> newline
    |> field Slo.codec (fun o -> o.report) |> newline
    |> field int_array (fun o -> o.histogram) |> newline
    |> field int (fun o -> o.checksum) |> newline
    |> field Runner.metrics_codec (fun o -> o.metrics)
    |> seal)

let outcome_to_string = Codec.to_string codec
let outcome_of_string = Codec.of_string codec

(* ------------------------------------------------------------------ *)
(* Content addressing                                                  *)
(* ------------------------------------------------------------------ *)

let experiment_key ?(heap = max_heap) ~params ~shard_domains ~slo () =
  Printf.sprintf "%s;slo=%d;heap=%d;trig=%h%s"
    (Serve.params_key { params with Serve.seed = 0 })
    slo heap trigger
    (Runner.em_tag shard_domains)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let compute ~heap ~verify ~shard_domains ~slo ~params (id, run) =
  let vm =
    Vm.create ~layout ~machine_config:Scaled_machine.config
      ~mutators:params.Serve.mutators ~shard_domains ~trigger
      ~config:(Config.of_id id) ~max_heap:heap ()
  in
  if verify then Vm.enable_verification vm;
  let recorder = Vm.enable_telemetry vm in
  let r = Serve.run vm { params with Serve.seed = run } in
  Vm.finish vm;
  let report =
    Slo.analyze ~slo ~duration:params.Serve.duration
      ~pauses:(Analyzer.pause_intervals recorder)
      r
  in
  {
    report;
    histogram = Slo.histogram r.Serve.requests;
    checksum = r.Serve.checksum;
    metrics = Runner.collect vm;
  }

let sweep ?(config_ids = default_configs) ?(runs = 3) ?jobs ?(verify = false)
    ?cache ?scheduling ?(shard_domains = 0) ?(slo = default_slo)
    ?(heap = max_heap) ?(progress = fun _ -> ()) ~params () =
  let key = experiment_key ~heap ~params ~shard_domains ~slo () in
  let reporter = Reporter.create ~emit:progress () in
  let compute ((id, run) as job) =
    if run = 0 then
      Reporter.sayf reporter "serve: config %d (%s)" id
        (Config.to_string (Config.of_id id));
    compute ~heap ~verify ~shard_domains ~slo ~params job
  in
  Runner.sweep ?jobs ?cache ?scheduling
    (Runner.config_spec ~key ~verify ~compute codec)
    ~runs ~job:(fun id run -> (id, run)) config_ids

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let scaled_params ~scale =
  let base = Serve.default in
  {
    base with
    Serve.keys = max 2_000 (base.Serve.keys / scale);
    duration = max 5_000_000 (base.Serve.duration / scale);
  }

(* The heap must shrink with the live set, or scaled-down runs never
   allocate past the GC trigger and the figure degenerates to a
   pause-free tail. 2 MiB floors the scaled live set comfortably. *)
let scaled_heap ~scale = max (2 * 1024 * 1024) (max_heap / scale)

let bootstrap_seed = 42

let figure ?(runs = 3) ?(scale = 1) ?jobs ?verify ?cache ?scheduling
    ?(shard_domains = 0) ?(config_ids = default_configs) ?(slo = default_slo)
    fmt =
  let params = scaled_params ~scale in
  let results =
    sweep ~config_ids ~runs ?jobs ?verify ?cache ?scheduling ~shard_domains ~slo
      ~heap:(scaled_heap ~scale)
      ~progress:(fun msg -> Format.eprintf "[bench] %s@." msg)
      ~params ()
  in
  (* Human renderings for the header; the lossless [%h] spellings in
     [Keydist.spec_key]/[Arrival.process_key] are for content addresses. *)
  let dist_label = match params.Serve.dist with
    | Keydist.Uniform -> "uniform"
    | Keydist.Hotset { hot_keys; hot_bias } ->
        Printf.sprintf "hotset(%d keys, %g%%)" hot_keys (100.0 *. hot_bias)
    | Keydist.Zipfian { theta } -> Printf.sprintf "zipf %g" theta
    | Keydist.Sequential { stride } -> Printf.sprintf "sequential(+%d)" stride
  in
  let process_label = match params.Serve.process with
    | Arrival.Constant -> "constant"
    | Arrival.Diurnal { trough } -> Printf.sprintf "diurnal(trough %g)" trough
    | Arrival.Bursty { period; burst; mult } ->
        Printf.sprintf "bursty(%gx for %d/%d)" mult burst period
  in
  Format.fprintf fmt "=== Serving tier — tail latency under hotness ===@.";
  Format.fprintf fmt
    "open-loop KV serving (%s keys, %s arrivals, %.0f req/Mc, %d shards); \
     SLO %dc (%.0fus); expectation: hotness configs shift mutator-side \
     relocation into the serving path — compare p99.9 and pause-attributed \
     violations against ZGC@.@."
    dist_label process_label
    params.Serve.load params.Serve.mutators slo
    (float_of_int slo /. float_of_int Slo.cycles_per_us);
  let p999s (os : outcome array) =
    Array.map (fun o -> float_of_int o.report.Slo.p999) os
  in
  let estimates =
    List.map
      (fun (id, os) ->
        (id, Bootstrap.estimate ~seed:bootstrap_seed (p999s os)))
      results
  in
  let base_est = List.assoc_opt (List.hd config_ids) estimates in
  let meani f (os : outcome array) =
    Array.fold_left (fun acc o -> acc +. float_of_int (f o)) 0.0 os
    /. float_of_int (Array.length os)
  in
  Render.table fmt
    ~headers:
      [ "cfg"; "knobs"; "p50"; "p99"; "p99.9 [95% CI]"; "max"; "viol";
        "pause/service"; "req/Mc" ]
    ~rows:
      (List.map
         (fun (id, os) ->
           let est = List.assoc id estimates in
           [
             string_of_int id;
             Config.to_string (Config.of_id id);
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.p50) os);
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.p99) os);
             Render.estimate_cell est;
             Printf.sprintf "%.0f" (meani (fun o -> o.report.Slo.max_latency) os);
             Printf.sprintf "%.1f" (meani (fun o -> o.report.Slo.violations) os);
             Printf.sprintf "%.1f/%.1f"
               (meani (fun o -> o.report.Slo.pause_attributed) os)
               (meani (fun o -> o.report.Slo.service_attributed) os);
             Printf.sprintf "%.1f"
               (Array.fold_left (fun acc o -> acc +. o.report.Slo.throughput)
                  0.0 os
               /. float_of_int (Array.length os));
           ])
         results);
  (match base_est with
  | None -> ()
  | Some base ->
      let significant =
        List.filter_map
          (fun (id, est) ->
            if id <> List.hd config_ids && not (Bootstrap.overlaps est base)
            then Some id
            else None)
          estimates
      in
      Format.fprintf fmt
        "significant p99.9 vs config %d (non-overlapping 95%% CIs): %s@.@."
        (List.hd config_ids)
        (if significant = [] then "none"
         else String.concat ", " (List.map string_of_int significant)))
