(* The benchmark's metric and workload registry: the single list of names,
   units and bounds that BENCHMARK.json repeats (the test suite checks the
   two agree) and that every result line is rendered against. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e ?(better = Lower) name unit_ bound =
  { name; unit_; better; bound = Some bound }

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let workloads =
  [
    ( "synthetic-sweep",
      "Fig. 4 synthetic under ZGC and hot+cp+ra+lazy plus one 64-page ftier \
       point: GC-thread marking and copying, store writes and reads, far tier" );
    ( "serve-tail",
      "open-loop zipf KV serving under hot+cp+ra+lazy with the recorder: \
       barrier fast paths, per-core caches, pause-driven tail latency" );
    ( "h2-hot",
      "DaCapo h2 stand-in under hot+cp+ra+lazy: relocation mostly from the \
       mutator barrier slow path, with long-lived rows and a hot-key mix" );
  ]

let end_to_end =
  [
    e2e "setup_s" "s" 0.25;
    e2e "run_s" "s" 0.25;
    e2e ~better:Higher "sim_ops_per_s" "ops/s" 0.25;
    e2e "warm_replay_s" "s" 0.25;
    e2e "alloc_words_per_op" "words" 0.1;
    e2e "host_peak_mb" "MiB" 0.1;
    e2e "sim_wall_cycles" "cycles" 0.1;
    e2e "sim_p50_cycles" "cycles" 0.1;
    e2e "sim_p999_cycles" "cycles" 0.1;
    e2e "sim_max_pause_cycles" "cycles" 0.05;
    e2e "sim_slo_violation_ratio" "ratio" 0.25;
  ]

let per_layer =
  [
    layer "runner.make_vm_s" "s";
    layer "runner.workload_s" "s";
    layer "runner.collect_s" "s";
    layer "runner.fingerprint_us" "us";
    layer "runner.encode_us" "us";
    layer "runner.decode_us" "us";
    layer ~better:Higher "vm.ops" "count";
    layer "vm.mutator_cycles" "cycles";
    layer "vm.gc_cycles" "cycles";
    layer "vm.stw_cycles" "cycles";
    layer "vm.finish_s" "s";
    layer "collector.cycles" "count";
    layer "collector.stw_pauses" "count";
    layer "collector.objects_marked" "count";
    layer "collector.relocated_by_gc" "count";
    layer "collector.relocated_by_mutator" "count";
    layer "collector.pages_freed" "count";
    layer "collector.hot_flags" "count";
    layer "collector.barrier_fast" "count";
    layer "collector.barrier_slow" "count";
    layer "collector.barrier_slow_ratio" "ratio";
    layer "collector.ec_median_small_pages" "pages";
    layer "collector.bytes_relocated" "bytes";
    layer "collector.mark_window_ms" "ms";
    layer "collector.reloc_window_ms" "ms";
    layer "collector.cycle_window_ms" "ms";
    layer "machine.loads" "count";
    layer "machine.l1_misses" "count";
    layer "machine.l2_misses" "count";
    layer "machine.llc_misses" "count";
    layer "machine.prefetches" "count";
    layer "machine.mut_loads" "count";
    layer "machine.mut_l1_misses" "count";
    layer "machine.mut_llc_misses" "count";
    layer "machine.gc_loads" "count";
    layer "machine.far_loads" "count";
    layer "tier.pages_demoted" "count";
    layer "tier.pages_promoted" "count";
    layer "tier.peak_kib" "KiB";
    layer ~better:Higher "serve.requests" "count";
    layer "serve.wait_p999_cycles" "cycles";
    layer "serve.service_p999_cycles" "cycles";
    layer "serve.stall_p999_cycles" "cycles";
    layer "slo.pause_attributed" "count";
    layer "slo.service_attributed" "count";
    layer "slo.analyze_s" "s";
    layer "recorder.spans" "count";
    layer "recorder.samples" "count";
    layer "recorder.dropped" "count";
    layer ~better:Higher "result_store.hits" "count";
    layer "result_store.misses" "count";
    layer "result_store.stored" "count";
    layer "result_store.corrupt" "count";
    layer ~better:Higher "result_store.hit_ratio" "ratio";
    layer "result_store.find_ms" "ms";
    layer "result_store.add_ms" "ms";
    layer "result_store.bytes_read" "bytes";
    layer "result_store.bytes_written" "bytes";
    layer "ocaml_gc.minor_collections" "count";
    layer "ocaml_gc.major_collections" "count";
    layer "ocaml_gc.promoted_words" "words";
    layer "trace.overhead_s" "s";
  ]

let metrics ~trace = if trace then per_layer else end_to_end

let better_string = function Lower -> "lower" | Higher -> "higher"

(* The metric's entry exactly as BENCHMARK.json spells it. *)
let to_json m =
  match m.bound with
  | Some b ->
      Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s", "bound": %g}|}
        m.name m.unit_ (better_string m.better) b
  | None ->
      Printf.sprintf {|{"name": "%s", "unit": "%s", "better": "%s"}|} m.name
        m.unit_ (better_string m.better)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The result line.  [values] must name every metric of the mode exactly
   once, in registry order, with a finite value. *)
let render ~trace ~correct ~attempted ~failed values =
  let ms = metrics ~trace in
  if List.map fst values <> List.map (fun m -> m.name) ms then
    invalid_arg "Registry.render: metric names differ from the registry";
  List.iter
    (fun (n, v) ->
      if not (Float.is_finite v) then
        invalid_arg ("Registry.render: non-finite value for " ^ n))
    values;
  let body =
    List.map2
      (fun m (_, v) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (number v)
          m.unit_)
      ms values
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " body)
