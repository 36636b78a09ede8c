module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module H = Hcsgc_memsim.Hierarchy
module Pool = Hcsgc_exec.Pool
module Reporter = Hcsgc_exec.Reporter
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Scheduler = Hcsgc_store.Scheduler
module Codec = Hcsgc_store.Codec

type run_metrics = {
  wall : float;
  loads : float;
  l1_misses : float;
  llc_misses : float;
  mut_l1_misses : float;
  mut_llc_misses : float;
  far_loads : float;
  gc_cycle_count : int;
  ec_median : float;
  reloc_mut : int;
  reloc_gc : int;
  pages_demoted : int;
  pages_promoted : int;
  heap_samples : (int * int) list;
}

let collect vm =
  let c = Vm.counters vm in
  let mc = Vm.mutator_counters vm in
  let st = Vm.gc_stats vm in
  {
    wall = float_of_int (Vm.wall_cycles vm);
    loads = float_of_int c.H.loads;
    l1_misses = float_of_int c.H.l1_misses;
    llc_misses = float_of_int c.H.llc_misses;
    mut_l1_misses = float_of_int mc.H.l1_misses;
    mut_llc_misses = float_of_int mc.H.llc_misses;
    far_loads = float_of_int (Vm.far_loads vm);
    gc_cycle_count = Gc_stats.cycles st;
    ec_median = Gc_stats.median_small_pages_in_ec st;
    reloc_mut = Gc_stats.objects_relocated_by_mutator st;
    reloc_gc = Gc_stats.objects_relocated_by_gc st;
    pages_demoted = Gc_stats.pages_demoted st;
    pages_promoted = Gc_stats.pages_promoted st;
    heap_samples = Gc_stats.heap_samples st;
  }

type experiment = {
  name : string;
  key : string;
  make_vm : Config.t -> Vm.t;
  workload : Vm.t -> run:int -> unit;
}

let em_tag shard_domains = if shard_domains > 0 then ";em=1" else ""

type job = { exp : experiment; config_id : int; run : int }

let table2_ids = List.map fst Config.table2

let jobs_of ?(config_ids = table2_ids) ~runs exp =
  List.concat_map
    (fun id -> List.init runs (fun run -> { exp; config_id = id; run }))
    config_ids

(* ------------------------------------------------------------------ *)
(* Result-store integration: fingerprints, metrics codec, cache handle *)
(* ------------------------------------------------------------------ *)

(* Lossless knob rendering ([%h] floats), deliberately excluding the
   config {e id}: ids 0 and 1 are the same knob vector, so by content
   addressing they share one cache entry — which is exactly right, their
   metrics are bit-identical. *)
let config_value_key (c : Config.t) =
  Printf.sprintf "h=%b;cp=%b;cc=%h;ra=%b;lz=%b;tc=%d;lf=%d;tp=%b"
    c.Config.hotness c.Config.coldpage c.Config.cold_confidence
    c.Config.relocate_all_small_pages c.Config.lazy_relocate
    c.Config.tier_capacity_pages c.Config.lat_far c.Config.tier_promote

let config_key config_id = config_value_key (Config.of_id config_id)

let fingerprint ~verify job =
  Fingerprint.make ~experiment:job.exp.key ~config:(config_key job.config_id)
    ~run:job.run ~verify

(* Cost-model granularity: one key per (experiment, knob vector).  Run
   seeds barely move a job's duration, but configurations move it a lot
   (relocate-all vs baseline), so this is the level the scheduler can
   usefully distinguish. *)
let cost_key job = job.exp.key ^ "#" ^ config_key job.config_id

let metrics_codec =
  Codec.(
    record
      (fun wall loads l1_misses llc_misses mut_l1_misses mut_llc_misses
           far_loads gc_cycle_count ec_median reloc_mut reloc_gc pages_demoted
           pages_promoted heap_samples ->
        {
          wall; loads; l1_misses; llc_misses; mut_l1_misses; mut_llc_misses;
          far_loads; gc_cycle_count; ec_median; reloc_mut; reloc_gc;
          pages_demoted; pages_promoted; heap_samples;
        })
    |> lit "hcsgc-metrics 2" |> newline
    |> field float (fun m -> m.wall)
    |> field float (fun m -> m.loads)
    |> field float (fun m -> m.l1_misses)
    |> field float (fun m -> m.llc_misses)
    |> field float (fun m -> m.mut_l1_misses)
    |> field float (fun m -> m.mut_llc_misses)
    |> field float (fun m -> m.far_loads)
    |> field int (fun m -> m.gc_cycle_count)
    |> field float (fun m -> m.ec_median)
    |> field int (fun m -> m.reloc_mut)
    |> field int (fun m -> m.reloc_gc)
    |> field int (fun m -> m.pages_demoted)
    |> field int (fun m -> m.pages_promoted)
    |> newline
    |> field pairs (fun m -> m.heap_samples)
    |> newline |> seal)

let metrics_to_string = Codec.to_string metrics_codec
let metrics_of_string = Codec.of_string metrics_codec

type cache = { store : Result_store.t; refresh : bool }

let cache ?(refresh = false) ~dir () = { store = Result_store.open_ ~dir; refresh }

let default_cache_dir = "_hcsgc_cache"

(* ------------------------------------------------------------------ *)
(* The sweep engine                                                    *)
(* ------------------------------------------------------------------ *)

type ('job, 'out) spec = {
  fingerprint : 'job -> Fingerprint.t;
  cost_key : 'job -> string;
  compute : 'job -> 'out;
  codec : 'out Codec.t;
}

(* A cache lookup that only ever says yes with a fully decoded payload:
   an entry passing the store checksum but failing the decoder is counted
   invalid and treated as a miss, so it gets recomputed and overwritten
   rather than crashing the sweep. *)
let lookup c spec fp =
  if c.refresh then None
  else
    match Result_store.find c.store fp with
    | None -> None
    | Some payload -> (
        match Codec.of_string spec.codec payload with
        | Some _ as hit -> hit
        | None ->
            Result_store.note_invalid c.store;
            None)

let run_jobs ?(jobs = 1) ?cache ?(scheduling = `Cost) spec job_arr =
  let n = Array.length job_arr in
  let fps =
    match cache with
    | Some _ -> Array.map spec.fingerprint job_arr
    | None -> [||]
  in
  (* Resolve cache hits up front on the calling domain: hits cost
     milliseconds, and knowing the miss set lets the scheduler order real
     work only. *)
  let cached =
    match cache with
    | Some c -> Array.map (lookup c spec) fps
    | None -> Array.make n None
  in
  let hit_idx, miss_idx =
    List.init n Fun.id |> List.partition (fun i -> Option.is_some cached.(i))
  in
  let miss = Array.of_list miss_idx in
  let scheduled_misses =
    match (scheduling, cache) with
    | `Cost, Some c ->
        let estimate k =
          Result_store.estimate c.store
            ~cost_key:(spec.cost_key job_arr.(miss.(k)))
        in
        Array.map
          (fun k -> miss.(k))
          (Scheduler.order ~estimate (Array.length miss))
    | _ -> miss
  in
  (* Hits resolve instantly, so submitting them first never delays a
     worker; the computing jobs follow in scheduled order. *)
  let order = Array.append (Array.of_list hit_idx) scheduled_misses in
  let run_one i =
    match (cached.(i), cache) with
    | Some out, _ -> out
    | None, None -> spec.compute job_arr.(i)
    | None, Some c ->
        let job = job_arr.(i) in
        let t0 = Unix.gettimeofday () in
        let out = spec.compute job in
        Result_store.add c.store fps.(i)
          ~cost_key:(spec.cost_key job)
          ~cost:(Unix.gettimeofday () -. t0)
          (Codec.to_string spec.codec out);
        out
  in
  Pool.with_pool ~jobs (fun pool ->
      Pool.map_array_in_order pool ~order run_one (Array.init n Fun.id))

let config_spec ~key ~verify ~compute codec =
  {
    fingerprint =
      (fun (id, run) ->
        Fingerprint.make ~experiment:key ~config:(config_key id) ~run ~verify);
    cost_key = (fun (id, _) -> key ^ "#" ^ config_key id);
    compute;
    codec;
  }

let sweep ?jobs ?cache ?scheduling spec ~runs ~job groups =
  let outs =
    run_jobs ?jobs ?cache ?scheduling spec
      (Array.of_list (List.concat_map (fun g -> List.init runs (job g)) groups))
  in
  List.mapi (fun i g -> (g, Array.sub outs (i * runs) runs)) groups

(* ------------------------------------------------------------------ *)
(* Table 2 sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let execute_vm ?(attach = ignore) ~verify { exp; config_id; run } =
  let vm = exp.make_vm (Config.of_id config_id) in
  if verify then Vm.enable_verification vm;
  attach vm;
  exp.workload vm ~run;
  Vm.finish vm;
  collect vm

let job_spec ~verify =
  { fingerprint = fingerprint ~verify; cost_key; compute = execute_vm ~verify;
    codec = metrics_codec }

let execute ?(verify = false) ?cache job =
  (run_jobs ?cache (job_spec ~verify) [| job |]).(0)

let profile ?sample_interval ?(verify = false) ?cache job =
  let recorder = ref None in
  let attach vm = recorder := Some (Vm.enable_telemetry ?sample_interval vm) in
  (* A profiled run's metrics are bit-identical to an unprofiled one
     (telemetry charges no simulated cycles), so profiling may seed the
     store for later sweeps; the trace itself cannot come from the store,
     so the job always simulates. *)
  let m =
    (run_jobs
       ?cache:(Option.map (fun c -> { c with refresh = true }) cache)
       { (job_spec ~verify) with compute = execute_vm ~attach ~verify }
       [| job |]).(0)
  in
  (m, Option.get !recorder)

let run_configs ?config_ids ?(progress = fun _ -> ()) ?jobs ?(verify = false)
    ?cache ?scheduling ~runs exp =
  (* Progress lines go through a Reporter so concurrent workers cannot
     interleave them mid-line; each configuration that actually computes
     is announced once, by whichever of its jobs starts first (fully
     cached configurations stay silent). *)
  let reporter = Reporter.create ~emit:progress () in
  let announced =
    List.map (fun (id, _) -> (id, Atomic.make false)) Config.table2
  in
  let compute job =
    if Atomic.compare_and_set (List.assoc job.config_id announced) false true
    then
      Reporter.sayf reporter "%s: config %d (%s)" job.exp.name job.config_id
        (Config.to_string (Config.of_id job.config_id));
    execute_vm ~verify job
  in
  sweep ?jobs ?cache ?scheduling
    { (job_spec ~verify) with compute }
    ~runs
    ~job:(fun config_id run -> { exp; config_id; run })
    (Option.value config_ids ~default:table2_ids)
