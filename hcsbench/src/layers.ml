(* One pass of a workload: set up, run its simulated jobs cold through a
   fresh result store, replay them warm, and read every layer's public
   counters.  A traced pass also records a span around each call into a
   layer and stamps the collector's phase edges; it must produce exactly
   the simulated output of an untraced pass. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Collector = Hcsgc_core.Collector
module Gc_stats = Hcsgc_core.Gc_stats
module Gc_log = Hcsgc_core.Gc_log
module Hierarchy = Hcsgc_memsim.Hierarchy
module Tier = Hcsgc_memsim.Tier
module Result_store = Hcsgc_store.Result_store
module Fingerprint = Hcsgc_store.Fingerprint
module Recorder = Hcsgc_telemetry.Recorder
module Analyzer = Hcsgc_telemetry.Analyzer
module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo
module Arrival = Hcsgc_serve.Arrival
module Runner = Hcsgc_experiments.Runner
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fig_dacapo = Hcsgc_experiments.Fig_dacapo
module Fig_tier = Hcsgc_experiments.Fig_tier
module Fig_serve = Hcsgc_experiments.Fig_serve

type workload = Synthetic_sweep | Serve_tail | H2_hot

let workload_of_string = function
  | "synthetic-sweep" -> Some Synthetic_sweep
  | "serve-tail" -> Some Serve_tail
  | "h2-hot" -> Some H2_hot
  | _ -> None

type sizes = { synthetic_scale : int; h2_scale : int; serve_cycles : int }

let full = { synthetic_scale = 4; h2_scale = 2; serve_cycles = 400_000_000 }

(* Distinct workload seeds a run cycles through.  Simulated metrics are
   averaged over them, which keeps their spread across run seeds small;
   every later pass repeats one of them, so each run checks determinism. *)
let distinct_seeds = function
  | Synthetic_sweep -> 2
  | H2_hot -> 3
  | Serve_tail -> 9

let sub_seed w ~seed i =
  let k = distinct_seeds w in
  (seed * k) + (i mod k)

let slo = 5 * Slo.cycles_per_us
let serve_trigger = 0.10
let serve_heap = Fig_serve.scaled_heap ~scale:1
let serve_layout = Hcsgc_heap.Layout.scaled ~small_page:(64 * 1024)

type job =
  | Stored of Runner.job  (** cold through the store, replayed warm *)
  | Tier_point of Runner.experiment * Config.t * int
  | Serving of Serve.params  (** cold through the store, replayed warm *)

let jobs sizes w seed =
  match w with
  | Synthetic_sweep ->
      let exp = Fig_synthetic.experiment ~scale:sizes.synthetic_scale () in
      let tier =
        List.assoc "synthetic" (Fig_tier.families ~scale:sizes.synthetic_scale ())
      in
      let config =
        Fig_tier.tier_config ~capacity:64 ~lat_far:Fig_tier.default_lat_far
          ~promote:true
      in
      [
        Stored { Runner.exp; config_id = 0; run = seed };
        Stored { Runner.exp; config_id = 18; run = seed };
        Tier_point (tier, config, seed);
      ]
  | H2_hot ->
      let exp = Fig_dacapo.h2_experiment ~scale:sizes.h2_scale () in
      [ Stored { Runner.exp; config_id = 18; run = seed } ]
  | Serve_tail ->
      [ Serving { Serve.default with Serve.duration = sizes.serve_cycles; seed } ]

let job_name = function
  | Stored j -> Printf.sprintf "%s/config %d" j.Runner.exp.Runner.name j.config_id
  | Tier_point (e, _, _) -> e.Runner.name ^ "/ftier 64"
  | Serving _ -> "serve/config 18"

let now = Span.now

(* A "Vm...:" line of /proc/self/status, MiB: VmHWM is the peak resident
   set of this process, VmRSS the current one. *)
let status_mb key =
  let key = key ^ ":" in
  let n = String.length key in
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = key ->
        Scanf.sscanf (String.sub line n (String.length line - n)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* ------------------------------------------------------------------ *)
(* Per-VM observation                                                  *)
(* ------------------------------------------------------------------ *)

(* What the benchmark reads off one VM besides its public counters: STW
   pause lengths and GC cycle lengths (from a Gc_log sink, on VMs without
   a recorder) and, when tracing, host-time windows between phase edges. *)
type probe = {
  mutable pauses : int list;
  mutable cycle_lengths : int list;
  mutable cycle_start : int;
  mutable stw1_at : float;
  mutable stw3_at : float;
  mutable mark_window : float;
  mutable reloc_window : float;
  mutable cycle_window : float;
}

let new_probe () =
  {
    pauses = [];
    cycle_lengths = [];
    cycle_start = 0;
    stw1_at = 0.0;
    stw3_at = 0.0;
    mark_window = 0.0;
    reloc_window = 0.0;
    cycle_window = 0.0;
  }

let listen p = function
  | Gc_log.Pause { cost; _ } -> p.pauses <- cost :: p.pauses
  | Gc_log.Cycle_start { wall; _ } -> p.cycle_start <- wall
  | Gc_log.Cycle_end { wall; _ } ->
      p.cycle_lengths <- (wall - p.cycle_start) :: p.cycle_lengths
  | _ -> ()

let stamp p edge =
  let t = now () in
  match (edge : Collector.phase_edge) with
  | Stw1_done -> p.stw1_at <- t
  | Mark_done -> p.mark_window <- p.mark_window +. (t -. p.stw1_at)
  | Stw3_done -> p.stw3_at <- t
  | Cycle_done ->
      p.reloc_window <- p.reloc_window +. (t -. p.stw3_at);
      p.cycle_window <- p.cycle_window +. (t -. p.stw1_at)

let attach ~traced ~sink vm =
  let p = new_probe () in
  let c = Vm.collector vm in
  if sink then Collector.set_sink c (listen p);
  if traced then Collector.set_phase_hook c (Some (stamp p));
  p

(* ------------------------------------------------------------------ *)
(* Pass state                                                          *)
(* ------------------------------------------------------------------ *)

type state = {
  tr : Span.t option;
  cache : Runner.cache;
  counts : (string, float) Hashtbl.t;
  mutable make_vm_s : float;
  mutable wall : int;
  mutable pauses : int list;
  mutable cycle_lengths : int list list;  (** per batch job *)
  mutable serve_report : Slo.report option;
  mutable ec_medians : float list;
  mutable outputs : string list;  (** simulated output per job, newest first *)
  mutable replays : (job * string) list;  (** cold payloads to replay *)
}

let store st = st.cache.Runner.store

let add st name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt st.counts name) in
  Hashtbl.replace st.counts name (old +. v)

let addi st name v = add st name (float_of_int v)
let span st name f = Span.opt st.tr name f

(* Build a VM, charging its host time to set-up. *)
let timed_make st make =
  let t0 = now () in
  let vm = span st "runner.make_vm" make in
  st.make_vm_s <- st.make_vm_s +. (now () -. t0);
  vm

let observe st vm (p : probe) =
  let s = Vm.gc_stats vm in
  let c = Vm.counters vm and mc = Vm.mutator_counters vm in
  addi st "vm.ops" (Vm.ops vm);
  addi st "vm.mutator_cycles" (Vm.mutator_cycles vm);
  addi st "vm.gc_cycles" (Vm.gc_cycles vm);
  addi st "vm.stw_cycles" (Vm.stw_cycles vm);
  addi st "collector.cycles" (Gc_stats.cycles s);
  addi st "collector.stw_pauses" (Gc_stats.stw_pauses s);
  addi st "collector.objects_marked" (Gc_stats.objects_marked s);
  addi st "collector.relocated_by_gc" (Gc_stats.objects_relocated_by_gc s);
  addi st "collector.relocated_by_mutator"
    (Gc_stats.objects_relocated_by_mutator s);
  addi st "collector.pages_freed" (Gc_stats.pages_freed s);
  addi st "collector.hot_flags" (Gc_stats.hot_flags s);
  addi st "collector.barrier_fast" (Gc_stats.barrier_fast_paths s);
  addi st "collector.barrier_slow" (Gc_stats.barrier_slow_paths s);
  addi st "collector.bytes_relocated" (Gc_stats.bytes_relocated s);
  addi st "machine.loads" c.Hierarchy.loads;
  addi st "machine.l1_misses" c.Hierarchy.l1_misses;
  addi st "machine.l2_misses" c.Hierarchy.l2_misses;
  addi st "machine.llc_misses" c.Hierarchy.llc_misses;
  addi st "machine.prefetches" c.Hierarchy.prefetches;
  addi st "machine.mut_loads" mc.Hierarchy.loads;
  addi st "machine.mut_l1_misses" mc.Hierarchy.l1_misses;
  addi st "machine.mut_llc_misses" mc.Hierarchy.llc_misses;
  addi st "machine.gc_loads" (c.Hierarchy.loads - mc.Hierarchy.loads);
  addi st "machine.far_loads" (Vm.far_loads vm);
  addi st "tier.pages_demoted" (Gc_stats.pages_demoted s);
  addi st "tier.pages_promoted" (Gc_stats.pages_promoted s);
  (match Vm.tier vm with
  | Some t -> add st "tier.peak_kib" (float_of_int (Tier.peak_bytes t) /. 1024.0)
  | None -> ());
  add st "collector.mark_window_ms" (1000.0 *. p.mark_window);
  add st "collector.reloc_window_ms" (1000.0 *. p.reloc_window);
  add st "collector.cycle_window_ms" (1000.0 *. p.cycle_window);
  st.ec_medians <- Gc_stats.median_small_pages_in_ec s :: st.ec_medians;
  st.wall <- st.wall + Vm.wall_cycles vm;
  st.pauses <- p.pauses @ st.pauses;
  st.cycle_lengths <- p.cycle_lengths :: st.cycle_lengths

(* ------------------------------------------------------------------ *)
(* Cold jobs                                                           *)
(* ------------------------------------------------------------------ *)

let runner_cold st (job : Runner.job) =
  let traced = Option.is_some st.tr in
  let probe = ref None and made = ref None in
  let make_vm config =
    let vm = timed_make st (fun () -> job.exp.Runner.make_vm config) in
    probe := Some (attach ~traced ~sink:true vm);
    made := Some vm;
    vm
  in
  let job' = { job with Runner.exp = { job.exp with Runner.make_vm } } in
  let m =
    match st.tr with
    | None -> Runner.execute ~cache:st.cache job'
    | Some _ ->
        (* Runner.execute's cache path, one layer call at a time. *)
        let fp = span st "runner.fingerprint" (fun () ->
            Runner.fingerprint ~verify:false job) in
        ignore (span st "result_store.find" (fun () -> Result_store.find (store st) fp));
        let t0 = now () in
        let vm = make_vm (Config.of_id job.config_id) in
        span st "runner.workload" (fun () -> job.exp.Runner.workload vm ~run:job.run);
        span st "vm.finish" (fun () -> Vm.finish vm);
        let cost = now () -. t0 in
        let m = span st "runner.collect" (fun () -> Runner.collect vm) in
        let payload = span st "runner.encode" (fun () -> Runner.metrics_to_string m) in
        span st "result_store.add" (fun () ->
            Result_store.add (store st) fp ~cost_key:(Runner.cost_key job) ~cost
              payload);
        m
  in
  (match (!made, !probe) with
  | Some vm, Some p -> observe st vm p
  | _ -> failwith "the store served a job of a fresh store");
  let out = Runner.metrics_to_string m in
  st.outputs <- out :: st.outputs;
  st.replays <- (Stored job, out) :: st.replays

let tier_cold st (exp : Runner.experiment) config run =
  let vm = timed_make st (fun () -> exp.Runner.make_vm config) in
  let p = attach ~traced:(Option.is_some st.tr) ~sink:true vm in
  span st "runner.workload" (fun () -> exp.Runner.workload vm ~run);
  span st "vm.finish" (fun () -> Vm.finish vm);
  let m = span st "runner.collect" (fun () -> Runner.collect vm) in
  observe st vm p;
  st.outputs <- Runner.metrics_to_string m :: st.outputs

let serve_vm (p : Serve.params) =
  let vm =
    Vm.create ~layout:serve_layout
      ~machine_config:Hcsgc_experiments.Scaled_machine.config
      ~mutators:p.Serve.mutators ~trigger:serve_trigger
      ~config:(Config.of_id 18) ~max_heap:serve_heap ()
  in
  (vm, Vm.enable_telemetry vm)

let serve_fingerprint (p : Serve.params) =
  Fingerprint.make
    ~experiment:
      (Fig_serve.experiment_key ~heap:serve_heap ~params:p ~shard_domains:0 ~slo
         ())
    ~config:(Runner.config_key 18) ~run:p.Serve.seed ~verify:false

let percentile xs pct = if xs = [] then 0 else Analyzer.percentile xs ~pct

(* Every arrival of the timeline was served, in arrival order.  The
   timeline is regenerated the way [Serve.run] seeds it. *)
let served_every_arrival (p : Serve.params) (r : Serve.result) =
  let a =
    Arrival.create p.Serve.process ~rate:p.Serve.load ~duration:p.Serve.duration
      ~seed:(p.Serve.seed + 1)
  in
  let n = Array.length r.Serve.requests in
  let rec go i =
    match Arrival.next a with
    | None -> i = n
    | Some t -> i < n && r.Serve.requests.(i).Serve.arrival = t && go (i + 1)
  in
  n > 0 && go 0

let serve_cold st ledger (p : Serve.params) =
  let t0 = now () in
  let vm, recorder = timed_make st (fun () -> serve_vm p) in
  let probe = attach ~traced:(Option.is_some st.tr) ~sink:false vm in
  let r = span st "runner.workload" (fun () -> Serve.run vm p) in
  span st "vm.finish" (fun () -> Vm.finish vm);
  let cost = now () -. t0 in
  let report =
    span st "slo.analyze" (fun () ->
        Slo.analyze ~slo ~duration:p.Serve.duration
          ~pauses:(Analyzer.pause_intervals recorder) r)
  in
  let metrics = span st "runner.collect" (fun () -> Runner.collect vm) in
  let outcome =
    {
      Fig_serve.report;
      histogram = Slo.histogram r.Serve.requests;
      checksum = r.Serve.checksum;
      metrics;
    }
  in
  let payload = span st "runner.encode" (fun () -> Fig_serve.outcome_to_string outcome) in
  let fp = span st "runner.fingerprint" (fun () -> serve_fingerprint p) in
  span st "result_store.add" (fun () -> Result_store.add (store st) fp ~cost payload);
  Ledger.check ledger ~what:"serve-tail served every arrival"
    (served_every_arrival p r);
  observe st vm { probe with pauses = Analyzer.pause_durations recorder };
  let reqs = Array.to_list r.Serve.requests in
  let p999 f = percentile (List.map f reqs) 99.9 in
  addi st "serve.requests" report.Slo.requests;
  addi st "serve.wait_p999_cycles" (p999 (fun q -> q.Serve.wait));
  addi st "serve.service_p999_cycles" (p999 (fun q -> q.Serve.service));
  addi st "serve.stall_p999_cycles" (p999 (fun q -> q.Serve.stall));
  addi st "slo.pause_attributed" report.Slo.pause_attributed;
  addi st "slo.service_attributed" report.Slo.service_attributed;
  addi st "recorder.spans" (List.length (Recorder.spans recorder));
  addi st "recorder.samples" (List.length (Recorder.samples recorder));
  addi st "recorder.dropped"
    (Recorder.dropped_spans recorder + Recorder.dropped_samples recorder);
  st.serve_report <- Some report;
  st.outputs <- payload :: st.outputs;
  st.replays <- (Serving p, payload) :: st.replays

(* ------------------------------------------------------------------ *)
(* Warm replay                                                         *)
(* ------------------------------------------------------------------ *)

(* What the store serves for a job, with its re-encoding deferred so that
   it stays out of the replay's time; [None] on a miss. *)
let replay st = function
  | Stored job -> (
      let encode m () = Runner.metrics_to_string m in
      match st.tr with
      | None -> Some (encode (Runner.execute ~cache:st.cache job))
      | Some _ ->
          let fp = span st "runner.fingerprint" (fun () ->
              Runner.fingerprint ~verify:false job) in
          let found = span st "result_store.find" (fun () -> Result_store.find (store st) fp) in
          Option.bind found (fun payload ->
              span st "runner.decode" (fun () -> Runner.metrics_of_string payload))
          |> Option.map encode)
  | Serving p ->
      let fp = span st "runner.fingerprint" (fun () -> serve_fingerprint p) in
      let found = span st "result_store.find" (fun () -> Result_store.find (store st) fp) in
      Option.bind found (fun payload ->
          span st "runner.decode" (fun () -> Fig_serve.outcome_of_string payload))
      |> Option.map (fun o () -> Fig_serve.outcome_to_string o)
  | Tier_point _ -> None

(* ------------------------------------------------------------------ *)
(* A pass                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  job_s : float list;  (** each job's host time, VM creation excluded *)
  job_ref : float list;  (** the reference mix's time around each job *)
  replay_s : float;  (** warm replay of the stored jobs, mean *)
  pass_ref : float;  (** the reference mix's mean time in the pass *)
  alloc_words : float;  (** host words allocated while the jobs ran *)
  peak_mb : float;  (** the process's peak resident set after the jobs *)
  ops : float;
  sim_wall : float;
  sim_p50 : float;
  sim_p999 : float;
  sim_max_pause : float;
  sim_violation_ratio : float;
  layers : (string * float) list;  (** per-layer values, registry names *)
  digest : string;  (** every simulated output of the pass, byte-exact *)
}

let store_counts store =
  let c = Result_store.counters store in
  let i = float_of_int in
  [
    ("hits", i c.Result_store.hits);
    ("misses", i c.Result_store.misses);
    ("stored", i c.Result_store.stored);
    ("corrupt", i c.Result_store.corrupt);
    ("bytes_read", i c.Result_store.bytes_read);
    ("bytes_written", i c.Result_store.bytes_written);
  ]

let replay_batches = 10
let replay_batch = 10
let replay_gap = 0.05

(* Each job's host time, VM creation excluded, with the mean of the
   reference times taken just before and just after it; [None] if a job
   failed. *)
let run_jobs st ledger ~limit ~reference jobs =
  let run j =
    let t0 = now () and vm0 = st.make_vm_s in
    let f () =
      match j with
      | Stored job -> runner_cold st job
      | Tier_point (e, c, r) -> tier_cold st e c r
      | Serving p -> serve_cold st ledger p
    in
    Ledger.job ledger ~limit:(limit ()) ~what:(job_name j) f
    |> Option.map (fun () -> now () -. t0 -. (st.make_vm_s -. vm0))
  in
  List.fold_left
    (fun acc j ->
      Option.bind acc (fun (before, ts) ->
          Option.map
            (fun t ->
              let after = reference () in
              (after, (t, (before +. after) /. 2.0) :: ts))
            (run j)))
    (Some (reference (), []))
    jobs
  |> Option.map (fun (_, ts) -> List.rev ts)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [reference] times the host's reference mix (Calib); without it every
   reference time reads [Calib.nominal], so host times stay unscaled. *)
let run_pass ?(traced = false) ?(reference = fun () -> Calib.nominal) ~ledger
    ~limit ~dir ~sizes w ~seed () =
  let tr = if traced then Some (Span.create ()) else None in
  let cache = Runner.cache ~dir () in
  let jobs = jobs sizes w seed in
  let st =
    {
      tr;
      cache;
      counts = Hashtbl.create 64;
      make_vm_s = 0.0;
      wall = 0;
      pauses = [];
      cycle_lengths = [];
      serve_report = None;
      ec_medians = [];
      outputs = [];
      replays = [];
    }
  in
  (* The reference mix allocates too; what it allocates and the OCaml
     collections it sets off are kept out of the pass's counts. *)
  let ref_bytes = ref 0.0 and ref_minor = ref 0 and ref_major = ref 0
  and ref_promoted = ref 0.0 in
  let reference () =
    let g = Gc.quick_stat () and b = Gc.allocated_bytes () in
    let r = reference () in
    let g' = Gc.quick_stat () in
    ref_bytes := !ref_bytes +. (Gc.allocated_bytes () -. b);
    ref_minor := !ref_minor + (g'.Gc.minor_collections - g.Gc.minor_collections);
    ref_major := !ref_major + (g'.Gc.major_collections - g.Gc.major_collections);
    ref_promoted := !ref_promoted +. (g'.Gc.promoted_words -. g.Gc.promoted_words);
    r
  in
  let gc0 = Gc.quick_stat () in
  let a0 = Gc.allocated_bytes () in
  let timed_jobs = span st "pass" (fun () -> run_jobs st ledger ~limit ~reference jobs) in
  let alloc_words = (Gc.allocated_bytes () -. a0 -. !ref_bytes) /. 8.0 in
  let peak_mb = status_mb "VmHWM" in
  let gc1 = Gc.quick_stat () in
  match timed_jobs with
  | None -> None
  | Some timed_jobs ->
    let job_s = List.map fst timed_jobs and job_ref = List.map snd timed_jobs in
    (* A warm sweep is a later process opening the store again, so each
       replay opens its own handle and starts from a collected heap rather
       than amid the collection of earlier garbage.  A replay takes tens of
       microseconds to a millisecond, mostly in file-system calls for the
       batch workloads, and on a shared host those switch between a fast
       and a slow level every tenth of a second or so.  So the replays run
       in [replay_batches] batches, [replay_gap] seconds apart, each after
       a full collection (untimed), and the mean is kept: the batches see
       the two levels in about the proportion the host spends in each.
       The collections also keep the replays' garbage (each read leaves a
       64 KiB channel buffer until it is finalised) from raising the
       process's memory peak. *)
    let replay_once () =
      let t = now () in
      let cache = Runner.cache ~dir () in
      let st' = { st with cache } in
      let warm = List.rev_map (fun (j, cold) -> (j, cold, replay st' j)) st.replays in
      (now () -. t, warm, cache.Runner.store)
    in
    let equal = Array.make (List.length st.replays) true in
    let n = ref 0 and total = ref 0.0 and warm_handle = ref None in
    span st "replay" (fun () ->
        for b = 1 to replay_batches do
          if b > 1 then Unix.sleepf replay_gap;
          Gc.full_major ();
          for _ = 1 to replay_batch do
            let t, warm, handle = replay_once () in
            incr n;
            total := !total +. t;
            if !warm_handle = None then warm_handle := Some handle;
            List.iteri
              (fun i (_, cold, warm) ->
                if Option.map (fun encode -> encode ()) warm <> Some cold then
                  equal.(i) <- false)
              warm
          done
        done);
    let replay_s = !total /. float_of_int !n in
    List.iteri
      (fun i (j, _) ->
        Ledger.check ledger
          ~what:(job_name j ^ ": every warm replay equals the cold run")
          equal.(i))
      (List.rev st.replays);
    let cold_store = store_counts (store st) in
    let warm_store = store_counts (Option.get !warm_handle) in
    let warm_hits = List.assoc "hits" warm_store in
    let warm_lookups = warm_hits +. List.assoc "misses" warm_store in
    Ledger.check ledger ~what:"every warm lookup hits the store"
      (warm_hits = warm_lookups);
    let store_total =
      List.map2
        (fun (n, a) (_, b) -> ("result_store." ^ n, a +. b))
        cold_store warm_store
    in
    let ops = Hashtbl.find st.counts "vm.ops" in
    let sim_p50, sim_p999, sim_violation_ratio =
      match st.serve_report with
      | Some r ->
          ( float_of_int r.Slo.p50,
            float_of_int r.Slo.p999,
            float_of_int r.Slo.violations /. float_of_int r.Slo.requests )
      | None ->
          (* Jobs differ in how long their cycles run, so each job's
             percentile is taken on its own and the jobs averaged. *)
          let per_job pct =
            List.map (fun l -> float_of_int (percentile l pct)) st.cycle_lengths
            |> List.fold_left ( +. ) 0.0
            |> fun total -> total /. float_of_int (List.length st.cycle_lengths)
          in
          ( per_job 50.0,
            per_job 99.9,
            Hashtbl.find st.counts "vm.stw_cycles" /. float_of_int st.wall )
    in
    let get name = Option.value ~default:0.0 (Hashtbl.find_opt st.counts name) in
    let self name scale =
      match tr with Some t -> scale *. Span.self_total t name | None -> 0.0
    in
    let slow = get "collector.barrier_slow" and fast = get "collector.barrier_fast" in
    let derived =
      [
        ("runner.make_vm_s", self "runner.make_vm" 1.0);
        ("runner.workload_s", self "runner.workload" 1.0);
        ("runner.collect_s", self "runner.collect" 1.0);
        ("runner.fingerprint_us", self "runner.fingerprint" 1e6);
        ("runner.encode_us", self "runner.encode" 1e6);
        ("runner.decode_us", self "runner.decode" 1e6);
        ("vm.finish_s", self "vm.finish" 1.0);
        ( "collector.barrier_slow_ratio",
          if slow +. fast > 0.0 then slow /. (slow +. fast) else 0.0 );
        ("collector.ec_median_small_pages", median st.ec_medians);
        ("slo.analyze_s", self "slo.analyze" 1.0);
        ( "result_store.hit_ratio",
          if warm_lookups > 0.0 then warm_hits /. warm_lookups else 0.0 );
        ("result_store.find_ms", self "result_store.find" 1e3);
        ("result_store.add_ms", self "result_store.add" 1e3);
        ( "ocaml_gc.minor_collections",
          float_of_int
            (gc1.Gc.minor_collections - gc0.Gc.minor_collections - !ref_minor) );
        ( "ocaml_gc.major_collections",
          float_of_int
            (gc1.Gc.major_collections - gc0.Gc.major_collections - !ref_major) );
        ( "ocaml_gc.promoted_words",
          gc1.Gc.promoted_words -. gc0.Gc.promoted_words -. !ref_promoted );
      ]
    in
    let value name =
      match List.assoc_opt name derived with
      | Some v -> v
      | None -> (
          match List.assoc_opt name store_total with
          | Some v -> v
          | None -> get name)
    in
    let layers =
      List.filter_map
        (fun m ->
          if m.Registry.name = "trace.overhead_s" then None
          else Some (m.Registry.name, value m.Registry.name))
        Registry.per_layer
    in
    (* Host-time values and the OCaml GC's counts are left out: they are
       the only outputs tracing may change. *)
    let host_time name =
      List.exists
        (fun s -> Filename.check_suffix name s)
        [ "_s"; "_ms"; "_us" ]
      || String.length name > 9 && String.sub name 0 9 = "ocaml_gc."
    in
    let sim_values =
      [ float_of_int st.wall; sim_p50; sim_p999; sim_violation_ratio ]
      @ List.map float_of_int st.pauses
    in
    let digest =
      String.concat "\n"
        (List.rev st.outputs
        @ List.map (Printf.sprintf "%h") sim_values
        @ List.filter_map
            (fun (n, v) -> if host_time n then None else Some (Printf.sprintf "%s=%h" n v))
            layers)
    in
    Some
      {
        job_s;
        job_ref;
        replay_s;
        pass_ref = List.fold_left ( +. ) 0.0 job_ref /. float_of_int (List.length job_ref);
        alloc_words;
        peak_mb;
        ops;
        sim_wall = float_of_int st.wall;
        sim_p50;
        sim_p999;
        sim_max_pause = float_of_int (List.fold_left max 0 st.pauses);
        sim_violation_ratio;
        layers;
        digest;
      }

(* Set-up alone, as a pass does it: open a fresh store, build the jobs and
   create their VMs, without running them. *)
let setup_only ~dir ~sizes w ~seed =
  let t0 = now () in
  let _cache = Runner.cache ~dir () in
  List.iter
    (function
      | Stored j -> ignore (j.Runner.exp.Runner.make_vm (Config.of_id j.Runner.config_id))
      | Tier_point (e, c, _) -> ignore (e.Runner.make_vm c)
      | Serving p -> ignore (serve_vm p))
    (jobs sizes w seed);
  now () -. t0
