module Heap = Hcsgc_heap.Heap
module Heap_obj = Hcsgc_heap.Heap_obj
module Page = Hcsgc_heap.Page
module Layout = Hcsgc_heap.Layout
module Recorder = Hcsgc_telemetry.Recorder
module Machine = Hcsgc_memsim.Machine
module Collector = Hcsgc_core.Collector
module Config = Hcsgc_core.Config
module Invariants = Hcsgc_verify.Invariants
module Gc_stats = Hcsgc_core.Gc_stats
module Cost = Hcsgc_core.Cost
module Vec = Hcsgc_util.Vec
module Pool = Hcsgc_exec.Pool

(* How much mutator cost accumulates between GC pump runs. *)
let pump_quantum = 4096

(* Sharded (epoch) execution, [shard_domains > 0]:

   Logical mutator operations still run sequentially on the calling
   domain — heap mutation order, barrier decisions and GC scheduling are
   exactly as authored.  What is deferred is the memory-hierarchy
   simulation: each mutator core's accesses accumulate in a per-shard log
   inside the Machine, and at an epoch barrier the logs are replayed
   against the shards' private L1/L2/TLB/prefetcher state — fanned across
   up to [shard_domains] worker domains — after which each shard's
   LLC-bound traffic is merged into the shared LLC in fixed order:
   mutator id first, program order (simulated time) within a mutator.
   The resolved latencies then land on the mutators' clocks and in the GC
   pacing credit.  Results are a pure function of the logged traffic, so
   any [shard_domains >= 1] produces byte-identical output; the worker
   count only changes wall-clock time.

   Epoch barriers sit at every GC pump (so collector phases always see
   fully-merged mutator traffic, and the GC core's own inline LLC traffic
   is ordered after the epoch's mutator traffic) and at every clock or
   counter read (so observed values are exact).

   [shard_domains = 0] (the default) is the classic inline interleave —
   per-access latencies feed the clocks immediately.  The two execution
   models honestly differ (deferral changes when latency reaches the pump),
   which is why the flag default changes nothing and experiments tag their
   content-address keys with the execution model, never the shard count. *)

type t = {
  machine : Machine.t;
  heap : Heap.t;
  collector : Collector.t;
  saturated : bool;
  gc_share : float;
  trigger : float;
  mutators : int;
  roots : Heap_obj.t Vec.t;
  locals : Heap_obj.t Vec.t;
  mut_clock : int array;  (* per-mutator simulated cycles *)
  mutable gc_cycles_ : int;
  mutable stw_cycles_ : int;
  (* Last-seen snapshots of the collector's cumulative work counters
     ([Collector.total_gc_work]/[total_stw_work]).  Absorption charges the
     delta since the previous snapshot — the collector no longer returns
     per-call work records, so driving it allocates nothing on the host. *)
  mutable seen_gc : int;
  mutable seen_stw : int;
  mutable credit : int;  (* mutator cycles since the last GC pump *)
  mutable op_count : int;
  (* Feedback loop (§4.8): observe the mutator miss rate once per GC cycle
     and retune COLDCONFIDENCE. *)
  tuner : Hcsgc_core.Autotuner.t option;
  mutable tuner_cycle : int;
  mutable tuner_loads : int;
  mutable tuner_misses : int;
  (* Epoch sharding (see the note above [create]'s implementation). *)
  shard_domains : int;
  mutable pool : Pool.t option;  (* lazy; shut down in [finish] *)
  recorder : Hcsgc_core.Gc_log.recorder option;
  (* Telemetry (hcsgc.telemetry): off unless enable_telemetry installed a
     recorder.  Recording charges no simulated cycles, so instrumented and
     plain runs have identical clocks. *)
  mutable telemetry : Recorder.t option;
  mutable trace_sample : int;  (* wall cycles between counter samples *)
  mutable next_sample : int;
}

let mutator_core = 0

(* HCSGC_VERIFY=1 turns every VM into a verified VM — the CI lever that
   reruns the whole test suite under the heap sanitizer. *)
let env_verify () =
  match Sys.getenv_opt "HCSGC_VERIFY" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let create ?layout ?machine_config ?(saturated = false) ?(gc_share = 1.0)
    ?(trigger = 0.25) ?(autotune = false) ?(gc_log = false) ?(mutators = 1)
    ?(shard_domains = 0) ?verify ~config ~max_heap () =
  if autotune && not config.Config.hotness then
    invalid_arg "Vm.create: autotuning requires a HOTNESS-enabled config";
  if mutators < 1 then invalid_arg "Vm.create: need at least one mutator";
  if saturated && mutators > 1 then
    invalid_arg "Vm.create: saturated mode models a single mutator core";
  if shard_domains < 0 then
    invalid_arg "Vm.create: shard_domains must be non-negative";
  if saturated && shard_domains > 0 then
    invalid_arg "Vm.create: sharded execution is incompatible with saturated mode";
  let recorder =
    if gc_log then Some (Hcsgc_core.Gc_log.recorder ()) else None
  in
  let cores = if saturated then 1 else mutators + 1 in
  let machine =
    match machine_config with
    | Some cfg -> Machine.create ~cfg ~cores ()
    | None -> Machine.create ~cores ()
  in
  (* Every mutator core is a shard; the GC core stays inline so collector
     phases interact with the merged LLC directly at epoch barriers. *)
  if shard_domains > 0 then Machine.attach_shards machine mutators;
  let heap =
    match layout with
    | Some layout -> Heap.create ~layout ~max_bytes:max_heap ()
    | None -> Heap.create ~max_bytes:max_heap ()
  in
  (* Far-memory tier: one shared object, consulted by the machine on the
     LLC-miss path and mutated by the collector (demote/promote/free). *)
  let tier =
    if config.Config.tier_capacity_pages > 0 then
      Some
        (Hcsgc_memsim.Tier.create
           ~granule_bytes:(Layout.granule (Heap.layout heap))
           ~capacity_bytes:
             (config.Config.tier_capacity_pages
             * (Heap.layout heap).Layout.small_page)
           ~lat_far:config.Config.lat_far ())
    else None
  in
  Machine.set_tier machine tier;
  let roots = Vec.create () in
  let locals = Vec.create () in
  (* Root iterator: named roots first, then local frames — the same stable
     order the old list-building callback produced, without the per-pause
     list construction. *)
  let root_fn f =
    Vec.iter f roots;
    Vec.iter f locals
  in
  let collector =
    let sink =
      Option.map Hcsgc_core.Gc_log.sink_of_recorder recorder
    in
    Collector.create ?sink ?tier ~heap ~machine ~config
      ~gc_core:(if saturated then 0 else mutators)
      ~roots:root_fn ()
  in
  (if (match verify with Some v -> v | None -> env_verify ()) then
     Invariants.install collector);
  {
    machine;
    heap;
    collector;
    saturated;
    gc_share;
    trigger;
    mutators;
    roots;
    locals;
    mut_clock = Array.make mutators 0;
    gc_cycles_ = 0;
    stw_cycles_ = 0;
    seen_gc = 0;
    seen_stw = 0;
    credit = 0;
    op_count = 0;
    shard_domains;
    pool = None;
    tuner =
      (if autotune then
         Some (Hcsgc_core.Autotuner.create ~initial:config.Config.cold_confidence ())
       else None);
    tuner_cycle = 0;
    tuner_loads = 0;
    tuner_misses = 0;
    recorder;
    telemetry = None;
    trace_sample = 0;
    next_sample = 0;
  }

let check_m t m =
  if m < 0 || m >= t.mutators then invalid_arg "Vm: mutator index out of range"

(* Wall time follows the slowest mutator thread; pauses (and, on a
   saturated core, GC work) are serial additions. *)
let mutator_cycles_max t = Array.fold_left max 0 t.mut_clock

(* The epoch barrier.  Replay fans over worker domains (task 0 runs here);
   the merge is strictly sequential in mutator-id order, so the shared-LLC
   evolution — and with it every counter and latency — is independent of
   the worker count.  Latencies reach both the owning mutator's clock and
   the GC pacing credit, exactly where inline simulation would have put
   them.  A no-op when nothing is logged, so it is safe (and cheap) to call
   from every observation point. *)
let flush_epoch t =
  if t.shard_domains > 0 && Machine.shards_dirty t.machine then begin
    (if t.shard_domains > 1 && t.mutators > 1 then begin
       let pool =
         match t.pool with
         | Some p -> p
         | None ->
             let p = Pool.create ~jobs:(min t.shard_domains t.mutators) in
             t.pool <- Some p;
             p
       in
       Pool.fork_join pool ~n:t.mutators (fun i ->
           Machine.replay_shard t.machine ~shard:i)
     end
     else
       for i = 0 to t.mutators - 1 do
         Machine.replay_shard t.machine ~shard:i
       done);
    for m = 0 to t.mutators - 1 do
      let lat = Machine.merge_shard t.machine ~shard:m in
      t.mut_clock.(m) <- t.mut_clock.(m) + lat;
      t.credit <- t.credit + lat
    done
  end

let wall_cycles t =
  flush_epoch t;
  mutator_cycles_max t + t.stw_cycles_ + if t.saturated then t.gc_cycles_ else 0

(* Route the collector work performed since the last absorption: normally
   concurrent work accrues to the GC clock and pauses to the STW clock... *)
let absorb_work t =
  let gc = Collector.total_gc_work t.collector in
  let stw = Collector.total_stw_work t.collector in
  t.gc_cycles_ <- t.gc_cycles_ + (gc - t.seen_gc);
  t.stw_cycles_ <- t.stw_cycles_ + (stw - t.seen_stw);
  t.seen_gc <- gc;
  t.seen_stw <- stw

(* ... but work done while a mutator is blocked on an allocation stall (or
   an explicit full GC) hits wall time wholesale: both deltas land on the
   STW clock, as with ZGC's allocation stalls. *)
let absorb_as_stall t =
  let gc = Collector.total_gc_work t.collector in
  let stw = Collector.total_stw_work t.collector in
  t.stw_cycles_ <- t.stw_cycles_ + (gc - t.seen_gc) + (stw - t.seen_stw);
  t.seen_gc <- gc;
  t.seen_stw <- stw

(* The §4.8 feedback loop: at each new GC cycle, feed the epoch's mutator
   miss rate to the tuner and apply its COLDCONFIDENCE. *)
let autotune_step t =
  match t.tuner with
  | None -> ()
  | Some tuner ->
      let cycles = Gc_stats.cycles (Collector.stats t.collector) in
      if cycles > t.tuner_cycle then begin
        t.tuner_cycle <- cycles;
        let c = Machine.core_counters t.machine ~core:mutator_core in
        let module H = Hcsgc_memsim.Hierarchy in
        let loads = c.H.loads - t.tuner_loads in
        let misses = c.H.l1_misses - t.tuner_misses in
        t.tuner_loads <- c.H.loads;
        t.tuner_misses <- c.H.l1_misses;
        if loads > 256 then begin
          Hcsgc_core.Autotuner.observe tuner
            ~miss_rate:(float_of_int misses /. float_of_int loads);
          Collector.set_cold_confidence t.collector
            (Hcsgc_core.Autotuner.cold_confidence tuner)
        end
      end

(* Telemetry counter sample: a snapshot of machine counters, heap usage and
   GC attribution at the current wall clock.  Reads only — never charges
   simulated cycles, never touches the cache simulator. *)
let take_sample t =
  match t.telemetry with
  | None -> ()
  | Some r ->
      let module H = Hcsgc_memsim.Hierarchy in
      (* Flush before reading any counter: record fields evaluate in
         unspecified order, and [far_loads] must see the merged epoch. *)
      let wall = wall_cycles t in
      let c = Machine.counters t.machine in
      let st = Collector.stats t.collector in
      Recorder.sample r
        {
          Recorder.wall;
          heap_used = Heap.used_bytes t.heap;
          hot_bytes = Heap.hot_bytes t.heap;
          loads = c.H.loads;
          stores = c.H.stores;
          l1_misses = c.H.l1_misses;
          l2_misses = c.H.l2_misses;
          llc_misses = c.H.llc_misses;
          barrier_fast = Gc_stats.barrier_fast_paths st;
          barrier_slow = Gc_stats.barrier_slow_paths st;
          reloc_mutator = Gc_stats.objects_relocated_by_mutator st;
          reloc_gc = Gc_stats.objects_relocated_by_gc st;
          reloc_bytes = Gc_stats.bytes_relocated st;
          far_loads = Machine.far_loads t.machine;
        }

let maybe_sample t =
  match t.telemetry with
  | None -> ()
  | Some _ ->
      if wall_cycles t >= t.next_sample then begin
        t.next_sample <- wall_cycles t + t.trace_sample;
        take_sample t
      end

(* Give GC threads CPU time proportional to the mutator cycles elapsed. *)
let pump t =
  (* Epoch barrier first: deferred latencies join the credit before the
     budget is computed, and collector phases see fully-merged traffic. *)
  flush_epoch t;
  let budget = int_of_float (float_of_int t.credit *. t.gc_share) in
  t.credit <- 0;
  Collector.set_wall_hint t.collector (wall_cycles t);
  if Collector.needs_cycle t.collector ~trigger:t.trigger then
    Collector.start_cycle t.collector;
  if Collector.in_cycle t.collector then
    Collector.gc_work t.collector ~budget;
  absorb_work t;
  autotune_step t;
  maybe_sample t

let charge ?(m = 0) t cost =
  t.mut_clock.(m) <- t.mut_clock.(m) + cost + Cost.op_base;
  t.credit <- t.credit + cost + Cost.op_base;
  t.op_count <- t.op_count + 1;
  if t.credit >= pump_quantum then pump t

let safepoint t =
  Collector.set_wall_hint t.collector (wall_cycles t);
  pump t

(* Allocation stall: the mutator blocks until the collector frees enough
   memory for the allocation to succeed.  GC work done while the mutator is
   blocked hits wall time (charged through the stw channel), but only as
   much of it as the stall actually needs — the mutator resumes as soon as a
   page is available, as with ZGC's allocation stalls. *)
let stall_chunk = 100_000

let alloc ?(m = 0) t ~nrefs ~nwords =
  check_m t m;
  let try_alloc () = Collector.alloc t.collector ~core:m ~nrefs ~nwords in
  match try_alloc () with
  | Some (obj, cost) ->
      charge ~m t cost;
      obj
  | None ->
      let rec stall_loop started_extra_cycle =
        Collector.set_wall_hint t.collector (wall_cycles t);
        if
          Collector.in_cycle t.collector
          || Collector.pending_relocation_pages t.collector > 0
        then begin
          if not (Collector.in_cycle t.collector) then begin
            (* Pending lazy relocation while idle: start the next cycle so
               its leading RE pass can release the floating garbage. *)
            Collector.start_cycle t.collector;
            absorb_as_stall t
          end;
          Collector.gc_work t.collector ~budget:stall_chunk;
          absorb_as_stall t;
          match try_alloc () with
          | Some (obj, cost) ->
              charge ~m t cost;
              obj
          | None -> stall_loop started_extra_cycle
        end
        else if not started_extra_cycle then begin
          (* Idle with nothing pending: one full extra cycle is the last
             resort before declaring the heap exhausted. *)
          Collector.start_cycle t.collector;
          absorb_as_stall t;
          stall_loop true
        end
        else raise Collector.Out_of_memory
      in
      stall_loop false

let load_ref ?(m = 0) t obj slot =
  check_m t m;
  let target = Collector.load_ref t.collector ~core:m obj ~slot in
  charge ~m t (Collector.last_cost t.collector);
  target

let store_ref ?(m = 0) t obj slot target =
  check_m t m;
  let cost = Collector.store_ref t.collector ~core:m obj ~slot target in
  charge ~m t cost

let layout t = Heap.layout t.heap

let load_word ?(m = 0) t obj i =
  check_m t m;
  let cost = Collector.use_handle t.collector ~core:m obj in
  let addr = Heap_obj.payload_addr ~layout:(layout t) obj i in
  let cost = cost + Machine.load t.machine ~core:m addr in
  charge ~m t cost;
  Heap_obj.get_word obj i

let store_word ?(m = 0) t obj i v =
  check_m t m;
  let cost = Collector.use_handle t.collector ~core:m obj in
  let addr = Heap_obj.payload_addr ~layout:(layout t) obj i in
  let cost = cost + Machine.store t.machine ~core:m addr in
  Heap_obj.set_word obj i v;
  charge ~m t cost

let touch ?(m = 0) t obj =
  check_m t m;
  let cost = Collector.use_handle t.collector ~core:m obj in
  let cost = cost + Machine.load t.machine ~core:m obj.Heap_obj.addr in
  charge ~m t cost

let work ?(m = 0) t n =
  check_m t m;
  if n > 0 then begin
    t.mut_clock.(m) <- t.mut_clock.(m) + n;
    t.credit <- t.credit + n;
    if t.credit >= pump_quantum then pump t
  end

let add_root t obj = Vec.push t.roots obj

let remove_root t obj = Vec.remove t.roots obj

let push_local t obj = Vec.push t.locals obj

let local_frame t f =
  let depth = Vec.length t.locals in
  Fun.protect
    ~finally:(fun () ->
      while Vec.length t.locals > depth do
        ignore (Vec.pop t.locals)
      done)
    f

let with_local t obj f =
  local_frame t (fun () ->
      push_local t obj;
      f ())

let mutator_cycles t =
  flush_epoch t;
  mutator_cycles_max t

let mutator_count t = t.mutators

let shard_domains t = t.shard_domains

let mutator_clock t ~m =
  check_m t m;
  flush_epoch t;
  t.mut_clock.(m)

let gc_cycles t = t.gc_cycles_
let stw_cycles t = t.stw_cycles_
let ops t = t.op_count

let counters t =
  flush_epoch t;
  Machine.counters t.machine

let tier t = Machine.tier t.machine

let far_loads t =
  flush_epoch t;
  Machine.far_loads t.machine

let mutator_counters t =
  flush_epoch t;
  let module H = Hcsgc_memsim.Hierarchy in
  let sum = ref (Machine.core_counters t.machine ~core:0) in
  for m = 1 to t.mutators - 1 do
    let c = Machine.core_counters t.machine ~core:m in
    sum :=
      {
        H.loads = !sum.H.loads + c.H.loads;
        stores = !sum.H.stores + c.H.stores;
        l1_misses = !sum.H.l1_misses + c.H.l1_misses;
        l2_misses = !sum.H.l2_misses + c.H.l2_misses;
        llc_misses = !sum.H.llc_misses + c.H.llc_misses;
        prefetches = !sum.H.prefetches + c.H.prefetches;
      }
  done;
  !sum

let autotuned_cold_confidence t =
  Option.map Hcsgc_core.Autotuner.cold_confidence t.tuner

let gc_log t = t.recorder

let enable_telemetry ?(sample_interval = 50_000) t =
  if sample_interval <= 0 then
    invalid_arg "Vm.enable_telemetry: sample_interval must be positive";
  match t.telemetry with
  | Some r -> r
  | None ->
      let r = Recorder.create () in
      t.telemetry <- Some r;
      t.trace_sample <- sample_interval;
      t.next_sample <- sample_interval;
      flush_epoch t;
      (* One sink for everything: the Gc_log recorder (if any) and the
         telemetry translation share the collector's event stream.  Extra
         counter samples are forced at cycle boundaries so per-cycle deltas
         (relocation attribution, heap growth) are exact. *)
      let module Gc_log = Hcsgc_core.Gc_log in
      let tele event =
        Recorder.on_gc_event r event;
        match event with
        | Gc_log.Cycle_start _ | Gc_log.Cycle_end _ -> take_sample t
        | _ -> ()
      in
      let sinks =
        match t.recorder with
        | Some gr -> [ Gc_log.sink_of_recorder gr; tele ]
        | None -> [ tele ]
      in
      Collector.set_sink t.collector (Gc_log.tee sinks);
      take_sample t;
      r

let telemetry t = t.telemetry

let enable_verification ?oracle t = Invariants.install ?oracle t.collector

let span_begin ?(m = 0) t name =
  check_m t m;
  match t.telemetry with
  | None -> ()
  | Some r ->
      Recorder.begin_span r (Recorder.Mutator m) ~name ~wall:(wall_cycles t)

let span_end ?(m = 0) t =
  check_m t m;
  match t.telemetry with
  | None -> ()
  | Some r -> Recorder.end_span r (Recorder.Mutator m) ~wall:(wall_cycles t)

let with_span ?(m = 0) t name f =
  span_begin ~m t name;
  Fun.protect ~finally:(fun () -> span_end ~m t) f

let gc_stats t = Collector.stats t.collector
let heap t = t.heap
let collector t = t.collector
let config t = Collector.config t.collector

let finish t =
  Collector.set_wall_hint t.collector (wall_cycles t);
  if Collector.in_cycle t.collector then begin
    Collector.gc_work t.collector ~budget:max_int;
    absorb_work t
  end;
  (match t.telemetry with
  | None -> ()
  | Some r ->
      Recorder.close_all r ~wall:(wall_cycles t);
      take_sample t);
  (* Join the shard workers.  A later epoch (unusual but legal) lazily
     spawns a fresh pool. *)
  match t.pool with
  | None -> ()
  | Some p ->
      Pool.shutdown p;
      t.pool <- None

let full_gc t =
  for _ = 1 to 2 do
    Collector.set_wall_hint t.collector (wall_cycles t);
    if not (Collector.in_cycle t.collector) then
      Collector.start_cycle t.collector;
    Collector.drain t.collector;
    absorb_as_stall t
  done
