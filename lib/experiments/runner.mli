(** Running a workload across Table 2's configurations, collecting the
    metrics §4.2 plots: execution time, cache statistics and GC statistics.

    Since the execution-engine refactor this module separates job
    {e description} from job {e execution}: a sweep is first expanded into
    an explicit list of {!job}s — one per (configuration, repetition) pair,
    each independent and seed-deterministic — which then either run
    in-process ([~jobs:1], the default) or fan out across a
    {!Hcsgc_exec.Pool} of domains ([~jobs:n]).  Results are aggregated in
    job order regardless of completion order, so parallel sweeps are
    bit-identical to sequential ones.

    Since the incremental-sweep layer, jobs are additionally
    {e content-addressed}: a {!Hcsgc_store.Fingerprint} of the experiment's
    parameter {!field:experiment.key}, the configuration knobs, the run
    seed and the verify flag (salted with
    {!Hcsgc_store.Fingerprint.code_version}) names each job's metrics, and
    an optional {!cache} serves repeats from a persistent
    {!Hcsgc_store.Result_store} instead of re-simulating.  Because jobs
    are bit-deterministic, a warm sweep is byte-identical to a cold one —
    the store only ever changes wall-clock time, never output. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config

type run_metrics = {
  wall : float;  (** simulated execution time (cycles) *)
  loads : float;  (** whole-process demand loads *)
  l1_misses : float;
  llc_misses : float;
  mut_l1_misses : float;  (** mutator-core-only (see DESIGN.md) *)
  mut_llc_misses : float;
  far_loads : float;  (** demand loads served by the far tier (0 if off) *)
  gc_cycle_count : int;
  ec_median : float;  (** median small pages in EC per cycle *)
  reloc_mut : int;
  reloc_gc : int;
  pages_demoted : int;  (** cold pages demoted to the far tier *)
  pages_promoted : int;  (** far pages promoted back to DRAM *)
  heap_samples : (int * int) list;  (** (wall, used bytes) *)
}

val collect : Vm.t -> run_metrics
(** Snapshot a finished VM. *)

type experiment = {
  name : string;  (** display name for progress lines and figure titles *)
  key : string;
      (** Stable {e parameter} key for content addressing: must spell out
          every workload knob that can change the metrics (element counts,
          scale, phase structure, heap size, dataset, …), unlike [name],
          which may omit detail.  Two experiments whose jobs could produce
          different metrics must have different keys; cosmetic renames
          should leave [key] unchanged so cached sweeps survive them. *)
  make_vm : Config.t -> Vm.t;  (** fresh VM per run *)
  workload : Vm.t -> run:int -> unit;  (** [run] indexes the repetition *)
}

val em_tag : int -> string
(** [em_tag shard_domains] is the key suffix encoding the {e execution
    model}: [";em=1"] when epoch-sharded ([shard_domains > 0]), [""] for
    the classic inline interleave.  The shard {e count} must never reach a
    key or fingerprint — every [shard_domains >= 1] is byte-identical, so
    cached results are shared across counts; the two execution models do
    differ and must not share entries. *)

type job = { exp : experiment; config_id : int; run : int }
(** One unit of work: repetition [run] of [exp] under Table 2
    configuration [config_id].  Jobs share nothing — {!execute} builds a
    fresh VM — so any subset may run concurrently. *)

val jobs_of : ?config_ids:int list -> runs:int -> experiment -> job list
(** Expand a sweep into its jobs, in deterministic order: configurations
    in the given order (default: all 19 of Table 2), repetitions 0..runs-1
    within each. *)

(** {2 The result store} *)

type cache = {
  store : Hcsgc_store.Result_store.t;
  refresh : bool;
      (** Ignore existing entries: recompute every job and overwrite its
          entry (the [--refresh] CLI flag). *)
}

val cache : ?refresh:bool -> dir:string -> unit -> cache
(** Open (creating if needed) the result store at [dir].  [refresh]
    defaults to [false]. *)

val default_cache_dir : string
(** ["_hcsgc_cache"] — the CLIs' default store location. *)

val config_key : int -> string
(** Lossless rendering of a Table 2 configuration's knob {e values} (not
    its id — ids 0 and 1 share a knob vector, hence a key), the
    [~config] component of every job fingerprint.  Exposed for
    experiments that store custom payloads (e.g. the serving tier's SLO
    reports) under the same addressing scheme. *)

val config_value_key : Config.t -> string
(** The same lossless knob rendering for an arbitrary configuration value
    (not necessarily a Table 2 row) — what experiments sweeping custom
    knob vectors (e.g. the far-tier capacity sweep) fingerprint with. *)

val fingerprint : verify:bool -> job -> Hcsgc_store.Fingerprint.t
(** The job's content address.  Configuration knobs enter the fingerprint
    by {e value}, not by Table 2 id, so ids 0 and 1 (identical knob
    vectors) intentionally share an entry. *)

val cost_key : job -> string
(** The job's cost-model key: one per (experiment key, knob vector) —
    the granularity at which durations are predictable. *)

val metrics_codec : run_metrics Hcsgc_store.Codec.t
(** The job payload stored under a fingerprint: magic line
    [hcsgc-metrics 2], a line of the scalar fields ([%h] floats), a line
    of the heap samples. *)

val metrics_to_string : run_metrics -> string
(** [Codec.to_string metrics_codec]. *)

val metrics_of_string : string -> run_metrics option
(** [Codec.of_string metrics_codec]: strict inverse of
    {!metrics_to_string}, [None] on any malformation.  Round-trips every
    value bit-exactly. *)

(** {2 The sweep engine}

    Every cached sweep in [hcsgc.experiments] runs through {!run_jobs}:
    Table 2 sweeps ({!run_configs}), single jobs ({!execute},
    {!profile}), the serving, tier and SPECjbb figures. *)

type ('job, 'out) spec = {
  fingerprint : 'job -> Hcsgc_store.Fingerprint.t;
      (** content address (verify flag included) *)
  cost_key : 'job -> string;  (** cost-model key for the scheduler *)
  compute : 'job -> 'out;
      (** simulate one job; called only on a miss, possibly on a worker
          domain *)
  codec : 'out Hcsgc_store.Codec.t;  (** the stored payload *)
}

val run_jobs :
  ?jobs:int ->
  ?cache:cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ('job, 'out) spec ->
  'job array ->
  'out array
(** Run every job, results in job order.  With [cache], hits are resolved
    up front on the calling domain; an entry that passes the store
    checksum but fails [codec] is counted by
    {!Hcsgc_store.Result_store.note_invalid} and recomputed; every
    computed job is stored (payload + duration).  Misses reach a pool of
    [jobs] domains (default 1: the calling domain), hits first, then
    misses longest-estimated-first under [scheduling = `Cost] (the
    default; {!Hcsgc_store.Scheduler}) or in job order under [`Fifo].
    Neither the cache nor the order changes a result. *)

val config_spec :
  key:string ->
  verify:bool ->
  compute:(int * int -> 'out) ->
  'out Hcsgc_store.Codec.t ->
  (int * int, 'out) spec
(** The spec of jobs that are (Table 2 configuration id, run) pairs of
    an experiment with parameter key [key], addressed and costed exactly
    like {!job}s: for figures whose payload is not bare {!run_metrics}. *)

val sweep :
  ?jobs:int ->
  ?cache:cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ('job, 'out) spec ->
  runs:int ->
  job:('g -> int -> 'job) ->
  'g list ->
  ('g * 'out array) list
(** {!run_jobs} over [runs] repetitions of each group: [job g run] for
    [run = 0 .. runs-1], results regrouped per group in input order. *)

(** {2 Execution} *)

val execute : ?verify:bool -> ?cache:cache -> job -> run_metrics
(** Run one job to completion through {!run_jobs}: fresh VM, workload,
    {!Vm.finish}, {!collect}.  Pure function of the job (workloads are
    seeded by [run]); safe to call from any domain.  [verify] (default [false])
    attaches the {!Hcsgc_verify.Invariants} heap sanitizer to the job's VM
    ({!Vm.enable_verification}); verification reads state only, so verified
    metrics are bit-identical to unverified ones.

    With [cache], the job's fingerprint is consulted first: a valid entry
    is decoded and returned without simulating; a miss (including a
    corrupt or undecodable entry) simulates, then stores the metrics and
    the measured duration.  Cached and computed results are bit-identical
    by the determinism guarantee above. *)

val profile :
  ?sample_interval:int ->
  ?verify:bool ->
  ?cache:cache ->
  job ->
  run_metrics * Hcsgc_telemetry.Recorder.t
(** {!execute} with telemetry attached ({!Vm.enable_telemetry}):
    additionally returns the job's span/counter recorder, ready for the
    {!Hcsgc_telemetry} exporters.  Telemetry charges no simulated cycles,
    so the metrics equal an unprofiled {!execute} of the same job; the
    recorder is domain-local, so profiled jobs may be fanned across a
    {!Hcsgc_exec.Pool} and still produce byte-identical traces at any
    [--jobs] setting.

    A profiled run always simulates (the trace cannot come from the
    store), but with [cache] it {e stores} its metrics afterwards, seeding
    later sweeps. *)

val run_configs :
  ?config_ids:int list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  runs:int ->
  experiment ->
  (int * run_metrics array) list
(** Execute [runs] repetitions of the experiment under each requested
    Table 2 configuration (default: all 19).  Deterministic: repetition [i]
    uses the same workload seed under every configuration, mirroring the
    paper's N VM invocations per configuration.

    [verify] (default false) runs every job under the heap sanitizer (see
    {!execute}); each VM gets its own verifier, so verified sweeps fan out
    across domains unchanged.

    [jobs] (default 1) sets the degree of parallelism.  [~jobs:1] runs
    everything in-process on the calling domain, exactly as before the
    engine existed.  [~jobs:n] distributes the (configuration, run) jobs
    over [n] worker domains; results are still aggregated in job order,
    so the returned metrics are bit-identical to the sequential run.

    [cache] and [scheduling] are {!run_jobs}'s: hits are served from the
    store, misses computed and stored, longest-estimated-first by
    default.  Neither changes a single output byte.

    {b Thread safety of [progress]:} calls are serialized through a
    {!Hcsgc_exec.Reporter}, so [progress] never runs concurrently with
    itself and each message arrives whole — but under [~jobs:n] it is
    invoked from worker domains in scheduling order, one message per
    {e computing} configuration (emitted by whichever of the
    configuration's jobs starts first; fully cached configurations are
    not announced).  It must not assume it runs on the calling domain,
    and must not itself call back into the runner. *)
