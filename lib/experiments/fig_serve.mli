(** The serving-tier figure: tail latency and SLO attribution across
    hotness configurations.

    Runs the {!Hcsgc_serve.Serve} KV workload under a set of Table 2
    configurations (default: ZGC baseline 0 and hotness configs 4, 16,
    18), [runs] repetitions each, and reports latency percentiles,
    SLO violations and their pause/service attribution per
    configuration.

    Jobs run through {!Runner.sweep}, so output is byte-identical at any
    [--jobs] and under either scheduling.  With a [cache], each
    job's {!outcome} (SLO report + latency histogram + checksum + run
    metrics) is content-addressed in the {!Hcsgc_store.Result_store}
    under {!Runner.config_key} addressing, so warm re-renders skip the
    simulation entirely and stay byte-identical to cold ones. *)

module Serve = Hcsgc_serve.Serve
module Slo = Hcsgc_serve.Slo

val default_configs : int list
(** [\[0; 4; 16; 18\]] — baseline, relocate-all + lazy, COLDCONFIDENCE
    variants. *)

val default_slo : int
(** 15000 cycles (5 us at 3 GHz). *)

type outcome = {
  report : Slo.report;
  histogram : int array;  (** {!Slo.histogram} of the run's latencies *)
  checksum : int;
  metrics : Runner.run_metrics;
}

val codec : outcome Hcsgc_store.Codec.t
(** The cached representation: magic line [hcsgc-serve-metrics 1], the
    {!Slo.codec} line, the histogram line, the checksum line, then the
    {!Runner.metrics_codec} payload. *)

val outcome_to_string : outcome -> string
(** [Codec.to_string codec]. *)

val outcome_of_string : string -> outcome option
(** [Codec.of_string codec]. *)

val experiment_key :
  ?heap:int ->
  params:Serve.params ->
  shard_domains:int ->
  slo:int ->
  unit ->
  string
(** The content-address experiment key: every result-affecting workload
    and machine knob (including the [heap] budget, default 8 MiB), seed
    normalised out (the run index is addressed separately), execution
    model tagged via {!Runner.em_tag}. *)

val sweep :
  ?config_ids:int list ->
  ?runs:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:Runner.cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ?shard_domains:int ->
  ?slo:int ->
  ?heap:int ->
  ?progress:(string -> unit) ->
  params:Serve.params ->
  unit ->
  (int * outcome array) list
(** Execute the sweep through {!Runner.sweep}; outcomes per configuration
    in run order.
    Repetition [i] reseeds the workload with [seed = i] under every
    configuration.  [heap] is the VM heap budget in bytes (default
    8 MiB — shrink it alongside scaled-down [params] or the run never
    paces a GC cycle). *)

val scaled_params : scale:int -> Serve.params
(** {!Serve.default} with keys and duration divided by [scale] (floored
    at 2000 keys / 5 Mcycles) — the figure's and smoke tests' workload. *)

val scaled_heap : scale:int -> int
(** The heap budget matching [scaled_params ~scale]: [8 MiB / scale],
    floored at 2 MiB. *)

val figure :
  ?runs:int ->
  ?scale:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:Runner.cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ?shard_domains:int ->
  ?config_ids:int list ->
  ?slo:int ->
  Format.formatter ->
  unit
(** Render the figure: percentile table with bootstrap CIs on p99.9,
    violation attribution, and throughput.  [scale] divides the default
    workload's duration and key count (for quick smokes). *)
