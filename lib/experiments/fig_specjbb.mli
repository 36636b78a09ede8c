(** Reproduction of the SPECjbb2015 figure (§4.7, Fig. 13): throughput
    (max-jOPS-like) and latency (critical-jOPS-like) scores per
    configuration, plus the baseline heap-usage-over-time series.

    Expected shape: overlapping confidence intervals (no conclusive HCSGC
    effect — survival rate ≈ 1 %), and heap usage that grows over the run
    as the injector ramps the allocation rate.

    The transaction handlers are real VM mutator threads, so this is the
    figure that most exercises [shard_domains] ([n >= 1] = epoch-sharded
    execution, byte-identical at any [n >= 1]; see
    {!Hcsgc_runtime.Vm.create}).

    Jobs run through {!Runner.sweep}: each stores the workload's scores
    and its run metrics ({!codec}), so warm re-renders replay from the
    result store byte-identically. *)

val codec :
  (Hcsgc_workloads.Specjbb_sim.result * Runner.run_metrics) Hcsgc_store.Codec.t
(** Magic line [hcsgc-specjbb-metrics 1], the four scores in [%h], then
    the {!Runner.metrics_codec} payload. *)

val fig13 :
  ?runs:int -> ?scale:int -> ?jobs:int -> ?shard_domains:int ->
  ?cache:Runner.cache -> ?scheduling:[ `Cost | `Fifo ] ->
  Format.formatter -> unit

val experiment_params : scale:int -> Hcsgc_workloads.Specjbb_sim.params
