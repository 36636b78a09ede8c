(** The registry of the paper's evaluation artefacts (§4 Tables 1–3,
    Figs. 4–13) plus this reproduction's own figures and ablations: one
    entry per id, in the order [hcsgc-run figure] runs them when given no
    id.

    Each entry carries its default sample size and workload-size divisor
    (the fast preset EXPERIMENTS.md was measured with); callers may
    override both.  [jobs], [cache] and [scheduling] only move wall-clock
    time, never output bytes (see {!Runner.run_jobs}); every sweep
    artefact honours all three.  Artefacts that have no use for an
    argument ignore it: tables ignore everything but [scale] (t3), the
    ablations never touch the result store, and the saturated single-core
    f6 has no sharded execution model. *)

type t = {
  id : string;  (** command-line id: ["t1"], ["f4"], ["abl-tlb"], ... *)
  what : string;  (** one-line description *)
  runs : int;  (** default sample size per configuration *)
  scale : int;  (** default workload-size divisor *)
  run :
    runs:int ->
    scale:int ->
    jobs:int ->
    shard_domains:int ->
    cache:Runner.cache option ->
    scheduling:[ `Cost | `Fifo ] ->
    Format.formatter ->
    unit;
}

val all : t list
(** Every artefact, ids unique, in regeneration order. *)

val find : string -> t option
