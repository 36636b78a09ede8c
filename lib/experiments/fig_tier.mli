(** The far-memory tier figure: far hit rate, simulated wall time and
    DRAM-footprint savings as tier capacity sweeps, across the synthetic,
    DaCapo-sim and serving workload families.

    Unlike the Table 2 figures, the sweep holds the collector fixed (the
    strongest hotness knob vector — the tier consumes the hotmap/EC cold
    evidence) and varies only the tier knobs, so capacity 0 is the
    tier-free baseline of each family.  Jobs are content-addressed like
    every other figure: the experiment key plus the full knob-vector
    rendering ({!Runner.config_value_key}) name each outcome, so warm
    re-renders are byte-identical to cold ones. *)

module Config = Hcsgc_core.Config

val default_capacities : int list
(** [[0; 4; 16; 64]] small pages of the scaled 64 KiB layout. *)

val default_lat_far : int

val tier_config : capacity:int -> lat_far:int -> promote:bool -> Config.t
(** The fixed hotness collector with the given tier knobs;
    [capacity = 0] disables tiering entirely. *)

val families :
  ?shard_domains:int ->
  scale:int ->
  unit ->
  (string * Runner.experiment) list
(** The four workload families, in figure order: [synthetic] (with a 4x
    cold population so demotion has targets), [h2], [tradebeans],
    [serve]. *)

type outcome = {
  wall : float;
  loads : float;
  llc_misses : float;
  far_loads : float;
  far_peak : int;  (** peak far-resident bytes — the DRAM saving *)
  demoted : int;
  promoted : int;
}

val codec : outcome Hcsgc_store.Codec.t
(** The payload stored under the job's fingerprint: magic line
    [hcsgc-tier-metrics 1], then one line of the fields. *)

val sweep :
  ?capacities:int list ->
  ?lat_far:int ->
  ?promote:bool ->
  ?runs:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:Runner.cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ?shard_domains:int ->
  ?scale:int ->
  ?progress:(string -> unit) ->
  unit ->
  (string * (int * outcome array) list) list
(** Run every (family, capacity, repetition) job through
    {!Runner.sweep}; results are grouped per family then per capacity, in
    input order, and are byte-identical at any [jobs]/[shard_domains]
    setting and whether served from [cache] or computed. *)

val figure :
  ?runs:int ->
  ?scale:int ->
  ?jobs:int ->
  ?verify:bool ->
  ?cache:Runner.cache ->
  ?scheduling:[ `Cost | `Fifo ] ->
  ?shard_domains:int ->
  ?capacities:int list ->
  ?lat_far:int ->
  ?promote:bool ->
  Format.formatter ->
  unit
(** Render the figure: one table per family — wall time (bootstrap CI),
    wall delta vs capacity 0, far hit rate (far loads / LLC misses),
    peak far residency and demotion/promotion counts per capacity. *)
