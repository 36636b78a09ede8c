(** The persistent, content-addressed result store behind incremental
    sweeps.

    One directory (default [_hcsgc_cache/]) holds one file per
    {!Fingerprint.t}, each a checksummed, versioned envelope around an
    opaque payload (the caller's serialization of [run_metrics]) plus the
    wall-clock cost of computing it.  Robustness rules:

    - {b Atomic writes.}  Entries are written to a temp file in the store
      directory and [Sys.rename]d into place, so readers never observe a
      half-written entry and concurrent writers of the same fingerprint
      (which by construction carry identical payloads) last-write-win
      harmlessly.
    - {b Checksummed reads.}  Every entry embeds an MD5 of its payload and
      the payload length; a truncated, bit-flipped or otherwise malformed
      entry is detected on read, counted under [corrupt], deleted
      best-effort, and reported as a miss — never an error, never a wrong
      result.
    - {b Versioned envelope.}  The on-disk magic includes a format
      version; entries from a future/foreign format read as misses.

    Alongside the entries, [costs.tsv] aggregates observed computation
    durations per caller-chosen {e cost key} — the small per-experiment
    cost model the {!Scheduler} orders submissions with.

    A store handle may be shared across domains: all mutable state and
    file I/O is guarded by one mutex (entry I/O is milliseconds against
    jobs that run for seconds, so the lock is not a bottleneck). *)

type t

val open_ : dir:string -> t
(** Open (creating directories as needed) the store rooted at [dir], and
    load its cost model.  A malformed cost file is ignored (costs are an
    optimisation, not a correctness input).
    @raise Sys_error if the directory cannot be created. *)

val dir : t -> string

val find : t -> Fingerprint.t -> string option
(** Look up a payload.  [None] means absent {e or} corrupt (see above);
    counted under [misses] (and [corrupt] when applicable). *)

val add : t -> Fingerprint.t -> ?cost_key:string -> cost:float -> string -> unit
(** [add t fp ~cost_key ~cost payload] stores [payload] under [fp],
    recording that computing it took [cost] wall-clock seconds, and folds
    [cost] into the cost model under [cost_key] (when given).  Overwrites
    any existing entry (used by [--refresh] and corrupt-entry re-runs). *)

val mem : t -> Fingerprint.t -> bool
(** Existence check that validates the envelope like {!find} but counts
    nothing and reads nothing into the hit/miss statistics. *)

val estimate : t -> cost_key:string -> float option
(** Mean observed cost (seconds) for [cost_key], if any run of that key
    was ever recorded here. *)

val note_invalid : t -> unit
(** Count one caller-detected invalid entry: the payload {!find} just
    returned passed the envelope checksum but failed the caller's
    decoder.  That lookup is recounted as a corrupt miss.  Callers should
    treat such entries as misses and overwrite them via {!add}. *)

type counters = {
  hits : int;
  misses : int;  (** includes corrupt entries *)
  corrupt : int;  (** envelope-invalid entries + {!note_invalid} calls *)
  stored : int;
  bytes_read : int;  (** payload bytes served from cache *)
  bytes_written : int;  (** payload bytes written to cache *)
}

val counters : t -> counters
(** Snapshot of this handle's activity (rendered by
    [Hcsgc_telemetry.Summary.store_line] so every harness prints it the
    same way). *)

val entry_path : t -> Fingerprint.t -> string
(** Where [fp]'s entry lives (exposed so tests can truncate/corrupt it). *)
