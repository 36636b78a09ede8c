(** A hardware-style stream prefetcher.

    The paper's core claim is that laying objects out in mutator access order
    is "prefetching friendly" (§1, §3): sequential line accesses let the
    hardware prefetcher hide memory latency.  This module models a
    multi-stream next-N-line prefetcher: it watches the demand-access line
    stream, detects monotone (ascending or descending) strides of one line,
    and once a stream is confirmed issues prefetches [degree] lines ahead. *)

type t

val create : ?streams:int -> ?degree:int -> ?confirm:int -> unit -> t
(** [create ()] uses 16 stream slots, degree 4, and 2 accesses to confirm a
    stream — roughly an L2 stream prefetcher on a client core. *)

val degree : t -> int
(** Prefetch distance: the maximum number of line addresses one
    {!observe_into} call can produce (the minimum caller buffer size). *)

val observe_into : t -> int -> int array -> int
(** [observe_into t line buf] records a demand access to line-address
    [line]; when a confirmed stream matches, the line addresses to prefetch
    are written into [buf.(0 .. n-1)] (in issue order, nearest first) and
    [n] is returned, else 0.  This is the allocation-free hot path the cache
    simulators drive once per demand access — the caller owns [buf]
    (preallocated, at least [degree t] long) and inserts the returned lines
    into the cache levels.
    @raise Invalid_argument if [buf] is shorter than [degree t]. *)

val reset : t -> unit
(** Forget all streams (between benchmark runs). *)
