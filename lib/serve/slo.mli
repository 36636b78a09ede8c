(** Tail-latency SLO accounting over a serving run.

    Layered on {!Hcsgc_telemetry.Analyzer}: latency percentiles are
    nearest-rank over the per-request enqueue→completion latencies, and
    each violation is attributed to GC by intersecting the request's
    wall-clock service window with the run's coalesced STW-pause
    intervals ({!Analyzer.overlap}).  Attribution follows busy periods: a
    pause's cycles carry forward to every request queued behind it on the
    same shard (the queue only drains when a request starts with zero
    wait), so a violation is {e pause-attributed} when its own window or
    its busy period absorbed pause time, and {e service-attributed}
    otherwise. *)

val cycles_per_us : int
(** 3000 — the 3 GHz convention used to convert [--slo-us] to cycles and
    to annotate reports in microseconds. *)

type report = {
  requests : int;
  gets : int;
  updates : int;
  scans : int;
  duration : int;  (** the arrival window, cycles *)
  throughput : float;  (** served requests per megacycle of the window *)
  mean : float;  (** mean latency, cycles *)
  p50 : int;
  p95 : int;
  p99 : int;
  p999 : int;
  max_latency : int;
  slo : int;  (** threshold in cycles; 0 = no SLO configured *)
  violations : int;
  pause_attributed : int;
  service_attributed : int;
  pause_cycles : int;
      (** total pause overlap charged to violating busy periods *)
}

val analyze :
  slo:int -> duration:int -> pauses:(int * int) list ->
  Serve.result -> report
(** [pauses] are the run's STW intervals
    ({!Hcsgc_telemetry.Analyzer.pause_intervals}); they are coalesced
    here.  [slo = 0] disables violation counting (all violation fields
    zero). *)

val histogram : Serve.request array -> int array
(** Log2-bucketed latency histogram: bucket [i] counts requests with
    latency in [\[2^i, 2^(i+1))] (bucket 0 also counts 0 and 1); fixed
    length so equal workloads compare byte-for-byte. *)

val pp_histogram : Format.formatter -> int array -> unit
(** Render the non-empty buckets as cycle ranges with scaled bars. *)

val codec : report Hcsgc_store.Codec.t
(** The report as one [slo1 n=… g=… …] line, floats in [%h] — the head
    of the serving figure's stored payload. *)

val pp : Format.formatter -> report -> unit
(** Human-readable report: percentiles in cycles and microseconds (at
    {!cycles_per_us}), violation counts with attribution. *)
