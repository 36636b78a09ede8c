(* The one round-trip property every payload codec is held to: any value
   encodes, decodes back equal, and re-encodes to the same bytes.  Each
   suite runs it over its own codec with the generators below. *)

module Codec = Hcsgc_store.Codec
module Runner = Hcsgc_experiments.Runner
module Slo = Hcsgc_serve.Slo
module Fig_serve = Hcsgc_experiments.Fig_serve
module Fig_tier = Hcsgc_experiments.Fig_tier
module Specjbb = Hcsgc_workloads.Specjbb_sim

let roundtrip ~name codec gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:300 (QCheck.make gen) (fun v ->
         let payload = Codec.to_string codec v in
         match Codec.of_string codec payload with
         | Some v' -> v' = v && Codec.to_string codec v' = payload
         | None -> false))

open QCheck.Gen

(* Finite floats across many binades, plus the awkward ones %h must
   still spell losslessly. *)
let float =
  frequency
    [
      ( 8,
        map
          (fun (m, e) -> ldexp m e)
          (pair (float_bound_inclusive 1.0) (int_range (-30) 30)) );
      (1, map (fun x -> -.x) (float_bound_inclusive 1e9));
      ( 1,
        oneofl
          [ 0.0; -0.0; infinity; neg_infinity; max_float; min_float;
            epsilon_float ] );
    ]

let int =
  frequency
    [ (8, int_bound 1_000_000); (1, oneofl [ 0; -1; max_int; min_int ]) ]

let metrics =
  let* wall = float and* loads = float and* l1 = float and* llc = float in
  let* ml1 = float and* mllc = float and* far = float and* ec = float in
  let* gc = int and* rm = int and* rg = int and* pd = int and* pp = int in
  let* samples = list_size (int_bound 20) (pair int int) in
  return
    {
      Runner.wall; loads; l1_misses = l1; llc_misses = llc;
      mut_l1_misses = ml1; mut_llc_misses = mllc; far_loads = far;
      gc_cycle_count = gc; ec_median = ec; reloc_mut = rm; reloc_gc = rg;
      pages_demoted = pd; pages_promoted = pp; heap_samples = samples;
    }

let slo_report =
  let* requests = int and* gets = int and* updates = int and* scans = int in
  let* duration = int and* throughput = float and* mean = float in
  let* p50 = int and* p95 = int and* p99 = int and* p999 = int in
  let* max_latency = int and* slo = int and* violations = int in
  let* pause_attributed = int and* service_attributed = int in
  let* pause_cycles = int in
  return
    {
      Slo.requests; gets; updates; scans; duration; throughput; mean; p50;
      p95; p99; p999; max_latency; slo; violations; pause_attributed;
      service_attributed; pause_cycles;
    }

let serve_outcome =
  let* report = slo_report and* metrics = metrics and* checksum = int in
  let* histogram = array_size (int_bound 40) int in
  return { Fig_serve.report; histogram; checksum; metrics }

let tier_outcome =
  let* wall = float and* loads = float and* llc_misses = float in
  let* far_loads = float and* far_peak = int in
  let* demoted = int and* promoted = int in
  return
    { Fig_tier.wall; loads; llc_misses; far_loads; far_peak; demoted; promoted }

let specjbb_outcome =
  let* max_jops = float and* critical_jops = float in
  let* mean_latency = float and* survival_rate = float in
  let* metrics = metrics in
  return
    ( { Specjbb.max_jops; critical_jops; mean_latency; survival_rate },
      metrics )
