(* Tests for hcsgc.store and the incremental-sweep layer: fingerprint
   sensitivity, the payload codecs, store robustness (truncation,
   bit-flips, refresh), cost-aware scheduling, and the end-to-end
   guarantee that warm sweeps render byte-identical figures. *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Runner = Hcsgc_experiments.Runner
module Report = Hcsgc_experiments.Report
module Synthetic = Hcsgc_workloads.Synthetic
module Fingerprint = Hcsgc_store.Fingerprint
module Result_store = Hcsgc_store.Result_store
module Scheduler = Hcsgc_store.Scheduler
module Pool = Hcsgc_exec.Pool

let check = Alcotest.check
let case = Alcotest.test_case

let with_temp_dir f =
  let dir = Filename.temp_dir "hcsgc_store_test" "" in
  Fun.protect (fun () -> f dir) ~finally:(fun () ->
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      try rm dir with Sys_error _ -> ())

let layout = Layout.scaled ~small_page:(16 * 1024)

let tiny_experiment =
  {
    Runner.name = "store-tiny";
    key = "test-store-tiny;el=600;apl=300;heap=4194304";
    make_vm =
      (fun config -> Vm.create ~layout ~config ~max_heap:(4 * 1024 * 1024) ());
    workload =
      (fun vm ~run ->
        ignore
          (Synthetic.run vm
             {
               Synthetic.default with
               Synthetic.elements = 600;
               accesses_per_loop = 300;
               loops = 3;
               garbage_words = 8;
               seed = run;
             }));
  }

let job ?(config_id = 0) ?(run = 0) () =
  { Runner.exp = tiny_experiment; config_id; run }

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_distinguishes_knob_vectors () =
  (* Every distinct Table 2 knob vector must have a distinct fingerprint.
     Ids 0 and 1 are the *same* knob vector (unmodified ZGC spelled two
     ways), so by design they share — 19 ids, 18 distinct addresses. *)
  let hexes =
    List.init 19 (fun config_id ->
        Fingerprint.to_hex (Runner.fingerprint ~verify:false (job ~config_id ())))
  in
  check Alcotest.int "19 configs" 19 (List.length hexes);
  check Alcotest.int "18 distinct (0 and 1 share)" 18
    (List.length (List.sort_uniq compare hexes));
  check Alcotest.string "config 0 = config 1"
    (List.nth hexes 0) (List.nth hexes 1)

let fingerprint_sensitive_to_each_input () =
  let base = Runner.fingerprint ~verify:false (job ()) in
  let differs name fp =
    check Alcotest.bool name false (Fingerprint.equal base fp)
  in
  differs "run seed" (Runner.fingerprint ~verify:false (job ~run:1 ()));
  differs "verify flag" (Runner.fingerprint ~verify:true (job ()));
  differs "config knobs" (Runner.fingerprint ~verify:false (job ~config_id:4 ()));
  let renamed =
    { (job ()) with exp = { tiny_experiment with key = tiny_experiment.key ^ ";x" } }
  in
  differs "experiment key" (Runner.fingerprint ~verify:false renamed);
  (* The display name is cosmetic: changing it must NOT move the address. *)
  let display =
    { (job ()) with exp = { tiny_experiment with name = "renamed" } }
  in
  check Alcotest.bool "display name is not hashed" true
    (Fingerprint.equal base (Runner.fingerprint ~verify:false display))

let fingerprint_sensitive_to_tier_knobs () =
  (* Each tier knob must move the content address on its own: a tiered
     sweep may never be served a tier-free (or differently-tiered) cached
     outcome.  Knobs are compared through the full knob-vector rendering,
     the same path fig_tier uses. *)
  let fp config =
    Fingerprint.make ~experiment:tiny_experiment.Runner.key
      ~config:(Runner.config_value_key config)
      ~run:0 ~verify:false
  in
  let tiered ?(capacity = 16) ?(lat_far = 800) ?(promote = true) () =
    Config.make ~hotness:true ~tier_capacity_pages:capacity ~lat_far
      ~tier_promote:promote ()
  in
  let base = fp (tiered ()) in
  let differs name other =
    check Alcotest.bool name false (Fingerprint.equal base (fp other))
  in
  differs "capacity" (tiered ~capacity:32 ());
  differs "tier off entirely" (Config.make ~hotness:true ());
  differs "far latency" (tiered ~lat_far:1200 ());
  differs "promotion" (tiered ~promote:false ());
  (* The tier knobs sit in the rendered vector even when tiering is off,
     so the untiered rendering is stable — pre-tier cache entries were
     already invalidated once by the code_version bump, and must not be
     invalidated again by incidental knob defaults. *)
  check Alcotest.string "untiered rendering is canonical"
    "h=false;cp=false;cc=0x0p+0;ra=false;lz=false;tc=0;lf=800;tp=true"
    (Runner.config_value_key (Config.of_id 0))

let fingerprint_no_concatenation_collisions () =
  (* Length-prefixed fields: moving a character across the field boundary
     must change the digest. *)
  let a = Fingerprint.make ~experiment:"ab" ~config:"c" ~run:0 ~verify:false in
  let b = Fingerprint.make ~experiment:"a" ~config:"bc" ~run:0 ~verify:false in
  check Alcotest.bool "ab|c <> a|bc" false (Fingerprint.equal a b)

(* ------------------------------------------------------------------ *)
(* Metrics codec                                                       *)
(* ------------------------------------------------------------------ *)

let codec_rejects_malformed () =
  let good = Runner.metrics_to_string (Runner.execute (job ())) in
  let reject name s =
    check Alcotest.bool name true (Runner.metrics_of_string s = None)
  in
  reject "empty" "";
  reject "wrong magic" ("nope\n" ^ good);
  reject "truncated" (String.sub good 0 (String.length good - 3));
  reject "trailing garbage" (good ^ "junk");
  let module Codec = Hcsgc_store.Codec in
  check Alcotest.bool "garbage serve outcome" true
    (Hcsgc_experiments.Fig_serve.outcome_of_string
       "hcsgc-serve-metrics 1\ngarbage"
    = None);
  check Alcotest.bool "garbage slo line" true
    (Codec.of_string Hcsgc_serve.Slo.codec "not a report" = None)

(* ------------------------------------------------------------------ *)
(* Store robustness                                                    *)
(* ------------------------------------------------------------------ *)

let store_roundtrip () =
  with_temp_dir (fun dir ->
      let store = Result_store.open_ ~dir in
      let fp = Runner.fingerprint ~verify:false (job ()) in
      check Alcotest.bool "absent" true (Result_store.find store fp = None);
      Result_store.add store fp ~cost_key:"k" ~cost:0.25 "payload";
      check (Alcotest.option Alcotest.string) "present" (Some "payload")
        (Result_store.find store fp);
      (* A fresh handle over the same directory sees the entry: the store
         is persistent, not per-process. *)
      let reopened = Result_store.open_ ~dir in
      check (Alcotest.option Alcotest.string) "persistent" (Some "payload")
        (Result_store.find reopened fp);
      let c = Result_store.counters store in
      check Alcotest.int "one hit" 1 c.Result_store.hits;
      check Alcotest.int "one miss" 1 c.Result_store.misses;
      check Alcotest.int "one store" 1 c.Result_store.stored)

let corrupt_entry name mutilate =
  case name `Quick (fun () ->
      with_temp_dir (fun dir ->
          let store = Result_store.open_ ~dir in
          let fp = Runner.fingerprint ~verify:false (job ()) in
          Result_store.add store fp ~cost:0.1 "the payload bytes";
          let path = Result_store.entry_path store fp in
          let contents = In_channel.with_open_bin path In_channel.input_all in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (mutilate contents));
          check Alcotest.bool "detected as miss" true
            (Result_store.find store fp = None);
          let c = Result_store.counters store in
          check Alcotest.int "counted corrupt" 1 c.Result_store.corrupt;
          check Alcotest.bool "entry dropped" false (Sys.file_exists path);
          (* The slot is reusable: a re-run overwrites cleanly. *)
          Result_store.add store fp ~cost:0.1 "the payload bytes";
          check (Alcotest.option Alcotest.string) "recovered"
            (Some "the payload bytes") (Result_store.find store fp)))

let truncated = corrupt_entry "truncated entry detected" (fun s ->
    String.sub s 0 (String.length s / 2))

let bitflipped = corrupt_entry "bit-flipped entry detected" (fun s ->
    let b = Bytes.of_string s in
    let i = Bytes.length b - 4 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b)

let execute_caches_and_refresh_recomputes () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = Runner.execute ~cache (job ()) in
      let warm = Runner.execute ~cache (job ()) in
      check Alcotest.bool "warm = cold" true (cold = warm);
      let c = Result_store.counters cache.Runner.store in
      check Alcotest.int "computed once" 1 c.Result_store.stored;
      check Alcotest.int "served once" 1 c.Result_store.hits;
      (* --refresh: same store, but every job recomputes and overwrites. *)
      let refreshing = Runner.cache ~refresh:true ~dir () in
      let again = Runner.execute ~cache:refreshing (job ()) in
      check Alcotest.bool "refresh result unchanged" true (cold = again);
      let c = Result_store.counters refreshing.Runner.store in
      check Alcotest.int "refresh bypassed lookup" 0
        (c.Result_store.hits + c.Result_store.misses);
      check Alcotest.int "refresh re-stored" 1 c.Result_store.stored)

let cost_model_learns_and_persists () =
  with_temp_dir (fun dir ->
      let store = Result_store.open_ ~dir in
      check (Alcotest.option (Alcotest.float 0.0)) "unknown key" None
        (Result_store.estimate store ~cost_key:"k");
      let fp i = Fingerprint.make ~experiment:"e" ~config:"c" ~run:i ~verify:false in
      Result_store.add store (fp 0) ~cost_key:"k" ~cost:1.0 "a";
      Result_store.add store (fp 1) ~cost_key:"k" ~cost:3.0 "b";
      check (Alcotest.option (Alcotest.float 1e-9)) "mean of observations"
        (Some 2.0) (Result_store.estimate store ~cost_key:"k");
      let reopened = Result_store.open_ ~dir in
      check (Alcotest.option (Alcotest.float 1e-9)) "model persists"
        (Some 2.0) (Result_store.estimate reopened ~cost_key:"k"))

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

let is_permutation order n =
  let seen = Array.make n false in
  Array.length order = n
  && Array.for_all
       (fun i ->
         i >= 0 && i < n && not seen.(i) && (seen.(i) <- true; true))
       order

let scheduler_orders_longest_first () =
  let costs = [| Some 2.0; None; Some 5.0; Some 2.0; None |] in
  let order = Scheduler.order ~estimate:(fun i -> costs.(i)) 5 in
  (* Unknowns first in index order, then descending cost, ties by index. *)
  check (Alcotest.array Alcotest.int) "LPT with unknowns first"
    [| 1; 4; 2; 0; 3 |] order;
  check Alcotest.bool "permutation" true (is_permutation order 5);
  check (Alcotest.array Alcotest.int) "no estimates = FIFO"
    (Scheduler.fifo 4)
    (Scheduler.order ~estimate:(fun _ -> None) 4);
  check (Alcotest.array Alcotest.int) "fifo is identity" [| 0; 1; 2; 3 |]
    (Scheduler.fifo 4)

let pool_in_order_respects_result_positions () =
  let xs = Array.init 8 Fun.id in
  Pool.with_pool ~jobs:3 (fun pool ->
      let order = [| 7; 6; 5; 4; 3; 2; 1; 0 |] in
      let ys = Pool.map_array_in_order pool ~order (fun x -> x * x) xs in
      check (Alcotest.array Alcotest.int) "results in original positions"
        (Array.map (fun x -> x * x) xs) ys;
      Alcotest.check_raises "rejects non-permutation"
        (Invalid_argument "Pool.map_array_in_order: order is not a permutation")
        (fun () ->
          ignore (Pool.map_array_in_order pool ~order:[| 0; 0 |] (fun x -> x) [| 1; 2 |])))

(* ------------------------------------------------------------------ *)
(* End to end: warm sweeps are byte-identical and cheaper              *)
(* ------------------------------------------------------------------ *)

let render results =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Report.figure fmt ~title:"store-tiny" ~expectation:"(test sweep)" results;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let sweep ?scheduling ~cache ~jobs () =
  Runner.run_configs ~config_ids:[ 0; 4; 16 ] ~runs:2 ~jobs ~cache ?scheduling
    tiny_experiment

let warm_sweep_byte_identical () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = render (sweep ~cache ~jobs:1 ()) in
      let after_cold = Result_store.counters cache.Runner.store in
      check Alcotest.int "cold sweep computed everything" 6
        after_cold.Result_store.stored;
      let warm = render (sweep ~cache ~jobs:1 ()) in
      let after_warm = Result_store.counters cache.Runner.store in
      check Alcotest.string "warm render byte-identical" cold warm;
      check Alcotest.int "warm sweep computed nothing" 6
        after_warm.Result_store.stored;
      check Alcotest.int "warm sweep all hits" 6
        (after_warm.Result_store.hits - after_cold.Result_store.hits);
      (* Parallel warm sweep under cost-aware scheduling: still the same
         bytes, whatever order the pool ran things in. *)
      let parallel = render (sweep ~cache ~jobs:4 ~scheduling:`Cost ()) in
      check Alcotest.string "-j4 scheduled warm sweep identical" cold parallel;
      let fifo = render (sweep ~cache ~jobs:4 ~scheduling:`Fifo ()) in
      check Alcotest.string "-j4 fifo warm sweep identical" cold fifo)

let cold_scheduled_sweep_matches_uncached () =
  (* Cost-aware scheduling on a *cold* store (and on a store with a
     learned model) must not change result bytes either. *)
  let plain = render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 tiny_experiment) in
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let seed =
        render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 ~cache
                  ~scheduling:`Cost ~jobs:2 tiny_experiment)
      in
      check Alcotest.string "cold scheduled = uncached" plain seed;
      (* Drop the entries but keep costs.tsv: the next sweep is cold with
         a fully-informed cost model — the FIFO-vs-LPT benchmark setup. *)
      Array.iter
        (fun e ->
          if Filename.check_suffix e ".v1" then
            Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      let informed =
        render (Runner.run_configs ~config_ids:[ 0; 16 ] ~runs:2 ~cache
                  ~scheduling:`Cost ~jobs:2 tiny_experiment)
      in
      check Alcotest.string "informed-model cold sweep = uncached" plain informed)

let corrupt_entry_rerun_end_to_end () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = Runner.execute ~cache (job ()) in
      let path =
        Result_store.entry_path cache.Runner.store
          (Runner.fingerprint ~verify:false (job ()))
      in
      (* Truncate the only entry; the next execute must detect it, re-run
         the simulation, and heal the store. *)
      let contents = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub contents 0 10));
      let healed = Runner.execute ~cache (job ()) in
      check Alcotest.bool "re-run equals original" true (cold = healed);
      check Alcotest.int "corruption counted" 1
        (Result_store.counters cache.Runner.store).Result_store.corrupt;
      check Alcotest.bool "store healed" true
        (Result_store.mem cache.Runner.store
           (Runner.fingerprint ~verify:false (job ()))))

let undecodable_entry_recomputed () =
  (* An entry whose envelope checksum holds but whose payload no decoder
     accepts: the engine counts it corrupt, recomputes the job, overwrites
     the entry, and the sweep renders exactly as without a store. *)
  let ids = [ 0; 16 ] in
  let plain = render (Runner.run_configs ~config_ids:ids ~runs:1 tiny_experiment) in
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let fp = Runner.fingerprint ~verify:false (job ~config_id:16 ()) in
      Result_store.add cache.Runner.store fp ~cost:0.0
        "hcsgc-metrics 2\nnot metrics\n";
      let swept =
        render (Runner.run_configs ~config_ids:ids ~runs:1 ~cache tiny_experiment)
      in
      check Alcotest.string "sweep output unchanged" plain swept;
      let c = Result_store.counters cache.Runner.store in
      check Alcotest.int "no hits" 0 c.Result_store.hits;
      check Alcotest.int "both jobs missed" 2 c.Result_store.misses;
      check Alcotest.int "undecodable entry counted corrupt" 1
        c.Result_store.corrupt;
      check Alcotest.int "planted + two computed" 3 c.Result_store.stored;
      match Result_store.find cache.Runner.store fp with
      | Some payload ->
          check Alcotest.bool "entry overwritten with decodable metrics" true
            (Runner.metrics_of_string payload <> None)
      | None -> Alcotest.fail "recomputed entry missing")

(* ------------------------------------------------------------------ *)
(* Sharded execution and the store                                     *)
(* ------------------------------------------------------------------ *)

module Fig_synthetic = Hcsgc_experiments.Fig_synthetic

let shard_job shard_domains =
  {
    Runner.exp = Fig_synthetic.experiment ~shard_domains ~scale:50 ();
    config_id = 18;
    run = 0;
  }

let shard_count_not_in_fingerprint () =
  (* The epoch model is deterministic at any shard count, so the count is
     an execution knob, not a parameter: fingerprints at counts >= 1 must
     coincide.  The inline model (count 0) is a different interleaving and
     must key separately — em_tag marks the model, not the width. *)
  let fp sd = Runner.fingerprint ~verify:false (shard_job sd) in
  check Alcotest.bool "shard 1 = shard 4" true (fp 1 = fp 4);
  check Alcotest.bool "shard 4 = shard 8" true (fp 4 = fp 8);
  check Alcotest.bool "inline /= sharded" true (fp 0 <> fp 1);
  check Alcotest.string "em_tag spells the model" ";em=1" (Runner.em_tag 4);
  check Alcotest.string "inline has no tag" "" (Runner.em_tag 0)

let cache_hit_across_shard_counts () =
  with_temp_dir (fun dir ->
      let cache = Runner.cache ~dir () in
      let cold = Runner.execute ~cache (shard_job 1) in
      let warm = Runner.execute ~cache (shard_job 4) in
      check Alcotest.bool "shard-4 job served from shard-1 entry" true
        (cold = warm);
      let c = Result_store.counters cache.Runner.store in
      check Alcotest.int "computed once" 1 c.Result_store.stored;
      check Alcotest.int "served once" 1 c.Result_store.hits;
      (* ... and the cached payload really is what shard 4 would compute:
         a fresh uncached run agrees byte for byte. *)
      let fresh = Runner.execute (shard_job 4) in
      check Alcotest.string "cached = recomputed at shard 4"
        (Runner.metrics_to_string cold)
        (Runner.metrics_to_string fresh))

(* ------------------------------------------------------------------ *)
(* Serving-tier experiment keys                                        *)
(* ------------------------------------------------------------------ *)

module Fig_serve = Hcsgc_experiments.Fig_serve
module Serve = Hcsgc_serve.Serve
module Arrival = Hcsgc_serve.Arrival
module Keydist = Hcsgc_workloads.Keydist

let serve_knobs_in_experiment_key () =
  (* Every result-affecting serving knob must move the content address;
     the run seed must not (repetitions are addressed via ~run), and the
     shard count must only key the execution model (0 vs >= 1). *)
  let p = Serve.default in
  let key ?heap ?(params = p) ?(shard_domains = 1)
      ?(slo = Fig_serve.default_slo) () =
    Fig_serve.experiment_key ?heap ~params ~shard_domains ~slo ()
  in
  let base = key () in
  let moved name k =
    check Alcotest.bool ("distinct under " ^ name) false (String.equal base k)
  in
  moved "keys" (key ~params:{ p with Serve.keys = p.Serve.keys + 1 } ());
  moved "value words"
    (key ~params:{ p with Serve.value_words = p.Serve.value_words + 1 } ());
  moved "mutators" (key ~params:{ p with Serve.mutators = p.Serve.mutators + 1 } ());
  moved "key distribution"
    (key ~params:{ p with Serve.dist = Keydist.Uniform } ());
  moved "mix"
    (key
       ~params:
         { p with Serve.mix = { p.Serve.mix with Serve.gets = p.Serve.mix.Serve.gets + 1; updates = p.Serve.mix.Serve.updates - 1 } }
       ());
  moved "scan length"
    (key
       ~params:
         { p with Serve.mix = { p.Serve.mix with Serve.scan_len = p.Serve.mix.Serve.scan_len * 2 } }
       ());
  moved "arrival process"
    (key ~params:{ p with Serve.process = Arrival.Diurnal { trough = 0.25 } } ());
  moved "offered load" (key ~params:{ p with Serve.load = p.Serve.load *. 2.0 } ());
  moved "duration"
    (key ~params:{ p with Serve.duration = p.Serve.duration + 1 } ());
  moved "slo threshold" (key ~slo:(Fig_serve.default_slo + 1) ());
  moved "heap budget" (key ~heap:(4 * 1024 * 1024) ());
  moved "execution model" (key ~shard_domains:0 ());
  check Alcotest.string "seed normalised out" base
    (key ~params:{ p with Serve.seed = 17 } ());
  check Alcotest.string "shard width not addressed" base (key ~shard_domains:4 ())

let suite =
  [
    ( "store.fingerprint",
      [
        case "knob vectors distinct; ids 0,1 share" `Quick
          fingerprint_distinguishes_knob_vectors;
        case "sensitive to every input" `Quick fingerprint_sensitive_to_each_input;
        case "sensitive to tier knobs" `Quick fingerprint_sensitive_to_tier_knobs;
        case "length-prefixed fields" `Quick fingerprint_no_concatenation_collisions;
      ] );
    ( "store.codec",
      [
        Payload_props.roundtrip
          ~name:"store: metrics codec round-trips bit-exactly"
          Runner.metrics_codec Payload_props.metrics;
        Payload_props.roundtrip
          ~name:"specjbb: outcome codec round-trips bit-exactly"
          Hcsgc_experiments.Fig_specjbb.codec Payload_props.specjbb_outcome;
        case "rejects malformed payloads" `Quick codec_rejects_malformed;
      ] );
    ( "store.robustness",
      [
        case "round trip and persistence" `Quick store_roundtrip;
        truncated;
        bitflipped;
        case "execute caches; refresh recomputes" `Quick
          execute_caches_and_refresh_recomputes;
        case "cost model learns and persists" `Quick cost_model_learns_and_persists;
        case "corrupt entry re-runs end to end" `Quick corrupt_entry_rerun_end_to_end;
        case "undecodable entry recomputed by the engine" `Quick
          undecodable_entry_recomputed;
      ] );
    ( "store.scheduling",
      [
        case "LPT order" `Quick scheduler_orders_longest_first;
        case "pool preserves result positions" `Quick
          pool_in_order_respects_result_positions;
      ] );
    ( "store.sharding",
      [
        case "shard count not in fingerprint" `Quick
          shard_count_not_in_fingerprint;
        case "cache hit across shard counts" `Quick
          cache_hit_across_shard_counts;
        case "serve knobs in experiment key" `Quick
          serve_knobs_in_experiment_key;
      ] );
    ( "store.sweep",
      [
        case "warm sweep byte-identical" `Quick warm_sweep_byte_identical;
        case "cold scheduled sweep = uncached" `Quick
          cold_scheduled_sweep_matches_uncached;
      ] );
  ]
