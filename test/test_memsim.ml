(* Tests for hcsgc.memsim: caches, prefetcher, hierarchy, machine. *)

module Cache = Hcsgc_memsim.Cache
module Prefetcher = Hcsgc_memsim.Prefetcher
module Hierarchy = Hcsgc_memsim.Hierarchy
module Machine = Hcsgc_memsim.Machine

let check = Alcotest.check
let case = Alcotest.test_case

let small_geom = { Cache.size_bytes = 1024; ways = 2; line_bytes = 64 }
(* 1024 / (2*64) = 8 sets *)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_miss_then_hit () =
  let c = Cache.create small_geom in
  check Alcotest.bool "first access misses" false (Cache.access c 100);
  check Alcotest.bool "second access hits" true (Cache.access c 100)

let cache_line_of_addr () =
  let c = Cache.create small_geom in
  check Alcotest.int "line granularity" (Cache.line_of_addr c 0)
    (Cache.line_of_addr c 63);
  check Alcotest.bool "next line differs" true
    (Cache.line_of_addr c 63 <> Cache.line_of_addr c 64)

let cache_lru_eviction () =
  let c = Cache.create small_geom in
  (* Three lines mapping to the same set (stride = 8 lines, 8 sets). *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  (* touch 0 so 8 is LRU *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 16);
  (* evicts 8 *)
  check Alcotest.bool "0 survives" true (Cache.probe c 0);
  check Alcotest.bool "8 evicted" false (Cache.probe c 8);
  check Alcotest.bool "16 present" true (Cache.probe c 16)

let cache_probe_no_side_effect () =
  let c = Cache.create small_geom in
  check Alcotest.bool "probe misses" false (Cache.probe c 5);
  check Alcotest.bool "still misses on access" false (Cache.access c 5)

let cache_insert () =
  let c = Cache.create small_geom in
  Cache.insert c 77;
  check Alcotest.bool "insert fills" true (Cache.probe c 77)

let cache_invalidate () =
  let c = Cache.create small_geom in
  ignore (Cache.access c 1);
  Cache.invalidate_all c;
  check Alcotest.bool "emptied" false (Cache.probe c 1)

let cache_bad_geometry () =
  Alcotest.check_raises "non-pow2 sets"
    (Invalid_argument "Cache.create: geometry must yield a power-of-two set count")
    (fun () ->
      ignore (Cache.create { Cache.size_bytes = 960; ways = 2; line_bytes = 64 }))

let cache_associativity_capacity () =
  let c = Cache.create small_geom in
  (* Two ways per set: both stay resident. *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 8);
  check Alcotest.bool "way 1" true (Cache.probe c 0);
  check Alcotest.bool "way 2" true (Cache.probe c 8)

let prop_cache_hit_after_access =
  QCheck.Test.make ~name:"cache: access makes line resident" ~count:300
    QCheck.(small_list (int_bound 10_000))
    (fun lines ->
      let c = Cache.create { Cache.size_bytes = 64 * 1024; ways = 8; line_bytes = 64 } in
      List.iter (fun l -> ignore (Cache.access c l)) lines;
      match List.rev lines with
      | [] -> true
      | last :: _ -> Cache.probe c last)

(* ------------------------------------------------------------------ *)
(* Prefetcher                                                          *)
(* ------------------------------------------------------------------ *)

(* The lines one demand access prefetches, nearest first. *)
let observe pf line =
  let buf = Array.make (Prefetcher.degree pf) 0 in
  let n = Prefetcher.observe_into pf line buf in
  List.init n (fun i -> buf.(i))

let prefetcher_detects_ascending_stream () =
  let pf = Prefetcher.create ~confirm:2 ~degree:4 () in
  ignore (observe pf 100);
  ignore (observe pf 101);
  let p = observe pf 102 in
  check (Alcotest.list Alcotest.int) "prefetch next 4" [ 103; 104; 105; 106 ] p

let prefetcher_detects_descending_stream () =
  let pf = Prefetcher.create ~confirm:2 ~degree:2 () in
  ignore (observe pf 100);
  ignore (observe pf 99);
  let p = observe pf 98 in
  check (Alcotest.list Alcotest.int) "prefetch down" [ 97; 96 ] p

let prefetcher_ignores_random () =
  let pf = Prefetcher.create () in
  let rng = Hcsgc_util.Rng.create 4 in
  let fired = ref 0 in
  for _ = 1 to 1_000 do
    let l = Hcsgc_util.Rng.int rng 1_000_000 in
    if observe pf l <> [] then incr fired
  done;
  check Alcotest.bool "few spurious prefetches" true (!fired < 20)

let prefetcher_tracks_interleaved_streams () =
  let pf = Prefetcher.create ~confirm:2 ~degree:1 () in
  (* Two interleaved ascending streams. *)
  ignore (observe pf 1000);
  ignore (observe pf 5000);
  ignore (observe pf 1001);
  ignore (observe pf 5001);
  let a = observe pf 1002 in
  let b = observe pf 5002 in
  check (Alcotest.list Alcotest.int) "stream A" [ 1003 ] a;
  check (Alcotest.list Alcotest.int) "stream B" [ 5003 ] b

let prefetcher_reset () =
  let pf = Prefetcher.create ~confirm:2 ~degree:1 () in
  ignore (observe pf 10);
  ignore (observe pf 11);
  Prefetcher.reset pf;
  check (Alcotest.list Alcotest.int) "no stream after reset" []
    (observe pf 12)

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)
(* ------------------------------------------------------------------ *)

let no_prefetch_config =
  { Hierarchy.default_config with Hierarchy.prefetch = false }

let hierarchy_latencies () =
  let h = Hierarchy.create no_prefetch_config in
  let lat1 = Hierarchy.load h 4096 in
  check Alcotest.int "cold load pays memory latency" 200 lat1;
  let lat2 = Hierarchy.load h 4096 in
  check Alcotest.int "warm load pays L1 latency" 4 lat2

let hierarchy_counters () =
  let h = Hierarchy.create no_prefetch_config in
  ignore (Hierarchy.load h 0);
  ignore (Hierarchy.load h 0);
  ignore (Hierarchy.store h 64);
  let c = Hierarchy.counters h in
  check Alcotest.int "loads" 2 c.Hierarchy.loads;
  check Alcotest.int "stores" 1 c.Hierarchy.stores;
  check Alcotest.int "l1 misses" 1 c.Hierarchy.l1_misses;
  check Alcotest.int "llc misses" 1 c.Hierarchy.llc_misses

let hierarchy_l2_hit () =
  let h = Hierarchy.create no_prefetch_config in
  ignore (Hierarchy.load h 0);
  (* Evict from L1 (32KB, 8 ways, 64 sets): 8 conflicting lines at stride
     64*64 bytes. *)
  for i = 1 to 8 do
    ignore (Hierarchy.load h (i * 64 * 64))
  done;
  let lat = Hierarchy.load h 0 in
  check Alcotest.int "L2 hit latency" 12 lat

let hierarchy_store_fills () =
  let h = Hierarchy.create no_prefetch_config in
  let lat_store = Hierarchy.store h 128 in
  check Alcotest.int "store is write-buffered" 2 lat_store;
  check Alcotest.int "subsequent load hits L1" 4 (Hierarchy.load h 128)

let hierarchy_range () =
  let h = Hierarchy.create no_prefetch_config in
  (* 3 lines: 200 + 200 + 200 *)
  let lat = Hierarchy.load_range h 0 192 in
  check Alcotest.int "range latency" 600 lat;
  let c = Hierarchy.counters h in
  check Alcotest.int "range loads" 3 c.Hierarchy.loads

let hierarchy_range_partial_lines () =
  let h = Hierarchy.create no_prefetch_config in
  (* 32 bytes starting at 48 spans two lines. *)
  ignore (Hierarchy.load_range h 48 32);
  let c = Hierarchy.counters h in
  check Alcotest.int "two lines touched" 2 c.Hierarchy.loads

let hierarchy_prefetch_hides_stream () =
  let h = Hierarchy.create Hierarchy.default_config in
  (* Sequential walk: after the stream is confirmed, loads hit L1. *)
  let total_cold = ref 0 in
  for i = 0 to 63 do
    total_cold := !total_cold + Hierarchy.load h (i * 64)
  done;
  let c = Hierarchy.counters h in
  check Alcotest.bool "prefetches issued" true (c.Hierarchy.prefetches > 0);
  check Alcotest.bool "misses far below line count" true
    (c.Hierarchy.l1_misses < 16)

let hierarchy_flush () =
  let h = Hierarchy.create no_prefetch_config in
  ignore (Hierarchy.load h 0);
  Hierarchy.flush h;
  let c = Hierarchy.counters h in
  check Alcotest.int "counters zero" 0 c.Hierarchy.loads;
  check Alcotest.int "cold again" 200 (Hierarchy.load h 0)

(* ------------------------------------------------------------------ *)
(* Machine                                                             *)
(* ------------------------------------------------------------------ *)

let machine_cfg = { Hierarchy.default_config with Hierarchy.prefetch = false }

let machine_private_l1 () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  (* Core 1 misses its private L1/L2 but hits the shared LLC. *)
  let lat = Machine.load m ~core:1 0 in
  check Alcotest.int "core 1 hits shared LLC" 40 lat

let machine_shared_llc_counts () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.load m ~core:1 0);
  let c = Machine.counters m in
  check Alcotest.int "machine-wide loads" 2 c.Hierarchy.loads;
  check Alcotest.int "two L1 misses" 2 c.Hierarchy.l1_misses;
  check Alcotest.int "one LLC miss" 1 c.Hierarchy.llc_misses

let machine_core_bounds () =
  let m = Machine.create ~cores:1 () in
  Alcotest.check_raises "bad core"
    (Invalid_argument "Machine: core index out of range") (fun () ->
      ignore (Machine.load m ~core:1 0))

let machine_flush () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  ignore (Machine.load m ~core:0 0);
  Machine.flush m;
  check Alcotest.int "cold after flush" 200 (Machine.load m ~core:0 0)

(* ------------------------------------------------------------------ *)
(* Machine: epoch sharding                                             *)
(* ------------------------------------------------------------------ *)

let machine_shard_defers () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  Machine.attach_shards m 1;
  check Alcotest.int "one shard" 1 (Machine.shards m);
  check Alcotest.bool "clean before traffic" false (Machine.shards_dirty m);
  (* Shard core: logged, latency deferred to the merge. *)
  check Alcotest.int "deferred load returns 0" 0 (Machine.load m ~core:0 0);
  check Alcotest.bool "dirty after logging" true (Machine.shards_dirty m);
  (* Non-shard core (the GC core) stays inline. *)
  check Alcotest.int "core 1 still inline" 200 (Machine.load m ~core:1 4096);
  let lats = Machine.flush_shards m in
  check Alcotest.int "cold deferred load cost at merge" 200 lats.(0);
  check Alcotest.bool "clean after merge" false (Machine.shards_dirty m)

(* The single-shard oracle: with all mutator traffic on one shard core,
   replay order equals issue order, so an epoch must resolve to exactly
   the latencies and counters of the classic inline machine driven with
   the same sequence. *)
let machine_shard_matches_inline () =
  let drive load store =
    (* Mixed loads/stores/ranges with re-references (cache hits), spread
       wide enough to produce L1/L2/LLC misses. *)
    let lat = ref 0 in
    for i = 0 to 199 do
      lat := !lat + load (i * 8192);
      lat := !lat + store ((i * 8192) + 64);
      if i mod 3 = 0 then lat := !lat + load ((i / 2) * 8192)
    done;
    !lat
  in
  let inline_m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  let inline_lat =
    drive (Machine.load inline_m ~core:0) (Machine.store inline_m ~core:0)
  in
  let sharded = Machine.create ~cfg:machine_cfg ~cores:2 () in
  Machine.attach_shards sharded 1;
  let zero =
    drive (Machine.load sharded ~core:0) (Machine.store sharded ~core:0)
  in
  check Alcotest.int "all latency deferred" 0 zero;
  let lats = Machine.flush_shards sharded in
  check Alcotest.int "epoch latency equals inline" inline_lat lats.(0);
  check Alcotest.bool "machine counters equal" true
    (Machine.counters sharded = Machine.counters inline_m);
  check Alcotest.bool "core counters equal" true
    (Machine.core_counters sharded ~core:0
    = Machine.core_counters inline_m ~core:0);
  check Alcotest.int "tlb equal" (Machine.tlb_misses inline_m)
    (Machine.tlb_misses sharded)

(* Mirror of the machine-wide counters test, through the per-shard view. *)
let machine_shard_counters () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  Machine.attach_shards m 2;
  ignore (Machine.load m ~core:0 0);
  ignore (Machine.load m ~core:1 0);
  ignore (Machine.flush_shards m);
  let s0 = Machine.shard_counters m ~shard:0 in
  let s1 = Machine.shard_counters m ~shard:1 in
  check Alcotest.int "shard 0 loads" 1 s0.Hierarchy.loads;
  check Alcotest.int "shard 1 loads" 1 s1.Hierarchy.loads;
  check Alcotest.int "shard 0 misses L1" 1 s0.Hierarchy.l1_misses;
  (* Shard 0 merged first, so only it missed the shared LLC; shard 1
     missed its private levels but hit the LLC. *)
  check Alcotest.int "shard 0 missed LLC" 1 s0.Hierarchy.llc_misses;
  check Alcotest.int "shard 1 hit LLC" 0 s1.Hierarchy.llc_misses;
  (* The per-shard view is the per-core view (see machine.mli). *)
  check Alcotest.bool "shard = core counters" true
    (s0 = Machine.core_counters m ~core:0);
  let c = Machine.counters m in
  check Alcotest.int "machine-wide loads" 2 c.Hierarchy.loads;
  check Alcotest.int "one LLC miss machine-wide" 1 c.Hierarchy.llc_misses;
  Alcotest.check_raises "bad shard"
    (Invalid_argument "Machine: shard index out of range") (fun () ->
      ignore (Machine.shard_counters m ~shard:2))

let machine_shard_flush_discards_log () =
  let m = Machine.create ~cfg:machine_cfg ~cores:2 () in
  Machine.attach_shards m 1;
  ignore (Machine.load m ~core:0 0);
  Machine.flush m;
  check Alcotest.bool "pending log discarded" false (Machine.shards_dirty m);
  let lats = Machine.flush_shards m in
  check Alcotest.int "nothing to replay" 0 lats.(0)

let suite =
  [
    ( "memsim.cache",
      [
        case "miss then hit" `Quick cache_miss_then_hit;
        case "line granularity" `Quick cache_line_of_addr;
        case "LRU eviction" `Quick cache_lru_eviction;
        case "probe has no side effect" `Quick cache_probe_no_side_effect;
        case "insert" `Quick cache_insert;
        case "invalidate" `Quick cache_invalidate;
        case "bad geometry rejected" `Quick cache_bad_geometry;
        case "associativity" `Quick cache_associativity_capacity;
        QCheck_alcotest.to_alcotest prop_cache_hit_after_access;
      ] );
    ( "memsim.prefetcher",
      [
        case "ascending stream" `Quick prefetcher_detects_ascending_stream;
        case "descending stream" `Quick prefetcher_detects_descending_stream;
        case "random traffic" `Quick prefetcher_ignores_random;
        case "interleaved streams" `Quick prefetcher_tracks_interleaved_streams;
        case "reset" `Quick prefetcher_reset;
      ] );
    ( "memsim.hierarchy",
      [
        case "latency ladder" `Quick hierarchy_latencies;
        case "counters" `Quick hierarchy_counters;
        case "L2 hit" `Quick hierarchy_l2_hit;
        case "stores fill and are buffered" `Quick hierarchy_store_fills;
        case "range load" `Quick hierarchy_range;
        case "range spans lines" `Quick hierarchy_range_partial_lines;
        case "prefetch hides streams" `Quick hierarchy_prefetch_hides_stream;
        case "flush" `Quick hierarchy_flush;
      ] );
    ( "memsim.machine",
      [
        case "private L1, shared LLC" `Quick machine_private_l1;
        case "machine-wide counters" `Quick machine_shared_llc_counts;
        case "core bounds" `Quick machine_core_bounds;
        case "flush" `Quick machine_flush;
      ] );
    ( "memsim.machine.shards",
      [
        case "deferred routing" `Quick machine_shard_defers;
        case "single shard matches inline" `Quick machine_shard_matches_inline;
        case "shard counters" `Quick machine_shard_counters;
        case "flush discards pending log" `Quick
          machine_shard_flush_discards_log;
      ] );
  ]
