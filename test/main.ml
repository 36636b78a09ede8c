(* Test entry point: one alcotest binary over every library's suite. *)

let () =
  Alcotest.run "hcsgc"
    (Test_util.suite @ Test_exec.suite @ Test_memsim.suite @ Test_tlb.suite
   @ Test_heap.suite
   @ Test_stats.suite
   @ Test_core.suite @ Test_runtime.suite @ Test_multi_mutator.suite @ Test_shard.suite
   @ Test_graph.suite
   @ Test_workloads.suite @ Test_experiments.suite @ Test_store.suite
   @ Test_collector_unit.suite
   @ Test_autotuner.suite @ Test_gc_log.suite @ Test_telemetry.suite
   @ Test_lru.suite @ Test_keydist.suite @ Test_serve.suite
   @ Test_misc.suite
   @ Test_fuzz.suite @ Test_verify.suite @ Test_tier.suite
   @ Test_hotpath.suite
   @ Test_gccycle.suite)
