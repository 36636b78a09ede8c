(* Tests of the benchmark itself: the metric registry against
   BENCHMARK.json, span bookkeeping, the time limit, host-speed scaling,
   and the warm-equals-cold and traced-equals-untraced checks on tiny
   workloads. *)

open Hcsbench

let read_file path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json () =
  read_file (Filename.concat (Filename.concat ".." "..") "BENCHMARK.json")

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let count s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let name_ok n =
  n <> ""
  && String.length n <= 64
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let unit_ok u =
  u <> ""
  && String.length u <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       u

(* ---------------- registry ---------------- *)

let all_names () =
  List.map fst Registry.workloads
  @ List.map (fun m -> m.Registry.name) (Registry.end_to_end @ Registry.per_layer)

let test_names_units () =
  let names = all_names () in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (name_ok n)) names;
  Alcotest.(check int) "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun m -> Alcotest.(check bool) ("unit of " ^ m.Registry.name) true (unit_ok m.Registry.unit_))
    (Registry.end_to_end @ Registry.per_layer);
  List.iter
    (fun (_, why) ->
      Alcotest.(check bool) "why is one short line" true
        (String.length why <= 200 && not (String.contains why '\n')))
    Registry.workloads

let test_bounds () =
  let bounds =
    List.map (fun m -> Option.get m.Registry.bound) Registry.end_to_end
  in
  List.iter
    (fun b -> Alcotest.(check bool) "0 < bound <= 0.25" true (b > 0.0 && b <= 0.25))
    bounds;
  let setup = List.find (fun m -> m.Registry.name = "setup_s") Registry.end_to_end in
  Alcotest.(check string) "setup_s unit" "s" setup.Registry.unit_;
  Alcotest.(check bool) "setup_s lower" true (setup.Registry.better = Registry.Lower);
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun b -> b <= Option.get setup.Registry.bound) bounds);
  List.iter
    (fun m -> Alcotest.(check bool) "per-layer has no bound" true (m.Registry.bound = None))
    Registry.per_layer

let test_matches_benchmark_json () =
  let json = benchmark_json () in
  List.iter
    (fun m ->
      let line = Registry.to_json m in
      Alcotest.(check bool) line true (contains json line))
    (Registry.end_to_end @ Registry.per_layer);
  List.iter
    (fun (n, why) ->
      let line = Printf.sprintf {|{"name": "%s", "why": "%s"}|} n why in
      Alcotest.(check bool) line true (contains json line))
    Registry.workloads;
  Alcotest.(check int) "no entry BENCHMARK.json lists beyond the registry"
    (List.length (all_names ()))
    (count json {|"name": |})

let test_render () =
  let values trace = List.map (fun m -> (m.Registry.name, 1.5)) (Registry.metrics ~trace) in
  let line = Registry.render ~trace:false ~correct:true ~attempted:3 ~failed:0 (values false) in
  Alcotest.(check bool) "result keys" true
    (contains line {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {|});
  Alcotest.(check bool) "value and unit" true
    (contains line {|"run_s": {"value": 1.5, "unit": "s"}|});
  ignore (Registry.render ~trace:true ~correct:true ~attempted:1 ~failed:0 (values true));
  let rejects what vs =
    Alcotest.(check bool) what true
      (match Registry.render ~trace:false ~correct:true ~attempted:1 ~failed:0 vs with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  rejects "a missing metric" (List.tl (values false));
  rejects "an extra metric" (values false @ [ ("extra", 1.0) ]);
  rejects "per-layer names in an end-to-end line" (values true);
  rejects "a non-finite value"
    (List.map (fun (n, _) -> (n, Float.nan)) (values false));
  Alcotest.(check string) "whole numbers print without a point" "160753"
    (Registry.number 160753.0);
  Alcotest.(check string) "all digits kept" "0.10000000000000001" (Registry.number 0.1)

(* ---------------- spans ---------------- *)

(* A clock that returns the queued instants in order. *)
let fake_clock instants =
  let q = ref instants in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> failwith "fake clock exhausted"

let test_self_time () =
  (* pass [0, 10] holds job [1, 9], which holds workload [2, 5] and
     collect [6, 8]. *)
  let t = Span.create ~clock:(fake_clock [ 0.; 1.; 2.; 5.; 6.; 8.; 9.; 10. ]) () in
  Span.with_ t "pass" (fun () ->
      Span.with_ t "job" (fun () ->
          Span.with_ t "workload" ignore;
          Span.with_ t "collect" ignore));
  let find n = List.find (fun s -> s.Span.name = n) (Span.spans t) in
  let eq = Alcotest.(check (float 1e-9)) in
  eq "pass duration" 10.0 (Span.duration (find "pass"));
  eq "pass self" 2.0 (Span.self_time t (find "pass"));
  eq "job self" 3.0 (Span.self_time t (find "job"));
  eq "leaf self is its duration" 3.0 (Span.self_time t (find "workload"));
  Alcotest.(check (option int)) "parent link" (Some (find "job").Span.id)
    (find "collect").Span.parent;
  eq "self_total sums one name" 2.0 (Span.self_total t "collect")

let test_covered () =
  let eq = Alcotest.(check (float 1e-9)) in
  eq "overlapping children count once" 5.0
    (Span.covered ~lo:0.0 ~hi:10.0 [ (1.0, 4.0); (3.0, 6.0) ]);
  eq "children are clipped to the parent" 2.0
    (Span.covered ~lo:2.0 ~hi:5.0 [ (0.0, 3.0); (4.0, 9.0); (11.0, 12.0) ]);
  eq "disjoint children add" 4.0
    (Span.covered ~lo:0.0 ~hi:10.0 [ (6.0, 8.0); (1.0, 3.0) ])

let test_span_closed_on_exception () =
  let t = Span.create ~clock:(fake_clock [ 0.; 1. ]) () in
  (try Span.with_ t "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded" 1 (List.length (Span.spans t));
  Alcotest.(check bool) "untraced opt runs bare" true (Span.opt None "x" (fun () -> true))

(* ---------------- ledger ---------------- *)

let test_time_limit () =
  let l = Ledger.create () in
  let spin () =
    let r = ref 0 in
    while true do
      r := !r + 1
    done
  in
  Alcotest.(check bool) "an overrun is a failed job" true
    (Ledger.job l ~limit:0.2 ~what:"spin" spin = None);
  Alcotest.(check bool) "a raise is a failed job" true
    (Ledger.job l ~limit:5.0 ~what:"raise" (fun () -> failwith "boom") = None);
  Alcotest.(check (option int)) "a good job returns" (Some 3)
    (Ledger.job l ~limit:5.0 ~what:"ok" (fun () -> 3));
  Ledger.check l ~what:"mismatch" false;
  Ledger.check l ~what:"match" true;
  Alcotest.(check (pair int int)) "attempted, failed" (5, 3) (l.Ledger.attempted, l.Ledger.failed);
  Unix.sleepf 0.3 (* no alarm is left armed *)

(* The far-tier figure's serving family at --scale 4 exhausts its heap:
   a program failure must count as a failed operation, not end the run. *)
let test_program_failure () =
  let module Fig_tier = Hcsgc_experiments.Fig_tier in
  let exp = List.assoc "serve" (Fig_tier.families ~scale:4 ()) in
  let config =
    Fig_tier.tier_config ~capacity:0 ~lat_far:Fig_tier.default_lat_far
      ~promote:true
  in
  let l = Ledger.create () in
  let run () =
    let vm = exp.Hcsgc_experiments.Runner.make_vm config in
    exp.Hcsgc_experiments.Runner.workload vm ~run:0
  in
  Alcotest.(check bool) "Out_of_memory is a failed job" true
    (Ledger.job l ~limit:60.0 ~what:"ftier serve --scale 4" run = None);
  Alcotest.(check (pair int int)) "attempted, failed" (1, 1)
    (l.Ledger.attempted, l.Ledger.failed)

(* ---------------- host-speed scaling ---------------- *)

let test_calib_scale () =
  let close = Alcotest.float 1e-12 in
  Alcotest.check close "nominal speed leaves a time as it is" 2.0
    (Calib.scale ~reference:Calib.nominal 2.0);
  Alcotest.check close "a host twice as slow halves it" 1.0
    (Calib.scale ~reference:(2.0 *. Calib.nominal) 2.0)

(* ---------------- checks on tiny workloads ---------------- *)

let tiny = { Layers.synthetic_scale = 400; h2_scale = 2000; serve_cycles = 4_000_000 }
let dirs = ref 0

let pass ?traced ledger w seed =
  incr dirs;
  let dir = Printf.sprintf "_store-%d" !dirs in
  let limit () = 60.0 in
  match Layers.run_pass ?traced ~ledger ~limit ~dir ~sizes:tiny w ~seed () with
  | Some p -> p
  | None -> Alcotest.fail "a tiny pass failed"

let test_workload w () =
  let l = Ledger.create () in
  let u = pass l w 1 in
  let t = pass ~traced:true l w 1 in
  let again = pass l w 1 in
  let other = pass l w 2 in
  Alcotest.(check int) "no failed operation, warm replay included" 0 l.Ledger.failed;
  Alcotest.(check bool) "checks ran" true (l.Ledger.attempted > 4);
  Alcotest.(check string) "traced equals untraced" u.Layers.digest t.Layers.digest;
  Alcotest.(check string) "one seed repeats" u.Layers.digest again.Layers.digest;
  Alcotest.(check bool) "another seed differs" true (u.Layers.digest <> other.Layers.digest);
  Alcotest.(check bool) "simulated work ran" true (u.Layers.ops > 0.0 && u.Layers.sim_wall > 0.0);
  Alcotest.(check (float 0.0)) "every stored job replays warm" 1.0
    (List.assoc "result_store.hit_ratio" u.Layers.layers);
  Alcotest.(check bool) "traced pass times the workload" true
    (List.assoc "runner.workload_s" t.Layers.layers > 0.0)

let () =
  Alcotest.run "hcsbench"
    [
      ( "registry",
        [
          Alcotest.test_case "names and units" `Quick test_names_units;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "matches BENCHMARK.json" `Quick test_matches_benchmark_json;
          Alcotest.test_case "render" `Quick test_render;
        ] );
      ( "span",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "covered" `Quick test_covered;
          Alcotest.test_case "closed on exception" `Quick test_span_closed_on_exception;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "time limit" `Quick test_time_limit;
          Alcotest.test_case "program failure" `Quick test_program_failure;
        ] );
      ("calib", [ Alcotest.test_case "scale" `Quick test_calib_scale ]);
      ( "checks",
        [
          Alcotest.test_case "synthetic-sweep" `Quick (test_workload Layers.Synthetic_sweep);
          Alcotest.test_case "serve-tail" `Quick (test_workload Layers.Serve_tail);
          Alcotest.test_case "h2-hot" `Quick (test_workload Layers.H2_hot);
        ] );
    ]
