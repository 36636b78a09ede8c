(* Tests for hcsgc.experiments: the runner, report rendering, and tiny
   end-to-end figure slices (subset of configs, miniature workloads). *)

module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Layout = Hcsgc_heap.Layout
module Runner = Hcsgc_experiments.Runner
module Report = Hcsgc_experiments.Report
module Tables = Hcsgc_experiments.Tables
module Artefacts = Hcsgc_experiments.Artefacts
module Fig_synthetic = Hcsgc_experiments.Fig_synthetic
module Fig_graph = Hcsgc_experiments.Fig_graph
module Synthetic = Hcsgc_workloads.Synthetic
module Dataset = Hcsgc_graph.Dataset

let check = Alcotest.check
let case = Alcotest.test_case

let layout = Layout.scaled ~small_page:(16 * 1024)

let tiny_experiment =
  {
    Runner.name = "tiny";
    key = "test-tiny;el=1000;apl=500;heap=4194304";
    make_vm =
      (fun config -> Vm.create ~layout ~config ~max_heap:(4 * 1024 * 1024) ());
    workload =
      (fun vm ~run ->
        ignore
          (Synthetic.run vm
             {
               Synthetic.default with
               Synthetic.elements = 1_000;
               accesses_per_loop = 500;
               loops = 4;
               garbage_words = 8;
               seed = run;
             }));
  }

let runner_shape () =
  let results = Runner.run_configs ~config_ids:[ 0; 4 ] ~runs:2 tiny_experiment in
  check Alcotest.int "two configs" 2 (List.length results);
  List.iter
    (fun (_, samples) ->
      check Alcotest.int "two runs" 2 (Array.length samples);
      Array.iter
        (fun m ->
          check Alcotest.bool "wall positive" true (m.Runner.wall > 0.0);
          check Alcotest.bool "loads positive" true (m.Runner.loads > 0.0))
        samples)
    results

let runner_repetition_deterministic () =
  let r1 = Runner.run_configs ~config_ids:[ 0 ] ~runs:2 tiny_experiment in
  let r2 = Runner.run_configs ~config_ids:[ 0 ] ~runs:2 tiny_experiment in
  let walls r = List.assoc 0 r |> Array.map (fun m -> m.Runner.wall) in
  check (Alcotest.array (Alcotest.float 1e-9)) "same walls" (walls r1) (walls r2)

let runner_run_index_varies_seed () =
  let r = Runner.run_configs ~config_ids:[ 0 ] ~runs:2 tiny_experiment in
  let samples = List.assoc 0 r in
  (* Different workload seeds give (almost surely) different walls. *)
  check Alcotest.bool "run 0 differs from run 1" true
    (samples.(0).Runner.wall <> samples.(1).Runner.wall)

let report_renders () =
  let results = Runner.run_configs ~config_ids:[ 0; 3 ] ~runs:2 tiny_experiment in
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Report.figure fmt ~title:"test figure" ~expectation:"n/a" results;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check Alcotest.bool "title" true (contains "test figure");
  check Alcotest.bool "execution time panel" true (contains "execution time");
  check Alcotest.bool "cache panel" true (contains "cache statistics");
  check Alcotest.bool "gc panel" true (contains "GC statistics")

let report_requires_baseline () =
  let results = Runner.run_configs ~config_ids:[ 3 ] ~runs:1 tiny_experiment in
  let fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  Alcotest.check_raises "no config 0"
    (Invalid_argument "Report.figure: config 0 (the ZGC baseline) missing")
    (fun () -> Report.figure fmt ~title:"x" ~expectation:"y" results)

let wall_estimates_exposed () =
  let results = Runner.run_configs ~config_ids:[ 0; 4 ] ~runs:3 tiny_experiment in
  let ests = Report.wall_estimates results in
  check Alcotest.int "two estimates" 2 (List.length ests);
  List.iter
    (fun (_, e) ->
      check Alcotest.bool "CI ordered" true
        Hcsgc_stats.Bootstrap.(e.ci_lo <= e.mean && e.mean <= e.ci_hi))
    ests

let tables_render () =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Tables.t1 fmt;
  Tables.t2 fmt;
  Tables.t3 ~scale:4 fmt;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  check Alcotest.bool "t1 mentions 2 Mb small pages" true (contains "2 Mb");
  check Alcotest.bool "t2 mentions LazyRelocate" true (contains "LazyRelocate");
  check Alcotest.bool "t3 mentions enwiki" true (contains "enwiki")

let graph_experiment_slice () =
  (* A miniature CC figure: only configs 0 and 4, one run, tiny dataset. *)
  let exp =
    Fig_graph.cc_experiment ~dataset:(Dataset.scaled Dataset.uk_cc ~factor:64)
      ~scale:1 ()
  in
  let results = Runner.run_configs ~config_ids:[ 0; 4 ] ~runs:1 exp in
  List.iter
    (fun (_, samples) ->
      Array.iter
        (fun m -> check Alcotest.bool "ran" true (m.Runner.wall > 0.0))
        samples)
    results

let synthetic_experiment_accessor () =
  let exp = Fig_synthetic.experiment ~phases:2 ~scale:50 () in
  let results = Runner.run_configs ~config_ids:[ 0 ] ~runs:1 exp in
  check Alcotest.int "one config" 1 (List.length results)

let heap_series_renders () =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Report.heap_usage_series fmt ~max_heap:1000 [ (0, 100); (10, 500); (20, 900) ];
  Format.pp_print_flush fmt ();
  check Alcotest.bool "renders" true (String.length (Buffer.contents buf) > 0)

(* The artefact registry: ids are unique, and DESIGN.md's per-experiment
   index names exactly the registry's ids in its "hcsgc-run figure ID"
   column, so every documented command resolves. *)
let registry_ids_unique () =
  List.iter
    (fun a ->
      check Alcotest.bool ("find " ^ a.Artefacts.id ^ " is this entry") true
        (match Artefacts.find a.Artefacts.id with
        | Some b -> b == a
        | None -> false))
    Artefacts.all

let design_md_ids_resolve () =
  (* the test binary runs in _build/default/test under dune runtest *)
  let path = List.find Sys.file_exists [ "../DESIGN.md"; "DESIGN.md" ] in
  let marker = "`hcsgc-run figure " in
  let m = String.length marker in
  let rec ids_in line i =
    if i + m > String.length line then []
    else if String.sub line i m = marker then
      let stop = String.index_from line (i + m) '`' in
      String.sub line (i + m) (stop - i - m) :: ids_in line stop
    else ids_in line (i + 1)
  in
  let documented =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"|")
    |> List.concat_map (fun line -> ids_in line 0)
  in
  List.iter
    (fun id ->
      check Alcotest.bool ("DESIGN.md id resolves: " ^ id) true
        (Artefacts.find id <> None))
    documented;
  List.iter
    (fun a ->
      check Alcotest.bool ("documented in DESIGN.md: " ^ a.Artefacts.id) true
        (List.mem a.Artefacts.id documented))
    Artefacts.all

let suite =
  [
    ( "experiments.artefacts",
      [
        case "registry ids unique" `Quick registry_ids_unique;
        case "DESIGN.md ids resolve" `Quick design_md_ids_resolve;
      ] );
    ( "experiments.runner",
      [
        case "shape" `Quick runner_shape;
        case "deterministic" `Quick runner_repetition_deterministic;
        case "run index varies seed" `Quick runner_run_index_varies_seed;
      ] );
    ( "experiments.report",
      [
        case "renders all panels" `Quick report_renders;
        case "requires baseline" `Quick report_requires_baseline;
        case "wall estimates" `Quick wall_estimates_exposed;
        case "heap series" `Quick heap_series_renders;
      ] );
    ( "experiments.tables", [ case "t1/t2/t3 render" `Quick tables_render ] );
    ( "experiments.figures",
      [
        case "CC slice runs" `Slow graph_experiment_slice;
        case "synthetic accessor" `Quick synthetic_experiment_accessor;
      ] );
  ]
