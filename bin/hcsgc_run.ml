(* hcsgc-run: command-line driver for single experiments and for the
   paper's tables and figures.

   Examples:
     hcsgc-run synthetic --config 16 --scale 2
     hcsgc-run synthetic --all-configs --runs 5
     hcsgc-run graph --algo mc --dataset uk --config 4
     hcsgc-run h2 --config 7
     hcsgc-run specjbb --config 0
     hcsgc-run figure                     # every table and figure
     hcsgc-run figure f4 f12 -j 4         # selected artefacts
     hcsgc-run figure f9 --runs 5 --scale 2

   Every flag is declared once below and shared by the commands that read
   it.  A command accepts only the flags it reads, and an out-of-range
   value is a usage error (exit 124) before any simulation starts. *)

open Cmdliner
module E = Hcsgc_experiments
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Gc_stats = Hcsgc_core.Gc_stats
module Layout = Hcsgc_heap.Layout
module H = Hcsgc_memsim.Hierarchy

let fmt = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Converters                                                          *)
(* ------------------------------------------------------------------ *)

(* [conv] restricted to the values satisfying [ok]. *)
let checked conv ~ok ~expected =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (Printf.sprintf "invalid value '%s', expected %s" s expected)
    | Error (`Msg e) -> Error e
  in
  Arg.conv' (parse, Arg.conv_printer conv)

let int_at_least lo =
  checked Arg.int ~ok:(fun n -> n >= lo)
    ~expected:(Printf.sprintf "an integer >= %d" lo)

let positive = int_at_least 1
let non_negative = int_at_least 0

let positive_float =
  checked Arg.float ~ok:(fun x -> x > 0.0) ~expected:"a positive number"

(* A flag in one of the library's CLI spellings (key distribution, arrival
   process, request mix), parsed by [of_string]; the spelling is kept only
   to print the default in --help. *)
let spelled of_string default_spelling arg_info =
  let parse s = Result.map (fun v -> (s, v)) (of_string s) in
  let print ppf (s, _) = Format.pp_print_string ppf s in
  let default = (default_spelling, Result.get_ok (of_string default_spelling)) in
  Term.(const snd $ Arg.(value & opt (conv' (parse, print)) default arg_info))

(* ------------------------------------------------------------------ *)
(* Shared flags and terms                                              *)
(* ------------------------------------------------------------------ *)

let config_id =
  let doc = "Table 2 configuration id (0-18); 0 is unmodified ZGC." in
  let id =
    checked Arg.int
      ~ok:(fun n -> n >= 0 && n < Config.id_count)
      ~expected:(Printf.sprintf "a Table 2 id (0-%d)" (Config.id_count - 1))
  in
  Arg.(value & opt id 0 & info [ "config"; "c" ] ~docv:"ID" ~doc)

let config = Term.(const Config.of_id $ config_id)

let scale =
  let doc = "Divide workload size by $(docv)." in
  Arg.(value & opt positive 1 & info [ "scale" ] ~docv:"K" ~doc)

let shard_domains =
  let doc =
    "Execution model for the memory-hierarchy simulation. 0 (default) is \
     the classic inline interleave. $(docv) >= 1 selects epoch-sharded \
     execution: each mutator core's cache traffic is deferred and replayed \
     across up to $(docv) worker domains at epoch barriers, then merged \
     into the shared LLC in mutator order. Results are byte-identical at \
     any $(docv) >= 1 (only wall-clock time changes); sharded and inline \
     runs are cached under distinct keys. Orthogonal to --jobs, which \
     parallelises across whole runs of a sweep; --shard-domains \
     parallelises inside a single many-mutator run."
  in
  Arg.(value & opt non_negative 0 & info [ "shard-domains" ] ~docv:"N" ~doc)

let seed =
  let doc = "Workload seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let verify =
  let doc =
    "Run under the heap sanitizer: full-heap invariant verification plus \
     the differential mark-sweep oracle at every GC phase boundary. \
     Verification is read-only, so results are byte-identical to an \
     unverified run; corruption aborts with a diagnostic. Also enabled by \
     HCSGC_VERIFY=1 in the environment."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let runs =
  let doc = "Sample size per configuration in a sweep." in
  Arg.(value & opt positive 3 & info [ "runs" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Worker domains for sweeps. The default is the machine's recommended \
     domain count, clamped. Results are aggregated in job order, so output \
     is identical at any $(docv)."
  in
  Arg.(value
      & opt positive (Hcsgc_exec.Pool.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* --all-configs with its sample size and worker count; [None] is a
   single run under --config. *)
type sweep = { runs : int; jobs : int }

let sweep =
  let all_configs =
    let doc = "Sweep all 19 configurations and print the figure panels." in
    Arg.(value & flag & info [ "all-configs"; "a" ] ~doc)
  in
  let sweep all runs jobs = if all then Some { runs; jobs } else None in
  Term.(const sweep $ all_configs $ runs $ jobs)

(* The persistent result store: [None] under --no-cache. *)
let cache =
  let dir =
    let doc =
      "Persistent result store for sweep jobs and profiled runs. Jobs \
       are content-addressed by experiment parameters, configuration \
       knobs, seed and verify flag; warm sweeps are byte-identical to cold \
       ones and only faster."
    in
    Arg.(value
        & opt string E.Runner.default_cache_dir
        & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache =
    let doc = "Disable the result store entirely." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let refresh =
    let doc =
      "Recompute every job and overwrite its result-store entry (use after \
       changes the fingerprint cannot see, e.g. to re-measure timings)."
    in
    Arg.(value & flag & info [ "refresh" ] ~doc)
  in
  let cache_of dir no_cache refresh =
    if no_cache then None else Some (E.Runner.cache ~refresh ~dir ())
  in
  Term.(const cache_of $ dir $ no_cache $ refresh)

type trace = { out : string option; sample : int }

let trace =
  let out =
    let doc =
      "Write a Chrome trace-event JSON profile of the run to $(docv) \
       (load it in Perfetto or chrome://tracing), plus a CSV counter \
       time-series and a plain-text summary next to it."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let sample =
    let doc =
      "Counter sampling interval in simulated cycles (with --trace-out)."
    in
    Arg.(value & opt positive 50_000 & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  Term.(const (fun out sample -> { out; sample }) $ out $ sample)

(* Far-memory tier knobs.  Default off (capacity 0), which leaves each
   command's output byte-identical to the tier-free build. *)

let lat_far =
  let doc =
    "Far-tier access latency in cycles (a demand load into a far-resident \
     line pays $(docv) instead of DRAM latency)."
  in
  Arg.(value
      & opt positive E.Fig_tier.default_lat_far
      & info [ "lat-far" ] ~docv:"CYCLES" ~doc)

let tier_no_promote =
  let doc =
    "Leave far pages stranded on mutator access (demote-only tiering) \
     instead of promoting them back to DRAM."
  in
  Arg.(value & flag & info [ "tier-no-promote" ] ~doc)

(* --config with the tier flags folded in: the id and its checked
   Config.t.  An invalid combination (a tier without HOTNESS) is a usage
   error. *)
let tiered_config =
  let capacity =
    let doc =
      "Far-memory tier capacity in small pages; 0 (default) disables \
       tiering. Cold pages (no hot evidence across a GC cycle) are demoted \
       behind DRAM at mark end and promoted back on barrier access. \
       Requires a HOTNESS configuration."
    in
    Arg.(value & opt non_negative 0 & info [ "tier-capacity" ] ~docv:"PAGES" ~doc)
  in
  let fold id capacity lat_far no_promote =
    let config =
      {
        (Config.of_id id) with
        Config.tier_capacity_pages = capacity;
        lat_far;
        tier_promote = not no_promote;
      }
    in
    match Config.validate config with
    | Ok config -> Ok (id, config)
    | Error e -> Error (Printf.sprintf "--config %d with tier flags: %s" id e)
  in
  Term.(
    term_result' ~usage:true
      (const fold $ config_id $ capacity $ lat_far $ tier_no_promote))

(* ------------------------------------------------------------------ *)
(* Reports and telemetry artefacts                                     *)
(* ------------------------------------------------------------------ *)

module Tel = Hcsgc_telemetry

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let sibling path ext = Filename.remove_extension path ^ ext

(* One profiled run produces three artefacts: the trace itself, a CSV of
   the counter samples, and a perf-report-style text summary (also echoed
   to stdout). *)
let emit_artifacts ~trace_out recorder =
  let csv_path = sibling trace_out ".csv" in
  let summary_path = sibling trace_out ".summary.txt" in
  write_file trace_out (Tel.Chrome_trace.to_string recorder);
  write_file csv_path (Tel.Csv_export.to_string recorder);
  let summary = Tel.Summary.to_string recorder in
  write_file summary_path summary;
  Format.fprintf fmt "%s@." summary;
  Format.fprintf fmt "wrote %s, %s, %s@." trace_out csv_path summary_path

let report_single vm =
  let st = Vm.gc_stats vm in
  let c = Vm.counters vm in
  let mc = Vm.mutator_counters vm in
  Format.fprintf fmt "execution time: %d cycles@." (Vm.wall_cycles vm);
  Format.fprintf fmt "  mutator=%d stw=%d gc(concurrent)=%d@."
    (Vm.mutator_cycles vm) (Vm.stw_cycles vm) (Vm.gc_cycles vm);
  Format.fprintf fmt "GC: %d cycles, EC median %.1f small pages, %d freed pages@."
    (Gc_stats.cycles st)
    (Gc_stats.median_small_pages_in_ec st)
    (Gc_stats.pages_freed st);
  Format.fprintf fmt "relocation: %d by mutator, %d by GC (%d bytes)@."
    (Gc_stats.objects_relocated_by_mutator st)
    (Gc_stats.objects_relocated_by_gc st)
    (Gc_stats.bytes_relocated st);
  Format.fprintf fmt "hotness flags: %d@." (Gc_stats.hot_flags st);
  Format.fprintf fmt "cache (whole process): loads=%d l1m=%d llcm=%d@." c.H.loads
    c.H.l1_misses c.H.llc_misses;
  Format.fprintf fmt "cache (mutator only):  loads=%d l1m=%d llcm=%d@."
    mc.H.loads mc.H.l1_misses mc.H.llc_misses;
  match Vm.tier vm with
  | None -> ()
  | Some t ->
      Format.fprintf fmt
        "far tier: %d far loads, %d pages demoted, %d promoted, peak %d KiB@."
        (Vm.far_loads vm) (Gc_stats.pages_demoted st)
        (Gc_stats.pages_promoted st)
        (Hcsgc_memsim.Tier.peak_bytes t / 1024)

(* The result store's hits/misses line, on stderr after a sweep. *)
let report_store tag cache =
  let module R = Hcsgc_store.Result_store in
  Option.iter
    (fun c ->
      let store = c.E.Runner.store in
      let s = R.counters store in
      Format.eprintf "[%s] %s@." tag
        (Tel.Summary.store_line ~dir:(R.dir store) ~hits:s.R.hits
           ~misses:s.R.misses ~corrupt:s.R.corrupt ~stored:s.R.stored
           ~bytes_read:s.R.bytes_read ~bytes_written:s.R.bytes_written))
    cache

(* ------------------------------------------------------------------ *)
(* synthetic / graph / h2 / tradebeans: one experiment, run or swept   *)
(* ------------------------------------------------------------------ *)

let run_experiment (exp : E.Runner.experiment) (config_id, config) sweep trace
    verify cache =
  match sweep with
  | Some { runs; jobs } ->
      if trace.out <> None then
        Format.eprintf "[run] --trace-out ignored with --all-configs@.";
      if config.Config.tier_capacity_pages > 0 then
        Format.eprintf
          "[run] tier flags ignored with --all-configs (Table 2 sweep; use \
           the tier command for capacity sweeps)@.";
      let results =
        E.Runner.run_configs ~runs ~jobs ~verify ?cache
          ~progress:(fun m -> Format.eprintf "[run] %s@." m)
          exp
      in
      E.Report.figure fmt ~title:exp.E.Runner.name
        ~expectation:"(ad-hoc sweep; see hcsgc-run figure for paper figures)"
        results;
      report_store "run" cache
  | None -> (
      Format.fprintf fmt "workload %s under config %d (%s)%s@." exp.E.Runner.name
        config_id (Config.to_string config)
        (if verify then " [verified]" else "");
      let vm = exp.E.Runner.make_vm config in
      if verify then Vm.enable_verification vm;
      let recorder =
        Option.map
          (fun _ -> Vm.enable_telemetry ~sample_interval:trace.sample vm)
          trace.out
      in
      exp.E.Runner.workload vm ~run:0;
      Vm.finish vm;
      report_single vm;
      match (trace.out, recorder) with
      | Some path, Some recorder -> emit_artifacts ~trace_out:path recorder
      | _ -> ())

(* A workload command: the shared flags plus the command's own
   [experiment] term.  An experiment that rejects its parameters
   ([Invalid_argument]) is a usage error. *)
let workload_cmd name ~doc
    (experiment : (scale:int -> shard_domains:int -> E.Runner.experiment) Term.t)
    =
  let build make scale shard_domains =
    try Ok (make ~scale ~shard_domains) with Invalid_argument e -> Error e
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run_experiment
      $ term_result' ~usage:true
          (const build $ experiment $ scale $ shard_domains)
      $ tiered_config $ sweep $ trace $ verify $ cache)

let synthetic_cmd =
  let phases =
    Arg.(value & opt positive 1 & info [ "phases" ] ~docv:"P"
           ~doc:"Access-pattern phases (Fig. 5 uses 3).")
  in
  let cold_ratio =
    Arg.(value & opt non_negative 0 & info [ "cold-ratio" ] ~docv:"R"
           ~doc:"Never-accessed cold elements per hot element (Fig. 6 uses 10).")
  in
  let saturated =
    let doc =
      "Pin mutator and GC to a single core: the core pinning of Fig. 6's \
       setup (profile --exp f6 runs the full setup). Cannot be combined \
       with --shard-domains."
    in
    Arg.(value & flag & info [ "saturated" ] ~doc)
  in
  let experiment phases cold_ratio saturated ~scale ~shard_domains =
    if saturated && shard_domains > 0 then
      invalid_arg "--saturated runs on one core; it cannot be sharded";
    E.Fig_synthetic.experiment ~phases ~cold_ratio ~saturated ~shard_domains
      ~scale ()
  in
  workload_cmd "synthetic" ~doc:"The paper's synthetic micro-benchmark (§4.4)"
    Term.(const experiment $ phases $ cold_ratio $ saturated)

let graph_cmd =
  let algo =
    Arg.(value
        & opt (enum [ ("cc", `Cc); ("mc", `Mc) ]) `Cc
        & info [ "algo" ] ~docv:"cc|mc" ~doc:"Connected components or maximal cliques.")
  in
  let dataset =
    Arg.(value
        & opt (enum [ ("uk", `Uk); ("enwiki", `Enwiki) ]) `Uk
        & info [ "dataset" ] ~docv:"uk|enwiki" ~doc:"Table 3 input (generator stand-in).")
  in
  let experiment algo dataset ~scale ~shard_domains =
    let module D = Hcsgc_graph.Dataset in
    match (algo, dataset) with
    | `Cc, `Uk ->
        E.Fig_graph.cc_experiment ~shard_domains ~dataset:D.uk_cc
          ~scale:(4 * scale) ()
    | `Cc, `Enwiki ->
        E.Fig_graph.cc_experiment ~shard_domains ~dataset:D.enwiki_cc
          ~scale:(4 * scale) ()
    | `Mc, `Uk ->
        E.Fig_graph.mc_experiment ~shard_domains ~dataset:D.uk_mc
          ~scale:(2 * scale) ()
    | `Mc, `Enwiki ->
        E.Fig_graph.mc_experiment ~shard_domains ~dataset:D.enwiki_mc
          ~scale:(2 * scale) ()
  in
  workload_cmd "graph" ~doc:"JGraphT-style graph workloads (§4.5)"
    Term.(const experiment $ algo $ dataset)

let h2_cmd =
  workload_cmd "h2" ~doc:"In-memory-database workload (DaCapo h2 stand-in, §4.6)"
    (Term.const (fun ~scale ~shard_domains ->
         E.Fig_dacapo.h2_experiment ~shard_domains ~scale ()))

let tradebeans_cmd =
  workload_cmd "tradebeans"
    ~doc:"Trading-session workload (DaCapo tradebeans stand-in, §4.6)"
    (Term.const (fun ~scale ~shard_domains ->
         E.Fig_dacapo.tradebeans_experiment ~shard_domains ~scale ()))

(* ------------------------------------------------------------------ *)
(* specjbb / lru                                                       *)
(* ------------------------------------------------------------------ *)

let specjbb_cmd =
  let run config scale shard_domains seed verify =
    let module S = Hcsgc_workloads.Specjbb_sim in
    let params = E.Fig_specjbb.experiment_params ~scale in
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config
        ~mutators:params.S.handlers ~shard_domains ~config
        ~max_heap:(24 * 1024 * 1024) ()
    in
    if verify then Vm.enable_verification vm;
    let r = S.run vm { params with S.seed } in
    Vm.finish vm;
    Format.fprintf fmt "throughput (max-jOPS-like):    %.2f txn/Mcycle@."
      r.S.max_jops;
    Format.fprintf fmt "latency (critical-jOPS-like):  %.2f txn/Mcycle@."
      r.S.critical_jops;
    Format.fprintf fmt "mean latency: %.0f cycles; survival: %.2f%%@."
      r.S.mean_latency
      (100.0 *. r.S.survival_rate);
    report_single vm
  in
  Cmd.v
    (Cmd.info "specjbb" ~doc:"SPECjbb2015-style ramping workload (§4.7)")
    Term.(const run $ config $ scale $ shard_domains $ seed $ verify)

let lru_cmd =
  let gc_log =
    let doc = "Print the structured GC event log after the run." in
    Arg.(value & flag & info [ "gc-log" ] ~doc)
  in
  let run config gc_log seed verify =
    let module L = Hcsgc_workloads.Lru_sim in
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config ~gc_log ~config
        ~max_heap:(4 * 1024 * 1024) ()
    in
    if verify then Vm.enable_verification vm;
    let r = L.run vm { L.default with L.seed } in
    Vm.finish vm;
    Format.fprintf fmt "gets=%d hits=%d (%.1f%%) puts=%d evictions=%d@."
      r.L.gets r.L.hits
      (100.0 *. float_of_int r.L.hits /. float_of_int (max 1 r.L.gets))
      r.L.puts r.L.evictions;
    report_single vm;
    if gc_log then
      match Vm.gc_log vm with
      | Some recorder ->
          Format.fprintf fmt "@.-- GC event log (newest window) --@.%a"
            Hcsgc_core.Gc_log.pp recorder
      | None -> ()
  in
  Cmd.v
    (Cmd.info "lru" ~doc:"LRU object-cache service (pointer-surgery workload)")
    Term.(const run $ config $ gc_log $ seed $ verify)

(* ------------------------------------------------------------------ *)
(* serve: the KV serving tier with SLO accounting                      *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Serve = Hcsgc_serve.Serve in
  let module Slo = Hcsgc_serve.Slo in
  let d = Serve.default in
  let params =
    let keys =
      Arg.(value & opt positive d.Serve.keys & info [ "keys" ] ~docv:"N"
             ~doc:"Distinct keys in the store (all prepopulated).")
    in
    let value_words =
      Arg.(value & opt positive d.Serve.value_words & info [ "value-words" ]
             ~docv:"W" ~doc:"Payload words per entry.")
    in
    let mutators =
      Arg.(value & opt positive d.Serve.mutators & info [ "mutators" ] ~docv:"N"
             ~doc:"Serving threads; keys are sharded across them by key mod N.")
    in
    let dist =
      spelled Hcsgc_workloads.Keydist.spec_of_string "zipf:0.99"
        (Arg.info [ "dist" ] ~docv:"SPEC"
           ~doc:"Key distribution: uniform, hotset:HOT,BIAS, zipf[:THETA], \
                 seq[:STRIDE].")
    in
    let mix =
      let of_string s =
        match List.map int_of_string_opt (String.split_on_char ',' s) with
        | [ Some g; Some u; Some sc ]
          when g >= 0 && u >= 0 && sc >= 0 && g + u + sc = 100 ->
            Ok (g, u, sc)
        | _ ->
            Error
              (Printf.sprintf "bad --mix %S (expected G,U,S percentages \
                               summing to 100)" s)
      in
      spelled of_string "60,35,5"
        (Arg.info [ "mix" ] ~docv:"G,U,S"
           ~doc:"Request mix as get,update,scan percentages (sum 100).")
    in
    let scan_len =
      Arg.(value & opt positive d.Serve.mix.Serve.scan_len & info [ "scan-len" ]
             ~docv:"L" ~doc:"Consecutive slots read per scan request.")
    in
    let arrivals =
      spelled Hcsgc_serve.Arrival.process_of_string "constant"
        (Arg.info [ "arrivals" ] ~docv:"PROC"
           ~doc:"Arrival process: constant, diurnal[:TROUGH], \
                 bursty[:PERIOD,BURST,MULT].")
    in
    let load =
      Arg.(value & opt positive_float d.Serve.load & info [ "load" ] ~docv:"R"
             ~doc:"Offered load in requests per megacycle (open loop).")
    in
    let duration =
      Arg.(value & opt positive (d.Serve.duration / 1_000_000)
           & info [ "duration" ] ~docv:"MC" ~doc:"Arrival window in megacycles.")
    in
    let params keys value_words mutators dist (gets, updates, scans) scan_len
        process load duration seed =
      {
        Serve.keys;
        value_words;
        mutators;
        dist;
        mix = { Serve.gets; updates; scans; scan_len };
        process;
        load;
        duration = duration * 1_000_000;
        seed;
      }
    in
    Term.(
      const params $ keys $ value_words $ mutators $ dist $ mix $ scan_len
      $ arrivals $ load $ duration $ seed)
  in
  let slo_us =
    Arg.(value & opt non_negative 5 & info [ "slo-us" ] ~docv:"US"
           ~doc:"Latency SLO in microseconds (at 3 GHz); 0 disables \
                 violation accounting.")
  in
  let heap_mb =
    Arg.(value & opt positive 8 & info [ "heap-mb" ] ~docv:"MB"
           ~doc:"Max heap in MiB.")
  in
  let run (config_id, config) p slo_us heap_mb shard_domains trace verify =
    Format.fprintf fmt "serve under config %d (%s)%s%s@." config_id
      (Config.to_string config)
      (if shard_domains > 0 then
         Printf.sprintf " [sharded x%d]" shard_domains
       else "")
      (if verify then " [verified]" else "");
    let vm =
      Vm.create
        ~layout:(Layout.scaled ~small_page:(64 * 1024))
        ~machine_config:E.Scaled_machine.config ~mutators:p.Serve.mutators
        ~shard_domains ~trigger:0.10 ~config
        ~max_heap:(heap_mb * 1024 * 1024)
        ()
    in
    if verify then Vm.enable_verification vm;
    (* Telemetry is always on here: pause intervals feed the SLO
       attribution (and it charges no simulated cycles). *)
    let recorder = Vm.enable_telemetry ~sample_interval:trace.sample vm in
    let r = Serve.run vm p in
    Vm.finish vm;
    let report =
      Slo.analyze
        ~slo:(slo_us * Slo.cycles_per_us)
        ~duration:p.Serve.duration
        ~pauses:(Hcsgc_telemetry.Analyzer.pause_intervals recorder)
        r
    in
    Format.fprintf fmt "%a@." Slo.pp report;
    Format.fprintf fmt "%a@." Slo.pp_histogram (Slo.histogram r.Serve.requests);
    Format.fprintf fmt "checksum: %d@.@." r.Serve.checksum;
    report_single vm;
    Option.iter (fun path -> emit_artifacts ~trace_out:path recorder) trace.out
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Simulated KV-store serving tier: open-loop arrivals, sharded \
          serving threads, tail-latency SLO accounting with GC-pause \
          attribution")
    Term.(
      const run $ tiered_config $ params $ slo_us $ heap_mb $ shard_domains
      $ trace $ verify)

(* ------------------------------------------------------------------ *)
(* profile: one (experiment, config) pair with full telemetry          *)
(* ------------------------------------------------------------------ *)

let profile_cmd =
  let experiments =
    let module D = Hcsgc_graph.Dataset in
    [
      ("f4", fun ~scale -> E.Fig_synthetic.experiment ~scale ());
      ("f5", fun ~scale -> E.Fig_synthetic.experiment ~phases:3 ~scale ());
      ( "f6",
        fun ~scale ->
          E.Fig_synthetic.experiment ~cold_ratio:10 ~saturated:true
            ~heap_mult:2 ~scale () );
      ( "cc-uk",
        fun ~scale ->
          E.Fig_graph.cc_experiment ~dataset:D.uk_cc ~scale:(4 * scale) () );
      ( "cc-enwiki",
        fun ~scale ->
          E.Fig_graph.cc_experiment ~dataset:D.enwiki_cc ~scale:(4 * scale) () );
      ( "mc-uk",
        fun ~scale ->
          E.Fig_graph.mc_experiment ~dataset:D.uk_mc ~scale:(2 * scale) () );
      ( "mc-enwiki",
        fun ~scale ->
          E.Fig_graph.mc_experiment ~dataset:D.enwiki_mc ~scale:(2 * scale) () );
      ("h2", fun ~scale -> E.Fig_dacapo.h2_experiment ~scale ());
      ("tradebeans", fun ~scale -> E.Fig_dacapo.tradebeans_experiment ~scale ());
    ]
  in
  let experiment =
    let names = List.map fst experiments in
    let exp_name =
      let doc = "Experiment to profile: " ^ String.concat ", " names ^ "." in
      Arg.(value
          & opt (enum (List.map (fun n -> (n, n)) names)) "f4"
          & info [ "exp" ] ~docv:"NAME" ~doc)
    in
    Term.(
      const (fun name scale -> List.assoc name experiments ~scale)
      $ exp_name $ scale)
  in
  let run config_id (exp : E.Runner.experiment) trace seed verify cache =
    let trace_out = Option.value trace.out ~default:"trace.json" in
    Format.fprintf fmt "profiling %s under config %d (%s)%s@." exp.E.Runner.name
      config_id
      (Config.to_string (Config.of_id config_id))
      (if verify then " [verified]" else "");
    let job = { E.Runner.exp; config_id; run = seed } in
    let metrics, recorder =
      E.Runner.profile ~sample_interval:trace.sample ~verify ?cache job
    in
    Format.fprintf fmt "execution time: %.0f cycles, %d GC cycles@."
      metrics.E.Runner.wall metrics.E.Runner.gc_cycle_count;
    emit_artifacts ~trace_out recorder;
    report_store "profile" cache
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Profile one (experiment, configuration) pair: run it once with \
          telemetry attached and emit a Chrome trace-event JSON file, a CSV \
          counter time-series and a text summary (pause percentiles, MMU, \
          relocation attribution)")
    Term.(const run $ config_id $ experiment $ trace $ seed $ verify $ cache)

(* ------------------------------------------------------------------ *)
(* fuzz: random-mutator smoke under full verification                  *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let module Fuzz = Hcsgc_fuzz.Fuzz in
  let seeds =
    Arg.(value & opt positive 200 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of consecutive seeds to fuzz (starting at --seed).")
  in
  let ops =
    Arg.(value & opt positive 1_500 & info [ "ops" ] ~docv:"N"
           ~doc:"Actions per seed.")
  in
  let slots =
    Arg.(value & opt positive 24 & info [ "slots" ] ~docv:"N"
           ~doc:"Root-table slots.")
  in
  let out =
    Arg.(value
        & opt string "fuzz-counterexample.txt"
        & info [ "out" ] ~docv:"FILE"
            ~doc:"Where to write the shrunk counterexample on failure.")
  in
  let no_oracle =
    Arg.(value & flag & info [ "no-oracle" ]
           ~doc:"Skip the mark-sweep reachability oracle (invariants only).")
  in
  let mutators =
    Arg.(value & opt positive 1 & info [ "mutators" ] ~docv:"N"
           ~doc:"Deal actions round-robin over $(docv) mutator threads.")
  in
  let run (config_id, config) seed seeds ops slots out no_oracle mutators
      shard_domains =
    Format.fprintf fmt
      "fuzzing %d seed(s) from %d: config %d (%s), %d ops x %d slots, %d \
       mutator(s)%s@."
      seeds seed config_id (Config.to_string config) ops slots mutators
      (if shard_domains > 0 then
         Printf.sprintf " [sharded x%d]" shard_domains
       else "");
    let failed = ref None in
    let i = ref 0 in
    while !failed = None && !i < seeds do
      let s = seed + !i in
      (match
         Fuzz.check_seed ~oracle:(not no_oracle) ~mutators ~shard_domains
           ~config ~slots ~ops ~seed:s ()
       with
      | None ->
          if (!i + 1) mod 25 = 0 || !i + 1 = seeds then
            Format.eprintf "[fuzz] %d/%d seeds ok@." (!i + 1) seeds
      | Some cex -> failed := Some cex);
      incr i
    done;
    match !failed with
    | None ->
        Format.fprintf fmt "all %d seeds passed under full verification@." seeds
    | Some cex ->
        let rendered = Format.asprintf "%a" Fuzz.pp_counterexample cex in
        write_file out rendered;
        Format.eprintf "[fuzz] FAILURE (seed %d); minimal counterexample:@.%s@."
          cex.Fuzz.seed rendered;
        Format.eprintf "[fuzz] wrote %s@." out;
        exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the collector: drive a random mutator for many seeds with \
          phase-boundary invariant verification and the mark-sweep oracle \
          enabled, shrinking any failure to a minimal replayable action \
          sequence (written to --out)")
    Term.(
      const run $ tiered_config $ seed $ seeds $ ops $ slots $ out $ no_oracle
      $ mutators $ shard_domains)

(* ------------------------------------------------------------------ *)
(* tier: the far-memory capacity sweep                                 *)
(* ------------------------------------------------------------------ *)

let tier_cmd =
  let capacities =
    let doc =
      "Far-tier capacities to sweep, in small pages (64 KiB each at the \
       scaled layout); 0 is the tier-free baseline."
    in
    Arg.(value
        & opt (list non_negative) E.Fig_tier.default_capacities
        & info [ "capacities" ] ~docv:"P1,P2,..." ~doc)
  in
  let run runs jobs scale shard_domains capacities lat_far no_promote verify
      cache =
    E.Fig_tier.figure ~runs ~jobs ~scale ~shard_domains ~capacities ~lat_far
      ~promote:(not no_promote) ~verify ?cache fmt;
    report_store "tier" cache
  in
  Cmd.v
    (Cmd.info "tier"
       ~doc:
         "Sweep far-memory tier capacity across the workload families: far \
          hit rate, simulated wall time and DRAM-footprint savings per \
          capacity, under the strongest hotness configuration")
    Term.(
      const run $ runs $ jobs $ scale $ shard_domains $ capacities $ lat_far
      $ tier_no_promote $ verify $ cache)

(* ------------------------------------------------------------------ *)
(* figure: the paper's tables and figures, from the artefact registry   *)
(* ------------------------------------------------------------------ *)

let figure_cmd =
  let module A = E.Artefacts in
  let ids =
    let doc =
      "Artefacts to regenerate, in the order given (see ARTEFACTS); with \
       none, every artefact in registry order."
    in
    Arg.(value
        & pos_all (enum (List.map (fun a -> (a.A.id, a.A.id)) A.all)) []
        & info [] ~docv:"ID" ~doc)
  in
  let per_artefact name docv what =
    let doc =
      Printf.sprintf "%s (default: per artefact, see ARTEFACTS)." what
    in
    Arg.(value & opt (some positive) None & info [ name ] ~docv ~doc)
  in
  let fifo =
    let doc =
      "Submit cold jobs in expansion order instead of \
       longest-estimated-first (for measuring the scheduler; output is \
       identical either way)."
    in
    Arg.(value & flag & info [ "fifo" ] ~doc)
  in
  let run ids runs scale jobs shard_domains fifo cache =
    let scheduling = if fifo then `Fifo else `Cost in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (a : A.t) ->
        Format.eprintf "[figure] running %s (%s)@." a.A.id a.A.what;
        a.A.run
          ~runs:(Option.value runs ~default:a.A.runs)
          ~scale:(Option.value scale ~default:a.A.scale)
          ~jobs ~shard_domains ~cache ~scheduling fmt)
      (if ids = [] then A.all else List.filter_map A.find ids);
    report_store "figure" cache;
    Format.eprintf "[figure] done in %.1fs@." (Unix.gettimeofday () -. t0)
  in
  let man =
    `S "ARTEFACTS"
    :: List.map
         (fun a ->
           `I
             ( Printf.sprintf "$(b,%s)" a.A.id,
               Printf.sprintf "%s (default --runs %d --scale %d)" a.A.what
                 a.A.runs a.A.scale ))
         A.all
  in
  Cmd.v
    (Cmd.info "figure" ~man
       ~doc:"Regenerate the paper's tables and figures (§4) and the ablations")
    Term.(
      const run $ ids
      $ per_artefact "runs" "N" "Sample size per configuration"
      $ per_artefact "scale" "K" "Divide workload size by $(docv)"
      $ jobs $ shard_domains $ fifo $ cache)

let () =
  let info =
    Cmd.info "hcsgc-run" ~version:"1.0.0"
      ~doc:
        "Run HCSGC experiments: hotness-based GC relocation on a simulated \
         ZGC (PLDI 2020 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ synthetic_cmd; graph_cmd; h2_cmd; tradebeans_cmd; specjbb_cmd;
            lru_cmd; serve_cmd; profile_cmd; fuzz_cmd; tier_cmd; figure_cmd ]))
