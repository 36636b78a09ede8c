(* The benchmark's command line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--dir DIR] [--commit ID] [--profile P]

   Repeats passes of the workload until S seconds have been measured (and
   at least once more than it has distinct seeds), checks the outputs,
   and prints one JSON result line last on standard output: end-to-end
   metrics with --trace 0, per-layer metrics with --trace 1.  The line
   before it records the host facts.  A human-readable table goes to
   standard error. *)

module Layers = Hcsbench.Layers
module Ledger = Hcsbench.Ledger
module Registry = Hcsbench.Registry
module Calib = Hcsbench.Calib

(* Longest a single job may run before it counts as failed; when no pass
   starts after [run_cap] and no job runs past [hard_stop], a run ends
   within 180 s. *)
let job_limit = 30.0
let run_cap = 100.0
let hard_stop = 150.0
let setup_samples = 31
let setup_gap = 0.03

(* Settings that change host time; a record taken under them would not
   compare with the others. *)
let guarded_env = [ "HCSGC_VERIFY"; "HCSGC_JOBS" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload synthetic-sweep|serve-tail|h2-hot --seed N \
     --seconds S --trace 0|1 [--dir DIR] [--commit ID] [--profile P]";
  exit 2

let parse argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let known = [ "workload"; "seed"; "seconds"; "trace"; "dir"; "commit"; "profile" ] in
  Hashtbl.iter (fun k _ -> if not (List.mem k known) then usage ()) tbl;
  let get k = Hashtbl.find_opt tbl k in
  let int k = Option.bind (get k) int_of_string_opt in
  match
    ( Option.bind (get "workload") Layers.workload_of_string,
      int "seed",
      int "seconds",
      int "trace" )
  with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace)
    when seed >= 0 && seconds >= 1 ->
      ( w,
        Option.get (get "workload"),
        seed,
        float_of_int seconds,
        trace = 1,
        Option.value ~default:"_hcsbench" (get "dir"),
        Option.value ~default:"unknown" (get "commit"),
        Option.value ~default:"unknown" (get "profile") )
  | _ -> usage ()

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The mean of all but the largest tenth of [xs]. *)
let low_mean xs =
  let n = List.length xs in
  mean (List.filteri (fun i _ -> i < n - (n / 10)) (List.sort compare xs))

let () =
  let w, wname, seed, seconds, trace, dir, commit, profile = parse Sys.argv in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) guarded_env with
  | [] -> ()
  | set ->
      Printf.eprintf "hcsbench: refusing to run with %s set: it changes host time\n"
        (String.concat ", " set);
      exit 2);
  (* The reference mix's tables stay resident for the whole run; their
     size is taken off the process's peak. *)
  let rss0 = Layers.status_mb "VmRSS" in
  let calib = Calib.create () in
  let calib_mb = Layers.status_mb "VmRSS" -. rss0 in
  let references = ref [] in
  let reference () =
    let r = Calib.measure calib in
    references := r :: !references;
    r
  in
  let ledger = Ledger.create () in
  let sizes = Layers.full in
  (* Stores go under a directory of this process's own, removed at exit. *)
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let dir = Filename.concat dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let counter = ref 0 in
  let fresh_dir () =
    incr counter;
    Filename.concat dir (Printf.sprintf "store-%d" !counter)
  in
  let t0 = Hcsbench.Span.now () in
  let limit () =
    Float.max 1.0 (Float.min job_limit (t0 +. hard_stop -. Hcsbench.Span.now ()))
  in
  let pass ~traced s =
    Layers.run_pass ~traced ~reference ~ledger ~limit ~dir:(fresh_dir ()) ~sizes w
      ~seed:s ()
  in
  (* Set-up takes well under a millisecond: the OCaml GC's work on the
     arrays it allocates, page faults, and the store's file-system calls,
     whose cost switches between two levels every tenth of a second or
     so.  So each sample starts from a collected heap, as a fresh process
     does, the samples are [setup_gap] apart so that they see both
     levels, and their mean is kept, less the slowest tenth (hiccups). *)
  let before = reference () in
  let setups =
    List.init setup_samples (fun i ->
        if i > 0 then Unix.sleepf setup_gap;
        Gc.full_major ();
        Layers.setup_only ~dir:(fresh_dir ()) ~sizes w ~seed:(Layers.sub_seed w ~seed i))
  in
  let setup_ref = (before +. reference ()) /. 2.0 in
  let k = Layers.distinct_seeds w in
  let start = Hcsbench.Span.now () in
  let digests = Hashtbl.create 8 in
  let untraced = ref [] and traced = ref [] and first_k = ref [] in
  let rec loop i =
    let elapsed = Hcsbench.Span.now () -. start in
    (* Untraced runs need every distinct seed and one repeat; a traced run
       reports no simulated metric and checks determinism pair by pair. *)
    let needed = if trace then 1 else k + 1 in
    if (i < needed || elapsed < seconds) && (i = 0 || elapsed < run_cap) then begin
      let s = Layers.sub_seed w ~seed i in
      (* Each pass starts from a collected OCaml heap, so the previous
         pass's garbage neither slows it nor raises its memory peak. *)
      Gc.full_major ();
      let u = pass ~traced:false s in
      Option.iter
        (fun (p : Layers.pass) ->
          untraced := p :: !untraced;
          if i < k then first_k := p :: !first_k;
          match Hashtbl.find_opt digests s with
          | None -> Hashtbl.add digests s p.digest
          | Some d ->
              Ledger.check ledger
                ~what:(Printf.sprintf "seed %d repeats its simulated output" s)
                (d = p.digest))
        u;
      if trace then begin
        Gc.full_major ();
        match (u, pass ~traced:true s) with
        | Some u, Some t ->
            traced := t :: !traced;
            Ledger.check ledger
              ~what:(Printf.sprintf "seed %d: tracing changes no simulated output" s)
              (u.digest = t.digest)
        | _ -> ()
      end;
      loop (i + 1)
    end
  in
  loop 0;
  remove_tree dir;
  let med f ps = Layers.median (List.map f ps) in
  (* Host times are scaled to nominal host speed (Calib) by the reference
     mix timed next to them, then the median over the run's passes is
     kept.  A pass runs its jobs one after another, so a run's [run_s]
     sums each job's median.  The table on standard error lists every
     pass's unscaled time. *)
  let run_time ps =
    match ps with
    | [] -> Float.infinity
    | p :: _ ->
        List.mapi
          (fun j _ ->
            med
              (fun p ->
                Calib.scale ~reference:(List.nth p.Layers.job_ref j)
                  (List.nth p.Layers.job_s j))
              ps)
          p.Layers.job_s
        |> List.fold_left ( +. ) 0.0
  in
  let pass_s p = List.fold_left ( +. ) 0.0 p.Layers.job_s in
  let top f ps = List.fold_left (fun a p -> Float.max a (f p)) Float.neg_infinity ps in
  let ok = !untraced <> [] && ((not trace) || !traced <> []) in
  let values =
    if trace then
      match !traced with
      | [] -> List.map (fun m -> (m.Registry.name, 0.0)) Registry.per_layer
      | ts ->
          List.map
            (fun m ->
              let n = m.Registry.name in
              if n = "trace.overhead_s" then
                (n, run_time ts -. run_time !untraced)
              else (n, med (fun p -> List.assoc n p.Layers.layers) ts))
            Registry.per_layer
    else
      let us = !untraced and fk = !first_k in
      let sim f = mean (List.map f fk) in
      [
        ("setup_s", Calib.scale ~reference:setup_ref (low_mean setups));
        ("run_s", run_time us);
        ("sim_ops_per_s", med (fun p -> p.Layers.ops) us /. run_time us);
        ( "warm_replay_s",
          med (fun p -> Calib.scale ~reference:p.Layers.pass_ref p.Layers.replay_s) us );
        ("alloc_words_per_op", med (fun p -> p.Layers.alloc_words /. p.Layers.ops) us);
        ( "host_peak_mb",
          match List.rev us with
          | first :: _ -> first.Layers.peak_mb -. calib_mb
          | [] -> Float.nan );
        ("sim_wall_cycles", sim (fun p -> p.Layers.sim_wall));
        ("sim_p50_cycles", sim (fun p -> p.Layers.sim_p50));
        ("sim_p999_cycles", sim (fun p -> p.Layers.sim_p999));
        ("sim_max_pause_cycles", top (fun p -> p.Layers.sim_max_pause) fk);
        ("sim_slo_violation_ratio", sim (fun p -> p.Layers.sim_violation_ratio));
      ]
  in
  let values =
    List.map (fun (n, v) -> (n, if Float.is_finite v then v else 0.0)) values
  in
  let failed = ledger.Ledger.failed + if ok then 0 else 1 in
  let attempted = ledger.Ledger.attempted + if ok then 0 else 1 in
  let failed_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.eprintf "hcsbench %s seed %d trace %d: %d passes, %d operations, %d failed\n"
    wname seed (if trace then 1 else 0) (List.length !untraced) attempted failed;
  Printf.eprintf "  pass run_s, unscaled: %s\n"
    (String.concat " "
       (List.rev_map (fun p -> Printf.sprintf "%.3f" (pass_s p)) !untraced));
  Printf.eprintf "  pass warm_replay_s, unscaled: %s\n"
    (String.concat " "
       (List.rev_map (fun p -> Printf.sprintf "%.3g" p.Layers.replay_s) !untraced));
  Printf.eprintf "  reference mix, s (nominal %g): %s\n" Calib.nominal
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !references));
  List.iter2
    (fun m (n, v) -> Printf.eprintf "  %-34s %16.6g %s\n" n v m.Registry.unit_)
    (Registry.metrics ~trace) values;
  Printf.eprintf "  %-34s %16.6g %s\n%!" "failed_ratio" failed_ratio "ratio";
  Printf.printf
    {|{"host": {"commit": "%s", "nproc": %d, "ocaml": "%s", "profile": "%s", "workload": "%s", "seed": %d, "trace": %d, "passes": %d, "reference_s": %s, "failed_ratio": %s}}|}
    commit
    (Domain.recommended_domain_count ())
    Sys.ocaml_version profile wname seed
    (if trace then 1 else 0)
    (List.length !untraced)
    (Registry.number (Layers.median !references))
    (Registry.number failed_ratio);
  print_newline ();
  print_endline
    (Registry.render ~trace ~correct:(failed = 0) ~attempted ~failed values)
