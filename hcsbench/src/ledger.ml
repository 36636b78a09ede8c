(* Operation accounting: every simulated job and every output check is one
   attempted operation.  A job that raises or overruns its time limit, and
   a check that finds a mismatch, is a failed one; neither stops the run. *)

type t = { mutable attempted : int; mutable failed : int }

let create () = { attempted = 0; failed = 0 }

exception Timed_out

(* Run [f] under a host-time limit enforced by SIGALRM: the handler raises
   at the simulation's next poll point, so a job that never finishes turns
   into an error instead of a hung benchmark. *)
let with_limit ~seconds f =
  let disarm () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = 0.0 })
  in
  let previous =
    Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Timed_out))
  in
  let restore () =
    disarm ();
    Sys.set_signal Sys.sigalrm previous
  in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.0; it_value = seconds });
  match f () with
  | v ->
      restore ();
      Ok v
  | exception Timed_out ->
      restore ();
      Error (Printf.sprintf "exceeded the %.0f s limit" seconds)
  | exception e ->
      restore ();
      Error (Printexc.to_string e)

let job t ~limit ~what f =
  t.attempted <- t.attempted + 1;
  match with_limit ~seconds:limit f with
  | Ok v -> Some v
  | Error msg ->
      t.failed <- t.failed + 1;
      Printf.eprintf "hcsbench: %s failed: %s\n%!" what msg;
      None

let check t ~what ok =
  t.attempted <- t.attempted + 1;
  if not ok then (
    t.failed <- t.failed + 1;
    Printf.eprintf "hcsbench: check failed: %s\n%!" what)
