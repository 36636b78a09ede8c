(* How fast the host runs right now, measured with a fixed mix of
   reference kernels.

   On a shared host the same job's time drifts by 10-30 % over tens of
   seconds, as other tenants come and go; a whole run can land in a slow
   spell.  The kernels below do what the simulator does most (dependent
   loads over working sets from L2 to DRAM size, integer arithmetic,
   short-lived allocation, hash-table lookups), so they slow down with it.
   The benchmark times the mix next to each job and scales the job's host
   time by [nominal / reference]: the time the job would take on a host
   where the mix takes [nominal] seconds.  The kernels are the benchmark's
   own code, so a faster program still shows in full. *)

open Bigarray

type table = (int, int_elt, c_layout) Array1.t

type t = { l2 : table; llc : table; dram : table; keys : table; values : table }

(* Seconds the mix took, median, on the 2-core x86-64 host the benchmark
   was tuned on; scaled times read as host seconds there. *)
let nominal = 0.21

(* One cycle through every slot (Sattolo's shuffle), outside the OCaml
   heap so the program's GC never scans it. *)
let cycle words : table =
  let a = Array1.create int c_layout words in
  for i = 0 to words - 1 do
    a.{i} <- i
  done;
  let x = ref 88172645463325252 in
  for i = words - 1 downto 1 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = (!x land max_int) mod i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let chase (a : table) steps () =
  let i = ref 0 in
  for _ = 1 to steps do
    i := Array1.unsafe_get a !i
  done;
  !i

let compute () =
  let x = ref 1 in
  for s = 1 to 20_000_000 do
    x := ((!x * 636413622384679301) + s) lxor (!x lsr 29)
  done;
  !x

let alloc () =
  let l = ref [] in
  for s = 1 to 3_000_000 do
    l := (s, s) :: (if s land 63 = 0 then [] else !l)
  done;
  List.length !l

(* Lookups in an open-addressed table of 2^16 keys, hashed with the
   runtime's [Hashtbl.hash]; a missing key is inserted.  Held in
   Bigarrays: a hash table in the OCaml heap changes how far the
   program's own heap grows. *)
let slots = 1 lsl 17

let hash t () =
  let acc = ref 0 in
  for s = 1 to 1_000_000 do
    let k = (s * 7919) land 0xffff in
    let rec probe i =
      let key = Array1.unsafe_get t.keys i in
      if key = k then acc := !acc + Array1.unsafe_get t.values i
      else if key < 0 then (
        Array1.unsafe_set t.keys i k;
        Array1.unsafe_set t.values i s)
      else probe ((i + 1) land (slots - 1))
    in
    probe (Hashtbl.hash k land (slots - 1))
  done;
  !acc

let timed f =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (f ()));
  Span.now () -. t0

(* Host seconds the whole mix takes now. *)
let measure t =
  List.fold_left
    (fun acc f -> acc +. timed f)
    0.0
    [
      compute;
      chase t.l2 5_000_000;
      chase t.llc 1_000_000;
      chase t.dram 300_000;
      alloc;
      hash t;
    ]

(* The tables, after one untimed run of the mix that fills the hash
   table. *)
let create () =
  let t =
    {
      l2 = cycle (1 lsl 14);
      llc = cycle (1 lsl 19);
      dram = cycle (1 lsl 23);
      keys = Array1.init int c_layout slots (fun _ -> -1);
      values = Array1.create int c_layout slots;
    }
  in
  ignore (measure t);
  t

(* [host_s] taken while the mix took [reference] seconds, at nominal speed. *)
let scale ~reference host_s = host_s *. nominal /. reference
