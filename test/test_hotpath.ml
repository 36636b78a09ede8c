(* Tests for the allocation-free hot path (perf PR): Vec.remove-based root
   removal, direct-loop range accesses, steady-state allocation bounds, and
   the buffered prefetcher interface.  These guard the *equivalence* claims
   the optimisations rest on — every fast path must simulate the exact same
   numbers as the code it replaced. *)

module Vec = Hcsgc_util.Vec
module Prefetcher = Hcsgc_memsim.Prefetcher
module Machine = Hcsgc_memsim.Machine
module Hierarchy = Hcsgc_memsim.Hierarchy
module Vm = Hcsgc_runtime.Vm
module Config = Hcsgc_core.Config
module Collector = Hcsgc_core.Collector
module Layout = Hcsgc_heap.Layout

let check = Alcotest.check
let case = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Satellite 1: Vm.remove_root / Vec.remove regression.               *)
(* ------------------------------------------------------------------ *)

let vec_remove_semantics () =
  (* Boxed elements so physical equality is meaningful. *)
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let v = Vec.of_list [ a; b; c; b; d ] in
  Vec.remove v b;
  check (Alcotest.list Alcotest.int) "duplicates removed, order kept"
    [ 1; 3; 4 ]
    (List.map ( ! ) (Vec.to_list v));
  Vec.remove v (ref 99);
  check Alcotest.int "absent element is a no-op" 3 (Vec.length v);
  Vec.remove v a;
  Vec.remove v c;
  Vec.remove v d;
  check Alcotest.bool "empties cleanly" true (Vec.is_empty v);
  Vec.remove v a;
  check Alcotest.bool "remove from empty is a no-op" true (Vec.is_empty v)

let remove_root_preserves_order () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(4 * 1024 * 1024)
      ()
  in
  let o1 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o1;
  let o2 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o2;
  let o3 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o3;
  let o4 = Vm.alloc vm ~nrefs:0 ~nwords:1 in
  Vm.add_root vm o4;
  let ids () =
    List.map
      (fun (o : Vm.Heap_obj.t) -> o.Vm.Heap_obj.id)
      (Collector.roots_list (Vm.collector vm))
  in
  let before = ids () in
  check (Alcotest.list Alcotest.int) "registration order"
    [ o1.Vm.Heap_obj.id; o2.Vm.Heap_obj.id; o3.Vm.Heap_obj.id;
      o4.Vm.Heap_obj.id ]
    before;
  (* Removing a middle root must keep the survivors in their original
     relative order — root enumeration order feeds the mark queue, so a
     reordering here would silently change GC traversal determinism. *)
  Vm.remove_root vm o2;
  check (Alcotest.list Alcotest.int) "middle removal keeps order"
    [ o1.Vm.Heap_obj.id; o3.Vm.Heap_obj.id; o4.Vm.Heap_obj.id ]
    (ids ());
  Vm.remove_root vm o4;
  check (Alcotest.list Alcotest.int) "tail removal keeps order"
    [ o1.Vm.Heap_obj.id; o3.Vm.Heap_obj.id ]
    (ids ());
  (* Re-adding goes to the end, as before the Vec.remove rewrite. *)
  Vm.add_root vm o2;
  check (Alcotest.list Alcotest.int) "re-add appends"
    [ o1.Vm.Heap_obj.id; o3.Vm.Heap_obj.id; o2.Vm.Heap_obj.id ]
    (ids ())

(* ------------------------------------------------------------------ *)
(* Satellite 2: direct-loop ranges cost exactly what per-line          *)
(* load/store cost.                                                    *)
(* ------------------------------------------------------------------ *)

let counters_testable =
  let pp fmt (c : Hierarchy.counters) =
    Format.fprintf fmt "{loads=%d;stores=%d;l1=%d;l2=%d;llc=%d;pf=%d}"
      c.Hierarchy.loads c.Hierarchy.stores c.Hierarchy.l1_misses
      c.Hierarchy.l2_misses c.Hierarchy.llc_misses c.Hierarchy.prefetches
  in
  Alcotest.testable pp ( = )

(* Drive a range call on one machine and the equivalent per-line loop on a
   fresh identical machine; every simulated number must match. *)
let machine_range_equals_per_line () =
  let a = Machine.create ~cores:2 () in
  let b = Machine.create ~cores:2 () in
  let lb = Machine.line_bytes a in
  let ranges =
    [ (0, 0, 64); (0, 40, 200); (1, 4096 - 8, 4096); (0, 65536, 16384);
      (1, 7, 1); (0, 123456, 777) ]
  in
  List.iter
    (fun (core, addr, bytes) ->
      let cost_a = Machine.load_range a ~core addr bytes in
      let cost_b = ref 0 in
      let first = addr / lb and last = (addr + bytes - 1) / lb in
      for line = first to last do
        cost_b := !cost_b + Machine.load b ~core (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "load_range cost @0x%x+%d" addr bytes)
        !cost_b cost_a;
      let scost_a = Machine.store_range a ~core addr bytes in
      let scost_b = ref 0 in
      for line = first to last do
        scost_b := !scost_b + Machine.store b ~core (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "store_range cost @0x%x+%d" addr bytes)
        !scost_b scost_a)
    ranges;
  check counters_testable "machine counters identical" (Machine.counters b)
    (Machine.counters a);
  check Alcotest.int "tlb misses identical" (Machine.tlb_misses b)
    (Machine.tlb_misses a)

let hierarchy_range_equals_per_line () =
  let a = Hierarchy.create Hierarchy.default_config in
  let b = Hierarchy.create Hierarchy.default_config in
  let lb = Hierarchy.line_bytes a in
  let ranges =
    [ (0, 64); (40, 200); (4096 - 8, 4096); (65536, 16384); (7, 1);
      (123456, 777) ]
  in
  List.iter
    (fun (addr, bytes) ->
      let first = addr / lb and last = (addr + bytes - 1) / lb in
      let cost_a = Hierarchy.load_range a addr bytes in
      let cost_b = ref 0 in
      for line = first to last do
        cost_b := !cost_b + Hierarchy.load b (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "load_range cost @0x%x+%d" addr bytes)
        !cost_b cost_a;
      let scost_a = Hierarchy.store_range a addr bytes in
      let scost_b = ref 0 in
      for line = first to last do
        scost_b := !scost_b + Hierarchy.store b (line * lb)
      done;
      check Alcotest.int
        (Printf.sprintf "store_range cost @0x%x+%d" addr bytes)
        !scost_b scost_a)
    ranges;
  check counters_testable "hierarchy counters identical"
    (Hierarchy.counters b) (Hierarchy.counters a)

(* ------------------------------------------------------------------ *)
(* Satellite 3: steady-state load/store ops allocate nothing.          *)
(* ------------------------------------------------------------------ *)

let steady_state_allocation_free () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(16 * 1024 * 1024)
      ()
  in
  let n = 64 in
  let objs =
    Array.init n (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:6)
  in
  Array.iter (fun o -> Vm.add_root vm o) objs;
  (* Materialise every payload so store_word never hits its lazy
     first-write allocation during measurement. *)
  Array.iter (fun o -> Vm.store_word vm o 0 1) objs;
  (* Drain any in-flight GC cycle; nothing below allocates simulated
     memory, so no new cycle can start mid-measurement. *)
  Vm.full_gc vm;
  let ops = 100_000 in
  let kernel () =
    for i = 0 to ops - 1 do
      let o = Array.unsafe_get objs (i mod n) in
      if i land 1 = 0 then ignore (Vm.load_word vm o (i land 3) : int)
      else Vm.store_word vm o (i land 3) i;
      Vm.touch vm o
    done
  in
  kernel ();
  (* warm *)
  let before = Gc.allocated_bytes () in
  kernel ();
  let after = Gc.allocated_bytes () in
  let words_per_op = (after -. before) /. 8.0 /. float_of_int ops in
  (* The steady-state load/store path allocates 0 words per op.  The bound
     is 0.05 rather than exactly 0.0 to absorb (a) the boxed floats of the
     two [Gc.allocated_bytes] calls themselves and (b) the rare GC-pump
     housekeeping tick (runs once per ~4k charged ops, and in dev builds —
     without cross-module inlining of the float accessors — may box a
     couple of words).  Per *op* that is < 0.001 words; any real per-op
     allocation (a closure, an option, a list cell) costs >= 2 words/op
     and fails this loudly. *)
  if words_per_op >= 0.05 then
    Alcotest.failf "steady-state ops allocate: %.4f words/op" words_per_op

let load_ref_allocation_bounded () =
  let vm =
    Vm.create
      ~layout:(Layout.scaled ~small_page:(16 * 1024))
      ~config:Config.zgc
      ~max_heap:(16 * 1024 * 1024)
      ()
  in
  let n = 64 in
  let objs = Array.init n (fun _ -> Vm.alloc vm ~nrefs:2 ~nwords:2) in
  Array.iter (fun o -> Vm.add_root vm o) objs;
  for i = 0 to n - 1 do
    Vm.store_ref vm objs.(i) 0 (Some objs.((i + 1) mod n))
  done;
  Vm.full_gc vm;
  let ops = 100_000 in
  let kernel () =
    for i = 0 to ops - 1 do
      ignore
        (Vm.load_ref vm (Array.unsafe_get objs (i mod n)) 0
          : Vm.Heap_obj.t option)
    done
  in
  kernel ();
  let before = Gc.allocated_bytes () in
  kernel ();
  let after = Gc.allocated_bytes () in
  let words_per_op = (after -. before) /. 8.0 /. float_of_int ops in
  (* load_ref returns [Some obj] — one 2-word block per op by design (the
     documented exception to the zero-allocation rule).  Guard that it is
     *only* that: 3 words/op would mean a new hidden allocation. *)
  if words_per_op >= 3.0 then
    Alcotest.failf "load_ref allocates beyond its Some: %.4f words/op"
      words_per_op

(* ------------------------------------------------------------------ *)
(* Satellite 4: observe_into matches the list semantics.               *)
(* ------------------------------------------------------------------ *)

(* An independent reimplementation of the prefetcher's original
   list-returning semantics (closures, options and List.init — the
   allocating style observe_into replaced), used as the model. *)
module Model = struct
  type stream = {
    mutable last : int;
    mutable dir : int;
    mutable hits : int;
    mutable lru : int;
  }

  type t = {
    streams : stream array;
    degree : int;
    confirm : int;
    mutable clock : int;
  }

  let create ~streams ~degree ~confirm =
    {
      streams =
        Array.init streams (fun _ ->
            { last = -1; dir = 0; hits = 0; lru = 0 });
      degree;
      confirm;
      clock = 0;
    }

  let observe t line =
    t.clock <- t.clock + 1;
    let matched = ref None in
    Array.iter
      (fun s ->
        if !matched = None && s.last >= 0 then begin
          let delta = line - s.last in
          if (delta = 1 || delta = -1) && (s.dir = 0 || s.dir = delta) then
            matched := Some (s, delta)
        end)
      t.streams;
    match !matched with
    | Some (s, delta) ->
        s.last <- line;
        s.dir <- delta;
        s.hits <- s.hits + 1;
        s.lru <- t.clock;
        if s.hits >= t.confirm then
          List.init t.degree (fun i -> line + (delta * (i + 1)))
        else []
    | None ->
        let v =
          match
            Array.to_list t.streams
            |> List.find_opt (fun s -> s.last = -1)
          with
          | Some free -> free
          | None ->
              Array.fold_left
                (fun best s -> if s.lru < best.lru then s else best)
                t.streams.(0) t.streams
        in
        v.last <- line;
        v.dir <- 0;
        v.hits <- 0;
        v.lru <- t.clock;
        []
end

let prop_observe_into_matches_model =
  QCheck.Test.make ~name:"prefetcher: observe_into = list semantics"
    ~count:200
    QCheck.(
      quad (int_range 1 5) (int_range 1 6) (int_range 1 3)
        (small_list (int_bound 15)))
    (fun (streams, degree, confirm, raw) ->
      (* Stretch the raw input into line addresses with embedded runs so
         streams actually confirm: each element either extends the previous
         line by +/-1 or jumps. *)
      let lines =
        let last = ref 0 in
        List.concat_map
          (fun x ->
            let l =
              if x < 6 then !last + 1
              else if x < 10 then max 0 (!last - 1)
              else (x * 37) mod 256
            in
            last := l;
            [ l ])
          raw
      in
      let real = Prefetcher.create ~streams ~degree ~confirm () in
      let model = Model.create ~streams ~degree ~confirm in
      let buf = Array.make (Prefetcher.degree real) 0 in
      List.for_all
        (fun line ->
          let n = Prefetcher.observe_into real line buf in
          let got = List.init n (fun i -> buf.(i)) in
          got = Model.observe model line)
        lines)

let suite =
  [
    ( "hotpath",
      [
        case "vec: remove semantics" `Quick vec_remove_semantics;
        case "vm: remove_root preserves root order" `Quick
          remove_root_preserves_order;
        case "machine: range = sum of per-line accesses" `Quick
          machine_range_equals_per_line;
        case "hierarchy: range = sum of per-line accesses" `Quick
          hierarchy_range_equals_per_line;
        case "vm: steady-state load/store allocates 0 words/op" `Quick
          steady_state_allocation_free;
        case "vm: load_ref allocates only its Some" `Quick
          load_ref_allocation_bounded;
        QCheck_alcotest.to_alcotest prop_observe_into_matches_model;
      ] );
  ]
