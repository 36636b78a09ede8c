(* Host-time spans recorded by the benchmark around its calls into the
   program's layers.  Spans nest: the span open when another begins is
   its parent.  They stay in memory until the run reads them. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  stop : float;
}

type t = {
  clock : unit -> float;
  mutable next_id : int;
  mutable open_ : (int * string * float) list;  (** innermost first *)
  mutable closed : span list;  (** most recent first *)
}

(* Monotonic host time in seconds, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(clock = now) () =
  { clock; next_id = 0; open_ = []; closed = [] }

let enter t name =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.open_ <- (id, name, t.clock ()) :: t.open_

let leave t =
  match t.open_ with
  | [] -> invalid_arg "Span.leave: no open span"
  | (id, name, start) :: rest ->
      t.open_ <- rest;
      let parent = match rest with (p, _, _) :: _ -> Some p | [] -> None in
      t.closed <- { id; parent; name; start; stop = t.clock () } :: t.closed

let with_ t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

(* [opt tr name f] runs [f] inside a span when tracing, bare otherwise. *)
let opt tr name f = match tr with None -> f () | Some t -> with_ t name f

let spans t = List.rev t.closed
let duration s = s.stop -. s.start

(* The part of [lo, hi] covered by the union of [intervals]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time: the span's duration minus the part its children cover. *)
let self_time t s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start, c.stop) else None)
      t.closed
  in
  duration s -. covered ~lo:s.start ~hi:s.stop children

let self_total t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. self_time t s else acc)
    0.0 t.closed
