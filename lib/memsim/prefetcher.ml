type stream = {
  mutable last : int;  (* last line seen in this stream; -1 = free slot *)
  mutable dir : int;  (* +1 ascending, -1 descending, 0 undecided *)
  mutable hits : int;  (* consecutive stride confirmations *)
  mutable lru : int;
}

type t = {
  streams : stream array;
  degree : int;
  confirm : int;
  mutable clock : int;
}

let create ?(streams = 16) ?(degree = 4) ?(confirm = 2) () =
  {
    streams =
      Array.init streams (fun _ -> { last = -1; dir = 0; hits = 0; lru = 0 });
    degree;
    confirm;
    clock = 0;
  }

let degree t = t.degree

let reset t =
  Array.iter
    (fun s ->
      s.last <- -1;
      s.dir <- 0;
      s.hits <- 0;
      s.lru <- 0)
    t.streams;
  t.clock <- 0

(* The hot path: called once per demand access by the cache simulators.
   Writes at most [degree t] prefetch line addresses into [buf] and returns
   how many were written; allocation-free (the scans are index loops, no
   closures or options). *)
let observe_into t line buf =
  if Array.length buf < t.degree then
    invalid_arg "Prefetcher.observe_into: buffer shorter than degree";
  t.clock <- t.clock + 1;
  let streams = t.streams in
  let n = Array.length streams in
  (* Look for a stream whose expected next line matches. *)
  let matched = ref (-1) in
  let mdelta = ref 0 in
  let i = ref 0 in
  while !matched < 0 && !i < n do
    let s = Array.unsafe_get streams !i in
    if s.last >= 0 then begin
      let delta = line - s.last in
      if (delta = 1 || delta = -1) && (s.dir = 0 || s.dir = delta) then begin
        matched := !i;
        mdelta := delta
      end
    end;
    incr i
  done;
  if !matched >= 0 then begin
    let s = Array.unsafe_get streams !matched in
    let delta = !mdelta in
    s.last <- line;
    s.dir <- delta;
    s.hits <- s.hits + 1;
    s.lru <- t.clock;
    if s.hits >= t.confirm then begin
      for i = 0 to t.degree - 1 do
        Array.unsafe_set buf i (line + (delta * (i + 1)))
      done;
      t.degree
    end
    else 0
  end
  else begin
    (* Allocate (or steal LRU) a slot for a potential new stream. *)
    let victim = ref streams.(0) in
    for i = 0 to n - 1 do
      let s = Array.unsafe_get streams i in
      if s.last = -1 && !victim.last <> -1 then victim := s
      else if s.last <> -1 && !victim.last <> -1 && s.lru < !victim.lru then
        victim := s
    done;
    let v = !victim in
    v.last <- line;
    v.dir <- 0;
    v.hits <- 0;
    v.lru <- t.clock;
    0
  end
