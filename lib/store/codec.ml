(* Writing appends tokens to a buffer, a space before every token but the
   first of its line.  Reading consumes the payload pre-split into lines
   of tokens, the head line first, and raises [Malformed] at the first
   token or line that does not fit. *)
type writer = { buf : Buffer.t; mutable bol : bool }
type reader = { mutable lines : string list list }

exception Malformed

type 'a t = { write : writer -> 'a -> unit; read : reader -> 'a }

let sep w = if w.bol then w.bol <- false else Buffer.add_char w.buf ' '
let tokens line = if line = "" then [] else String.split_on_char ' ' line

let to_string c v =
  let w = { buf = Buffer.create 256; bol = true } in
  c.write w v;
  Buffer.contents w.buf

let of_string c s =
  let r = { lines = List.map tokens (String.split_on_char '\n' s) } in
  match c.read r with
  | v -> if r.lines = [ [] ] then Some v else None
  | exception Malformed -> None

let parse f tok = match f tok with Some v -> v | None -> raise Malformed

let token print of_token =
  {
    write = (fun w v -> sep w; Buffer.add_string w.buf (print v));
    read =
      (fun r ->
        match r.lines with
        | (tok :: toks) :: lines ->
            r.lines <- toks :: lines;
            parse of_token tok
        | _ -> raise Malformed);
  }

let int = token string_of_int int_of_string_opt
let float = token (Printf.sprintf "%h") float_of_string_opt

let labelled label c =
  let prefix = label ^ "=" in
  let n = String.length prefix in
  {
    write =
      (fun w v ->
        sep w;
        Buffer.add_string w.buf prefix;
        w.bol <- true (* glue the value to its label *);
        c.write w v);
    read =
      (fun r ->
        match r.lines with
        | (tok :: toks) :: lines when String.starts_with ~prefix tok ->
            let value = String.sub tok n (String.length tok - n) in
            r.lines <- (value :: toks) :: lines;
            c.read r
        | _ -> raise Malformed);
  }

(* The rest of the head line, one element per non-empty token. *)
let rest print of_token =
  {
    write = (fun w xs -> sep w; print w.buf xs);
    read =
      (fun r ->
        match r.lines with
        | toks :: lines ->
            r.lines <- [] :: lines;
            List.filter_map
              (fun tok -> if tok = "" then None else Some (parse of_token tok))
              toks
        | [] -> raise Malformed);
  }

let int_array =
  let c =
    rest
      (fun b ns ->
        Buffer.add_string b (String.concat " " (List.map string_of_int ns)))
      int_of_string_opt
  in
  {
    write = (fun w a -> c.write w (Array.to_list a));
    read = (fun r -> Array.of_list (c.read r));
  }

let pairs =
  rest
    (fun b -> List.iter (fun (x, y) -> Printf.bprintf b "%d,%d " x y))
    (fun tok ->
      match String.split_on_char ',' tok with
      | [ x; y ] -> (
          match (int_of_string_opt x, int_of_string_opt y) with
          | Some x, Some y -> Some (x, y)
          | _ -> None)
      | _ -> None)

type ('r, 'f) fields = { wr : writer -> 'r -> unit; rd : reader -> 'f }

let record make = { wr = (fun _ _ -> ()); rd = (fun _ -> make) }

let field c get b =
  {
    wr = (fun w r -> b.wr w r; c.write w (get r));
    rd =
      (fun r ->
        let f = b.rd r in
        f (c.read r));
  }

(* A step that writes a constant and checks it on the way back. *)
let step write check b =
  {
    wr = (fun w r -> b.wr w r; write w);
    rd =
      (fun r ->
        let f = b.rd r in
        check r;
        f);
  }

let lit s =
  let expected = tokens s in
  step
    (fun w -> sep w; Buffer.add_string w.buf s)
    (fun r ->
      match r.lines with
      | toks :: lines ->
          let rec go = function
            | [], toks -> r.lines <- toks :: lines
            | e :: es, tok :: toks when String.equal e tok -> go (es, toks)
            | _ -> raise Malformed
          in
          go (expected, toks)
      | [] -> raise Malformed)

let newline b =
  step
    (fun w -> Buffer.add_char w.buf '\n'; w.bol <- true)
    (fun r ->
      match r.lines with
      | [] :: (_ :: _ as lines) -> r.lines <- lines
      | _ -> raise Malformed)
    b

let seal b = { write = b.wr; read = b.rd }
