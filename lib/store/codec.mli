(** The one payload codec: typed field schemas for what the result store
    keeps under a fingerprint.

    A payload is lines of space-separated tokens.  A schema lists a
    record's fields in order, with literal tokens (format magics, line
    heads) and line breaks between them; the same declaration drives
    both directions, so an encoder and its decoder cannot drift apart.
    Floats are spelled [%h] (hexadecimal), which round-trips every finite
    float bit-exactly; parsing splits on ['\n'] and [' '] and reads each
    token with [int_of_string_opt] / [float_of_string_opt], never
    [Scanf].

    {[
      let point =
        Codec.(
          record (fun x n -> { x; n })
          |> lit "point 1" |> newline
          |> field float (fun p -> p.x)
          |> field (labelled "n" int) (fun p -> p.n)
          |> newline |> seal)
      (* to_string point { x = 1.5; n = 3 } = "point 1\n0x1.8p+0 n=3\n" *)
    ]} *)

type 'a t
(** A schema for values of type ['a]. *)

val to_string : 'a t -> 'a -> string

val of_string : 'a t -> string -> 'a option
(** Strict inverse of {!to_string}: [None] unless the whole string is one
    well-formed value (no missing, extra or malformed token or line). *)

(** {2 Fields} *)

val int : int t
(** One decimal token. *)

val float : float t
(** One [%h] token. *)

val labelled : string -> 'a t -> 'a t
(** [labelled l c] spells a one-token field as [l=token]. *)

val int_array : int array t
(** The rest of the line: decimal tokens joined by single spaces. *)

val pairs : (int * int) list t
(** The rest of the line: one [a,b] token per pair, each followed by a
    space. *)

(** {2 Records} *)

type ('r, 'f) fields
(** A partial schema for records ['r] whose constructor, applied to the
    fields declared so far, still has type ['f]. *)

val record : 'f -> ('r, 'f) fields
(** Start a schema from the record's constructor, which takes the fields
    in declaration order. *)

val field : 'a t -> ('r -> 'a) -> ('r, 'a -> 'f) fields -> ('r, 'f) fields
(** Append a field, read back with the given projection. *)

val lit : string -> ('r, 'f) fields -> ('r, 'f) fields
(** Append a literal token (a format magic or a line head). *)

val newline : ('r, 'f) fields -> ('r, 'f) fields
(** End the current line. *)

val seal : ('r, 'r) fields -> 'r t
(** A schema is complete once every constructor argument is declared. *)
