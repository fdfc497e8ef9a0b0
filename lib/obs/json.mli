(** A small self-contained JSON tree: enough to emit every artifact the
    observability layer produces (snapshots, fuzz reports, JSONL trace
    lines) and to parse them back for schema validation — no external
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** [pretty] (default true) indents with two spaces; [false] emits one
    compact line (the JSONL form). Strings are escaped per RFC 8259;
    non-finite floats emit as [null]. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error carries the offset and a
    description. Numbers with no fraction/exponent parse as [Int]. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val equal : t -> t -> bool
(** Structural equality with unordered [Obj] fields. *)
