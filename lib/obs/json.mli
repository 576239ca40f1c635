(** The one JSON codec of the repository: objects, arrays, strings
    (with escapes), ints, floats, booleans, null. The wire protocol
    parses requests with it; the protocol, the metrics report
    ({!Metrics.to_json}) and the bench trajectory print with it. The
    repo bakes in no JSON dependency, so this is the smallest useful
    one. Integers that fit are kept exact; non-finite floats print as
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse (trailing garbage is an error). Nesting
    deeper than 512 levels is rejected — a recursion bound, so a
    hostile frame of brackets cannot raise [Stack_overflow]. *)

val to_string : t -> string
(** Compact single-line rendering — one frame, one line. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val str : t -> string option
val int : t -> int option
val float : t -> float option
val bool : t -> bool option
val list : t -> t list option
