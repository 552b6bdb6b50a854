(** The one JSON codec of the repo (no external dependency; the
    container is sealed).

    Grown out of the trace-analysis reader in [lib/obs]: the session
    server speaks JSON over HTTP, the telemetry exporters emit JSONL,
    and the benchmark (perfbench) prints a JSON report — all three
    share this parser and this serializer instead of ad-hoc [Printf].
    The parser accepts arbitrary well-formed JSON (nesting, escapes,
    floats, unicode escapes); [Error]s carry a byte offset, which the
    server surfaces in its structured 400 responses. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parse one complete JSON value; [Error] carries a byte offset. *)

val parse_at : string -> (t, string * int) result
(** Like {!parse}, but the error pairs the message with the byte offset
    as a number — for callers (the HTTP 400 path) that report the
    offset as a field rather than prose. *)

(* ---- serialization ---- *)

val escape : string -> string
(** Escape for inclusion inside a JSON string literal (backslash,
    quote, control characters as [\uXXXX]); does not add quotes. *)

val quote : string -> string
(** [quote s] is [s] escaped and wrapped in double quotes. *)

val number_to_string : float -> string
(** Integral floats print without a decimal point ([3], not [3.]);
    non-finite values print as [null] (JSON has no NaN). *)

val to_string : t -> string
(** Compact single-line rendering.  [parse (to_string v)] round-trips
    every value built of finite numbers. *)

val to_buffer : Buffer.t -> t -> unit

(* ---- builders ---- *)

val int : int -> t
val str : string -> t
val list : ('a -> t) -> 'a list -> t

(* ---- accessors ---- *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option
val to_int_opt : t -> int option
(** [None] unless the number is an exactly-representable integer
    (integral, finite, magnitude ≤ 2{^53}) — fractional values are
    rejected, not rounded. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

val mem_str : string -> t -> string option
(** [mem_str k j] = [member k j] coerced to a string. *)

val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option
