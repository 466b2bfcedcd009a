(** Minimal JSON encoder/decoder for the telemetry layer.

    Hand-rolled so the observability subsystem adds no dependencies: the
    encoder emits one compact line per value (the JSONL convention used
    by {!Events}), and the decoder parses exactly what the encoder
    produces plus ordinary interchange JSON, which is what the
    [replay-log] subcommand needs to re-render a saved event stream. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering.  Object fields keep their order.
    Non-finite floats encode as [null] (JSON has no representation). *)

val of_string : string -> (t, string) result
(** Parses one JSON value; trailing whitespace is allowed, trailing
    garbage is an error.  Numbers with a fraction or exponent decode as
    [Float], others as [Int].  [\uXXXX] escapes decode to UTF-8. *)

val of_lines : string -> (t list, string) result
(** Parses JSONL text: one value per non-empty line.  Errors carry the
    1-based line number. *)

(** {2 Accessors} — total functions used when walking parsed events. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere. *)

val to_int : t -> int option
(** [Int n] and integral [Float] both yield [Some]. *)

val to_float : t -> float option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list
(** The elements of an [Arr]; [[]] for anything else. *)
