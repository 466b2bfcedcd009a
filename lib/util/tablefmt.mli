(** Fixed-width plain-text table rendering for the benchmark harnesses.
    The harness prints the same rows the paper's tables report, so the
    renderer keeps alignment stable regardless of cell contents. *)

type t
(** A table under construction. *)

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a row; short rows are padded with blanks. *)

val add_sep : t -> unit
(** [add_sep t] appends a horizontal separator row. *)

val render : t -> string
(** [render t] produces the aligned table as a string (trailing newline). *)
