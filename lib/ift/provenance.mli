(** Taint provenance recorder.

    An append-only log of {e taint-introduction edges}: every time a clean
    node becomes tainted, the layer driving the recorder appends one edge
    naming the destination, the already-tainted predecessors that caused
    it, the propagation kind and the current time/window context.
    Provenance is element-level: the recorder is armed through
    [Dvz_uarch.Dualcore.create ~provenance], and its nodes are the
    [Dvz_uarch.Elem.to_string] names of the microarchitectural elements
    [Dvz_uarch.Taintstate] propagates between.

    Recording is two-pass by design: the fuzz loop runs with no recorder
    attached (zero overhead), and a flagged finding is deterministically
    replayed with one armed.  The propagation DAG and the backward slice
    from a sink to its secret sources are derived on demand with
    {!slice}. *)

type kind =
  | Source  (** a taint origin (secret word, tainted input) *)
  | Data  (** data-flow propagation through tainted operands *)
  | Ctrl of string  (** control-flow propagation, labelled by decision kind *)
  | Divergence  (** forced by instruction-stream divergence alone *)
  | Restore  (** re-established from a squash checkpoint *)

type edge = {
  e_id : int;  (** global recording order, 0-based *)
  e_time : int;  (** slot / cycle the edge was recorded at *)
  e_in_window : bool;  (** inside a transient window *)
  e_kind : kind;
  e_dst : string;
  e_srcs : string list;  (** tainted predecessors; [[]] for origins *)
}

type t

val create : ?cap:int -> unit -> t
(** A fresh recorder.  [cap] (default 1M) bounds the number of edges kept;
    further recordings are counted in {!dropped} instead of stored.
    Raises [Invalid_argument] if [cap <= 0]. *)

val set_context : t -> time:int -> in_window:bool -> unit
(** Sets the timestamp and window flag stamped on subsequent edges. *)

val record : t -> dst:string -> srcs:string list -> kind -> unit
(** Appends one taint-introduction edge under the current context. *)

val source : t -> string -> unit
(** [source t n] records node [n] as a taint origin ([Source], no
    predecessors). *)

val num_edges : t -> int
val dropped : t -> int
(** Edges discarded because the recorder was at capacity. *)

val slice : t -> sink:string -> edge list
(** Backward slice: starting from [sink]'s most recent taint-introduction
    edge, recursively resolve each tainted predecessor to its own most
    recent introduction strictly before the consuming edge, terminating at
    [Source] edges.  Returned in recording order (chronological).  Empty
    when the sink was never recorded. *)

val kind_name : kind -> string
(** ["source"], ["data"], ["ctrl:<label>"], ["divergence"], ["restore"]. *)

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}. *)

val render_edge : edge -> string
(** One fixed-width timeline line: time, window marker, destination, kind,
    sources. *)

val dot_of_slices : t -> sinks:string list -> string
(** A Graphviz digraph of the union of the sinks' backward slices:
    sources are boxes, sinks double octagons, edges labelled with time and
    kind. *)
