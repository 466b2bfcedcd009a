(** The taint coverage matrix (§4.2.2).

    Per transient-window slot, the number of tainted state elements within
    each module is a coverage point [(module, count)]; a point is covered
    once any window slot of any run exhibits it.  {!Dvz_uarch.Dualcore}
    records those counts as the run goes ([r_window_counts]), each point
    packed into one int ({!Dvz_uarch.Taintstate.tainted_points}), so
    observing a run is a bit test per point.  The matrix is a growable
    bitset over packed points beside the list of the points it holds.
    The metric is local (per-module) and position-insensitive (two
    different tainted cache slots with the same per-module count map to
    the same point), exactly the two properties the paper calls out. *)

type t

val create : unit -> t

val observe : t -> (string * int) list list -> int
(** Feeds one run's per-module counts by tag, one list per
    transient-window slot (§4.2.2); every pair is a point.  Returns the
    number of newly covered points.  Raises [Invalid_argument] naming a
    tag that is not in {!Dvz_uarch.Elem.all_modules}, or a count below
    1. *)

val observe_result : t -> Dvz_uarch.Dualcore.result -> int
(** Adds the packed points of [r.r_window_counts]; returns the number
    that was fresh.  The same set {!observe} builds from the unpacked
    counts. *)

val merge : t -> t -> int
(** [merge t shard] adds every point of [shard] to [t] and returns the
    number that was fresh, walking [shard]'s point list.  A point set
    observed into per-run shards and merged equals the same runs observed
    sequentially into one matrix — both deduplicate on the point itself —
    which is what lets the batch fold account coverage identically to the
    sequential loop while the observing happens in parallel.  [shard] is
    not modified. *)

val points : t -> int
(** Total covered points — the y-axis of Figure 7. *)

val to_list : t -> (string * int) list
(** The covered points as [(tag, count)], sorted — a stable form for
    checkpointing. *)

val of_list : (string * int) list -> t
(** Rebuilds a matrix from {!to_list} output.  Raises [Invalid_argument]
    as {!observe} does. *)
