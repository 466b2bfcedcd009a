(** Shared taint shadow over the microarchitectural element space.

    One taint state serves the two lockstep DUT instances, exactly like the
    shadow circuit of the dual-DUT testbench in §3.3.  Effects are consumed
    in pairs — instance A's and instance B's {!Effect.slot} for the same
    slot.  Every taint decision is a call into {!Dvz_ift.Policy} on 1-bit
    element taints, in the mode given at {!create}:

    - [Write (dst, srcs)] is Table 1's register-with-enable row
      ({!Dvz_ift.Policy.reg_en_taint}), with the sources' taint as the data
      taint and [dst]'s own as the held taint.  Under diffIFT a write with
      clean sources clears the destination's taint (precise overwrite);
      under CellIFT taints only accumulate, the monotone growth of §2.2.
    - [Ctrl] is the memory-write row ({!Dvz_ift.Policy.mem_write_ctrl})
      with the decision as the address: the touched elements are
      control-tainted when the decision's sources are tainted and, under
      diffIFT, the two instances' decisions differ.  Otherwise each
      touched element keeps its taint.

    The element model has no data values and no enable signals, so two
    conventions fix those inputs:

    + An element's write enable counts as tainted, and it differs across
      the two instances exactly when their instruction streams diverged
      (the instances execute different pcs in the slot).  Under diffIFT
      the [en_diff] gate makes this inert on aligned slots; under CellIFT
      it keeps the taint of a cleanly overwritten element, Figure 6's
      "never recovers".
    + A write changes the stored value exactly when the streams diverged
      ([dq_xor]), and a diverged slot's two control decisions count as
      differing.  Divergence is itself a secret-caused difference: every
      write and every decision of a diverged slot taints, in both modes.

    Under these premises the element engine agrees with the cell-level
    {!Dvz_ift.Shadow} on random event pairs lowered to small netlists (a
    QCheck property of [test_uarch.ml]).  Without them the two disagree in
    exactly three classes, each pinned by a test as an element-level
    abstraction: a CellIFT aligned write of clean data that changes a clean
    element's value ([Shadow] taints it, this engine does not); a diverged
    write that leaves the value unchanged, in either mode; and a diffIFT
    diverged slot whose two decisions are equal (this engine taints, and
    [Shadow] does not).

    {b Storage.}  A dense plane: every element is numbered in
    {!Elem.compare} order — [Pc] first, then each constructor in
    declaration order over a fixed index range (32 per register file,
    every physical-memory dword, 512 per cache, buffer, predictor and
    queue table) — and its taint is one bit of a bitset, rounded up to
    whole 64-bit words.  Beside the bits sit the population count and one
    counter per {!Elem.module_index}, so [tainted_count] is a field read
    and [tainted_points] a walk over the module counters.  An element
    outside its range (say, the [Mem] index of a transiently forwarded
    address outside physical memory) lives in a small side table with the
    same semantics.  Order invariant: [tainted_elems] walks the bits in
    number order, which is {!Elem.compare} order (the order {!Elem}
    defines and its tests pin), skipping a clean word with one test, and
    merges in the side table's elements only when it is non-empty.  The
    window checkpoint is two more bitsets over the same numbering — which
    elements the last [Snapshot] saved, and their taint then — beside that
    snapshot's element list, by which the next snapshot and [reset] clear
    the saved bits; a side-table element's checkpoint sits in a small
    table. *)

type t

val create : ?provenance:Dvz_ift.Provenance.t -> Dvz_ift.Policy.mode -> t
(** With [provenance], every 0→tainted transition of an element appends an
    edge to the recorder naming the tainted predecessors — [Data] for
    writes and architectural→speculative register copies, [Ctrl] (labelled
    with the decision kind) for control propagation, [Divergence] when the
    transition is forced by instruction-stream divergence alone, and
    [Restore] when a squash re-establishes checkpointed taint.  Without
    it, propagation runs on the original fast paths untouched. *)

val mode : t -> Dvz_ift.Policy.mode

val reset : t -> unit
(** Drop every taint, saved checkpoint and per-module count — back to the
    [create] state (the provenance recorder, if any, is kept as-is): a
    fill of the bitset and the counters, and the last snapshot's saved
    bits cleared. *)

val blit : src:t -> dst:t -> unit
(** Copies [src]'s taints (bitset and side table), saved checkpoint,
    counts and memoised {!tainted_points} list into [dst] (same policy
    mode; neither provenance recorder is touched). *)

val set_tainted : t -> Elem.t -> unit
(** Marks a taint source (e.g. the secret region's memory words). *)

val is_tainted : t -> Elem.t -> bool

val apply_pair : t -> Effect.slot option -> Effect.slot option -> unit
(** Processes one slot of both instances ([None] when an instance has
    already finished — treated as full divergence). *)

val committed_nop : t -> line:int -> refill:bool -> rob:int -> unit
(** [apply_pair] on a slot in which both instances commit the canonical
    nop at the same pc with the same icache outcome (one slot of
    {!Core.skip_nops}): an aligned refill write of icache line [line] if
    [refill], the fetch's [C_addr] decision on it with equal values, then
    the clean write of RoB entry [rob].  The same {!Dvz_ift.Policy}
    decisions [apply_pair] makes for those events, on the dense plane and
    without building them: under diffIFT the refilled line and the RoB
    entry come out clean, under CellIFT both keep their taint.  Raises
    [Invalid_argument] on a state with a provenance recorder (a replay
    records each slot's context, so it steps every slot). *)

val tainted_count : t -> int

val tainted_elems : t -> Elem.t list
(** Sorted by {!Elem.compare}, without duplicates. *)

val tainted_points : t -> int list
(** The taint coverage matrix's points of the current state (§4.2.2): one
    [(module, count)] per module with a non-zero tainted count, packed
    into one non-negative int, in increasing {!Elem.module_index}, which
    is tag order.  The same (physically equal) list until the next taint
    transition, so a caller can tell a repeat with [==].  The packing is
    [count * List.length Elem.all_modules + Elem.module_index e]; only
    this module reads it. *)

val tag_of_point : int -> string * int
(** A packed point as [(tag, count)]. *)

val point_of_tag : string * int -> int option
(** The packed point of [(tag, count)]; [None] unless [tag] is in
    {!Elem.all_modules} and [count] is at least 1. *)

val tainted_by_module : t -> (string * int) list
(** [List.map tag_of_point (tainted_points t)]: the tainted element count
    per module tag (only non-zero entries), sorted.  A fresh list on
    every call; the campaign reads the packed points. *)
