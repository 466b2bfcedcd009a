(** Shared taint shadow over the microarchitectural element space.

    One taint state serves the two lockstep DUT instances, exactly like the
    shadow circuit of the dual-DUT testbench in §3.3.  Effects are consumed
    in pairs — instance A's and instance B's {!Effect.slot} for the same
    slot — and the cross-instance comparison of control decisions provides
    the [diff] gating:

    - [Write] propagates data taint.  In [Diffift] mode a write with clean
      sources clears the destination's taint (precise overwrite); in
      [Cellift] mode taints only accumulate, reproducing the monotone taint
      growth of §2.2.
    - [Ctrl] propagates control taint to the touched elements when the
      decision's sources are tainted and — in [Diffift] mode — the two
      instances' concrete decisions actually differ.
    - Slot divergence (the instances executing different pcs) is itself a
      secret-caused difference: every write in a diverged slot is
      control-tainted in both modes. *)

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
    [create] state (the provenance recorder, if any, is kept as-is). *)

val blit : src:t -> dst:t -> unit
(** Copies [src]'s taints, saved checkpoint and per-module counts into
    [dst] (same policy mode; neither provenance recorder is touched). *)

val set_tainted : t -> Elem.t -> unit
(** Marks a taint source (e.g. the secret region's memory words). *)

val is_tainted : t -> Elem.t -> bool

val apply_pair : t -> Effect.slot option -> Effect.slot option -> unit
(** Processes one slot of both instances ([None] when an instance has
    already finished — treated as full divergence). *)

val tainted_count : t -> int

val tainted_elems : t -> Elem.t list

val tainted_by_module : t -> (string * int) list
(** Tainted element count per module tag (only non-zero entries), sorted. *)
