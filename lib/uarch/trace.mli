(** Human-readable simulation traces.

    The paper's pipeline consumes two artifacts from each RTL simulation:
    the RoB IO event trace (used by the Phase 1 trigger check) and the taint
    log (used by coverage and the oracles).  This module renders the first
    and a dual-DUT run's outcome, plus a per-slot pipeline log in the style
    of processor commit logs, which is what a developer reads when
    pinpointing a reported bug (§7: "developers usually only need
    simulation waveform files to pinpoint bugs"). *)

val slot_line : Effect.slot -> string
(** One line per executed slot: cycle, pc, disassembly, commit/transient
    marker, window open/close annotations. *)

val render_slots : Effect.slot list -> string

val render_windows : Core.window_record list -> string
(** The RoB IO event summary: one line per transient window. *)

val render_result : Dualcore.result -> string
(** Full dual-DUT run report: windows of both instances, timing, final
    tainted elements split by liveness. *)
