(** Human-readable simulation traces.

    The paper's pipeline consumes two artifacts from each RTL simulation:
    the RoB IO event trace (used by the Phase 1 trigger check) and the taint
    log (used by coverage and the oracles).  This module renders both, plus
    a per-slot pipeline log in the style of processor commit logs, which is
    what a developer reads when pinpointing a reported bug (§7: "developers
    usually only need simulation waveform files to pinpoint bugs"). *)

val slot_line : Effect.slot -> string
(** One line per executed slot: cycle, pc, disassembly, commit/transient
    marker, window open/close annotations. *)

val render_slots : Effect.slot list -> string

val render_windows : Core.window_record list -> string
(** The RoB IO event summary: one line per transient window. *)

val render_taint_log :
  ?every:int -> Dualcore.log_entry list -> string
(** The taint log: per-slot totals and per-module counts; [every] renders
    the entries whose slot number is a multiple of [every] (default 1;
    values [<= 0] are clamped to 1, i.e. every entry), plus always the
    final entry.  Keying on the slot — not the list position — keeps
    truncated or resumed logs aligned on the same slots. *)

val render_result : Dualcore.result -> string
(** Full dual-DUT run report: windows of both instances, timing, final
    tainted elements split by liveness. *)
