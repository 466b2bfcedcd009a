(** Deterministic fault injection for the campaign harness.

    Long fuzzing campaigns die to harness faults — a simulator exception,
    a runaway run, a corrupted testbench result — far more often than to
    interesting bugs, and recovery code that is never exercised is
    recovery code that does not work.  This module provides deterministic
    *fault plans*, parsed from [--fault] specs: each fault names the
    campaign iteration and simulator cycle at which it fires and what it
    does there.  The dual-DUT testbench polls {!tick} once per simulation
    slot; an armed fault then raises ({!Injected}, {!Killed}), wedges the
    simulation (so the watchdog budget must convert it into a timeout
    verdict), or corrupts the collected result (so the differential
    oracle sees a fake divergence).

    Arming is domain-local (each parallel campaign trial arms its own
    plan without cross-talk) and the disarmed {!tick} is a single list
    check, cheap enough for the simulation hot path. *)

type action =
  | Crash of string  (** raise {!Injected} out of the simulator *)
  | Hang  (** the simulation stops progressing; only a watchdog ends it *)
  | Corrupt  (** deterministically perturb the collected testbench result *)
  | Kill of string
      (** raise {!Killed} through every recovery layer — simulates the
          whole harness process dying, for checkpoint/resume testing *)

type fault = {
  f_iteration : int;  (** campaign iteration the fault belongs to *)
  f_cycle : int;  (** simulation slot at (or after) which it fires *)
  f_action : action;
}

type plan = fault list

exception Injected of { iteration : int; cycle : int; message : string }
(** An injected harness crash.  Campaign iteration isolation catches it
    like any other exception. *)

exception Killed of { iteration : int; cycle : int; message : string }
(** An injected harness death.  Nothing catches it short of the
    top-level driver; campaigns must be resumed from a checkpoint. *)

val parse : string -> (plan, string) result
(** Parses a comma-separated plan spec.  Each entry is
    [ACTION@ITERATION:CYCLE] with [ACTION] one of [crash], [hang],
    [corrupt], [kill] — e.g. ["crash@3:50,kill@17:0"]. *)

val to_string : plan -> string
(** Renders a plan back into the {!parse} syntax. *)

(** {2 Arming} — domain-local ambient state polled by the testbench. *)

val arm : iteration:int -> plan -> unit
(** Selects the plan's faults for [iteration] and arms them in this
    domain.  Replaces any previously armed faults. *)

val disarm : unit -> unit
(** Clears the armed faults (fired-fault records are kept for
    {!drain_fired}). *)

val armed : unit -> bool

val tick : cycle:int -> [ `Ok | `Hang | `Corrupt ]
(** Polls the armed faults at a simulation cycle.  At most one fault
    fires per tick: a [Crash]/[Kill] fault raises, a [Hang]/[Corrupt]
    fault is reported to the caller to enact.  Fired faults are consumed
    and recorded.  Disarmed, this is a cheap no-op returning [`Ok]. *)

val drain_fired : unit -> fault list
(** Returns the faults fired in this domain since the last drain, in
    firing order, and clears the record — the campaign turns these into
    [fault_injected] telemetry events. *)

val action_name : action -> string
