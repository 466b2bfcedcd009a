(** Step 1.2 — transient execution evaluation and training reduction
    (§4.1.2).

    Evaluation packages the packets with their swap schedule, simulates,
    and inspects the RoB IO events: a window whose enqueued-instruction
    count exceeds its committed count (i.e. any recorded transient window
    of the expected kind at the trigger address) means the trigger fired.

    Reduction removes one trigger training packet at a time, re-simulates
    the remaining schedule, and permanently discards packets whose removal
    does not affect triggering, in schedule order. *)

val eval_secret : int array
(** The placeholder secret used during Phase 1 evaluation (Phase 1 does not
    care about data values, only about RoB events). *)

val evaluate : Dvz_uarch.Config.t -> Packet.testcase -> bool
(** Whether the intended transient window triggers. *)

val reduce : Dvz_uarch.Config.t -> Packet.testcase -> Packet.testcase * int
(** [(reduced, removed)] — the test case with ineffective trigger training
    packets discarded, and how many were dropped; [tc] itself when none
    was.  Precondition: [evaluate cfg tc] holds.  [reduce] does not check
    it (every caller has just evaluated [tc], and a second evaluation
    doubled the cost of reducing a packet-less test case); on a test case
    that does not trigger, the result is unspecified. *)
