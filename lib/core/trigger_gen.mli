(** Step 1.1 — trigger generation and training derivation (§4.1.1).

    From a seed, generates the trigger section of the transient packet (the
    window section is dummy nops until Phase 2) and derives the trigger
    training packets from the transient-execution information: training
    instructions are nop-aligned to the trigger's address and their control
    flow is adjusted to match the generated transient window (the caller
    address of a return-training call is placed so the pushed return
    address equals the window start, an indirect-jump training's operand is
    set to the window address, branch training operands are computed for
    the opposite outcome).

    [`Random] style implements the DejaVuzz* ablation: swapMem isolation is
    kept but training packets are plain random instruction sequences with
    no alignment or control-flow matching. *)

val generate :
  ?style:[ `Derived | `Random ] ->
  ?force_training:bool ->
  Dvz_uarch.Config.t ->
  Seed.t ->
  Packet.testcase
(** [force_training] restricts generation to window shapes that require
    microarchitectural training (used by the Table 3 bench, which — like
    the paper — excludes mispredictions the default predictor state already
    yields). *)

val expected_window :
  Seed.t -> Dvz_uarch.Effect.window_kind -> bool
(** Whether a recorded window kind matches what the seed meant to trigger. *)

val triggered :
  Packet.testcase -> Dvz_uarch.Core.window_record list -> bool
(** Whether the intended window fired: a window of the expected kind, at
    the intended trigger address, inside the transient packet, with at
    least one transiently enqueued instruction (§4.1.2's RoB-event check). *)
