(** Step 2.1 — transient window completion (§4.2.1).

    Replaces the dummy window section with (i) the secret access block — a
    fixed load of the sensitive data, optionally through a masked
    (out-of-physical-range) alias of its address to hunt MDS-type bugs —
    and (ii) the secret encoding block, a random composition of encoding
    gadgets that propagate the secret into distinct microarchitectural
    components (cache indexing, FPU/LSU port contention, RAS overwrites,
    instruction-fetch divergence, plain dataflow).

    Also derives the window training packets that warm memory-related state
    (the secret's cache line and TLB entry) before the trigger training
    runs, per the swap-schedule ordering of §4.2.1. *)

val complete : Dvz_uarch.Config.t -> Packet.testcase -> Packet.testcase
(** Fills the window section using the seed's window entropy and attaches
    window training packets; records the chosen gadget tags. *)

val sanitize : Dvz_uarch.Config.t -> Packet.testcase -> Packet.testcase
(** The §4.3.1 encode-sanitization variant: identical except the secret
    encoding block is replaced by nops.  Deterministic with respect to the
    seed, so the access block matches [complete]'s exactly. *)

val splice : Packet.testcase -> Dvz_isa.Insn.t list -> Packet.testcase
(** [splice tc insns] overwrites the window section with a hand-written
    payload (padded with nops to the window size).  Used by the curated
    attack test cases of the Table 4 / Figure 6 suite. *)
