(** Re-implementation of SpecDoctor (Hur et al., CCS'22), the paper's
    state-of-the-art baseline, on the same DUT substrate.

    Characteristics reproduced from the paper's comparison (§2.3, §6.2,
    §6.3): linear single-sequence stimuli in which random training
    instructions precede the trigger (so every window type pays ~120
    instructions of training, useful or not); only the window types its
    generation strategy supports (page faults, memory disambiguation,
    branch and indirect-jump mispredictions — it discards windows with
    backward jumps and cannot place access-fault / misalign / return
    triggers); training by BHT/BTB index aliasing rather than targeted
    placement, which works on BOOM's untagged predictors only; and a
    hash-based differential oracle over final timing-component state that
    flags unexploitable residue (stale cache/LFB contents) as candidate
    leaks. *)

type case = {
  sc_testcase : Dejavuzz.Packet.testcase;    (** single-blob linear stimulus *)
  sc_kind : Dejavuzz.Seed.trigger_kind;
  sc_training_insns : int;          (** dynamic pre-trigger instructions *)
}

val supported : Dejavuzz.Seed.trigger_kind array
(** The window types SpecDoctor's generation can produce. *)

val generate_of_kind :
  Dvz_util.Rng.t -> Dvz_uarch.Config.t -> Dejavuzz.Seed.trigger_kind -> case

val triggered : Dvz_uarch.Config.t -> case -> bool
(** Whether the intended window fires: {!Dejavuzz.Trigger_opt.evaluate}
    on the case's test case, the RoB-event check of §4.1.2, so Table 3
    measures both fuzzers with one phase-1 evaluator. *)

val hash_differs : Dvz_uarch.Config.t -> secret:int array -> case -> bool
(** SpecDoctor's phase-3 oracle: run the two secret variants and compare
    the final state hashes. *)

type stats = {
  sd_coverage_curve : int array;
      (** taint-coverage replay of its test cases, for Figure 7 *)
  sd_candidates : case list;        (** hash-difference phase-3 cases *)
  sd_iterations : int;
}

val campaign :
  ?rng_seed:int -> iterations:int -> Dvz_uarch.Config.t -> stats
(** Runs a SpecDoctor campaign: random generation, hash-difference
    filtering, no taint feedback.  Coverage is measured by replaying each
    case under diffIFT, exactly like the paper replays SpecDoctor's phase 3
    test cases in the DejaVuzz environment for comparability. *)
