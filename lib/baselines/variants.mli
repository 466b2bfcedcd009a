(** Campaign options for Figure 7's DejaVuzz variants (§6.2, §6.3).

    DejaVuzz⁻ keeps everything but taint-coverage feedback, mutating the
    window section blindly.  The paper's other ablation, DejaVuzz*, keeps
    swapMem but replaces training derivation with random training packets
    (no alignment, no control-flow matching); it is a training style, not
    a campaign variant: Table 3 measures it with
    [Trigger_gen.generate ~style:`Random], and [fuzz --random-training]
    runs it as a campaign. *)

val minus_options : iterations:int -> rng_seed:int -> Dejavuzz.Campaign.options
(** DejaVuzz⁻. *)

val full_options : iterations:int -> rng_seed:int -> Dejavuzz.Campaign.options
(** Unablated DejaVuzz, for symmetric bench code. *)
