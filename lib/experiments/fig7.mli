(** Figure 7 — taint coverage growth over fuzzing iterations, 5 trials
    each, for DejaVuzz, the DejaVuzz⁻ ablation (no coverage feedback) and
    SpecDoctor (replayed under diffIFT for a comparable coverage metric,
    exactly as the paper replays SpecDoctor's phase 3 cases).

    Reported shape properties: DejaVuzz's final coverage over SpecDoctor's
    (the paper's 4.7×), the improvement over DejaVuzz⁻ (the paper's +22%),
    and how many iterations DejaVuzz needs to match SpecDoctor's
    saturation coverage (the paper's 118). *)

type curve = {
  cv_fuzzer : string;
  cv_mean : float array;     (** mean coverage per iteration over trials *)
  cv_ci : float array;       (** 95% CI half-width per iteration *)
}

type result = {
  curves : curve list;
  ratio_vs_specdoctor : float;
  ratio_vs_minus : float;
  iters_to_specdoctor : int option;
      (** iterations DejaVuzz needs to reach SpecDoctor's final coverage *)
}

val run : ?iterations:int -> ?trials:int -> ?rng_seed:int ->
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?resilience:Dejavuzz.Campaign.resilience ->
  ?jobs:int -> ?batch:int -> Dvz_uarch.Config.t -> result
(** [telemetry] is shared by all DejaVuzz/DejaVuzz⁻ campaigns; each
    trial's events gain [fuzzer]/[trial] context fields and its progress
    lines a ["<fuzzer>/trial<N> "] prefix (trials run on parallel
    domains, so progress lines from different trials interleave; event
    lines reach the sink per campaign, DejaVuzz trials then DejaVuzz⁻
    trials, each in trial order — {!Dejavuzz.Campaign.map_nested}).
    [resilience] checkpoint/resume paths gain a [".<fuzzer>.trialN"]
    suffix per campaign; SpecDoctor trials don't checkpoint.  [jobs]/[batch]
    (defaults 1/1) feed each DejaVuzz/DejaVuzz⁻ campaign's in-campaign
    parallelism (trials × in-campaign [jobs]); [jobs] never changes
    results. *)

val render : result -> string
