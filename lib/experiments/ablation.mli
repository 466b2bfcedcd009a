(** Design-choice ablation: diffIFT vs CellIFT as the fuzzer's substrate.

    §3.3 motivates differential IFT by arguing that control-flow
    over-tainting makes the taint signal useless for guidance and the
    oracle imprecise.  This ablation runs identical campaigns with the
    taint engine in [Diffift] vs [Cellift] mode and compares:

    - reported leak classes: CellIFT's blast-radius taints survive the
      encode-sanitization diff (the explosion differs run to run), so the
      over-tainted campaign reports inflated, noisy finding sets;
    - per-run taint population: CellIFT saturates (the §2.2 explosion),
      erasing the locality the coverage matrix needs. *)

type result = {
  diffift : Dejavuzz.Campaign.stats;
  cellift : Dejavuzz.Campaign.stats;
  diffift_mean_taint : float;  (** mean final taint population per run *)
  cellift_mean_taint : float;
}

val run :
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?iterations:int -> ?rng_seed:int -> ?jobs:int -> ?batch:int ->
  Dvz_uarch.Config.t -> result
(** [jobs]/[batch] (defaults 1/1) feed both campaigns' in-campaign
    parallelism (modes × in-campaign [jobs]); [jobs] never changes
    results.  [telemetry] is shared by both mode campaigns, with a
    ["mode"] context field distinguishing their event streams and the
    mode name prefixing their progress lines. *)

val render : result -> string
