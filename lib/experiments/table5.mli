(** Table 5 — transient execution bugs discovered by full campaigns on both
    cores, classified by attack type, transient-window type and encoded
    timing component; plus the §6.4 comparison points: SpecDoctor's much
    narrower finding set (dcache residue / LSU contention only) and the
    first-bug detection effort. *)

type result = {
  core : string;
  stats : Dejavuzz.Campaign.stats;
  specdoctor_components : string list;
      (** components reachable by SpecDoctor's candidates (BOOM only) *)
}

val run :
  ?iterations:int -> ?rng_seed:int ->
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?resilience:Dejavuzz.Campaign.resilience ->
  ?jobs:int -> ?batch:int -> Dvz_uarch.Config.t -> result
(** [telemetry] events gain a [core] context field; progress lines are
    prefixed with the core name.  [resilience] checkpoint/resume paths
    gain a [".<core>"] suffix so each campaign owns its snapshot.
    [jobs]/[batch] (defaults 1/1) feed the campaign engine's in-campaign
    parallelism — [jobs] never changes results. *)

val run_many :
  ?iterations:int -> ?rng_seed:int ->
  ?telemetry:Dejavuzz.Campaign.telemetry ->
  ?resilience:Dejavuzz.Campaign.resilience ->
  ?jobs:int -> ?batch:int ->
  Dvz_uarch.Config.t list -> result list
(** Runs one campaign per core on parallel domains (cores × in-campaign
    [jobs]) through {!Dejavuzz.Campaign.map_nested}: the shared event
    log holds each core's lines in list order, exactly as each core's
    {!run} alone would write them. *)

val render : result list -> string
