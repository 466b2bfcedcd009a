(* The four campaign workloads, the suite of campaigns a seed expands to,
   and the stats digest every check compares. *)

module Campaign = Dejavuzz.Campaign

type t = {
  name : string;
  options : Campaign.options;
      (** campaign options; [rng_seed] and [iterations] are set per suite *)
  jobs : int;  (** lanes requested via [Campaign.run ~jobs] *)
  iterations : int;  (** iterations of each campaign in the suite *)
  campaigns : int;  (** campaigns per suite *)
}

let cfg = Dvz_uarch.Config.boom_small

let all =
  let d = Campaign.default_options in
  [ { name = "campaign-diffift"; options = d; jobs = 1;
      iterations = 24; campaigns = 128 };
    { name = "campaign-cellift";
      options = { d with taint_mode = Dvz_ift.Policy.Cellift };
      jobs = 1; iterations = 24; campaigns = 128 };
    { name = "campaign-random-training";
      options = { d with style = `Random; fresh_seed_prob = 1.0 };
      jobs = 1; iterations = 10; campaigns = 120 };
    { name = "campaign-parallel"; options = { d with batch = 8 }; jobs = 2;
      iterations = 16; campaigns = 64 } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One seed expands to [campaigns] short campaigns; campaign k of seed S
   has rng seed 1000 S + k.  A single campaign's cost per iteration
   varies by about 15% from seed to seed (the secret and the corpus
   history differ) however long it runs, so a measurement averages over
   many campaigns; short ones let every campaign repeat often within a
   run, which the per-campaign minimum needs. *)
let suite w ~seed =
  List.init w.campaigns (fun k ->
      { w.options with
        Campaign.rng_seed = (1000 * seed) + k;
        iterations = w.iterations })

(* The watchdog the [fuzz] CLI arms by default: abort any dual-DUT run
   beyond 50,000 slots.  A budget also makes the oracle run its sanitize
   replay on every analysis, as it does in a default [fuzz] run. *)
let budget = Dvz_uarch.Dualcore.budget ~max_slots:50_000 ()

let resilience = { Campaign.no_resilience with rz_budget = Some budget }

(* The taint-log bound [Executor.execute] gives [Oracle.analyze]. *)
let log_bound = Dvz_ift.Taintlog.Keep_last 8192

let run ?dispatch ~jobs opts = Campaign.run ~resilience ~jobs ?dispatch cfg opts

let cycles_counter =
  Dvz_obs.Metrics.counter Dvz_obs.Metrics.default "dvz_sim_cycles_total"

(* Everything a campaign reports, rendered canonically: findings with
   their iteration, the coverage curve, triggered count, crashes and
   timeouts, plus the simulated cycles the run added. *)
let digest ~cycles (s : Campaign.stats) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (f : Campaign.finding) ->
      Printf.bprintf b "f%d:%s;" f.Campaign.fd_iteration (Campaign.dedup_key f))
    s.Campaign.s_findings;
  Array.iter (Printf.bprintf b "%d,") s.Campaign.s_coverage_curve;
  List.iter
    (fun (c : Campaign.crash) ->
      Printf.bprintf b "c%d:%s;" c.Campaign.cr_iteration c.Campaign.cr_exn)
    s.Campaign.s_crashes;
  Printf.bprintf b "t%d;o%d;y%d" s.Campaign.s_triggered s.Campaign.s_timeouts
    cycles;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Runs one campaign; returns its stats, digest, simulated cycles and
   wall seconds. *)
let timed_run ?dispatch ~jobs opts =
  let c0 = Dvz_obs.Metrics.counter_value cycles_counter in
  let t0 = Mono.now () in
  let stats = run ?dispatch ~jobs opts in
  let dt = Mono.seconds_since t0 in
  let cycles = Dvz_obs.Metrics.counter_value cycles_counter - c0 in
  (stats, digest ~cycles stats, cycles, dt)

let failures (s : Campaign.stats) =
  List.length s.Campaign.s_crashes + s.Campaign.s_timeouts
