(** The fuzzing manager — a thin orchestrator over the layered engine.

    Per batch: snapshot the {!Corpus}, let the {!Scheduler} turn options
    + snapshot + the master RNG into a batch of iteration plans (each
    with its own child generator), run every plan through the
    {!Executor} (phases 1–3, fault polling, watchdog — no shared mutable
    state), and fold the outcomes back in plan-index order: coverage
    observe → corpus admit → finding dedup → events.

    Because scheduling decisions are made up front on the master stream
    and the fold is sequential in iteration order, results depend on the
    [batch] size (a semantic parameter) but not on [jobs] (an execution
    resource): [~jobs:n] produces byte-identical findings, coverage
    points, checkpoints and event streams to [~jobs:1]. *)

type finding = {
  fd_attack : [ `Meltdown | `Spectre ];
  fd_window : Seed.trigger_kind;
  fd_components : Oracle.component list;
  fd_kind : [ `Timing | `Encode ];
  fd_iteration : int;
  fd_source : string option;
      (** the secret element the provenance replay attributed the leak
          to; [None] unless the campaign ran with an explain directory *)
}

type options = {
  iterations : int;
  coverage_guided : bool;   (** false = DejaVuzz⁻ *)
  style : [ `Derived | `Random ];  (** [`Random] = DejaVuzz* training *)
  rng_seed : int;
  fresh_seed_prob : float;  (** probability of a brand-new seed *)
  taint_mode : Dvz_ift.Policy.mode;
      (** IFT policy driving coverage and oracles; [Cellift] is the
          over-tainting ablation *)
  corpus_cap : int;
      (** max corpus entries kept (highest coverage reward survives);
          default 64 *)
  batch : int;
      (** iterations scheduled per corpus snapshot; all [batch] plans
          can execute in parallel under [jobs].  Part of the campaign's
          semantics: changing it changes which corpus state each
          iteration's scheduling sees (default 1 = the classic fully
          sequential feedback loop), whereas [jobs] never changes
          results. *)
}

val default_options : options

(** {2 Live status board} — the lock-free snapshot feed behind
    [/status]. *)

type progress = {
  pg_core : string;
  pg_phase : string;  (** ["fuzzing"] while running, ["finished"] after *)
  pg_iteration : int;  (** iterations folded so far *)
  pg_total : int;
  pg_findings : int;
  pg_triggered : int;
  pg_coverage : int;
  pg_corpus_size : int;
  pg_top_rewards : int list;  (** highest corpus rewards, descending, ≤5 *)
  pg_crashes : int;
  pg_timeouts : int;
  pg_sim_cycles : int;
  pg_batches : int;
  pg_jobs : int;  (** lanes requested via [run ~jobs] *)
  pg_jobs_effective : int;
      (** lanes actually used: [jobs] clamped to the hardware
          ({!Dvz_util.Parallel.effective_lanes}) *)
  pg_domain_iters : int array;
      (** iterations executed per worker domain (0 = orchestrator),
          sized from [pg_jobs_effective] *)
  pg_elapsed_s : float;
  pg_eta_s : float option;  (** linear extrapolation; [None] at the edges *)
}

type board
(** A single-slot mailbox: the orchestrator's fold swaps in a fresh
    immutable {!progress} after every iteration (an [Atomic.set], no
    lock), and any thread may read the latest snapshot at any time. *)

val new_board : unit -> board
val board_read : board -> progress option
val progress_json : progress -> Dvz_obs.Json.t

(** Telemetry wiring for a campaign.  [quiet] (the default) records
    always-on metrics into {!Dvz_obs.Metrics.default}, emits no events
    and prints no progress; telemetry never influences fuzzing decisions,
    so results are identical with any telemetry configuration. *)
type telemetry = {
  t_events : Dvz_obs.Events.sink;
      (** JSONL stream: [campaign_start], one [iteration] record per
          round (seed kind, phase-1 trigger outcome, coverage delta, new
          findings, per-phase seconds, simulated cycles), a [finding]
          record per deduplicated bug class, and [campaign_end]. *)
  t_metrics : Dvz_obs.Metrics.t;
      (** Registry receiving phase spans, iteration/batch/dedup counters,
          per-domain iteration counters and the corpus-size /
          cycles-per-second gauges; its clock drives all campaign
          timing. *)
  t_progress_every : int;  (** emit progress every N iterations; 0 = off *)
  t_progress : string -> unit;  (** receives each rendered progress line *)
  t_explain_dir : string option;
      (** when set, every iteration that yields a fresh finding is
          replayed once with the taint-provenance recorder armed
          ({!Explain.explain}); the directory receives
          [finding-NNNN.json]/[.txt]/[.dot] artifacts, a
          [provenance_trace] event is emitted and the finding's
          [fd_source] is filled in.  The replay draws nothing from the
          campaign RNG, so fuzzing results are unchanged. *)
  t_board : board option;
      (** when set, the fold publishes a {!progress} snapshot here after
          every iteration (and a final ["finished"] one) — how a status
          server observes the campaign without the hot loop taking
          locks *)
}

val quiet : telemetry

val label :
  telemetry -> prefix:string -> (string * Dvz_obs.Json.t) list -> telemetry
(** [label tel ~prefix context] is [tel] for one of several campaigns
    sharing its sink and progress printer (Table 5's cores, Fig. 7's
    trials, the ablation's modes): every event gains the [context]
    fields ({!Dvz_obs.Events.with_context}) and every progress line the
    prefix [prefix ^ " "]. *)

val map_nested : telemetry -> (telemetry -> 'a -> 'b) -> 'a list -> 'b list
(** [map_nested tel f xs] runs [f tel'] on each of [xs] on parallel
    domains ({!Dvz_util.Parallel.map}), for campaigns that share [tel]:
    each task's [tel'] writes its events into its own deferred copy of
    [tel]'s sink ({!Dvz_obs.Events.defer}), and when the map returns or
    raises the copies are appended to the shared sink in list order.
    The shared log therefore reads as if the tasks ran one after
    another, whatever the domain count; progress lines and the board
    stay live. *)

type crash = Executor.crash = {
  cr_iteration : int;
  cr_seed : Seed.t option;  (** the input being processed, when known *)
  cr_exn : string;
  cr_backtrace : string;
}
(** One isolated harness crash: the iteration's input descriptor plus the
    exception and backtrace, recorded instead of killing the campaign. *)

type stats = {
  s_options : options;
  s_coverage_curve : int array;  (** covered points after each iteration *)
  s_findings : finding list;     (** deduplicated, chronological *)
  s_first_bug : int option;      (** iteration of the first finding *)
  s_final_coverage : int;
  s_triggered : int;             (** iterations whose window fired *)
  s_crashes : crash list;        (** isolated harness crashes, chronological *)
  s_timeouts : int;              (** iterations ended by the watchdog *)
}

(** {2 Resilience} — fault injection, watchdogs and checkpoint/resume. *)

type resilience = {
  rz_fault_plan : Dvz_resilience.Fault.plan;
      (** faults to arm, one iteration at a time, before each round *)
  rz_budget : Dvz_uarch.Dualcore.budget option;
      (** watchdog on every testbench run; exceeding it yields a Timeout
          verdict for the iteration instead of a hang *)
  rz_checkpoint : string option;  (** snapshot path; [None] = never *)
  rz_checkpoint_every : int;
      (** snapshot when a batch crosses a multiple of N iterations (at
          [batch = 1], exactly every N iterations) *)
  rz_checkpoint_keep : bool;
      (** rotate the checkpoint being replaced to [path ^ ".prev"] on
          every write, keeping one known-good generation for fallback
          (default false; the fleet coordinator turns it on) *)
  rz_resume : string option;
      (** checkpoint to restore before the first iteration; a missing
          file silently starts fresh (first run of a kill/resume loop),
          a corrupt or incompatible one raises {!Bad_checkpoint}, one
          written under different flags raises [Invalid_argument] *)
  rz_crash_dir : string option;
      (** directory receiving one [crash-NNNN.json] artifact per
          isolated harness crash *)
}

val no_resilience : resilience
(** No faults, no watchdog, no checkpointing ([rz_checkpoint_every] is
    50, but inert while [rz_checkpoint] is [None]). *)

val with_suffix : resilience -> string -> resilience
(** Appends [".suffix"] to the checkpoint and resume paths — how the
    multi-campaign experiments (Table 5 cores, Fig. 7 trials) give each
    campaign its own snapshot file from one [--checkpoint] flag. *)

exception
  Bad_checkpoint of { bc_path : string; bc_reason : string; bc_advice : string }
(** A [rz_resume] file exists but cannot be trusted: unreadable, not a
    checkpoint, truncated, checksum-damaged, or written by an
    incompatible build.  [bc_reason] says which validation failed,
    [bc_advice] suggests a recovery.  Distinct from the
    [Invalid_argument] raised when a structurally sound checkpoint was
    written under different campaign flags — corruption can be recovered
    by falling back to an older generation, a flag mismatch cannot. *)

val bad_checkpoint_message :
  path:string -> reason:string -> advice:string -> string
(** The one-line rendering ("cannot resume from <path>: <reason>
    (<advice>)") used by the CLI and the registered exception printer. *)

val run :
  ?telemetry:telemetry ->
  ?resilience:resilience ->
  ?jobs:int ->
  ?dispatch:(Executor.ctx -> Scheduler.plan list -> Executor.outcome list) ->
  Dvz_uarch.Config.t ->
  options ->
  stats
(** Runs the campaign.  [jobs] (default 1) is the total number of lanes
    executing each batch of plans — the orchestrator's domain included,
    so [jobs = 4] spawns three extra domains.  Requests beyond the
    hardware are clamped ({!Dvz_util.Parallel.effective_lanes}, noted
    once on stderr and reported as [pg_jobs_effective]).  Since every
    plan carries its own pre-split child generator and all side effects
    happen in the orchestrator's plan-index-ordered fold, [jobs] affects
    wall-clock time only; checkpoints record the batch cursor, so a
    campaign killed under any [jobs] and resumed under any other
    produces stats bit-identical to an uninterrupted run.

    [dispatch], when given, replaces batch execution entirely: it
    receives the executor context and the batch's plans and must return
    exactly one outcome per plan, in plan-index order.  Plans are plain
    data (each carries its own pre-split generator), so a dispatcher may
    execute them anywhere — the fleet coordinator ships them to worker
    processes — and, because all side effects stay in the fold here,
    any faithful dispatcher reproduces in-process results byte for
    byte.  Checkpoints are written here too, so a dispatcher never
    learns about them.

    Raises {!Bad_checkpoint} on a corrupt or incompatible [rz_resume]
    file, [Invalid_argument] on an options/core mismatch, a negative
    [options.iterations] or a non-positive
    [jobs]/[options.batch]/[options.corpus_cap]; injected
    {!Dvz_resilience.Fault.Killed} faults propagate to the caller. *)

val dedup_key : finding -> string
(** Two findings with the same key are the same bug class. *)

val attack_name : [ `Meltdown | `Spectre ] -> string
(** ["meltdown"] or ["spectre"], as event lines and dedup keys spell a
    finding's attack. *)

val attack_of_name : string -> [ `Meltdown | `Spectre ] option
(** The inverse of {!attack_name}. *)

val leak_kind_name : [ `Timing | `Encode ] -> string
(** ["timing"] or ["encode"], as event lines, dedup keys and the report
    spell a finding's kind. *)

val leak_kind_of_name : string -> [ `Timing | `Encode ] option
(** The inverse of {!leak_kind_name}. *)
