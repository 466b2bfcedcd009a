module Rng = Dvz_util.Rng
module Clock = Dvz_obs.Clock
module Metrics = Dvz_obs.Metrics
module Events = Dvz_obs.Events
module Json = Dvz_obs.Json
module Profile = Dvz_obs.Profile
module Fault = Dvz_resilience.Fault
module Snapshot = Dvz_resilience.Snapshot

let m_crashes =
  Metrics.counter Metrics.default
    ~help:"Campaign iterations that crashed the harness and were isolated"
    "dvz_harness_crashes_total"

type finding = {
  fd_attack : [ `Meltdown | `Spectre ];
  fd_window : Seed.trigger_kind;
  fd_components : Oracle.component list;
  fd_kind : [ `Timing | `Encode ];
  fd_iteration : int;
  fd_source : string option;
}

type options = {
  iterations : int;
  coverage_guided : bool;
  style : [ `Derived | `Random ];
  rng_seed : int;
  fresh_seed_prob : float;
  taint_mode : Dvz_ift.Policy.mode;
  corpus_cap : int;
  batch : int;
}

let default_options =
  { iterations = 200; coverage_guided = true; style = `Derived;
    rng_seed = 1; fresh_seed_prob = 0.35;
    taint_mode = Dvz_ift.Policy.Diffift;
    corpus_cap = 64; batch = 1 }

(* Live status snapshot published by the orchestrator's fold after every
   iteration: one immutable record swapped into an Atomic, so the server
   thread (or any other observer) reads a consistent view without the
   hot loop ever taking a lock. *)
type progress = {
  pg_core : string;
  pg_phase : string;  (* "fuzzing" | "finished" *)
  pg_iteration : int;  (* iterations folded so far *)
  pg_total : int;
  pg_findings : int;
  pg_triggered : int;
  pg_coverage : int;
  pg_corpus_size : int;
  pg_top_rewards : int list;  (* highest corpus rewards, descending *)
  pg_crashes : int;
  pg_timeouts : int;
  pg_sim_cycles : int;
  pg_batches : int;
  pg_jobs : int;  (* requested via [run ~jobs] *)
  pg_jobs_effective : int;  (* lanes actually used (clamped to hardware) *)
  pg_domain_iters : int array;  (* per worker domain, 0 = orchestrator *)
  pg_elapsed_s : float;
  pg_eta_s : float option;
}

type board = progress option Atomic.t

let new_board () : board = Atomic.make None
let board_read (b : board) = Atomic.get b

let progress_json p =
  Json.Obj
    [ ("core", Json.Str p.pg_core);
      ("phase", Json.Str p.pg_phase);
      ("iteration", Json.Int p.pg_iteration);
      ("total", Json.Int p.pg_total);
      ("findings", Json.Int p.pg_findings);
      ("triggered", Json.Int p.pg_triggered);
      ("coverage", Json.Int p.pg_coverage);
      ("corpus_size", Json.Int p.pg_corpus_size);
      ( "top_rewards",
        Json.Arr (List.map (fun r -> Json.Int r) p.pg_top_rewards) );
      ("harness_crashes", Json.Int p.pg_crashes);
      ("watchdog_timeouts", Json.Int p.pg_timeouts);
      ("sim_cycles", Json.Int p.pg_sim_cycles);
      ("batches", Json.Int p.pg_batches);
      ("jobs", Json.Int p.pg_jobs);
      ("jobs_effective", Json.Int p.pg_jobs_effective);
      ( "domain_iterations",
        Json.Arr
          (Array.to_list (Array.map (fun n -> Json.Int n) p.pg_domain_iters))
      );
      ("elapsed_s", Json.Float p.pg_elapsed_s);
      ( "eta_s",
        match p.pg_eta_s with None -> Json.Null | Some s -> Json.Float s ) ]

type telemetry = {
  t_events : Events.sink;
  t_metrics : Metrics.t;
  t_progress_every : int;
  t_progress : string -> unit;
  t_explain_dir : string option;
  t_board : board option;
}

let quiet =
  { t_events = Events.null; t_metrics = Metrics.default;
    t_progress_every = 0; t_progress = ignore; t_explain_dir = None;
    t_board = None }

let label tel ~prefix context =
  { tel with
    t_events = Events.with_context tel.t_events context;
    t_progress = (fun line -> tel.t_progress (prefix ^ " " ^ line)) }

let map_nested tel f xs =
  let tasks = List.map (fun x -> (Events.defer tel.t_events, x)) xs in
  Fun.protect
    ~finally:(fun () -> List.iter (fun ((_, commit), _) -> commit ()) tasks)
    (fun () ->
      Dvz_util.Parallel.map
        (fun ((events, _), x) -> f { tel with t_events = events } x)
        tasks)

type crash = Executor.crash = {
  cr_iteration : int;
  cr_seed : Seed.t option;
  cr_exn : string;
  cr_backtrace : string;
}

type stats = {
  s_options : options;
  s_coverage_curve : int array;
  s_findings : finding list;
  s_first_bug : int option;
  s_final_coverage : int;
  s_triggered : int;
  s_crashes : crash list;
  s_timeouts : int;
}

type resilience = {
  rz_fault_plan : Fault.plan;
  rz_budget : Dvz_uarch.Dualcore.budget option;
  rz_checkpoint : string option;
  rz_checkpoint_every : int;
  rz_checkpoint_keep : bool;
  rz_resume : string option;
  rz_crash_dir : string option;
}

let no_resilience =
  { rz_fault_plan = []; rz_budget = None; rz_checkpoint = None;
    rz_checkpoint_every = 50; rz_checkpoint_keep = false; rz_resume = None;
    rz_crash_dir = None }

exception
  Bad_checkpoint of { bc_path : string; bc_reason : string; bc_advice : string }

let bad_checkpoint_message ~path ~reason ~advice =
  Printf.sprintf "cannot resume from %s: %s (%s)" path reason advice

let () =
  Printexc.register_printer (function
    | Bad_checkpoint { bc_path; bc_reason; bc_advice } ->
        Some
          (bad_checkpoint_message ~path:bc_path ~reason:bc_reason
             ~advice:bc_advice)
    | _ -> None)

let with_suffix rz suffix =
  let app = Option.map (fun p -> p ^ "." ^ suffix) in
  { rz with
    rz_checkpoint = app rz.rz_checkpoint;
    rz_resume = app rz.rz_resume }

(* Checkpoint payload: the orchestrator's entire fold state, as plain
   data, Marshal'd behind {!Snapshot}'s validated header.  Bump
   [checkpoint_version] whenever this layout (or anything reachable from
   it: Seed.t, Packet.testcase, Corpus.entry, options, finding) changes
   shape. *)
type checkpoint = {
  cp_core : string;
  cp_options : options;
  cp_next_iteration : int;
  cp_batch_cursor : int;  (** batches completed; checkpoints land only
                              on batch boundaries *)
  cp_rng_state : int64;
  cp_secret : int array;
  cp_coverage : (string * int) list;
  cp_curve : int array;
  cp_corpus : Corpus.entry list;
  cp_seen : string list;
  cp_findings : finding list;  (* reverse-chronological, as accumulated *)
  cp_n_findings : int;
  cp_first_bug : int option;
  cp_triggered : int;
  cp_sim_cycles : int;
  cp_crashes : crash list;  (* reverse-chronological *)
  cp_timeouts : int;
}

let checkpoint_magic = "dejavuzz-campaign"

let checkpoint_version = 3
(* v2: finding gained fd_source
   v3: options gained corpus_cap/batch, corpus stores Corpus.entry,
       batch cursor added *)

let save_checkpoint ?(keep_previous = false) ~path (cp : checkpoint) =
  (* [No_sharing] canonicalises the encoding: semantically equal folds
     produce byte-equal checkpoints even when their in-memory sharing
     differs (outcomes that crossed a fleet worker's pipe are fresh
     copies; in-process ones alias each other).  The fleet determinism
     contract cmp(1)s checkpoint bytes, so this matters. *)
  Snapshot.save ~keep_previous ~path ~magic:checkpoint_magic
    ~version:checkpoint_version
    (Marshal.to_string cp [ Marshal.No_sharing ])

(* [Error (reason, advice)] — the pair [run] packs into
   {!Bad_checkpoint}, and the fleet coordinator's fallback logic
   classifies on. *)
let load_checkpoint ~path : (checkpoint, string * string) result =
  match Snapshot.load_checked ~path ~magic:checkpoint_magic with
  | Error e -> Error (Snapshot.describe e, Snapshot.advice e)
  | Ok (v, payload) ->
      if v <> checkpoint_version then
        Error
          ( Printf.sprintf
              "checkpoint version %d unsupported (this build reads v%d)" v
              checkpoint_version,
            "the checkpoint was written by an incompatible build — rerun it \
             to completion there, or delete the file to start fresh" )
      else (
        match (Marshal.from_string payload 0 : checkpoint) with
        | exception _ ->
            Error
              ( "checkpoint payload does not unmarshal",
                "the payload bytes are damaged despite a valid header — \
                 restore the .prev rotation if one exists, or delete the \
                 file to start fresh" )
        | cp -> (
            (* A coverage point of a module this build does not have is an
               incompatible layout, not a campaign to half-restore. *)
            match Coverage.of_list cp.cp_coverage with
            | _ -> Ok cp
            | exception Invalid_argument reason ->
                Error
                  ( reason,
                    "the checkpoint was written by a build with other \
                     module tags — rerun it to completion there, or delete \
                     the file to start fresh" )))

(* Alongside the human-readable [seed] string (which truncates the
   entropies), record everything [Explain.explain_crash] needs to rebuild
   the testcase: the structured seed, the core, the secret and the
   campaign's generation settings. *)
let write_crash_artifact ~core ~options ~secret dir (c : crash) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "crash-%04d.json" c.cr_iteration) in
  let json =
    Json.Obj
      [ ("iteration", Json.Int c.cr_iteration);
        ( "seed",
          match c.cr_seed with
          | None -> Json.Null
          | Some s -> Json.Str (Seed.to_string s) );
        ( "seed_spec",
          match c.cr_seed with
          | None -> Json.Null
          | Some s ->
              Json.Obj
                [ ("kind", Json.Str (Seed.kind_name s.Seed.kind));
                  ("trigger_entropy", Json.Int s.Seed.trigger_entropy);
                  ("window_entropy", Json.Int s.Seed.window_entropy);
                  ("tighten", Json.Bool s.Seed.tighten);
                  ("mask_high", Json.Bool s.Seed.mask_high) ] );
        ("core", Json.Str core);
        ( "secret",
          Json.Arr (Array.to_list (Array.map (fun v -> Json.Int v) secret)) );
        ( "taint_mode",
          Json.Str (Dvz_ift.Policy.mode_name options.taint_mode) );
        ( "style",
          Json.Str
            (match options.style with `Derived -> "derived" | `Random -> "random")
        );
        ("exn", Json.Str c.cr_exn);
        ("backtrace", Json.Str c.cr_backtrace) ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let dedup_key f =
  Printf.sprintf "%s/%s/%s/%s"
    (match f.fd_attack with `Meltdown -> "meltdown" | `Spectre -> "spectre")
    (Seed.kind_name f.fd_window)
    (String.concat "," f.fd_components)
    (match f.fd_kind with `Timing -> "timing" | `Encode -> "encode")

let findings_of_analysis ~iteration seed (a : Oracle.analysis) =
  match a.Oracle.a_attack with
  | None -> []
  | Some attack ->
      List.map
        (fun leak ->
          match leak with
          | Oracle.Timing { components; _ } ->
              { fd_attack = attack; fd_window = seed.Seed.kind;
                fd_components = components; fd_kind = `Timing;
                fd_iteration = iteration; fd_source = None }
          | Oracle.Encode { components; _ } ->
              { fd_attack = attack; fd_window = seed.Seed.kind;
                fd_components = components; fd_kind = `Encode;
                fd_iteration = iteration; fd_source = None })
        a.Oracle.a_leaks

let attack_name = function `Meltdown -> "meltdown" | `Spectre -> "spectre"
let leak_kind_name = function `Timing -> "timing" | `Encode -> "encode"
let style_name = function `Derived -> "derived" | `Random -> "random"

let taint_mode_name = Dvz_ift.Policy.mode_name

let finding_event f =
  [ ("type", Json.Str "finding");
    ("iteration", Json.Int f.fd_iteration);
    ("attack", Json.Str (attack_name f.fd_attack));
    ("window", Json.Str (Seed.kind_name f.fd_window));
    ("kind", Json.Str (leak_kind_name f.fd_kind));
    ("components", Json.Arr (List.map (fun c -> Json.Str c) f.fd_components)) ]
  (* Appended only when attributed, keeping unattributed event lines
     byte-identical to earlier releases. *)
  @ match f.fd_source with
    | None -> []
    | Some s -> [ ("source", Json.Str s) ]

(* The orchestrator: snapshot the corpus, schedule a batch of plans off
   the master RNG, execute them (sequentially or across domains — the
   executors share no mutable state), then fold the outcomes back in
   plan-index order.  Every observable side effect — coverage
   accounting, corpus admission, finding dedup, events, checkpoints —
   happens in the fold, on the orchestrator's domain, in iteration
   order, which is why [jobs] changes wall-clock time and nothing
   else. *)
let run ?(telemetry = quiet) ?(resilience = no_resilience) ?(jobs = 1)
    ?dispatch cfg options =
  if options.iterations < 0 then
    invalid_arg "Campaign.run: options.iterations must not be negative";
  if options.batch < 1 then
    invalid_arg "Campaign.run: options.batch must be at least 1";
  if options.corpus_cap < 1 then
    invalid_arg "Campaign.run: options.corpus_cap must be at least 1";
  if jobs < 1 then invalid_arg "Campaign.run: jobs must be at least 1";
  let tel = telemetry in
  let rz = resilience in
  let clk = Metrics.clock tel.t_metrics in
  let events_on = not (Events.is_null tel.t_events) in
  let m_iters =
    Metrics.counter tel.t_metrics ~help:"Campaign iterations executed"
      "dvz_campaign_iterations_total"
  in
  let m_batches =
    Metrics.counter tel.t_metrics
      ~help:"Campaign batches scheduled, executed and folded"
      "dvz_campaign_batches_total"
  in
  let m_dedup =
    Metrics.counter tel.t_metrics
      ~help:"Findings dropped as duplicates of a known bug class"
      "dvz_campaign_dedup_hits_total"
  in
  let g_corpus =
    Metrics.gauge tel.t_metrics ~help:"Current corpus size"
      "dvz_campaign_corpus_size"
  in
  let g_tput =
    Metrics.gauge tel.t_metrics
      ~help:"Simulated cycles per wall-clock second"
      "dvz_campaign_cycles_per_sec"
  in
  let h_phase1 =
    Metrics.histogram tel.t_metrics
      ~help:"Phase 1 (trigger generation/evaluation/reduction) seconds"
      "dvz_phase1_seconds"
  in
  let h_phase2 =
    Metrics.histogram tel.t_metrics
      ~help:"Phase 2 (window completion) seconds" "dvz_phase2_seconds"
  in
  let h_phase3 =
    Metrics.histogram tel.t_metrics
      ~help:"Phase 3 (dual-DUT simulation + oracles) seconds"
      "dvz_phase3_seconds"
  in
  let h_batch = Metrics.histogram tel.t_metrics "dvz_campaign_batch_seconds" in
  (* Lanes the dispatcher will actually use: [jobs] clamped to the
     hardware (with a one-time stderr note when clamped).  The per-domain
     counters are sized from it — the executor asserts its worker index in
     range instead of silently folding high slots into the last one. *)
  let jobs_effective = Dvz_util.Parallel.effective_lanes jobs in
  let domain_iters =
    Array.init jobs_effective (fun i ->
        Metrics.counter tel.t_metrics
          ~help:"Campaign iterations executed by one worker domain (0 = orchestrator)"
          (Printf.sprintf "dvz_campaign_iterations_domain_%d" i))
  in
  let t_start = Clock.now clk in
  let resumed =
    match rz.rz_resume with
    | Some path when Sys.file_exists path -> (
        match load_checkpoint ~path with
        | Error (reason, advice) ->
            (* Corruption-class failures (bad header, short payload, CRC,
               unreadable, incompatible layout) are distinguishable from
               "you passed different flags" mismatches below: callers can
               exit with a dedicated code or fall back to the .prev
               rotation. *)
            raise
              (Bad_checkpoint
                 { bc_path = path; bc_reason = reason; bc_advice = advice })
        | Ok cp ->
            if cp.cp_core <> cfg.Dvz_uarch.Config.name then
              invalid_arg
                (Printf.sprintf
                   "Campaign.run: checkpoint %s is for core %s, not %s" path
                   cp.cp_core cfg.Dvz_uarch.Config.name);
            if cp.cp_options <> options then
              invalid_arg
                (Printf.sprintf
                   "Campaign.run: checkpoint %s was written with different \
                    campaign options"
                   path);
            (* Checkpoints land on batch boundaries; a cursor that
               disagrees with the iteration count means the file was
               written by a differently-batched (or corrupted) run. *)
            if
              cp.cp_batch_cursor
              <> (cp.cp_next_iteration + options.batch - 1) / options.batch
            then
              invalid_arg
                (Printf.sprintf
                   "Campaign.run: checkpoint %s has batch cursor %d, \
                    inconsistent with iteration %d at batch size %d"
                   path cp.cp_batch_cursor cp.cp_next_iteration options.batch);
            Some cp)
    | _ -> None
  in
  (* All fold state below either starts fresh or is restored verbatim
     from the checkpoint; nothing else carries state across batches,
     which is what makes kill-and-resume bit-identical. *)
  let rng, secret =
    match resumed with
    | None ->
        let rng = Rng.create options.rng_seed in
        (* Full 32-bit draws: [Rng.int rng 0xFFFF_FFFF] would exclude the
           all-ones dword (exclusive upper bound). *)
        let secret =
          Array.init Dvz_soc.Layout.secret_dwords (fun _ ->
              Rng.next rng land 0xFFFF_FFFF)
        in
        (rng, secret)
    | Some cp -> (Rng.of_state cp.cp_rng_state, Array.copy cp.cp_secret)
  in
  let start_it =
    match resumed with None -> 0 | Some cp -> cp.cp_next_iteration
  in
  let coverage =
    match resumed with
    | None -> Coverage.create ()
    | Some cp -> Coverage.of_list cp.cp_coverage
  in
  let curve = Array.make options.iterations 0 in
  let corpus =
    match resumed with
    | None -> Corpus.create ~cap:options.corpus_cap
    | Some cp -> Corpus.of_entries ~cap:options.corpus_cap cp.cp_corpus
  in
  let seen = Hashtbl.create 32 in
  let sim_cycles = ref 0 in
  let findings = ref [] in
  let n_findings = ref 0 in
  let first_bug = ref None in
  let triggered = ref 0 in
  let crashes = ref [] in
  let timeouts = ref 0 in
  let batch_no =
    ref (match resumed with None -> 0 | Some cp -> cp.cp_batch_cursor)
  in
  (match resumed with
  | None -> ()
  | Some cp ->
      Array.blit cp.cp_curve 0 curve 0
        (min (Array.length cp.cp_curve) (Array.length curve));
      List.iter (fun k -> Hashtbl.replace seen k ()) cp.cp_seen;
      sim_cycles := cp.cp_sim_cycles;
      findings := cp.cp_findings;
      n_findings := cp.cp_n_findings;
      first_bug := cp.cp_first_bug;
      triggered := cp.cp_triggered;
      crashes := cp.cp_crashes;
      timeouts := cp.cp_timeouts);
  let make_checkpoint next_it =
    { cp_core = cfg.Dvz_uarch.Config.name;
      cp_options = options;
      cp_next_iteration = next_it;
      cp_batch_cursor = !batch_no;
      cp_rng_state = Rng.state rng;
      cp_secret = Array.copy secret;
      cp_coverage = Coverage.to_list coverage;
      cp_curve = Array.copy curve;
      cp_corpus = Corpus.entries corpus;
      cp_seen = Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare;
      cp_findings = !findings;
      cp_n_findings = !n_findings;
      cp_first_bug = !first_bug;
      cp_triggered = !triggered;
      cp_sim_cycles = !sim_cycles;
      cp_crashes = !crashes;
      cp_timeouts = !timeouts }
  in
  if events_on then begin
    Events.emit tel.t_events
      [ ("type", Json.Str "campaign_start");
        ("core", Json.Str cfg.Dvz_uarch.Config.name);
        ("iterations", Json.Int options.iterations);
        ("rng_seed", Json.Int options.rng_seed);
        ("coverage_guided", Json.Bool options.coverage_guided);
        ("style", Json.Str (style_name options.style));
        ("fresh_seed_prob", Json.Float options.fresh_seed_prob);
        ("taint_mode", Json.Str (taint_mode_name options.taint_mode)) ];
    match (resumed, rz.rz_resume) with
    | Some _, Some path ->
        Events.emit tel.t_events
          [ ("type", Json.Str "resume");
            ("path", Json.Str path);
            ("iteration", Json.Int start_it) ];
        (* Re-emit checkpointed findings so a resumed run's event log is
           self-contained and [replay-log] reconstructs the full campaign. *)
        List.iter
          (fun f -> Events.emit tel.t_events (finding_event f))
          (List.rev !findings)
    | _ -> ()
  end;
  let ctx =
    Profile.wrap "campaign/ctx-build" (fun () ->
        { Executor.cx_cfg = cfg;
          cx_style = options.style;
          cx_taint_mode = options.taint_mode;
          cx_secret = secret;
          cx_fault_plan = rz.rz_fault_plan;
          cx_budget = rz.rz_budget;
          cx_clock = clk;
          cx_domain_iters = domain_iters })
  in
  (* Swap a fresh status snapshot into the board.  Only runs when a
     board is attached (i.e. a status server is watching); it reads the
     real clock and fold state but draws nothing from the RNG and writes
     nothing the campaign reads back, so results are unchanged. *)
  let publish phase it_done =
    match tel.t_board with
    | None -> ()
    | Some board ->
        let elapsed = Float.max 1e-9 (Clock.now clk -. t_start) in
        let rewards =
          Corpus.entries corpus
          |> List.map (fun e -> e.Corpus.en_reward)
          |> List.sort (fun a b -> compare b a)
        in
        let eta =
          if it_done > start_it && it_done < options.iterations then
            Some
              (elapsed
              /. float_of_int (it_done - start_it)
              *. float_of_int (options.iterations - it_done))
          else None
        in
        Atomic.set board
          (Some
             { pg_core = cfg.Dvz_uarch.Config.name;
               pg_phase = phase;
               pg_iteration = it_done;
               pg_total = options.iterations;
               pg_findings = !n_findings;
               pg_triggered = !triggered;
               pg_coverage = Coverage.points coverage;
               pg_corpus_size = Corpus.size corpus;
               pg_top_rewards = List.filteri (fun i _ -> i < 5) rewards;
               pg_crashes = List.length !crashes;
               pg_timeouts = !timeouts;
               pg_sim_cycles = !sim_cycles;
               pg_batches = !batch_no;
               pg_jobs = jobs;
               pg_jobs_effective = jobs_effective;
               pg_domain_iters = Array.map Metrics.counter_value domain_iters;
               pg_elapsed_s = elapsed;
               pg_eta_s = eta })
  in
  (* Fold one outcome into the campaign state — the only place coverage,
     corpus, findings and events are touched.  Called in plan-index
     order regardless of which domain executed the plan. *)
  let fold_outcome (oc : Executor.outcome) =
    let it = oc.Executor.oc_iteration in
    Metrics.incr m_iters;
    if oc.Executor.oc_triggered then incr triggered;
    sim_cycles := !sim_cycles + oc.Executor.oc_cycles;
    if oc.Executor.oc_p1 > 0.0 then Metrics.observe h_phase1 oc.Executor.oc_p1;
    if oc.Executor.oc_p2 > 0.0 then Metrics.observe h_phase2 oc.Executor.oc_p2;
    if oc.Executor.oc_p3 > 0.0 then Metrics.observe h_phase3 oc.Executor.oc_p3;
    let coverage_delta = ref 0 and new_findings = ref 0 in
    (match oc.Executor.oc_status with
    | `Timeout ->
        (* Watchdog verdict: the evidence is partial, so the run
           contributes nothing to coverage, corpus or findings. *)
        incr timeouts;
        if events_on then
          Events.emit tel.t_events
            [ ("type", Json.Str "watchdog_timeout");
              ("iteration", Json.Int it);
              ( "slots",
                Json.Int
                  (match oc.Executor.oc_analysis with
                  | Some a -> a.Oracle.a_result.Dvz_uarch.Dualcore.r_slots
                  | None -> 0) ) ]
    | `Crashed -> (
        match oc.Executor.oc_crash with
        | None -> ()
        | Some crash ->
            crashes := crash :: !crashes;
            Metrics.incr m_crashes;
            (match rz.rz_crash_dir with
            | Some dir ->
                write_crash_artifact ~core:cfg.Dvz_uarch.Config.name ~options
                  ~secret dir crash
            | None -> ());
            if events_on then
              Events.emit tel.t_events
                [ ("type", Json.Str "harness_crash");
                  ("iteration", Json.Int it);
                  ( "seed",
                    match crash.cr_seed with
                    | None -> Json.Null
                    | Some s -> Json.Str (Seed.to_string s) );
                  ("exn", Json.Str crash.cr_exn);
                  ("backtrace", Json.Str crash.cr_backtrace) ])
    | `Ok -> (
        (match oc.Executor.oc_coverage with
        | Some shard -> coverage_delta := Coverage.merge coverage shard
        | None -> ());
        match
          (oc.Executor.oc_testcase, oc.Executor.oc_completed,
           oc.Executor.oc_analysis)
        with
        | Some tc, Some completed, Some analysis ->
            (* Corpus policy is where the DejaVuzz- ablation differs: the
               guided fuzzer accumulates every coverage-increasing seed and
               keeps mutating all of them; the blind variant only carries the
               current seed forward (§6.3: "randomly updates the secret
               encoding block or regenerates a new transient window for each
               round"). *)
            if options.coverage_guided then begin
              if !coverage_delta > 0 then
                Corpus.admit corpus ~birth:it ~reward:!coverage_delta tc
            end
            else Corpus.replace_all corpus ~birth:it tc;
            Metrics.set g_corpus (float_of_int (Corpus.size corpus));
            let fs = findings_of_analysis ~iteration:it tc.Packet.seed analysis in
            let fresh_exists =
              List.exists (fun f -> not (Hashtbl.mem seen (dedup_key f))) fs
            in
            (* Two-pass provenance: only a fresh finding triggers the armed
               replay, and the replay draws nothing from the RNG — resumed
               or explain-less runs stay bit-identical. *)
            let source =
              match tel.t_explain_dir with
              | Some dir when fresh_exists ->
                  let x =
                    Explain.explain ?budget:rz.rz_budget
                      ?attack:(Option.map attack_name analysis.Oracle.a_attack)
                      ~mode:options.taint_mode cfg
                      (Packet.stimulus ~secret completed)
                  in
                  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                  let base =
                    Filename.concat dir (Printf.sprintf "finding-%04d" it)
                  in
                  Out_channel.with_open_text (base ^ ".json") (fun oc ->
                      output_string oc (Json.to_string (Explain.to_json x));
                      output_char oc '\n');
                  Out_channel.with_open_text (base ^ ".txt") (fun oc ->
                      output_string oc (Explain.render_text x));
                  Out_channel.with_open_text (base ^ ".dot") (fun oc ->
                      output_string oc (Explain.render_dot x));
                  if events_on then
                    Events.emit tel.t_events
                      [ ("type", Json.Str "provenance_trace");
                        ("iteration", Json.Int it);
                        ("artifact", Json.Str (base ^ ".json"));
                        ( "source",
                          match Explain.source x with
                          | None -> Json.Null
                          | Some s -> Json.Str s );
                        ("sinks", Json.Int (List.length x.Explain.x_live_sinks));
                        ("edges", Json.Int x.Explain.x_edges_total) ];
                  Explain.source x
              | _ -> None
            in
            List.iter
              (fun f ->
                let key = dedup_key f in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.replace seen key ();
                  let f = { f with fd_source = source } in
                  findings := f :: !findings;
                  incr n_findings;
                  incr new_findings;
                  if !first_bug = None then first_bug := Some it;
                  if events_on then Events.emit tel.t_events (finding_event f)
                end
                else Metrics.incr m_dedup)
              fs
        | _ -> ()));
    List.iter
      (fun (f : Fault.fault) ->
        if events_on then
          Events.emit tel.t_events
            [ ("type", Json.Str "fault_injected");
              ("iteration", Json.Int it);
              ("cycle", Json.Int f.Fault.f_cycle);
              ("action", Json.Str (Fault.action_name f.Fault.f_action)) ])
      oc.Executor.oc_fired;
    curve.(it) <- Coverage.points coverage;
    if events_on then
      Events.emit tel.t_events
        [ ("type", Json.Str "iteration");
          ("iteration", Json.Int it);
          ( "seed_kind",
            match oc.Executor.oc_seed_kind with
            | None -> Json.Null
            | Some k -> Json.Str (Seed.kind_name k) );
          ("phase1_triggered", Json.Bool oc.Executor.oc_triggered);
          ("coverage_delta", Json.Int !coverage_delta);
          ("coverage", Json.Int curve.(it));
          ("new_findings", Json.Int !new_findings);
          ("cycles", Json.Int oc.Executor.oc_cycles);
          ( "status",
            Json.Str
              (match oc.Executor.oc_status with
              | `Ok -> "ok"
              | `Crashed -> "crashed"
              | `Timeout -> "timeout") );
          ("phase1_s", Json.Float oc.Executor.oc_p1);
          ("phase2_s", Json.Float oc.Executor.oc_p2);
          ("phase3_s", Json.Float oc.Executor.oc_p3) ];
    if tel.t_progress_every > 0 && (it + 1) mod tel.t_progress_every = 0
    then begin
      let elapsed = Float.max 1e-9 (Clock.now clk -. t_start) in
      let cps = float_of_int !sim_cycles /. elapsed in
      Metrics.set g_tput cps;
      tel.t_progress
        (Printf.sprintf
           "[%d/%d] coverage=%d findings=%d triggered=%d %.0f cycles/s"
           (it + 1) options.iterations curve.(it) !n_findings !triggered cps)
    end;
    publish "fuzzing" (it + 1)
  in
  let b = ref start_it in
  (try
     while !b < options.iterations do
       let count = min options.batch (options.iterations - !b) in
       Metrics.incr m_batches;
       Profile.wrap "campaign/batch" (fun () ->
        let t0 = Clock.now clk in
        Fun.protect
          ~finally:(fun () -> Metrics.observe h_batch (Clock.now clk -. t0))
          (fun () ->
            let snap = Corpus.snapshot corpus in
            let plans =
              Profile.wrap "campaign/schedule" (fun () ->
                  Scheduler.schedule ~fresh_seed_prob:options.fresh_seed_prob
                    ~corpus:snap ~rng ~start:!b ~count)
            in
            (* [jobs] counts total lanes (orchestrator included) and
               [Parallel.map ~domains] now shares that meaning, pre-clamped to
               the hardware above; effective jobs = 1 (or a one-plan batch)
               stays on this domain with no spawn overhead, in worker slot 0
               even when this campaign runs inside an outer map.  A
               [Fault.Killed] raised by any executor is re-raised here by
               [Parallel.map] — lowest iteration first — exactly as the
               sequential loop propagates it.  A
               [dispatch] override (the fleet coordinator) replaces execution
               entirely; as long as it returns one outcome per plan in
               plan-index order, the fold — and therefore every observable
               result — is identical to in-process execution. *)
            let outcomes =
              match dispatch with
              | Some d -> d ctx plans
              | None ->
                  Dvz_util.Parallel.map ~domains:jobs_effective
                    (Executor.execute ctx) plans
            in
            List.iter fold_outcome outcomes));
       let b1 = !b + count in
       incr batch_no;
       (match rz.rz_checkpoint with
       | Some path
         when rz.rz_checkpoint_every > 0
              && b1 / rz.rz_checkpoint_every > !b / rz.rz_checkpoint_every ->
           (* The batch crossed an every-N boundary; at batch = 1 this is
              the old [(it + 1) mod every = 0] cadence. *)
           Profile.wrap "campaign/checkpoint" (fun () ->
               save_checkpoint ~keep_previous:rz.rz_checkpoint_keep ~path
                 (make_checkpoint b1));
           if events_on then
             Events.emit tel.t_events
               [ ("type", Json.Str "checkpoint");
                 ("iteration", Json.Int b1);
                 ("path", Json.Str path) ]
       | _ -> ());
       b := b1
     done
   with e ->
     (* An injected kill (or any other abort) unwinds through here; the
        sink's buffered tail is the part of the event log a post-mortem
        needs most, so flush before letting the exception rip. *)
     let bt = Printexc.get_raw_backtrace () in
     Events.flush tel.t_events;
     Printexc.raise_with_backtrace e bt);
  publish "finished" options.iterations;
  let elapsed = Float.max 1e-9 (Clock.now clk -. t_start) in
  Metrics.set g_tput (float_of_int !sim_cycles /. elapsed);
  let final_coverage = Coverage.points coverage in
  if events_on then begin
    Events.emit tel.t_events
      [ ("type", Json.Str "campaign_end");
        ("iterations", Json.Int options.iterations);
        ("triggered", Json.Int !triggered);
        ("coverage", Json.Int final_coverage);
        ("findings", Json.Int !n_findings);
        ( "first_bug",
          match !first_bug with None -> Json.Null | Some i -> Json.Int i );
        ("sim_cycles", Json.Int !sim_cycles);
        ("harness_crashes", Json.Int (List.length !crashes));
        ("watchdog_timeouts", Json.Int !timeouts);
        ("elapsed_s", Json.Float elapsed) ];
    Events.flush tel.t_events
  end;
  { s_options = options;
    s_coverage_curve = curve;
    s_findings = List.rev !findings;
    s_first_bug = !first_bug;
    s_final_coverage = final_coverage;
    s_triggered = !triggered;
    s_crashes = List.rev !crashes;
    s_timeouts = !timeouts }
