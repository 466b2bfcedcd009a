(* Command-line driver: run fuzzing campaigns and regenerate each of the
   paper's evaluation tables and figures individually. *)

open Cmdliner
module Cfg = Dvz_uarch.Config
module Campaign = Dejavuzz.Campaign
module E = Dvz_experiments

let version = "1.0.0"

let core_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "boom" -> Ok Cfg.boom_small
    | "xiangshan" | "xs" -> Ok Cfg.xiangshan_minimal
    | _ -> Error (`Msg "core must be 'boom' or 'xiangshan'")
  in
  let print fmt cfg = Format.pp_print_string fmt cfg.Cfg.name in
  Arg.conv (parse, print)

let core_t =
  Arg.(value & opt core_arg Cfg.boom_small
       & info [ "core" ] ~docv:"CORE" ~doc:"Target core: boom or xiangshan.")

let iterations_t default =
  Arg.(value & opt int default
       & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Number of iterations.")

let seed_t =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for reproducible runs.")

(* --- telemetry wiring ----------------------------------------------------- *)

let telemetry_t =
  Arg.(value & opt (some string) None
       & info [ "telemetry" ] ~docv:"FILE"
           ~doc:"Write structured JSONL campaign events to FILE \
                 ('-' for stdout); inspect saved logs with 'replay-log'.")

let progress_t =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Print a progress line (coverage, findings, throughput) to \
                 stderr periodically.")

let progress_every_t =
  Arg.(value & opt int 10
       & info [ "progress-every" ] ~docv:"N"
           ~doc:"Progress line period in iterations.")

let metrics_t =
  let fmt =
    Arg.enum [ ("json", `Json); ("prometheus", `Prometheus); ("none", `None) ]
  in
  Arg.(value & opt fmt `None
       & info [ "metrics" ] ~docv:"FMT"
           ~doc:"After the run, dump the metrics registry to stderr as \
                 'json' or 'prometheus' text.")

let explain_dir_t =
  Arg.(value & opt (some string) None
       & info [ "explain-dir" ] ~docv:"DIR"
           ~doc:"Replay every fresh finding with the taint-provenance \
                 recorder armed and write finding-NNNN.json/.txt/.dot \
                 secret-to-sink slices into DIR; re-render artifacts with \
                 'explain'.")

(* Builds a Campaign.telemetry from the shared flags, runs [k] with it and
   closes the event file afterwards. *)
let with_telemetry ?explain_dir file progress every k =
  let chan =
    match file with
    | None -> None
    | Some "-" -> Some (stdout, false)
    | Some f -> (
        try Some (open_out f, true)
        with Sys_error e ->
          Printf.eprintf "dejavuzz: cannot open telemetry file: %s\n" e;
          exit 1)
  in
  let sink =
    match chan with
    | None -> Dvz_obs.Events.null
    | Some (c, _) -> Dvz_obs.Events.to_channel c
  in
  (* Insurance for abnormal exits (injected kills, exit 1 paths): the
     tail of the event log reaches disk even when the Fun.protect below
     never unwinds.  Flushing an already-closed channel is harmless. *)
  (match chan with
  | Some (c, _) -> at_exit (fun () -> try flush c with Sys_error _ -> ())
  | None -> ());
  let telemetry =
    { Campaign.quiet with
      Campaign.t_events = sink;
      t_progress_every = (if progress then max 1 every else 0);
      t_progress = prerr_endline;
      t_explain_dir = explain_dir }
  in
  Fun.protect
    ~finally:(fun () ->
      match chan with
      | Some (c, close) -> if close then close_out c else flush c
      | None -> ())
    (fun () -> k telemetry)

(* [plane] widens both dumps to the whole fleet: the JSON gains a
   coordinator/workers split and the Prometheus text one [worker="N"]
   label group per slot. *)
let worker_groups plane =
  match plane with
  | None -> []
  | Some p ->
      List.map
        (fun (slot, snap) -> ([ ("worker", string_of_int slot) ], snap))
        (Dvz_fleet.Telemetry.worker_metrics p)

let dump_metrics ?plane = function
  | `None -> ()
  | `Json -> (
      match plane with
      | None ->
          prerr_endline (Dvz_obs.Exporters.render_json Dvz_obs.Metrics.default)
      | Some p ->
          prerr_endline
            (Dvz_obs.Json.to_string
               (Dvz_obs.Exporters.fleet_json
                  ~coordinator:(Dvz_obs.Metrics.snapshot Dvz_obs.Metrics.default)
                  ~workers:(Dvz_fleet.Telemetry.worker_metrics p))))
  | `Prometheus ->
      prerr_string
        (Dvz_obs.Exporters.prometheus_groups
           (([], Dvz_obs.Metrics.snapshot Dvz_obs.Metrics.default)
           :: worker_groups plane))

(* --- live observability --------------------------------------------------- *)

let serve_t =
  Arg.(value & opt (some int) None
       & info [ "serve" ] ~docv:"PORT"
           ~doc:"Serve live campaign status over HTTP on 127.0.0.1:PORT (0 \
                 picks an ephemeral port, printed to stderr): /healthz, \
                 /status (JSON snapshot), /metrics (Prometheus exposition) \
                 and /events?n=K (most recent event lines).  Read-only \
                 observers: results stay byte-identical with or without \
                 it.")

let profile_flag_t =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Arm the hierarchical self-profiler and print a per-region \
                 count/total/self/max table to stderr after the run.")

let profile_json_t =
  Arg.(value & opt (some string) None
       & info [ "profile-json" ] ~docv:"FILE"
           ~doc:"Write the profiler aggregates to FILE as a dvz-profile/1 \
                 JSON artifact (implies --profile).")

let trace_out_t =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record individual profiler regions and write them to FILE \
                 as Chrome trace_event JSON (load in Perfetto or \
                 chrome://tracing; one track per worker domain).  Implies \
                 --profile.")

type obs = {
  ob_serve : int option;
  ob_profile : bool;
  ob_profile_json : string option;
  ob_trace_out : string option;
}

let obs_t =
  let build ob_serve ob_profile ob_profile_json ob_trace_out =
    { ob_serve; ob_profile; ob_profile_json; ob_trace_out }
  in
  Term.(const build $ serve_t $ profile_flag_t $ profile_json_t $ trace_out_t)

(* Arms the profiler / status server around [k], rewiring the telemetry so
   the campaign publishes to them, and emits the end-of-run artifacts.
   Everything here observes the campaign; nothing feeds back into it.
   [plane] (fleet mode) folds the fleet into every surface — a /fleet
   route and a "fleet" block on /status serving one row per worker slot,
   [worker="N"] label groups on /metrics, and merged end-of-run
   profile/trace artifacts covering coordinator and workers.
   [events_ring], when given, serves /events (the fleet coordinator
   pre-wires it into the plane so worker lifecycle lines land there,
   slot-labelled, without ever touching the campaign's own event
   stream). *)
let with_obs ?plane ?events_ring obs telemetry k =
  let profiling =
    obs.ob_profile || obs.ob_profile_json <> None || obs.ob_trace_out <> None
  in
  if profiling then
    Dvz_obs.Profile.arm ~trace:(obs.ob_trace_out <> None) ();
  let started = Unix.gettimeofday () in
  let telemetry, server =
    match obs.ob_serve with
    | None -> (telemetry, None)
    | Some port ->
        let board = Campaign.new_board () in
        let ring =
          match events_ring with
          | Some r -> r
          | None -> Dvz_obs.Events.ring ()
        in
        let events =
          if Dvz_obs.Events.is_null telemetry.Campaign.t_events then ring
          else Dvz_obs.Events.tee telemetry.Campaign.t_events ring
        in
        let registry = telemetry.Campaign.t_metrics in
        let telemetry =
          { telemetry with
            Campaign.t_events = events;
            t_board = Some board }
        in
        let routes =
          [ ( "/healthz",
              fun _ ->
                Dvz_obs.Server.json
                  (Dvz_obs.Json.Obj
                     [ ("version", Dvz_obs.Json.Str version);
                       ( "uptime_s",
                         Dvz_obs.Json.Float (Unix.gettimeofday () -. started)
                       );
                       ("pid", Dvz_obs.Json.Int (Unix.getpid ()));
                       ( "mode",
                         Dvz_obs.Json.Str
                           (match plane with
                           | Some _ -> "fleet"
                           | None -> "local") ) ]) );
            ( "/status",
              fun _ ->
                let base =
                  match Campaign.board_read board with
                  | Some p -> Campaign.progress_json p
                  | None ->
                      Dvz_obs.Json.Obj
                        [ ("phase", Dvz_obs.Json.Str "starting") ]
                in
                Dvz_obs.Server.json
                  (match (plane, base) with
                  | Some p, Dvz_obs.Json.Obj fields ->
                      Dvz_obs.Json.Obj
                        (fields
                        @ [ ("fleet", Dvz_fleet.Telemetry.fleet_json p) ])
                  | _ -> base) );
            ( "/metrics",
              fun _ ->
                { Dvz_obs.Server.status = 200;
                  content_type = "text/plain; version=0.0.4";
                  body =
                    Dvz_obs.Exporters.prometheus_groups
                      (([], Dvz_obs.Metrics.snapshot registry)
                      :: worker_groups plane) } );
            ( "/events",
              fun query ->
                match Dvz_obs.Server.int_param ~default:50 "n" query with
                | Error resp -> resp
                | Ok n ->
                    let keep =
                      match List.assoc_opt "kind" query with
                      | None -> fun _ -> true
                      | Some kind -> (
                          fun line ->
                            match Dvz_obs.Json.of_string line with
                            | Ok j -> (
                                match Dvz_obs.Json.member "type" j with
                                | Some (Dvz_obs.Json.Str t) -> t = kind
                                | _ -> false)
                            | Error _ -> false)
                    in
                    let lines =
                      List.filter keep
                        (Dvz_obs.Events.recent ring (max 0 n))
                    in
                    { Dvz_obs.Server.status = 200;
                      content_type = "application/x-ndjson";
                      body =
                        (match lines with
                        | [] -> ""
                        | _ -> String.concat "\n" lines ^ "\n") } ) ]
          @
          match plane with
          | None -> []
          | Some p ->
              [ ( "/fleet",
                  fun _ ->
                    Dvz_obs.Server.json (Dvz_fleet.Telemetry.fleet_json p) ) ]
        in
        (match Dvz_obs.Server.start ~port ~routes () with
        | Error e ->
            Printf.eprintf "dejavuzz: %s\n" e;
            exit 1
        | Ok sv ->
            Printf.eprintf "dejavuzz: serving status on http://127.0.0.1:%d/\n%!"
              (Dvz_obs.Server.port sv);
            (telemetry, Some sv))
  in
  Fun.protect
    ~finally:(fun () ->
      (match server with Some sv -> Dvz_obs.Server.stop sv | None -> ());
      if profiling then begin
        let own = Dvz_obs.Profile.snapshot () in
        let entries =
          match plane with
          | None -> own
          | Some p ->
              Dvz_obs.Profile.merge own (Dvz_fleet.Telemetry.merged_profile p)
        in
        if obs.ob_profile then
          prerr_string (Dvz_obs.Profile.render_table entries);
        (match obs.ob_profile_json with
        | Some f ->
            Out_channel.with_open_text f (fun oc ->
                output_string oc
                  (Dvz_obs.Json.to_string (Dvz_obs.Profile.to_json entries));
                output_char oc '\n')
        | None -> ());
        (match obs.ob_trace_out with
        | Some f ->
            let dropped = Dvz_obs.Profile.events_dropped () in
            if dropped > 0 then
              Printf.eprintf
                "dejavuzz: trace buffer overflowed; %d regions dropped\n"
                dropped;
            let own_events = Dvz_obs.Profile.events () in
            Dvz_obs.Trace_event.write_file_multi f
              (match plane with
              | None -> [ (1, "dejavuzz", own_events) ]
              | Some p ->
                  (1, "dejavuzz coordinator", own_events)
                  :: Dvz_fleet.Telemetry.trace_groups p)
        | None -> ());
        Dvz_obs.Profile.disarm ()
      end)
    (fun () -> k telemetry)

(* --- resilience wiring ---------------------------------------------------- *)

let checkpoint_t =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Atomically snapshot campaign state to FILE every \
                 --checkpoint-every iterations; restore with --resume.")

let checkpoint_every_t =
  Arg.(value & opt int 50
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Checkpoint period in iterations.")

let resume_t =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Resume a campaign from a checkpoint written by \
                 --checkpoint; the completed run is bit-identical to an \
                 uninterrupted one.  A missing FILE starts fresh.")

let fault_t =
  Arg.(value & opt_all string []
       & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Inject a deterministic fault, as \
                 $(i,ACTION)@$(i,ITERATION):$(i,CYCLE) with ACTION one of \
                 crash, hang, corrupt or kill (repeatable; comma lists \
                 allowed).  Exercises the recovery paths this flag's \
                 siblings provide.")

let max_slots_t =
  Arg.(value & opt int 50_000
       & info [ "max-sim-slots" ] ~docv:"N"
           ~doc:"Watchdog: abort any single dual-DUT simulation after N \
                 slots and record a Timeout verdict (0 disables).")

let max_seconds_t =
  Arg.(value & opt (some float) None
       & info [ "max-sim-seconds" ] ~docv:"S"
           ~doc:"Watchdog: abort any single dual-DUT simulation after S \
                 wall-clock seconds.  S must be positive; omit the flag to \
                 disable the wall-clock limit.")

let crash_dir_t =
  Arg.(value & opt (some string) None
       & info [ "crash-dir" ] ~docv:"DIR"
           ~doc:"Write one crash-NNNN.json artifact (input seed, \
                 exception, backtrace) per isolated harness crash.")

let resilience_t =
  let build checkpoint every resume faults max_slots max_seconds crash_dir =
    let plan =
      List.concat_map
        (fun spec ->
          match Dvz_resilience.Fault.parse spec with
          | Ok p -> p
          | Error e ->
              Printf.eprintf "dejavuzz: %s\n" e;
              exit 1)
        faults
    in
    let max_slots = if max_slots <= 0 then None else Some max_slots in
    let budget =
      match (max_slots, max_seconds) with
      | None, None -> None
      | _ -> (
          match
            Dvz_uarch.Dualcore.budget ?max_slots ?max_wall_s:max_seconds ()
          with
          | b -> Some b
          | exception Invalid_argument _ ->
              (* [max_slots] is positive here, so only S can be refused. *)
              Printf.eprintf
                "dejavuzz: --max-sim-seconds must be a positive number of \
                 seconds\n";
              exit 1)
    in
    { Campaign.rz_fault_plan = plan;
      rz_budget = budget;
      rz_checkpoint = checkpoint;
      rz_checkpoint_every = every;
      rz_checkpoint_keep = false;
      rz_resume = resume;
      rz_crash_dir = crash_dir }
  in
  Term.(const build $ checkpoint_t $ checkpoint_every_t $ resume_t $ fault_t
        $ max_slots_t $ max_seconds_t $ crash_dir_t)

(* --- campaign engine parallelism ------------------------------------------ *)

let jobs_t =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains executing each campaign batch (the \
                 orchestrator included).  An execution resource only: \
                 findings, coverage, checkpoints and event streams are \
                 byte-identical for any N.")

let batch_t =
  Arg.(value & opt int 1
       & info [ "batch" ] ~docv:"K"
           ~doc:"Iterations scheduled per corpus snapshot; all K can run \
                 in parallel under --jobs.  Part of the campaign's \
                 deterministic semantics (K > 1 delays corpus feedback \
                 by up to K-1 iterations), unlike --jobs.")

(* Injected kills model the harness process dying: distinct exit code so
   scripts (and CI) can tell "killed, resume me" from real errors.
   Likewise a corrupt/truncated --resume checkpoint gets its own code —
   "restore or delete the snapshot" is a different operator action than
   "fix the flags". *)
let handle_faults k =
  try k () with
  | Dvz_resilience.Fault.Killed { iteration; cycle; _ } ->
      Printf.eprintf
        "dejavuzz: killed by injected fault at iteration %d, cycle %d\n"
        iteration cycle;
      exit 3
  | Campaign.Bad_checkpoint { bc_path; bc_reason; bc_advice } ->
      Printf.eprintf "dejavuzz: %s\n"
        (Campaign.bad_checkpoint_message ~path:bc_path ~reason:bc_reason
           ~advice:bc_advice);
      exit 4
  | Invalid_argument msg | Failure msg ->
      Printf.eprintf "dejavuzz: %s\n" msg;
      exit 1

(* The campaign options [fuzz] and [fleet] share. *)
let campaign_options_t =
  let build iterations rng_seed random_training no_coverage batch =
    { Campaign.default_options with
      Campaign.iterations; rng_seed; batch;
      style = (if random_training then `Random else `Derived);
      coverage_guided = not no_coverage }
  in
  let random_training =
    Arg.(value & flag
         & info [ "random-training" ]
             ~doc:"DejaVuzz* ablation: random training packets.")
  in
  let no_coverage =
    Arg.(value & flag
         & info [ "no-coverage" ]
             ~doc:"DejaVuzz- ablation: disable taint-coverage feedback.")
  in
  Term.(const build $ iterations_t 500 $ seed_t $ random_training
        $ no_coverage $ batch_t)

let print_report cfg stats =
  print_string (Dejavuzz.Report.summary stats);
  print_string
    (Dejavuzz.Report.table5 ~core_name:cfg.Cfg.name stats.Campaign.s_findings)

let fuzz_cmd =
  let run cfg options telemetry_file progress progress_every metrics
      resilience explain_dir jobs obs =
    handle_faults (fun () ->
        let stats =
          with_telemetry ?explain_dir telemetry_file progress progress_every
            (fun telemetry ->
              with_obs obs telemetry (fun telemetry ->
                  Campaign.run ~telemetry ~resilience ~jobs cfg options))
        in
        print_report cfg stats;
        dump_metrics metrics)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Run a DejaVuzz fuzzing campaign.")
    Term.(const run $ core_t $ campaign_options_t $ telemetry_t $ progress_t
          $ progress_every_t $ metrics_t $ resilience_t $ explain_dir_t
          $ jobs_t $ obs_t)

(* --- fleet mode ------------------------------------------------------------ *)

let workers_t =
  Arg.(value & opt int 4
       & info [ "workers" ] ~docv:"N"
           ~doc:"Worker subprocesses to supervise (0 runs everything in \
                 the coordinator).  Like --jobs, an execution resource: \
                 fleet findings, corpus, checkpoints and event streams \
                 are byte-identical to a single-process --jobs 1 run \
                 with the same --batch.")

let worker_jobs_t =
  Arg.(value & opt int 1
       & info [ "worker-jobs" ] ~docv:"N"
           ~doc:"Worker domains each subprocess spends on its shard.")

let heartbeat_t =
  Arg.(value & opt float 1.0
       & info [ "heartbeat-s" ] ~docv:"S"
           ~doc:"Worker heartbeat interval in seconds: each worker flushes \
                 its telemetry this often, and that flush is its \
                 heartbeat (0 flushes only at shutdown).")

let deadline_t =
  Arg.(value & opt float 10.0
       & info [ "heartbeat-deadline-s" ] ~docv:"S"
           ~doc:"Declare a worker dead after S seconds without a frame \
                 (it is killed and respawned with capped exponential \
                 backoff).")

let max_respawns_t =
  Arg.(value & opt int 5
       & info [ "max-respawns" ] ~docv:"K"
           ~doc:"Deaths tolerated per worker slot; beyond K the slot is \
                 retired and its shard redistributed (the fleet shrinks \
                 instead of aborting).")

let chaos_kill_t =
  let parse s =
    match String.split_on_char ':' s with
    | [ e; w ] -> (
        match (int_of_string_opt e, int_of_string_opt w) with
        | Some epoch, Some slot when epoch >= 0 && slot >= 0 ->
            Ok (epoch, slot, Sys.sigkill)
        | _ -> Error (`Msg "chaos-kill: expected EPOCH:SLOT"))
    | _ -> Error (`Msg "chaos-kill: expected EPOCH:SLOT")
  in
  let print fmt (e, w, _) = Format.fprintf fmt "%d:%d" e w in
  Arg.(value & opt_all (conv (parse, print)) []
       & info [ "chaos-kill" ] ~docv:"EPOCH:SLOT"
           ~doc:"Self-test hook: SIGKILL worker SLOT right after batch \
                 EPOCH is assigned (repeatable).  The campaign must \
                 complete with identical results anyway — this is how CI \
                 gates the supervision path.")

let fleet_cmd =
  let run cfg options telemetry_file progress progress_every metrics
      resilience explain_dir obs workers worker_jobs heartbeat_s deadline_s
      max_respawns chaos =
    handle_faults (fun () ->
        (* Worker lifecycle events land in this ring (slot-labelled by
           the plane) for /events — never in the campaign's own event
           stream, which must stay byte-identical to --jobs 1. *)
        let events_ring = Dvz_obs.Events.ring () in
        let plane = Dvz_fleet.Telemetry.create ~events:events_ring () in
        let profiling =
          obs.ob_profile || obs.ob_profile_json <> None
          || obs.ob_trace_out <> None
        in
        let opts =
          { Dvz_fleet.Coordinator.default_opts with
            Dvz_fleet.Coordinator.fl_workers = workers;
            fl_worker_jobs = worker_jobs;
            fl_heartbeat_s = heartbeat_s;
            fl_deadline_s = deadline_s;
            fl_max_respawns = max_respawns;
            fl_chaos = chaos;
            fl_profile = profiling;
            fl_trace = obs.ob_trace_out <> None }
        in
        let stats, fstats =
          with_telemetry ?explain_dir telemetry_file progress progress_every
            (fun telemetry ->
              with_obs ~plane ~events_ring obs telemetry (fun telemetry ->
                  Dvz_fleet.Coordinator.run ~telemetry ~resilience ~plane
                    opts cfg options))
        in
        print_report cfg stats;
        (* Supervision summary on stderr: stdout stays byte-identical to
           the single-process run (the determinism contract CI diffs). *)
        Printf.eprintf
          "dejavuzz fleet: workers=%d spawns=%d restarts=%d retired=%d \
           heartbeats_missed=%d inline_plans=%d\n"
          fstats.Dvz_fleet.Coordinator.fs_workers
          fstats.Dvz_fleet.Coordinator.fs_spawns
          fstats.Dvz_fleet.Coordinator.fs_restarts
          fstats.Dvz_fleet.Coordinator.fs_retired
          fstats.Dvz_fleet.Coordinator.fs_heartbeats_missed
          fstats.Dvz_fleet.Coordinator.fs_inline_plans;
        dump_metrics ~plane metrics)
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Run a campaign on a supervised multi-process worker fleet."
       ~man:
         [ `S Manpage.s_description;
           `P "Spawns $(b,--workers) subprocesses and shards each \
               scheduled batch of iterations across them, supervising \
               with heartbeat deadlines, capped-exponential-backoff \
               respawns and per-slot retirement.  All campaign state \
               (corpus, coverage, finding dedup, checkpoints, events) \
               stays in the coordinator, so worker deaths cost only \
               re-executed iterations: findings, corpus and event \
               streams are byte-identical to $(b,dejavuzz fuzz --jobs 1) \
               with the same flags.  Use $(b,--batch) of at least the \
               worker count to keep every worker busy." ])
    Term.(const run $ core_t $ campaign_options_t $ telemetry_t $ progress_t
          $ progress_every_t $ metrics_t $ resilience_t $ explain_dir_t
          $ obs_t $ workers_t $ worker_jobs_t $ heartbeat_t $ deadline_t
          $ max_respawns_t $ chaos_kill_t)

(* The hidden child entrypoint: the coordinator re-execs this binary as
   [dejavuzz worker --slot K] with the protocol on stdin/stdout.  Not
   meant for humans; it prints nothing to stdout (that is the pipe). *)
let worker_cmd =
  let run slot incarnation =
    match
      Dvz_fleet.Worker.main
        ~log:(fun line -> Printf.eprintf "dejavuzz worker %d: %s\n%!" slot line)
        ~incarnation ~in_fd:Unix.stdin ~out_fd:Unix.stdout ()
    with
    | () -> ()
    | exception Dvz_resilience.Fault.Killed { iteration; cycle; _ } ->
        Printf.eprintf
          "dejavuzz worker %d: killed by injected fault at iteration %d, \
           cycle %d\n"
          slot iteration cycle;
        exit 3
    | exception Failure msg ->
        Printf.eprintf "dejavuzz worker %d: %s\n" slot msg;
        exit 2
  in
  let slot =
    Arg.(value & opt int 0
         & info [ "slot" ] ~docv:"K"
             ~doc:"Worker slot index; labels this worker's stderr lines.")
  in
  let incarnation =
    Arg.(value & opt int 0
         & info [ "incarnation" ] ~docv:"G"
             ~doc:"Spawn generation of this slot; echoed in telemetry \
                   frames so the coordinator can drop a dead \
                   predecessor's in-flight flushes.")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"(internal) Fleet worker child; speaks the DVZF pipe protocol \
             on stdin/stdout.  Spawned by 'dejavuzz fleet'.")
    Term.(const run $ slot $ incarnation)

let table2_cmd =
  Cmd.v
    (Cmd.info "table2" ~doc:"Print the cores-under-evaluation summary.")
    Term.(const (fun () -> print_string (E.Table2.render ())) $ const ())

let table3_cmd =
  let run samples rng_seed =
    print_string (E.Table3.render (E.Table3.run ~samples ~rng_seed ()))
  in
  let samples =
    Arg.(value & opt int 40
         & info [ "samples" ] ~docv:"N" ~doc:"Windows sampled per cell.")
  in
  Cmd.v
    (Cmd.info "table3" ~doc:"Training overhead per transient-window type.")
    Term.(const run $ samples $ seed_t)

let table4_cmd =
  let run reps =
    let results =
      [ E.Table4.run ~reps Cfg.boom_small;
        E.Table4.run ~reps Cfg.xiangshan_minimal ]
    in
    print_string (E.Table4.render results)
  in
  let reps =
    Arg.(value & opt int 30
         & info [ "reps" ] ~docv:"N" ~doc:"Simulation repetitions per cell.")
  in
  Cmd.v
    (Cmd.info "table4" ~doc:"Instrumentation and simulation overhead of diffIFT.")
    Term.(const run $ reps)

let table5_cmd =
  let run iterations rng_seed telemetry_file progress progress_every
      resilience jobs batch obs =
    handle_faults (fun () ->
        let results =
          with_telemetry telemetry_file progress progress_every
            (fun telemetry ->
              with_obs obs telemetry (fun telemetry ->
                  E.Table5.run_many ~iterations ~rng_seed ~telemetry
                    ~resilience ~jobs ~batch
                    [ Cfg.boom_small; Cfg.xiangshan_minimal ]))
        in
        print_string (E.Table5.render results))
  in
  Cmd.v
    (Cmd.info "table5" ~doc:"Discovered transient execution bug classes.")
    Term.(const run $ iterations_t 1200 $ seed_t $ telemetry_t $ progress_t
          $ progress_every_t $ resilience_t $ jobs_t $ batch_t $ obs_t)

let fig6_cmd =
  Cmd.v
    (Cmd.info "fig6" ~doc:"Taint population over time per attack test case.")
    Term.(const (fun () -> print_string (E.Fig6.render (E.Fig6.run ())))
          $ const ())

let fig7_cmd =
  let run cfg iterations trials rng_seed telemetry_file progress
      progress_every resilience jobs batch obs =
    handle_faults (fun () ->
        let result =
          with_telemetry telemetry_file progress progress_every
            (fun telemetry ->
              with_obs obs telemetry (fun telemetry ->
                  E.Fig7.run ~iterations ~trials ~rng_seed ~telemetry
                    ~resilience ~jobs ~batch cfg))
        in
        print_string (E.Fig7.render result))
  in
  let trials =
    Arg.(value & opt int 5
         & info [ "trials" ] ~docv:"N" ~doc:"Repetitions per fuzzer.")
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Coverage growth: DejaVuzz vs DejaVuzz- vs SpecDoctor.")
    Term.(const run $ core_t $ iterations_t 1000 $ trials $ seed_t
          $ telemetry_t $ progress_t $ progress_every_t $ resilience_t
          $ jobs_t $ batch_t $ obs_t)

let attack_arg =
  let parse s =
    match String.lowercase_ascii s with
    | "spectre-v1" | "v1" -> Ok E.Attacks.Spectre_v1
    | "spectre-v2" | "v2" -> Ok E.Attacks.Spectre_v2
    | "meltdown" -> Ok E.Attacks.Meltdown
    | "spectre-v4" | "v4" -> Ok E.Attacks.Spectre_v4
    | "spectre-rsb" | "rsb" -> Ok E.Attacks.Spectre_rsb
    | _ -> Error (`Msg "attack: v1|v2|meltdown|v4|rsb")
  in
  let print fmt a = Format.pp_print_string fmt (E.Attacks.to_string a) in
  Arg.conv (parse, print)

(* §7 workflow: "developers usually only need simulation waveform files to
   pinpoint bugs" — replay the attack's slot stream through the Figure 2
   RoB circuit and dump a standard VCD any waveform viewer opens. *)
let attack_vcd cfg attack file =
  let tc = E.Attacks.build cfg attack in
  let stim = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret tc in
  let core = Dvz_uarch.Core.create cfg stim in
  let slots = Array.of_list (Dvz_uarch.Core.run core) in
  let entries = 8 in
  let rob = Dvz_ir.Circuits.rob ~entries ~uopc_width:7 in
  let cycles = min (Array.length slots) 4096 in
  let vcd =
    Dvz_ir.Vcd.dump_simulation rob.Dvz_ir.Circuits.rob_nl ~cycles
      ~drive:(fun sim c ->
        let s = slots.(c) in
        let module Ef = Dvz_uarch.Effect in
        Dvz_ir.Sim.set_input sim rob.Dvz_ir.Circuits.enq_valid 1;
        Dvz_ir.Sim.set_input sim rob.Dvz_ir.Circuits.enq_uopc
          (Dvz_isa.Encode.encode s.Ef.sl_insn land 0x7F);
        Dvz_ir.Sim.set_input sim rob.Dvz_ir.Circuits.rollback
          (if s.Ef.sl_window_closed then 1 else 0);
        Dvz_ir.Sim.set_input sim rob.Dvz_ir.Circuits.rollback_idx
          (c mod entries))
  in
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc vcd);
  Printf.eprintf "wrote %s (%d cycles)\n" file cycles

let trace_cmd =
  let run cfg attack vcd_file =
    let tc = E.Attacks.build cfg attack in
    let stim = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret tc in
    let dc = Dvz_uarch.Dualcore.create cfg stim in
    let result = Dvz_uarch.Dualcore.run dc in
    print_string (Dvz_uarch.Trace.render_result result);
    Option.iter (attack_vcd cfg attack) vcd_file
  in
  let attack =
    Arg.(value & opt attack_arg E.Attacks.Meltdown
         & info [ "attack" ] ~docv:"NAME"
             ~doc:"Attack test case: v1, v2, meltdown, v4 or rsb.")
  in
  let vcd =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE"
             ~doc:"Also dump a VCD waveform of the run's RoB activity to \
                   FILE (section 7: waveforms pinpoint bugs).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one curated attack and print the dual-DUT report.")
    Term.(const run $ core_t $ attack $ vcd)

let migrate_cmd =
  let run cfg rng_seed =
    let rng = Dvz_util.Rng.create rng_seed in
    let seed = Dejavuzz.Seed.random rng in
    let tc = Dejavuzz.Trigger_gen.generate cfg seed in
    if not (Dejavuzz.Trigger_opt.evaluate cfg tc) then
      print_endline "seed does not trigger; try another --seed"
    else begin
      let tc, _ = Dejavuzz.Trigger_opt.reduce cfg tc in
      let layout = Dejavuzz.Migrate.migrate tc in
      print_string (Dejavuzz.Migrate.render_assembly layout);
      let secret = Array.make Dvz_soc.Layout.secret_dwords 0x42 in
      Printf.printf "# migrated window still triggers: %b\n"
        (Dejavuzz.Migrate.runs_on_flat_memory cfg ~secret tc)
    end
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Stitch a generated stimulus onto a flat memory model (section 7).")
    Term.(const run $ core_t $ seed_t)

let ablation_cmd =
  let run iterations rng_seed jobs batch obs =
    print_string
      (E.Ablation.render
         (with_obs obs Campaign.quiet (fun telemetry ->
              E.Ablation.run ~telemetry ~iterations ~rng_seed ~jobs ~batch
                Cfg.boom_small)))
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Compare diffIFT against CellIFT as the fuzzing substrate.")
    Term.(const run $ iterations_t 400 $ seed_t $ jobs_t $ batch_t $ obs_t)

let bugs_cmd =
  Cmd.v
    (Cmd.info "bugs" ~doc:"Reproduce the B1-B5 CVE proof-of-concepts (section 6.4).")
    Term.(const (fun () -> print_string (E.Bugcheck.render ())) $ const ())

let liveness_cmd =
  let run iterations rng_seed =
    print_string
      (E.Liveness_eval.render
         (E.Liveness_eval.run ~iterations ~rng_seed Cfg.boom_small))
  in
  Cmd.v
    (Cmd.info "liveness"
       ~doc:"Replay SpecDoctor candidates through the liveness oracle.")
    Term.(const run $ iterations_t 150 $ seed_t)

let explain_cmd =
  let run cfg file dot_file json_file max_slots =
    let text =
      match In_channel.with_open_text file In_channel.input_all with
      | text -> text
      | exception Sys_error e ->
          Printf.eprintf "explain: %s\n" e;
          exit 1
    in
    let artifact =
      match Dvz_obs.Json.of_string text with
      | Ok j -> j
      | Error e ->
          Printf.eprintf "explain: %s: %s\n" file e;
          exit 1
    in
    let budget =
      if max_slots <= 0 then None
      else Some (Dvz_uarch.Dualcore.budget ~max_slots ())
    in
    let result =
      (* A provenance artifact carries its full stimulus; a campaign
         crash artifact only carries the structured seed, so the fuzzing
         pipeline rebuilds the testcase before the armed replay. *)
      match Dvz_obs.Json.member "stimulus" artifact with
      | Some _ -> Dejavuzz.Explain.replay_artifact ?budget artifact
      | None -> Dejavuzz.Explain.explain_crash ?budget ~core:cfg artifact
    in
    match result with
    | Error e ->
        Printf.eprintf "explain: %s\n" e;
        exit 1
    | Ok x ->
        print_string (Dejavuzz.Explain.render_text x);
        let write path render =
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (render x))
        in
        Option.iter
          (fun p -> write p Dejavuzz.Explain.render_dot)
          dot_file;
        Option.iter
          (fun p ->
            write p (fun x ->
                Dvz_obs.Json.to_string (Dejavuzz.Explain.to_json x) ^ "\n"))
          json_file
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"A finding-NNNN.json artifact written by fuzz \
                   --explain-dir, or a crash-NNNN.json artifact written by \
                   --crash-dir.")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Also write the secret-to-sink slice union as a Graphviz \
                   digraph to FILE.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write a fresh self-contained provenance artifact \
                   to FILE.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay a finding artifact with taint provenance armed and \
             print its cycle-accurate secret-to-sink slices.")
    Term.(const run $ core_t $ file $ dot $ json $ max_slots_t)

let replay_log_cmd =
  let run file =
    match Dejavuzz.Replay.of_file file with
    | Ok summary -> print_string summary
    | Error e ->
        Printf.eprintf "replay-log: %s\n" e;
        exit 1
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"JSONL event log written by --telemetry.")
  in
  Cmd.v
    (Cmd.info "replay-log"
       ~doc:"Re-render a saved JSONL campaign event log into the human \
             end-of-run summary.")
    Term.(const run $ file)

let main =
  let doc = "DejaVuzz: transient-execution bug fuzzing (OCaml reproduction)" in
  Cmd.group (Cmd.info "dejavuzz" ~doc)
    [ fuzz_cmd; fleet_cmd; worker_cmd; table2_cmd; table3_cmd; table4_cmd;
      table5_cmd; fig6_cmd; fig7_cmd; liveness_cmd; trace_cmd; migrate_cmd;
      bugs_cmd; ablation_cmd; replay_log_cmd; explain_cmd ]

let () = exit (Cmd.eval main)
