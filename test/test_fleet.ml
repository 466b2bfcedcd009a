(* Tests for the fleet layer: the DVZF frame codec (roundtrip, partial
   reassembly, corruption rejection) and the coordinator/worker
   supervision loop (determinism vs the single-process engine,
   kill-and-respawn, graceful degradation to inline execution).

   Integration tests launch workers through the [fl_launch] fork seam
   rather than re-exec'ing a binary: the child runs [Worker.main] on its
   pipe ends and [Unix._exit]s, so it never returns into alcotest. *)

module Campaign = Dejavuzz.Campaign
module Cfg = Dvz_uarch.Config
module Proto = Dvz_fleet.Proto
module Coordinator = Dvz_fleet.Coordinator
module Worker = Dvz_fleet.Worker
module Wire = Dvz_fleet.Wire
module Telemetry = Dvz_fleet.Telemetry
module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile

let boom = Cfg.boom_small

(* --- frame codec --------------------------------------------------------- *)

let roundtrip msg =
  let r = Proto.reader () in
  Proto.feed_string r (Proto.encode msg);
  match Proto.next r with
  | Ok (Some m) ->
      Alcotest.(check int) "no leftover bytes" 0 (Proto.buffered r);
      m
  | Ok None -> Alcotest.fail "codec: complete frame not decoded"
  | Error e -> Alcotest.failf "codec: %s" (Proto.error_message e)

let arb_msg =
  let open QCheck in
  let nat = 0 -- 1_000_000 in
  let blob = string_of_size (Gen.int_bound 512) in
  let g =
    Gen.oneof
      [ Gen.map2 (fun p c -> Proto.Hello { h_pid = p; h_clock_us = c })
          (gen nat) (gen nat);
        Gen.map (fun s -> Proto.Config { c_payload = s }) (gen blob);
        Gen.map2 (fun e s -> Proto.Assign { a_epoch = e; a_payload = s })
          (gen nat) (gen blob);
        Gen.map2
          (fun i s -> Proto.Outcome { o_iteration = i; o_payload = s })
          (gen nat) (gen blob);
        Gen.return Proto.Shutdown;
        Gen.map2
          (fun i s -> Proto.Telemetry { t_incarnation = i; t_payload = s })
          (gen nat) (gen blob) ]
  in
  QCheck.make ~print:Proto.kind_name g

let prop_roundtrip =
  QCheck.Test.make ~count:200 ~name:"every frame kind roundtrips" arb_msg
    (fun msg -> roundtrip msg = msg)

(* One message of every kind, in tag order. *)
let sample_msgs =
  [ Proto.Hello { h_pid = 4242; h_clock_us = 1_700_000_000 };
    Proto.Config { c_payload = "spec-bytes \x00\xff" };
    Proto.Assign { a_epoch = 7; a_payload = String.make 100 'p' };
    Proto.Outcome { o_iteration = 17; o_payload = "out" };
    Proto.Shutdown;
    Proto.Telemetry { t_incarnation = 2; t_payload = "batch" } ]

let drain r =
  let rec go acc =
    match Proto.next r with
    | Ok (Some m) -> go (m :: acc)
    | Ok None -> List.rev acc
    | Error e -> Alcotest.failf "drain: %s" (Proto.error_message e)
  in
  go []

let test_partial_reassembly () =
  let stream = String.concat "" (List.map Proto.encode sample_msgs) in
  List.iter
    (fun chunk ->
      let r = Proto.reader () in
      let got = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        Proto.feed_string r (String.sub stream !i n);
        i := !i + n;
        got := !got @ drain r
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte feeds reassemble the stream" chunk)
        true
        (!got = sample_msgs);
      Alcotest.(check int) "stream fully consumed" 0 (Proto.buffered r))
    [ 1; 3; 7 ]

let expect_error name expected r =
  match Proto.next r with
  | Error e when e = expected -> ()
  | Error e ->
      Alcotest.failf "%s: expected %s, got %s" name
        (Proto.error_message expected)
        (Proto.error_message e)
  | Ok _ -> Alcotest.failf "%s: corrupt stream accepted" name

let test_garbage_rejected () =
  let r = Proto.reader () in
  Proto.feed_string r "this is not a DVZF frame at all, not even close";
  expect_error "garbage" Proto.Bad_magic r;
  (* A poisoned reader stays poisoned: there are no trustworthy frame
     boundaries left to resynchronise on. *)
  Proto.feed_string r (Proto.encode Proto.Shutdown);
  expect_error "poisoned after garbage" Proto.Bad_magic r

let patch_byte s off f =
  let b = Bytes.of_string s in
  Bytes.set b off (Char.chr (f (Char.code (Bytes.get b off))));
  Bytes.to_string b

let test_crc_mismatch_rejected () =
  let frame = Proto.encode (Proto.Config { c_payload = "payload-bytes" }) in
  (* Flip one payload bit; header (incl. stored CRC) untouched. *)
  let corrupt = patch_byte frame Proto.header_len (fun c -> c lxor 1) in
  let r = Proto.reader () in
  Proto.feed_string r corrupt;
  expect_error "flipped payload byte" Proto.Crc_mismatch r

let test_bad_version_and_kind_rejected () =
  let frame = Proto.encode Proto.Shutdown in
  let r = Proto.reader () in
  Proto.feed_string r (patch_byte frame 4 (fun v -> v + 1));
  expect_error "future version" (Proto.Bad_version (Proto.version + 1)) r;
  let r = Proto.reader () in
  Proto.feed_string r (patch_byte frame 5 (fun _ -> 250));
  expect_error "unknown kind" (Proto.Bad_kind 250) r;
  (* The tags are dense, 1 .. the number of kinds, so the first tag past
     the last kind is refused at the header, before payload decoding. *)
  let kinds = List.length sample_msgs in
  Alcotest.(check (list int)) "tags run 1 .. number of kinds"
    (List.init kinds (fun i -> i + 1))
    (List.map (fun m -> Char.code (Proto.encode m).[5]) sample_msgs);
  let past = kinds + 1 in
  let r = Proto.reader () in
  Proto.feed_string r (patch_byte frame 5 (fun _ -> past));
  expect_error "first tag past the last kind" (Proto.Bad_kind past) r

let test_oversized_rejected () =
  (* A header promising more than [max_payload] must be refused before
     any attempt to buffer it. *)
  let b = Bytes.make Proto.header_len '\000' in
  Bytes.blit_string "DVZF" 0 b 0 4;
  Bytes.set b 4 (Char.chr Proto.version);
  Bytes.set b 5 '\001';
  Bytes.set_int32_be b 6 (Int32.of_int (Proto.max_payload + 1));
  let r = Proto.reader () in
  Proto.feed_string r (Bytes.to_string b);
  expect_error "oversized" (Proto.Oversized (Proto.max_payload + 1)) r;
  (* And the encoder refuses to build such a frame in the first place. *)
  match
    Proto.encode (Proto.Config { c_payload = String.make (Proto.max_payload + 1) 'x' })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode accepted an oversized payload"

let test_trailing_payload_bytes_rejected () =
  (* A structurally valid frame whose payload has extra bytes after the
     last field is a framing bug, not data to ignore. *)
  let frame = Proto.encode (Proto.Hello { h_pid = 5; h_clock_us = 6 }) in
  let payload = String.sub frame Proto.header_len 16 ^ "extra" in
  let b = Bytes.make Proto.header_len '\000' in
  Bytes.blit_string "DVZF" 0 b 0 4;
  Bytes.set b 4 (Char.chr Proto.version);
  Bytes.set b 5 (String.get frame 5);
  Bytes.set_int32_be b 6 (Int32.of_int (String.length payload));
  Bytes.set_int32_be b 10
    (Int32.of_int (Dvz_resilience.Snapshot.crc32 payload));
  let r = Proto.reader () in
  Proto.feed_string r (Bytes.to_string b ^ payload);
  expect_error "trailing bytes" (Proto.Bad_payload "hello") r

(* --- supervision --------------------------------------------------------- *)

(* Launch a worker by forking: the child serves [Worker.main] over fresh
   pipes and exits without ever returning to the test harness. *)
let fork_launch ~slot:_ ~incarnation =
  let to_w_read, to_w_write = Unix.pipe ~cloexec:false () in
  let from_w_read, from_w_write = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      Unix.close to_w_write;
      Unix.close from_w_read;
      (match
         Worker.main ~incarnation ~in_fd:to_w_read ~out_fd:from_w_write ()
       with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 2)
  | pid ->
      Unix.close to_w_read;
      Unix.close from_w_write;
      (pid, to_w_write, from_w_read)

let quiet_opts ~workers =
  { Coordinator.default_opts with
    Coordinator.fl_workers = workers;
    fl_heartbeat_s = 0.05;
    fl_deadline_s = 10.0;
    fl_backoff_base_s = 0.05;
    fl_backoff_cap_s = 0.2;
    fl_log = ignore;
    fl_launch = Some fork_launch }

let options =
  { Campaign.default_options with
    Campaign.iterations = 24; rng_seed = 9; batch = 6 }

let baseline_events ?resilience options =
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Dvz_obs.Events.to_buffer buf }
  in
  let stats = Campaign.run ~telemetry ?resilience ~jobs:1 boom options in
  (stats, Buffer.contents buf)

let fleet_events ?resilience ?(plane = Telemetry.create ()) opts options =
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Dvz_obs.Events.to_buffer buf }
  in
  let stats, fstats =
    Coordinator.run ~telemetry ?resilience ~plane opts boom options
  in
  (stats, fstats, Buffer.contents buf)

let strip_timing line =
  match Dvz_obs.Json.of_lines line with
  | Error e -> Alcotest.failf "unparseable event log: %s" e
  | Ok events ->
      List.map
        (function
          | Dvz_obs.Json.Obj fields ->
              Dvz_obs.Json.Obj
                (List.filter
                   (fun (k, _) ->
                     not
                       (List.mem k
                          [ "phase1_s"; "phase2_s"; "phase3_s"; "elapsed_s" ]))
                   fields)
          | ev -> ev)
        events

let check_matches_baseline name (stats, events) (fstats, fevents) =
  Alcotest.(check bool) (name ^ ": stats identical") true (stats = fstats);
  Alcotest.(check bool)
    (name ^ ": event streams identical modulo timing")
    true
    (strip_timing events = strip_timing fevents)

let test_fleet_matches_single_process () =
  let base = baseline_events options in
  let stats, fstats, events = fleet_events (quiet_opts ~workers:2) options in
  check_matches_baseline "fleet" base (stats, events);
  Alcotest.(check int) "both workers spawned" 2 fstats.Coordinator.fs_spawns;
  Alcotest.(check int) "no restarts" 0 fstats.Coordinator.fs_restarts

(* A watchdog tight enough to time out most triggered iterations: the
   workers must run under the campaign's own budget, or they report
   findings where [--jobs 1] reports timeouts. *)
let test_fleet_honours_watchdog () =
  let resilience =
    { Campaign.no_resilience with
      Campaign.rz_budget = Some (Dvz_uarch.Dualcore.budget ~max_slots:40 ()) }
  in
  let base = baseline_events ~resilience options in
  Alcotest.(check bool) "the watchdog fires" true
    ((fst base).Campaign.s_timeouts > 0);
  let stats, _, events =
    fleet_events ~resilience (quiet_opts ~workers:2) options
  in
  check_matches_baseline "watchdog" base (stats, events)

(* The /fleet rows of a finished run, by slot. *)
let fleet_rows plane =
  let j = Telemetry.fleet_json plane in
  match Dvz_obs.Json.member "workers" j with
  | Some ws -> Dvz_obs.Json.to_list ws
  | None -> Alcotest.failf "no workers in %s" (Dvz_obs.Json.to_string j)

let row_int row key =
  match Option.bind (Dvz_obs.Json.member key row) Dvz_obs.Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "row lacks %s: %s" key (Dvz_obs.Json.to_string row)

let test_fleet_survives_sigkill () =
  let base = baseline_events options in
  let opts =
    { (quiet_opts ~workers:2) with
      Coordinator.fl_chaos = [ (1, 1, Sys.sigkill) ] }
  in
  let plane = Telemetry.create () in
  let stats, fstats, events = fleet_events ~plane opts options in
  check_matches_baseline "kill+respawn" base (stats, events);
  Alcotest.(check bool) "death was observed and respawn scheduled" true
    (fstats.Coordinator.fs_restarts >= 1);
  (* The killed slot's row: its death count is the incarnation, and its
     restart log holds the one death with the reason. *)
  match fleet_rows plane with
  | [ r0; r1 ] ->
      Alcotest.(check int) "survivor's incarnation" 0
        (row_int r0 "incarnation");
      Alcotest.(check int) "killed slot's incarnation" 1
        (row_int r1 "incarnation");
      let log =
        Option.fold ~none:[] ~some:Dvz_obs.Json.to_list
          (Dvz_obs.Json.member "restart_log" r1)
      in
      Alcotest.(check int) "one restart-log entry" 1 (List.length log);
      let reason =
        Option.bind (Dvz_obs.Json.member "reason" (List.hd log))
          Dvz_obs.Json.to_str
      in
      Alcotest.(check bool) "the entry carries the reason" true
        (match reason with Some r -> r <> "" | None -> false)
  | rows -> Alcotest.failf "%d rows for 2 slots" (List.length rows)

let test_fleet_degrades_to_inline () =
  (* Kill both workers with no respawn budget: every slot retires and
     the coordinator must finish the campaign itself. *)
  let base = baseline_events options in
  let opts =
    { (quiet_opts ~workers:2) with
      Coordinator.fl_max_respawns = 0;
      fl_chaos = [ (0, 0, Sys.sigkill); (0, 1, Sys.sigkill) ] }
  in
  let stats, fstats, events = fleet_events opts options in
  check_matches_baseline "degraded" base (stats, events);
  Alcotest.(check int) "both slots retired" 2 fstats.Coordinator.fs_retired;
  Alcotest.(check bool) "coordinator picked up the slack" true
    (fstats.Coordinator.fs_inline_plans > 0)

let test_fleet_heartbeat_deadline () =
  (* SIGSTOP freezes a worker without closing its pipes: only the
     heartbeat deadline can catch it. *)
  let base = baseline_events options in
  let opts =
    { (quiet_opts ~workers:2) with
      Coordinator.fl_deadline_s = 0.4;
      fl_chaos = [ (0, 1, Sys.sigstop) ] }
  in
  let stats, fstats, events = fleet_events opts options in
  check_matches_baseline "frozen worker" base (stats, events);
  Alcotest.(check bool) "silence past the deadline was detected" true
    (fstats.Coordinator.fs_heartbeats_missed >= 1)

let test_fleet_zero_workers_runs_inline () =
  let base = baseline_events options in
  let stats, fstats, events = fleet_events (quiet_opts ~workers:0) options in
  check_matches_baseline "workers=0" base (stats, events);
  Alcotest.(check int) "everything ran inline" options.Campaign.iterations
    fstats.Coordinator.fs_inline_plans

let test_fleet_checkpoint_bytes_match () =
  let dir = Filename.temp_file "dvz_fleet" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let read_file p = In_channel.with_open_bin p In_channel.input_all in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let ck_a = Filename.concat dir "a.ck"
      and ck_b = Filename.concat dir "b.ck" in
      let rz path =
        { Campaign.no_resilience with
          Campaign.rz_checkpoint = Some path;
          rz_checkpoint_every = 12 }
      in
      let _ = Campaign.run ~resilience:(rz ck_a) ~jobs:1 boom options in
      let opts =
        { (quiet_opts ~workers:2) with
          Coordinator.fl_chaos = [ (1, 0, Sys.sigkill) ] }
      in
      let _ = fleet_events ~resilience:(rz ck_b) opts options in
      Alcotest.(check bool)
        "checkpoint bytes identical across fleet and single-process" true
        (read_file ck_a = read_file ck_b);
      Alcotest.(check bool) "fleet rotated a .prev checkpoint" true
        (Sys.file_exists (Dvz_resilience.Snapshot.previous_path ck_b)))

let counter_value snap name =
  match
    List.find_opt (fun (n, _, _) -> n = name) snap.Metrics.sn_counters
  with
  | Some (_, _, v) -> v
  | None -> 0

let sum_slots plane name =
  List.fold_left
    (fun n (_, snap) -> n + counter_value snap name)
    0 (Telemetry.worker_metrics plane)

(* The wire carries nothing the coordinator does not act on.  A run
   without respawns decodes exactly one Hello per worker, one Outcome
   per plan and the Telemetry flushes — with heartbeats off, just each
   worker's final flush; with them on, every flush, which is the
   heartbeat (no other frame is sent for liveness).  Each worker
   decodes its Config, one Assign per batch and the Shutdown. *)
let test_fleet_frames_exact () =
  let frames = Metrics.counter Metrics.default "dvz_fleet_frames_total" in
  let batches = options.Campaign.iterations / options.Campaign.batch in
  List.iter
    (fun heartbeat_s ->
      let opts =
        { (quiet_opts ~workers:2) with
          Coordinator.fl_heartbeat_s = heartbeat_s }
      in
      let plane = Telemetry.create () in
      let before = Metrics.counter_value frames in
      let _, fstats = Coordinator.run ~plane opts boom options in
      let decoded = Metrics.counter_value frames - before in
      Alcotest.(check int) "no restarts" 0 fstats.Coordinator.fs_restarts;
      let flushes =
        sum_slots plane "dvz_fleet_telemetry_batches_total"
        + Telemetry.stale_frames plane
      in
      if heartbeat_s = 0.0 then
        Alcotest.(check int) "one final flush per worker" 2 flushes;
      Alcotest.(check int)
        (Printf.sprintf "coordinator frames (heartbeat %gs)" heartbeat_s)
        (2 + options.Campaign.iterations + flushes)
        decoded;
      List.iter
        (fun (slot, snap) ->
          Alcotest.(check int)
            (Printf.sprintf "worker %d frames" slot)
            (1 + batches + 1)
            (counter_value snap "dvz_fleet_frames_total"))
        (Telemetry.worker_metrics plane))
    [ 0.0; 0.001 ]

(* /fleet serves one row per slot, each fact once: the outcome counts
   are the Outcome frames the coordinator recorded, so they sum to the
   iteration count exactly however often the workers flush. *)
let test_fleet_rows_one_per_slot () =
  let options = { options with Campaign.iterations = 600; batch = 8 } in
  let opts =
    { (quiet_opts ~workers:2) with Coordinator.fl_heartbeat_s = 0.001 }
  in
  let plane = Telemetry.create () in
  let _, fstats = Coordinator.run ~plane opts boom options in
  Alcotest.(check int) "no restarts" 0 fstats.Coordinator.fs_restarts;
  let rows = fleet_rows plane in
  Alcotest.(check (list int)) "one row per slot" [ 0; 1 ]
    (List.map (fun r -> row_int r "slot") rows);
  Alcotest.(check int) "outcomes sum to the iteration count"
    options.Campaign.iterations
    (List.fold_left (fun n r -> n + row_int r "outcomes") 0 rows);
  List.iter
    (fun r ->
      let slot = row_int r "slot" in
      Alcotest.(check bool)
        (Printf.sprintf "slot %d shipped telemetry" slot)
        true
        (row_int r "telemetry_batches" >= 1);
      Alcotest.(check int)
        (Printf.sprintf "slot %d incarnation" slot)
        0 (row_int r "incarnation"))
    rows

(* --- telemetry plane ----------------------------------------------------- *)

let sample_batch ?(counter = ("dvz_test_iters_total", "", 7)) () =
  { Wire.tb_metrics =
      { Metrics.empty_snapshot with Metrics.sn_counters = [ counter ] };
    tb_profile =
      [ { Profile.pf_path = "campaign/iteration";
          pf_name = "iteration";
          pf_depth = 1;
          pf_count = 3;
          pf_total_s = 0.9;
          pf_self_s = 0.6;
          pf_max_s = 0.5 } ];
    tb_trace = [];
    tb_trace_dropped = 0;
    tb_events = [ {|{"event":"assign","epoch":1}|} ];
    tb_events_dropped = 0 }

let test_telemetry_batch_roundtrip () =
  let b = sample_batch () in
  match Wire.telemetry_of_string (Wire.telemetry_to_string b) with
  | Error e -> Alcotest.failf "telemetry codec: %s" e
  | Ok b' -> Alcotest.(check bool) "batch roundtrips" true (b = b')

(* A worker SIGKILLed mid-flush leaves a prefix of a Telemetry frame in
   the pipe.  The truncated frame must never decode (so nothing partial
   reaches the plane), and a bit-flipped one must fail the CRC. *)
let test_partial_flush_rejected () =
  let frame =
    Proto.encode
      (Proto.Telemetry
         { t_incarnation = 0;
           t_payload = Wire.telemetry_to_string (sample_batch ()) })
  in
  (* Every strict prefix is silently incomplete, not a partial decode. *)
  List.iter
    (fun n ->
      let r = Proto.reader () in
      Proto.feed_string r (String.sub frame 0 n);
      match Proto.next r with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.failf "%d-byte prefix decoded a frame" n
      | Error e ->
          Alcotest.failf "%d-byte prefix errored: %s" n
            (Proto.error_message e))
    [ 1; Proto.header_len - 1; Proto.header_len; String.length frame - 1 ];
  let corrupt =
    patch_byte frame (Proto.header_len + 4) (fun c -> c lxor 0x10)
  in
  let r = Proto.reader () in
  Proto.feed_string r corrupt;
  expect_error "mid-flush corruption" Proto.Crc_mismatch r

(* The plane's aggregates survive a mid-flush death consistent: the lost
   flush was cumulative, so the previous batch plus the retirement fold
   still accounts for everything acked. *)
let test_lost_flush_keeps_aggregates_consistent () =
  let clock = Dvz_obs.Clock.fake () in
  let plane = Telemetry.create ~clock () in
  Telemetry.hello plane ~slot:0 ~clock_us:0;
  let b1 = sample_batch ~counter:("dvz_test_iters_total", "", 7) () in
  Alcotest.(check bool) "first flush ingested" true
    (Telemetry.ingest plane ~slot:0 ~deaths:0 ~incarnation:0 b1);
  (* The second (cumulative) flush dies mid-write: the coordinator only
     ever sees the CRC-rejected prefix, then declares the worker dead. *)
  Telemetry.record_restart plane ~slot:0 ~reason:"sigkill mid-flush";
  let snap_after_death = List.assoc 0 (Telemetry.worker_metrics plane) in
  Alcotest.(check int) "retired aggregate keeps the last acked flush" 7
    (counter_value snap_after_death "dvz_test_iters_total");
  (* The respawned incarnation reports afresh; sums, no double count. *)
  Telemetry.hello plane ~slot:0 ~clock_us:0;
  let b2 = sample_batch ~counter:("dvz_test_iters_total", "", 5) () in
  Alcotest.(check bool) "successor flush ingested" true
    (Telemetry.ingest plane ~slot:0 ~deaths:1 ~incarnation:1 b2);
  let snap = List.assoc 0 (Telemetry.worker_metrics plane) in
  Alcotest.(check int) "retired + live incarnations sum" 12
    (counter_value snap "dvz_test_iters_total")

(* The row's loss counts cover every incarnation: the worker-side trace
   drops are cumulative per process, so a dead incarnation's count is
   folded in at its restart, and the event drops (per-flush deltas) are
   summed. *)
let test_loss_counts_survive_restart () =
  let plane = Telemetry.create ~clock:(Dvz_obs.Clock.fake ()) () in
  let batch ~trace ~events =
    { (sample_batch ()) with
      Wire.tb_trace_dropped = trace;
      tb_events_dropped = events }
  in
  Telemetry.hello plane ~slot:0 ~clock_us:0;
  ignore
    (Telemetry.ingest plane ~slot:0 ~deaths:0 ~incarnation:0
       (batch ~trace:5 ~events:2));
  Telemetry.record_restart plane ~slot:0 ~reason:"chaos";
  Telemetry.hello plane ~slot:0 ~clock_us:0;
  ignore
    (Telemetry.ingest plane ~slot:0 ~deaths:1 ~incarnation:1
       (batch ~trace:1 ~events:3));
  Telemetry.publish plane
    { Telemetry.sv_epoch = 0;
      sv_workers =
        [ { Telemetry.wr_slot = 0; wr_pid = 0; wr_state = "live";
            wr_deaths = 1; wr_outcomes = 0; wr_last_frame_age_s = 0.0 } ];
      sv_counters = [] };
  match fleet_rows plane with
  | [ row ] ->
      Alcotest.(check int) "trace drops of both incarnations" 6
        (row_int row "trace_dropped");
      Alcotest.(check int) "event drops of both flushes" 5
        (row_int row "events_dropped")
  | rows -> Alcotest.failf "%d rows for 1 slot" (List.length rows)

let test_stale_incarnation_ignored () =
  let clock = Dvz_obs.Clock.fake () in
  let plane = Telemetry.create ~clock () in
  Telemetry.hello plane ~slot:1 ~clock_us:0;
  Alcotest.(check bool) "current incarnation accepted" true
    (Telemetry.ingest plane ~slot:1 ~deaths:0 ~incarnation:0
       (sample_batch ()));
  (* The coordinator counts the death, then tells the plane. *)
  Telemetry.record_restart plane ~slot:1 ~reason:"chaos";
  (* The dead generation's last flush was still in the pipe. *)
  Alcotest.(check bool) "stale incarnation dropped" false
    (Telemetry.ingest plane ~slot:1 ~deaths:1 ~incarnation:0
       (sample_batch ()));
  Alcotest.(check int) "stale frame counted" 1 (Telemetry.stale_frames plane);
  Telemetry.hello plane ~slot:1 ~clock_us:0;
  Alcotest.(check bool) "successor accepted" true
    (Telemetry.ingest plane ~slot:1 ~deaths:1 ~incarnation:1
       (sample_batch ()));
  Alcotest.(check int) "no further stale frames" 1
    (Telemetry.stale_frames plane)

(* End-to-end: a real 2-worker fleet run with the plane attached yields
   ingested batches and merged worker profiles, and (the determinism
   contract) telemetry changes nothing about the campaign's output. *)
let test_fleet_telemetry_end_to_end () =
  let base = baseline_events options in
  let plane = Telemetry.create () in
  let opts =
    { (quiet_opts ~workers:2) with
      Coordinator.fl_profile = true;
      fl_trace = true }
  in
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Dvz_obs.Events.to_buffer buf }
  in
  let stats, _fstats = Coordinator.run ~telemetry ~plane opts boom options in
  check_matches_baseline "telemetry plane" base (stats, Buffer.contents buf);
  Alcotest.(check int) "no stale frames" 0 (Telemetry.stale_frames plane);
  let wm = Telemetry.worker_metrics plane in
  Alcotest.(check int) "both slots reported" 2 (List.length wm);
  List.iter
    (fun (slot, snap) ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d shipped at least one batch" slot)
        true
        (counter_value snap "dvz_fleet_telemetry_batches_total" >= 1))
    wm;
  Alcotest.(check bool) "worker profiles merged" true
    (Telemetry.merged_profile plane <> [])

let () =
  let qcheck = QCheck_alcotest.to_alcotest in
  Alcotest.run "dvz_fleet"
    [ ( "proto",
        [ qcheck prop_roundtrip;
          Alcotest.test_case "partial reassembly" `Quick
            test_partial_reassembly;
          Alcotest.test_case "garbage rejected, reader poisoned" `Quick
            test_garbage_rejected;
          Alcotest.test_case "crc mismatch rejected" `Quick
            test_crc_mismatch_rejected;
          Alcotest.test_case "bad version / kind rejected" `Quick
            test_bad_version_and_kind_rejected;
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_rejected;
          Alcotest.test_case "trailing payload bytes rejected" `Quick
            test_trailing_payload_bytes_rejected ] );
      ( "coordinator",
        [ Alcotest.test_case "fleet output equals --jobs 1" `Quick
            test_fleet_matches_single_process;
          Alcotest.test_case "fleet honours the campaign's watchdog" `Quick
            test_fleet_honours_watchdog;
          Alcotest.test_case "sigkill mid-campaign survived" `Quick
            test_fleet_survives_sigkill;
          Alcotest.test_case "respawn budget exhausted degrades inline" `Quick
            test_fleet_degrades_to_inline;
          Alcotest.test_case "heartbeat deadline catches a frozen worker"
            `Quick test_fleet_heartbeat_deadline;
          Alcotest.test_case "zero workers runs inline" `Quick
            test_fleet_zero_workers_runs_inline;
          Alcotest.test_case "checkpoint bytes identical" `Quick
            test_fleet_checkpoint_bytes_match;
          Alcotest.test_case "one frame per outcome, nothing extra" `Quick
            test_fleet_frames_exact;
          Alcotest.test_case "one /fleet row per slot, each fact once" `Quick
            test_fleet_rows_one_per_slot ] );
      ( "telemetry",
        [ Alcotest.test_case "batch codec roundtrips" `Quick
            test_telemetry_batch_roundtrip;
          Alcotest.test_case "partial flush rejected by framing/CRC" `Quick
            test_partial_flush_rejected;
          Alcotest.test_case "lost flush keeps aggregates consistent" `Quick
            test_lost_flush_keeps_aggregates_consistent;
          Alcotest.test_case "stale incarnation ignored" `Quick
            test_stale_incarnation_ignored;
          Alcotest.test_case "loss counts survive a restart" `Quick
            test_loss_counts_survive_restart;
          Alcotest.test_case "fleet run aggregates worker telemetry" `Quick
            test_fleet_telemetry_end_to_end ] ) ]
