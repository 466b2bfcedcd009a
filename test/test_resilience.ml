(* Tests for the campaign resilience layer: snapshots, fault injection,
   watchdog budgets, supervised Parallel.map, crash isolation and
   checkpoint/resume determinism. *)

open Dvz_soc
module Rng = Dvz_util.Rng
module Parallel = Dvz_util.Parallel
module Cfg = Dvz_uarch.Config
module Dualcore = Dvz_uarch.Dualcore
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet
module Trigger_gen = Dejavuzz.Trigger_gen
module Trigger_opt = Dejavuzz.Trigger_opt
module Window_gen = Dejavuzz.Window_gen
module Coverage = Dejavuzz.Coverage
module Oracle = Dejavuzz.Oracle
module Campaign = Dejavuzz.Campaign
module Fault = Dvz_resilience.Fault
module Snapshot = Dvz_resilience.Snapshot
module Json = Dvz_obs.Json
module Events = Dvz_obs.Events
module Metrics = Dvz_obs.Metrics

let boom = Cfg.boom_small
let secret = Array.make Layout.secret_dwords 0xFACE

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let temp_path prefix =
  let p = Filename.temp_file prefix ".snap" in
  Sys.remove p;
  p

let completed_tc entropy =
  let rng = Rng.create entropy in
  let seed = Seed.random_of_kind rng Seed.T_page_fault in
  let tc = Trigger_gen.generate ~force_training:true boom seed in
  Alcotest.(check bool) "triggers" true (Trigger_opt.evaluate boom tc);
  Window_gen.complete boom tc

(* --- snapshots ------------------------------------------------------------ *)

let test_crc32_check_value () =
  (* The standard CRC-32 check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Snapshot.crc32 "123456789")

let test_snapshot_roundtrip () =
  let path = temp_path "dvz_rt" in
  (* Binary payload, including newlines and every byte value. *)
  let payload = String.init 512 (fun i -> Char.chr (i mod 256)) in
  Snapshot.save ~path ~magic:"test-magic" ~version:7 payload;
  (match Snapshot.load ~path ~magic:"test-magic" with
  | Ok (v, p) ->
      Alcotest.(check int) "version" 7 v;
      Alcotest.(check string) "payload" payload p
  | Error e -> Alcotest.failf "load failed: %s" e);
  Sys.remove path

let test_snapshot_detects_corruption () =
  let path = temp_path "dvz_corrupt" in
  Snapshot.save ~path ~magic:"m" ~version:1 "hello snapshot payload";
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let header_end = String.index raw '\n' in
  let flipped = Bytes.of_string raw in
  let pos = header_end + 3 in
  Bytes.set flipped pos (Char.chr (Char.code (Bytes.get flipped pos) lxor 1));
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  (match Snapshot.load ~path ~magic:"m" with
  | Error e -> Alcotest.(check bool) "checksum error" true (contains e "checksum")
  | Ok _ -> Alcotest.fail "corrupted snapshot loaded");
  Sys.remove path

let test_snapshot_magic_and_truncation () =
  let path = temp_path "dvz_magic" in
  Snapshot.save ~path ~magic:"alpha" ~version:1 "payload";
  (match Snapshot.load ~path ~magic:"beta" with
  | Error e -> Alcotest.(check bool) "magic error" true (contains e "magic")
  | Ok _ -> Alcotest.fail "magic mismatch loaded");
  (* Truncate the payload: header promises more bytes than remain. *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw - 3)));
  (match Snapshot.load ~path ~magic:"alpha" with
  | Error e -> Alcotest.(check bool) "truncation error" true (contains e "truncated")
  | Ok _ -> Alcotest.fail "truncated snapshot loaded");
  (match Snapshot.load ~path:(path ^ ".does-not-exist") ~magic:"alpha" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file loaded");
  Sys.remove path

let test_snapshot_structured_errors () =
  (* [load_checked] names the exact validation that failed; [advice]
     tells the operator what to do about it. *)
  let path = temp_path "dvz_structured" in
  Snapshot.save ~path ~magic:"m" ~version:2 "the payload";
  (match Snapshot.load_checked ~path:(path ^ ".nope") ~magic:"m" with
  | Error (Snapshot.Unreadable _ as e) ->
      Alcotest.(check bool) "unreadable advice mentions --resume" true
        (contains (Snapshot.advice e) "--resume")
  | Error e -> Alcotest.failf "wrong class: %s" (Snapshot.describe e)
  | Ok _ -> Alcotest.fail "missing file loaded");
  (match Snapshot.load_checked ~path ~magic:"other" with
  | Error (Snapshot.Magic_mismatch { got; want }) ->
      Alcotest.(check string) "got" "m" got;
      Alcotest.(check string) "want" "other" want
  | Error e -> Alcotest.failf "wrong class: %s" (Snapshot.describe e)
  | Ok _ -> Alcotest.fail "magic mismatch loaded");
  let raw = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub raw 0 (String.length raw - 4)));
  (match Snapshot.load_checked ~path ~magic:"m" with
  | Error (Snapshot.Truncated { promised; actual }) ->
      Alcotest.(check int) "promised" 11 promised;
      Alcotest.(check int) "actual" 7 actual
  | Error e -> Alcotest.failf "wrong class: %s" (Snapshot.describe e)
  | Ok _ -> Alcotest.fail "truncated snapshot loaded");
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "not a snapshot at all");
  (match Snapshot.load_checked ~path ~magic:"m" with
  | Error (Snapshot.Bad_header _ as e) ->
      Alcotest.(check bool) "bad-header advice suggests recovery" true
        (contains (Snapshot.advice e) "delete")
  | Error e -> Alcotest.failf "wrong class: %s" (Snapshot.describe e)
  | Ok _ -> Alcotest.fail "garbage loaded");
  Sys.remove path

let test_snapshot_prev_rotation () =
  let path = temp_path "dvz_prev" in
  let prev = Snapshot.previous_path path in
  Alcotest.(check string) "previous path" (path ^ ".prev") prev;
  Snapshot.save ~keep_previous:true ~path ~magic:"m" ~version:1 "first";
  Alcotest.(check bool) "first save rotates nothing" false
    (Sys.file_exists prev);
  Snapshot.save ~keep_previous:true ~path ~magic:"m" ~version:1 "second";
  Snapshot.save ~keep_previous:true ~path ~magic:"m" ~version:1 "third";
  (match Snapshot.load ~path ~magic:"m" with
  | Ok (_, p) -> Alcotest.(check string) "latest" "third" p
  | Error e -> Alcotest.failf "latest unreadable: %s" e);
  (match Snapshot.load ~path:prev ~magic:"m" with
  | Ok (_, p) -> Alcotest.(check string) "previous" "second" p
  | Error e -> Alcotest.failf "previous unreadable: %s" e);
  (* Without the flag, rotation stops and .prev goes stale. *)
  Snapshot.save ~path ~magic:"m" ~version:1 "fourth";
  (match Snapshot.load ~path:prev ~magic:"m" with
  | Ok (_, p) -> Alcotest.(check string) "untouched" "second" p
  | Error e -> Alcotest.failf "previous unreadable: %s" e);
  Sys.remove path;
  Sys.remove prev

(* --- fault plans ---------------------------------------------------------- *)

let test_fault_parse_roundtrip () =
  (match Fault.parse "crash@3:50,kill@17:0" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      Alcotest.(check int) "two faults" 2 (List.length plan);
      Alcotest.(check string) "roundtrip" "crash@3:50,kill@17:0"
        (Fault.to_string plan));
  (match Fault.parse "hang@0:10" with
  | Ok [ { Fault.f_iteration = 0; f_cycle = 10; f_action = Fault.Hang } ] -> ()
  | _ -> Alcotest.fail "hang parse");
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parsed %S" bad)
    [ "explode@1:2"; "crash@1"; "crash"; "crash@-1:5"; "crash@a:b"; "" ]

let test_fault_arm_tick_drain () =
  Fault.arm ~iteration:2
    [ { Fault.f_iteration = 2; f_cycle = 5; f_action = Fault.Hang };
      { Fault.f_iteration = 3; f_cycle = 0; f_action = Fault.Corrupt } ];
  Alcotest.(check bool) "armed" true (Fault.armed ());
  (match Fault.tick ~cycle:0 with
  | `Ok -> ()
  | _ -> Alcotest.fail "fired early");
  (match Fault.tick ~cycle:7 with
  | `Hang -> ()
  | _ -> Alcotest.fail "hang expected at cycle 7");
  (* The fault is consumed: later ticks are clean. *)
  (match Fault.tick ~cycle:8 with
  | `Ok -> ()
  | _ -> Alcotest.fail "fault not consumed");
  let fired = Fault.drain_fired () in
  Alcotest.(check int) "one fired" 1 (List.length fired);
  Alcotest.(check int) "drain clears" 0 (List.length (Fault.drain_fired ()));
  Fault.arm ~iteration:0
    [ { Fault.f_iteration = 0; f_cycle = 1; f_action = Fault.Crash "boom" } ];
  (match Fault.tick ~cycle:3 with
  | exception Fault.Injected { iteration = 0; cycle = 3; _ } -> ()
  | exception e -> raise e
  | _ -> Alcotest.fail "crash fault did not raise");
  ignore (Fault.drain_fired ());
  Fault.disarm ();
  Alcotest.(check bool) "disarmed" false (Fault.armed ())

(* --- Sim hooks and error messages ----------------------------------------- *)

let test_sim_on_cycle_hook () =
  let c = Dvz_ir.Circuits.counter ~width:4 in
  let sim = Dvz_ir.Sim.create c.Dvz_ir.Circuits.cnt_nl in
  Dvz_ir.Sim.set_input sim c.Dvz_ir.Circuits.cnt_en 1;
  let seen = ref [] in
  Dvz_ir.Sim.on_cycle sim (fun n -> seen := n :: !seen);
  Dvz_ir.Sim.cycle sim;
  Dvz_ir.Sim.cycle sim;
  Dvz_ir.Sim.cycle sim;
  Alcotest.(check (list int)) "hook sees cycle counts" [ 1; 2; 3 ]
    (List.rev !seen);
  Alcotest.(check int) "cycles" 3 (Dvz_ir.Sim.cycles sim);
  (* A raising hook escapes cycle — the fault-injection mechanism. *)
  Dvz_ir.Sim.on_cycle sim (fun n ->
      if n >= 5 then
        raise
          (Fault.Injected
             { iteration = -1; cycle = n; message = "stop here" }));
  (match
     for _ = 1 to 10 do
       Dvz_ir.Sim.cycle sim
     done
   with
  | exception Fault.Injected { cycle = 5; _ } -> ()
  | exception e -> raise e
  | () -> Alcotest.fail "raising hook did not escape")

let test_sim_error_messages () =
  let c = Dvz_ir.Circuits.counter ~width:4 in
  let nl = c.Dvz_ir.Circuits.cnt_nl in
  let sim = Dvz_ir.Sim.create nl in
  (match Dvz_ir.Sim.set_input sim c.Dvz_ir.Circuits.cnt_q 1 with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the signal" true
        (contains msg (Dvz_ir.Netlist.name_of nl c.Dvz_ir.Circuits.cnt_q));
      Alcotest.(check bool) "says what it is" true (contains msg "register")
  | () -> Alcotest.fail "set_input on a register succeeded");
  (match Dvz_ir.Sim.poke_reg sim c.Dvz_ir.Circuits.cnt_en 1 with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the signal" true
        (contains msg (Dvz_ir.Netlist.name_of nl c.Dvz_ir.Circuits.cnt_en));
      Alcotest.(check bool) "says input" true (contains msg "input")
  | () -> Alcotest.fail "poke_reg on an input succeeded")

let test_dualcore_arity_message () =
  let tc = completed_tc 61 in
  let stim = Packet.stimulus ~secret tc in
  match Dualcore.create ~secret_b:(Array.make 1 0) boom stim with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "actual arity" true (contains msg "1 dwords");
      Alcotest.(check bool) "expected arity" true
        (contains msg (string_of_int (Array.length secret)))
  | _ -> Alcotest.fail "arity mismatch accepted"

(* --- supervised Parallel.map ---------------------------------------------- *)

exception Boom of int

let test_parallel_preserves_exception () =
  Alcotest.check_raises "original exception, lowest index" (Boom 3) (fun () ->
      ignore
        (Parallel.map ~domains:4
           (fun x -> if x >= 3 then raise (Boom x) else x)
           [ 0; 1; 2; 3; 4; 5; 6; 7 ]))

(* --- watchdog budgets ----------------------------------------------------- *)

let test_watchdog_slot_budget () =
  let tc = completed_tc 63 in
  let dc = Dualcore.create boom (Packet.stimulus ~secret tc) in
  let full = Dualcore.run (Dualcore.create boom (Packet.stimulus ~secret tc)) in
  Alcotest.(check bool) "full run unbudgeted" false full.Dualcore.r_timed_out;
  let r = Dualcore.run ~budget:(Dualcore.budget ~max_slots:5 ()) dc in
  Alcotest.(check bool) "timed out" true r.Dualcore.r_timed_out;
  Alcotest.(check int) "stopped at the budget" 5 r.Dualcore.r_slots

let test_watchdog_wall_budget () =
  let tc = completed_tc 63 in
  let dc = Dualcore.create boom (Packet.stimulus ~secret tc) in
  (* Fake clock ticking 1s per read: the 0.5s budget trips on the first
     poll, deterministically. *)
  let budget =
    Dualcore.budget ~max_wall_s:0.5 ~clock:(Dvz_obs.Clock.fake ()) ()
  in
  let r = Dualcore.run ~budget dc in
  Alcotest.(check bool) "timed out" true r.Dualcore.r_timed_out

(* A non-positive or NaN wall budget would time out every run at its
   first poll; the constructor refuses it, as it refuses [max_slots:0],
   and an infinite one, which means "no budget". *)
let test_watchdog_wall_budget_positive () =
  List.iter
    (fun s ->
      match Dualcore.budget ~max_wall_s:s () with
      | _ -> Alcotest.failf "max_wall_s:%g accepted" s
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity ]

let test_hang_fault_needs_watchdog () =
  let tc = completed_tc 63 in
  let dc = Dualcore.create boom (Packet.stimulus ~secret tc) in
  Fault.arm ~iteration:0
    [ { Fault.f_iteration = 0; f_cycle = 3; f_action = Fault.Hang } ];
  let r = Dualcore.run ~budget:(Dualcore.budget ~max_slots:500 ()) dc in
  ignore (Fault.drain_fired ());
  Fault.disarm ();
  (* The hang wedges the cores; only the watchdog ends the run. *)
  Alcotest.(check bool) "timed out" true r.Dualcore.r_timed_out;
  Alcotest.(check int) "ran to the budget" 500 r.Dualcore.r_slots

let test_corrupt_fault_skews_instance_b () =
  let tc = completed_tc 63 in
  let clean = Dualcore.run (Dualcore.create boom (Packet.stimulus ~secret tc)) in
  Fault.arm ~iteration:0
    [ { Fault.f_iteration = 0; f_cycle = 0; f_action = Fault.Corrupt } ];
  let bad = Dualcore.run (Dualcore.create boom (Packet.stimulus ~secret tc)) in
  ignore (Fault.drain_fired ());
  Fault.disarm ();
  Alcotest.(check int) "cycles_b skewed by 7"
    (clean.Dualcore.r_cycles_b + 7) bad.Dualcore.r_cycles_b;
  match (clean.Dualcore.r_windows_b, bad.Dualcore.r_windows_b) with
  | cw :: _, bw :: _ ->
      Alcotest.(check int) "first window skewed by 7"
        (cw.Dvz_uarch.Core.wr_cycles + 7) bw.Dvz_uarch.Core.wr_cycles
  | _ -> Alcotest.fail "expected window records"

let test_oracle_timeout_verdict () =
  let tc = completed_tc 63 in
  let a =
    Oracle.analyze boom ~secret
      ~budget:(Dualcore.budget ~max_slots:3 ())
      tc
  in
  Alcotest.(check bool) "timed out" true a.Oracle.a_timed_out;
  Alcotest.(check bool) "no leaks from partial evidence" true
    (a.Oracle.a_leaks = []);
  Alcotest.(check bool) "no attack classification" true
    (a.Oracle.a_attack = None)

(* --- serialization helpers ------------------------------------------------ *)

let test_rng_state_roundtrip () =
  let rng = Rng.create 99 in
  for _ = 1 to 17 do
    ignore (Rng.next rng)
  done;
  let restored = Rng.of_state (Rng.state rng) in
  let a = List.init 10 (fun _ -> Rng.next rng) in
  let b = List.init 10 (fun _ -> Rng.next restored) in
  Alcotest.(check (list int)) "stream continues identically" a b

let test_coverage_list_roundtrip () =
  let cov = Coverage.create () in
  ignore (Coverage.observe cov [ [ ("rob", 2); ("lsu.dcache.bank1", 1) ] ]);
  let restored = Coverage.of_list (Coverage.to_list cov) in
  Alcotest.(check int) "points survive" (Coverage.points cov)
    (Coverage.points restored);
  Alcotest.(check bool) "lists equal" true
    (Coverage.to_list cov = Coverage.to_list restored)

(* --- campaign-level resilience -------------------------------------------- *)

let base_options iterations rng_seed =
  { Campaign.default_options with Campaign.iterations; rng_seed }

let run_with_events ?resilience ?jobs options =
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Events.to_buffer buf }
  in
  let stats = Campaign.run ~telemetry ?resilience ?jobs boom options in
  let events =
    match Json.of_lines (Buffer.contents buf) with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "bad event log: %s" e
  in
  (stats, events)

let jint key ev = Option.bind (Json.member key ev) Json.to_int
let jstr key ev = Option.bind (Json.member key ev) Json.to_str
let jbool key ev = Option.bind (Json.member key ev) Json.to_bool

let iteration_events events =
  List.filter (fun ev -> jstr "type" ev = Some "iteration") events

(* A triggered iteration that contributed nothing (no fresh coverage, no
   new findings) — crashing it must leave the campaign's stats unchanged. *)
let find_quiet_triggered ~min_iter events =
  let candidate ev =
    jbool "phase1_triggered" ev = Some true
    && jint "coverage_delta" ev = Some 0
    && jint "new_findings" ev = Some 0
    && match jint "iteration" ev with Some i -> i >= min_iter | None -> false
  in
  match List.find_opt candidate (iteration_events events) with
  | Some ev -> Option.get (jint "iteration" ev)
  | None -> Alcotest.fail "no quiet triggered iteration in the probe run"

let test_campaign_crash_isolation () =
  let options = base_options 25 3 in
  let reference, events = run_with_events options in
  let k = find_quiet_triggered ~min_iter:1 events in
  let resilience =
    { Campaign.no_resilience with
      Campaign.rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 5; f_action = Fault.Crash "boom" } ] }
  in
  let crashes_counter =
    Metrics.counter Metrics.default "dvz_harness_crashes_total"
  in
  let before = Metrics.counter_value crashes_counter in
  let faulted, fevents = run_with_events ~resilience options in
  (* The crashed iteration is isolated and every surviving iteration is
     bit-identical: all result-bearing stats fields match the reference. *)
  Alcotest.(check bool) "curve identical" true
    (faulted.Campaign.s_coverage_curve = reference.Campaign.s_coverage_curve);
  Alcotest.(check bool) "findings identical" true
    (faulted.Campaign.s_findings = reference.Campaign.s_findings);
  Alcotest.(check bool) "first bug identical" true
    (faulted.Campaign.s_first_bug = reference.Campaign.s_first_bug);
  Alcotest.(check int) "coverage identical" reference.Campaign.s_final_coverage
    faulted.Campaign.s_final_coverage;
  Alcotest.(check int) "triggered identical" reference.Campaign.s_triggered
    faulted.Campaign.s_triggered;
  (match faulted.Campaign.s_crashes with
  | [ c ] ->
      Alcotest.(check int) "crash at the faulted iteration" k
        c.Campaign.cr_iteration;
      Alcotest.(check bool) "crash names the exception" true
        (contains c.Campaign.cr_exn "boom");
      Alcotest.(check bool) "crash records the seed" true
        (c.Campaign.cr_seed <> None)
  | l -> Alcotest.failf "expected 1 crash, got %d" (List.length l));
  Alcotest.(check int) "always-on crash counter" (before + 1)
    (Metrics.counter_value crashes_counter);
  Alcotest.(check bool) "harness_crash event emitted" true
    (List.exists (fun ev -> jstr "type" ev = Some "harness_crash") fevents);
  Alcotest.(check bool) "fault_injected event emitted" true
    (List.exists (fun ev -> jstr "type" ev = Some "fault_injected") fevents)

let test_campaign_hang_becomes_timeout () =
  let options = base_options 25 3 in
  let _, events = run_with_events options in
  let k = find_quiet_triggered ~min_iter:1 events in
  let resilience =
    { Campaign.no_resilience with
      Campaign.rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 3; f_action = Fault.Hang } ];
      rz_budget = Some (Dualcore.budget ~max_slots:2000 ()) }
  in
  let stats, events = run_with_events ~resilience options in
  Alcotest.(check int) "one timeout verdict" 1 stats.Campaign.s_timeouts;
  Alcotest.(check int) "no crashes" 0 (List.length stats.Campaign.s_crashes);
  Alcotest.(check bool) "watchdog_timeout event" true
    (List.exists (fun ev -> jstr "type" ev = Some "watchdog_timeout") events);
  Alcotest.(check int) "campaign completed" options.Campaign.iterations
    (Array.length stats.Campaign.s_coverage_curve)

let test_campaign_kill_and_resume_bit_identical () =
  let options = base_options 30 3 in
  let reference, events = run_with_events options in
  (* Kill after at least one checkpoint (period 10) has been written. *)
  let k = find_quiet_triggered ~min_iter:11 events in
  let ck = temp_path "dvz_ck" in
  let kill_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 0; f_action = Fault.Kill "die" } ] }
  in
  (match Campaign.run ~resilience:kill_rz boom options with
  | _ -> Alcotest.fail "injected kill did not propagate"
  | exception Fault.Killed { iteration; _ } ->
      Alcotest.(check int) "killed at the planned iteration" k iteration);
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
  let resume_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_resume = Some ck }
  in
  let resumed, revents = run_with_events ~resilience:resume_rz options in
  Alcotest.(check bool) "stats bit-identical after kill+resume" true
    (resumed = reference);
  Alcotest.(check string) "report byte-identical"
    (Dejavuzz.Report.summary reference)
    (Dejavuzz.Report.summary resumed);
  Alcotest.(check bool) "resume event emitted" true
    (List.exists (fun ev -> jstr "type" ev = Some "resume") revents);
  Alcotest.(check bool) "checkpoint events emitted" true
    (List.exists (fun ev -> jstr "type" ev = Some "checkpoint") revents);
  Sys.remove ck

let test_campaign_kill_and_resume_parallel () =
  (* Same discipline as above, but the batched engine runs on 3 jobs and
     the checkpoint is taken at a batch boundary; resuming on 1 job must
     reproduce the uninterrupted run exactly — checkpoints carry no trace
     of the domain count that wrote them. *)
  let options = { (base_options 30 3) with Campaign.batch = 4 } in
  let reference, events = run_with_events options in
  (* Batches end at 4,8,12,...,28,30; checkpoint period 10 fires at the
     boundaries 12, 20 and 30.  Kill past the first of those. *)
  let k = find_quiet_triggered ~min_iter:13 events in
  let ck = temp_path "dvz_pck" in
  let kill_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 0; f_action = Fault.Kill "die" } ] }
  in
  (match Campaign.run ~resilience:kill_rz ~jobs:3 boom options with
  | _ -> Alcotest.fail "injected kill did not propagate"
  | exception Fault.Killed { iteration; _ } ->
      Alcotest.(check int) "killed at the planned iteration" k iteration);
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
  let resume_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_resume = Some ck }
  in
  let resumed, revents = run_with_events ~resilience:resume_rz ~jobs:1 options in
  Alcotest.(check bool) "stats bit-identical after parallel kill+resume" true
    (resumed = reference);
  Alcotest.(check bool) "resume event emitted" true
    (List.exists (fun ev -> jstr "type" ev = Some "resume") revents);
  Sys.remove ck

let test_campaign_kill_flushes_event_log () =
  (* A campaign killed mid-run must not lose the buffered tail of its
     JSONL event log: the abnormal-exit path flushes the sink before the
     fault propagates, so every folded iteration is on disk when the
     process dies.  Resume from the checkpoint afterwards to close the
     loop. *)
  let options = base_options 30 3 in
  let reference, events = run_with_events options in
  let k = find_quiet_triggered ~min_iter:11 events in
  let ck = temp_path "dvz_flush" in
  let log = Filename.temp_file "dvz_flush" ".jsonl" in
  let oc = open_out log in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Events.to_channel oc }
  in
  let kill_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 0; f_action = Fault.Kill "die" } ] }
  in
  (match Campaign.run ~telemetry ~resilience:kill_rz boom options with
  | _ -> Alcotest.fail "injected kill did not propagate"
  | exception Fault.Killed _ -> ());
  (* Read the file NOW, before closing the channel: only the flush on
     the campaign's abnormal-exit path can have written the tail. *)
  let written = In_channel.with_open_bin log In_channel.input_all in
  close_out oc;
  (match Json.of_lines written with
  | Error e -> Alcotest.failf "killed log not valid JSONL: %s" e
  | Ok evs ->
      let last_folded =
        List.fold_left
          (fun acc ev ->
            match (jstr "type" ev, jint "iteration" ev) with
            | Some "iteration", Some i -> max acc i
            | _ -> acc)
          0 evs
      in
      Alcotest.(check int) "every iteration before the kill is on disk"
        (k - 1) last_folded);
  let resume_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_resume = Some ck }
  in
  let resumed, _ = run_with_events ~resilience:resume_rz options in
  Alcotest.(check bool) "kill+resume still bit-identical" true
    (resumed = reference);
  Sys.remove ck;
  Sys.remove log

(* Resume re-emits the checkpointed findings so that a resumed run's
   event log stands alone: replaying it must print exactly what an
   uninterrupted run prints (its summary, then its Table-5 block). *)
let test_campaign_resumed_log_replays () =
  let options = base_options 30 3 in
  let reference, events = run_with_events options in
  let k = find_quiet_triggered ~min_iter:11 events in
  Alcotest.(check bool) "a finding precedes the first checkpoint" true
    (List.exists
       (fun f -> f.Campaign.fd_iteration < 10)
       reference.Campaign.s_findings);
  let ck = temp_path "dvz_replay" in
  let kill_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 0; f_action = Fault.Kill "die" } ] }
  in
  (match Campaign.run ~resilience:kill_rz boom options with
  | _ -> Alcotest.fail "injected kill did not propagate"
  | exception Fault.Killed _ -> ());
  let resume_rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 10;
      rz_resume = Some ck }
  in
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Events.to_buffer buf }
  in
  ignore (Campaign.run ~telemetry ~resilience:resume_rz boom options);
  Sys.remove ck;
  let expected =
    Dejavuzz.Report.summary reference
    ^ Dejavuzz.Report.table5 ~core_name:boom.Cfg.name
        reference.Campaign.s_findings
  in
  match Dejavuzz.Replay.of_string (Buffer.contents buf) with
  | Ok text ->
      Alcotest.(check string) "replayed resumed log = uninterrupted output"
        expected text
  | Error e -> Alcotest.failf "resumed log does not replay: %s" e

let test_campaign_resume_missing_file_starts_fresh () =
  let options = base_options 12 4 in
  let reference = Campaign.run boom options in
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_resume = Some (temp_path "dvz_missing") }
  in
  let fresh = Campaign.run ~resilience:rz boom options in
  Alcotest.(check bool) "fresh run equals reference" true (fresh = reference)

let test_campaign_resume_rejects_mismatch () =
  let ck = temp_path "dvz_mismatch" in
  let options = base_options 10 5 in
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 5 }
  in
  ignore (Campaign.run ~resilience:rz boom options);
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ck);
  let resume_rz = { Campaign.no_resilience with Campaign.rz_resume = Some ck } in
  (* Different options: the checkpoint must be refused, not half-used. *)
  (match Campaign.run ~resilience:resume_rz boom (base_options 10 6) with
  | _ -> Alcotest.fail "mismatched checkpoint accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "explains the mismatch" true
        (contains msg "different campaign options"));
  (match Campaign.run ~resilience:resume_rz Cfg.xiangshan_minimal options with
  | _ -> Alcotest.fail "wrong-core checkpoint accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the cores" true (contains msg "core"));
  Sys.remove ck

let test_campaign_bad_checkpoint_classified () =
  (* Corruption raises [Bad_checkpoint] (path + reason + advice, for the
     CLI's dedicated exit code and the fleet's .prev fallback) — a
     different failure class from the [Invalid_argument] flag
     mismatches above. *)
  let ck = temp_path "dvz_badck" in
  let options = base_options 10 5 in
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 5 }
  in
  ignore (Campaign.run ~resilience:rz boom options);
  let raw = In_channel.with_open_bin ck In_channel.input_all in
  Out_channel.with_open_bin ck (fun oc ->
      Out_channel.output_string oc ("XX" ^ String.sub raw 2 (String.length raw - 2)));
  let resume_rz = { Campaign.no_resilience with Campaign.rz_resume = Some ck } in
  (match Campaign.run ~resilience:resume_rz boom options with
  | _ -> Alcotest.fail "corrupt checkpoint accepted"
  | exception Campaign.Bad_checkpoint { bc_path; bc_reason; bc_advice } ->
      Alcotest.(check string) "names the file" ck bc_path;
      Alcotest.(check bool) "reason non-empty" true (bc_reason <> "");
      Alcotest.(check bool) "advice suggests recovery" true
        (contains bc_advice "delete" || contains bc_advice "--checkpoint");
      Alcotest.(check bool) "printable message" true
        (contains
           (Campaign.bad_checkpoint_message ~path:bc_path ~reason:bc_reason
              ~advice:bc_advice)
           "cannot resume"));
  Sys.remove ck

(* A coverage point of a module this build does not have is an
   incompatible layout: [Bad_checkpoint], naming the tag, not a crash. *)
let test_campaign_unknown_tag_checkpoint () =
  let ck = temp_path "dvz_badtag" in
  let options = base_options 10 5 in
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some ck;
      rz_checkpoint_every = 5 }
  in
  ignore (Campaign.run ~resilience:rz boom options);
  let magic = "dejavuzz-campaign" in
  let version, payload =
    match Snapshot.load_checked ~path:ck ~magic with
    | Ok vp -> vp
    | Error e -> Alcotest.failf "checkpoint unreadable: %s" (Snapshot.describe e)
  in
  (* Rename the dcache bank tags in place: same length, so the marshalled
     strings stay well-formed and only the tags change. *)
  let tag = "lsu.dcache.bank" and bogus = "lsu.dcache.bunk" in
  Alcotest.(check bool) "checkpoint covers a dcache bank" true
    (contains payload tag);
  let renamed = Bytes.of_string payload in
  let n = String.length tag in
  for i = 0 to String.length payload - n do
    if String.sub payload i n = tag then Bytes.blit_string bogus 0 renamed i n
  done;
  Snapshot.save ~path:ck ~magic ~version (Bytes.to_string renamed);
  let resume_rz = { Campaign.no_resilience with Campaign.rz_resume = Some ck } in
  (match Campaign.run ~resilience:resume_rz boom options with
  | _ -> Alcotest.fail "unknown coverage tag accepted"
  | exception Campaign.Bad_checkpoint { bc_reason; _ } ->
      Alcotest.(check bool) "names the tag" true
        (contains bc_reason "unknown module tag \"lsu.dcache.bunk"));
  Sys.remove ck

(* The checkpoint bytes of
   [fuzz -n 40 --seed 5 --batch 8 --checkpoint-every 10] (the CLI's
   default core and 50,000-slot watchdog), run in-process.  In-build
   comparisons (fleet against --jobs 1, kill and resume) cannot see a
   change every build makes alike, such as the order of the coverage
   list; this digest can.  A deliberate change of the checkpoint's
   contents re-records it. *)
let test_checkpoint_bytes_golden () =
  let ck = temp_path "dvz_golden" in
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_budget = Some (Dualcore.budget ~max_slots:50_000 ());
      rz_checkpoint = Some ck;
      rz_checkpoint_every = 10 }
  in
  ignore
    (Campaign.run ~resilience:rz boom
       { Campaign.default_options with
         Campaign.iterations = 40; rng_seed = 5; batch = 8 });
  Alcotest.(check string) "checkpoint digest"
    "65d6160ebb76ad5a4695b30db8f72caa"
    (Digest.to_hex (Digest.file ck));
  Sys.remove ck

let test_campaign_crash_artifact_written () =
  let options = base_options 25 3 in
  let _, events = run_with_events options in
  let k = find_quiet_triggered ~min_iter:1 events in
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dvz_crashes_%d" (Unix.getpid ())) in
  let resilience =
    { Campaign.no_resilience with
      Campaign.rz_fault_plan =
        [ { Fault.f_iteration = k; f_cycle = 5; f_action = Fault.Crash "boom" } ];
      rz_crash_dir = Some dir }
  in
  ignore (Campaign.run ~resilience boom options);
  let artifact = Filename.concat dir (Printf.sprintf "crash-%04d.json" k) in
  Alcotest.(check bool) "artifact exists" true (Sys.file_exists artifact);
  let text = In_channel.with_open_text artifact In_channel.input_all in
  (match Json.of_string (String.trim text) with
  | Ok ev ->
      Alcotest.(check (option int)) "iteration recorded" (Some k)
        (jint "iteration" ev);
      Alcotest.(check bool) "exception recorded" true
        (match jstr "exn" ev with Some e -> contains e "boom" | None -> false)
  | Error e -> Alcotest.failf "artifact is not JSON: %s" e);
  Sys.remove artifact;
  Unix.rmdir dir

let test_with_suffix () =
  let rz =
    { Campaign.no_resilience with
      Campaign.rz_checkpoint = Some "/tmp/ck";
      rz_resume = Some "/tmp/ck" }
  in
  let rz' = Campaign.with_suffix rz "BOOM" in
  Alcotest.(check (option string)) "checkpoint suffixed" (Some "/tmp/ck.BOOM")
    rz'.Campaign.rz_checkpoint;
  Alcotest.(check (option string)) "resume suffixed" (Some "/tmp/ck.BOOM")
    rz'.Campaign.rz_resume;
  Alcotest.(check (option string)) "crash dir untouched" None
    rz'.Campaign.rz_crash_dir

let () =
  Alcotest.run "dvz_resilience"
    [ ( "snapshot",
        [ Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_snapshot_detects_corruption;
          Alcotest.test_case "magic and truncation" `Quick
            test_snapshot_magic_and_truncation;
          Alcotest.test_case "structured errors and advice" `Quick
            test_snapshot_structured_errors;
          Alcotest.test_case "prev rotation" `Quick
            test_snapshot_prev_rotation ] );
      ( "fault",
        [ Alcotest.test_case "parse roundtrip" `Quick test_fault_parse_roundtrip;
          Alcotest.test_case "arm/tick/drain" `Quick test_fault_arm_tick_drain ] );
      ( "hooks",
        [ Alcotest.test_case "sim on_cycle" `Quick test_sim_on_cycle_hook;
          Alcotest.test_case "sim error messages" `Quick test_sim_error_messages;
          Alcotest.test_case "dualcore arity message" `Quick
            test_dualcore_arity_message ] );
      ( "parallel",
        [ Alcotest.test_case "exception propagation" `Quick
            test_parallel_preserves_exception ] );
      ( "watchdog",
        [ Alcotest.test_case "slot budget" `Quick test_watchdog_slot_budget;
          Alcotest.test_case "wall budget" `Quick test_watchdog_wall_budget;
          Alcotest.test_case "wall budget must be positive" `Quick
            test_watchdog_wall_budget_positive;
          Alcotest.test_case "hang fault" `Quick test_hang_fault_needs_watchdog;
          Alcotest.test_case "corrupt fault" `Quick
            test_corrupt_fault_skews_instance_b;
          Alcotest.test_case "oracle timeout verdict" `Quick
            test_oracle_timeout_verdict ] );
      ( "state",
        [ Alcotest.test_case "rng state roundtrip" `Quick test_rng_state_roundtrip;
          Alcotest.test_case "coverage list roundtrip" `Quick
            test_coverage_list_roundtrip ] );
      ( "campaign",
        [ Alcotest.test_case "crash isolation" `Quick test_campaign_crash_isolation;
          Alcotest.test_case "hang becomes timeout" `Quick
            test_campaign_hang_becomes_timeout;
          Alcotest.test_case "kill and resume bit-identical" `Quick
            test_campaign_kill_and_resume_bit_identical;
          Alcotest.test_case "kill and resume under jobs" `Quick
            test_campaign_kill_and_resume_parallel;
          Alcotest.test_case "kill flushes the event log" `Quick
            test_campaign_kill_flushes_event_log;
          Alcotest.test_case "resumed log replays" `Quick
            test_campaign_resumed_log_replays;
          Alcotest.test_case "resume missing file" `Quick
            test_campaign_resume_missing_file_starts_fresh;
          Alcotest.test_case "resume rejects mismatch" `Quick
            test_campaign_resume_rejects_mismatch;
          Alcotest.test_case "unknown coverage tag" `Quick
            test_campaign_unknown_tag_checkpoint;
          Alcotest.test_case "checkpoint bytes golden" `Quick
            test_checkpoint_bytes_golden;
          Alcotest.test_case "bad checkpoint classified" `Quick
            test_campaign_bad_checkpoint_classified;
          Alcotest.test_case "crash artifact" `Quick
            test_campaign_crash_artifact_written;
          Alcotest.test_case "with_suffix" `Quick test_with_suffix ] ) ]
