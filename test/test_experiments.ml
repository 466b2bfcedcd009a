(* Integration tests for Dvz_experiments: the curated attack suite and the
   per-table/figure harnesses, checking the shape properties the paper's
   evaluation reports. *)

module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet
module E = Dvz_experiments

let boom = Cfg.boom_small
let xs = Cfg.xiangshan_minimal

let test_attacks_build_everywhere () =
  List.iter
    (fun cfg ->
      List.iter
        (fun name ->
          let tc = E.Attacks.build cfg name in
          Alcotest.(check bool)
            (cfg.Cfg.name ^ "/" ^ E.Attacks.to_string name ^ " triggers")
            true
            (Dejavuzz.Trigger_opt.evaluate cfg tc))
        E.Attacks.all)
    [ boom; xs ]

let test_attacks_access_secret () =
  List.iter
    (fun name ->
      let tc = E.Attacks.build boom name in
      let stim = Packet.stimulus ~secret:E.Attacks.secret tc in
      let r = Dualcore.run (Dualcore.create boom stim) in
      Alcotest.(check bool)
        (E.Attacks.to_string name ^ " reaches the secret")
        true
        (List.exists
           (fun w ->
             w.Core.wr_in_transient_blob && w.Core.wr_secret_accessed)
           r.Dualcore.r_windows_a))
    E.Attacks.all

let test_meltdown_is_privileged () =
  let tc = E.Attacks.build boom E.Attacks.Meltdown in
  let stim = Packet.stimulus ~secret:E.Attacks.secret tc in
  let r = Dualcore.run (Dualcore.create boom stim) in
  Alcotest.(check bool) "privilege-violating access" true
    (List.exists (fun w -> w.Core.wr_secret_fault) r.Dualcore.r_windows_a)

let test_fig6_shape () =
  let series = E.Fig6.run () in
  Alcotest.(check int) "15 series (5 cases x 3 modes)" 15 (List.length series);
  (* per test case: CellIFT peak strictly above diffIFT peak, and the FN
     variant at or below diffIFT *)
  List.iter
    (fun case ->
      let find mode =
        List.find
          (fun s -> s.E.Fig6.s_case = case && s.E.Fig6.s_mode = mode)
          series
      in
      let peak s = Array.fold_left max 0 s.E.Fig6.s_totals in
      let cell = peak (find "CellIFT") in
      let diff = peak (find "diffIFT") in
      let fn = peak (find "diffIFT-FN") in
      Alcotest.(check bool) (case ^ ": cellift explodes") true (cell > diff);
      Alcotest.(check bool) (case ^ ": fn at or below diffift") true (fn <= diff);
      Alcotest.(check bool) (case ^ ": taints grew at all") true
        (diff > Dvz_soc.Layout.secret_dwords))
    (List.map E.Attacks.to_string E.Attacks.all);
  (* every series saw a transient window *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s.E.Fig6.s_case ^ " windowed") true
        (s.E.Fig6.s_window <> None))
    series

(* The population checks of the retired taint log's tests, on every
   Figure 6 series ([Fig6.population]): one value per slot of
   [Dualcore.run] on the same stimulus, every value counting the planted
   secret words, the last value the run's final taint, and the window
   range inside the run. *)
let test_fig6_population () =
  let series = E.Fig6.run () in
  List.iter
    (fun name ->
      List.iter
        (fun (mode, fn) ->
          let case = E.Attacks.to_string name in
          let mode_name =
            Dvz_ift.Policy.mode_name mode ^ (if fn then "-FN" else "")
          in
          let label = case ^ " " ^ mode_name ^ ": " in
          let s =
            List.find
              (fun s -> s.E.Fig6.s_case = case && s.E.Fig6.s_mode = mode_name)
              series
          in
          let stim =
            Packet.stimulus ~secret:E.Attacks.secret (E.Attacks.build boom name)
          in
          let secret_b = if fn then Some E.Attacks.secret else None in
          let r = Dualcore.run (Dualcore.create ~mode ?secret_b boom stim) in
          let n = r.Dualcore.r_slots and totals = s.E.Fig6.s_totals in
          Alcotest.(check int) (label ^ "one value per slot") n
            (Array.length totals);
          Alcotest.(check bool) (label ^ "secret words tainted throughout")
            true
            (Array.for_all (fun v -> v >= Dvz_soc.Layout.secret_dwords) totals);
          Alcotest.(check int) (label ^ "last value is the final taint")
            (List.length r.Dualcore.r_final_tainted)
            totals.(n - 1);
          match s.E.Fig6.s_window with
          | Some (first, last) ->
              Alcotest.(check bool) (label ^ "window inside the run") true
                (0 <= first && first <= last && last < n)
          | None -> Alcotest.fail (label ^ "no window"))
        [ (Dvz_ift.Policy.Cellift, false);
          (Dvz_ift.Policy.Diffift, false);
          (Dvz_ift.Policy.Diffift, true) ])
    E.Attacks.all

let test_table3_shape () =
  let rows = E.Table3.run ~samples:8 ~rng_seed:99 () in
  Alcotest.(check int) "five rows" 5 (List.length rows);
  let dv_boom = List.find (fun r -> r.E.Table3.r_core = "BOOM" && r.E.Table3.r_fuzzer = "DejaVuzz") rows in
  (* DejaVuzz: zero overhead on exception windows, nonzero on mispredictions *)
  List.iter
    (fun (kind, cell) ->
      match cell with
      | Some c when Seed.is_exception kind && kind <> Seed.T_illegal ->
          Alcotest.(check (float 0.001)) (Seed.kind_name kind ^ " TO=0") 0.0
            c.E.Table3.c_to
      | Some c when kind = Seed.T_branch ->
          Alcotest.(check bool) "branch needs alignment nops" true
            (c.E.Table3.c_to > 20.0);
          Alcotest.(check bool) "branch ETO small" true (c.E.Table3.c_eto < 10.0)
      | Some _ -> ()
      | None ->
          Alcotest.(check bool)
            (Seed.kind_name kind ^ " only illegal may fail on BOOM")
            true (kind = Seed.T_illegal))
    dv_boom.E.Table3.r_cells;
  (* SpecDoctor: unsupported types are x, supported ones cost ~100+ *)
  let sd = List.find (fun r -> r.E.Table3.r_fuzzer = "SpecDoctor") rows in
  List.iter
    (fun (kind, cell) ->
      match cell with
      | None ->
          Alcotest.(check bool)
            (Seed.kind_name kind ^ " unsupported")
            false
            (Array.exists (( = ) kind) Dvz_baselines.Specdoctor.supported)
      | Some c ->
          Alcotest.(check bool) (Seed.kind_name kind ^ " expensive") true
            (c.E.Table3.c_to > 50.0))
    sd.E.Table3.r_cells;
  (* DejaVuzz* on XiangShan cannot trigger indirect-jump windows *)
  let star_xs =
    List.find
      (fun r -> r.E.Table3.r_core = "XiangShan" && r.E.Table3.r_fuzzer = "DejaVuzz*")
      rows
  in
  Alcotest.(check bool) "tagged BTB defeats random training" true
    (List.assoc Seed.T_jump star_xs.E.Table3.r_cells = None);
  ignore (E.Table3.render rows)

let test_table4_shape () =
  let r = E.Table4.run ~reps:3 boom in
  Alcotest.(check bool) "cellift compile slower than diffift" true
    (r.E.Table4.compile.E.Table4.cellift > r.E.Table4.compile.E.Table4.diffift);
  Alcotest.(check int) "five simulated cases" 5 (List.length r.E.Table4.sims);
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) (name ^ ": diffift costs more than base") true
        (t.E.Table4.base > 0.0 && t.E.Table4.diffift > t.E.Table4.base);
      Alcotest.(check bool) (name ^ ": cellift at least as heavy as diffift")
        true
        (t.E.Table4.cellift >= 0.5 *. t.E.Table4.diffift))
    r.E.Table4.sims;
  ignore (E.Table4.render [ r ])

let test_fig7_shape () =
  let r = E.Fig7.run ~iterations:60 ~trials:2 ~rng_seed:5 boom in
  Alcotest.(check int) "three curves" 3 (List.length r.E.Fig7.curves);
  Alcotest.(check bool) "DejaVuzz beats SpecDoctor" true
    (r.E.Fig7.ratio_vs_specdoctor > 1.0);
  Alcotest.(check bool) "coverage guidance helps or matches" true
    (r.E.Fig7.ratio_vs_minus >= 0.85);
  ignore (E.Fig7.render r)

let test_table5_shape () =
  let r = E.Table5.run ~iterations:120 ~rng_seed:7 boom in
  let findings = r.E.Table5.stats.Dejavuzz.Campaign.s_findings in
  Alcotest.(check bool) "bugs found" true (findings <> []);
  Alcotest.(check bool) "first bug early" true
    (match r.E.Table5.stats.Dejavuzz.Campaign.s_first_bug with
    | Some i -> i < 60
    | None -> false);
  ignore (E.Table5.render [ r ])

(* An event log with the wall-clock fields removed, one string a line. *)
let strip_timing log =
  match Dvz_obs.Json.of_lines log with
  | Error e -> Alcotest.failf "unparseable event log: %s" e
  | Ok events ->
      List.map
        (function
          | Dvz_obs.Json.Obj fields ->
              Dvz_obs.Json.to_string
                (Dvz_obs.Json.Obj
                   (List.filter
                      (fun (k, _) ->
                        not
                          (List.mem k
                             [ "phase1_s"; "phase2_s"; "phase3_s";
                               "elapsed_s" ]))
                      fields))
          | ev -> Dvz_obs.Json.to_string ev)
        events

(* The per-core campaigns of [run_many] share one sink on parallel
   domains, yet its log is each core's log in list order — exactly what
   [Table5.run] writes for each core alone — whatever the domain count. *)
let test_table5_nested_log () =
  let log run =
    let buf = Buffer.create 65536 in
    run
      { Dejavuzz.Campaign.quiet with
        Dejavuzz.Campaign.t_events = Dvz_obs.Events.to_buffer buf };
    strip_timing (Buffer.contents buf)
  in
  let many =
    log (fun telemetry ->
        ignore
          (E.Table5.run_many ~iterations:30 ~rng_seed:5 ~telemetry
             [ boom; xs ]))
  in
  let alone =
    List.concat_map
      (fun cfg ->
        log (fun telemetry ->
            ignore (E.Table5.run ~iterations:30 ~rng_seed:5 ~telemetry cfg)))
      [ boom; xs ]
  in
  Alcotest.(check bool) "both cores logged" true (List.length alone > 60);
  Alcotest.(check (list string)) "run_many log = the cores' logs in order"
    alone many

let test_liveness_shape () =
  let r = E.Liveness_eval.run ~iterations:50 ~rng_seed:9 boom in
  Alcotest.(check bool) "candidates found" true (r.E.Liveness_eval.candidates > 0);
  Alcotest.(check bool) "false positives exist" true
    (r.E.Liveness_eval.false_positives > 0);
  Alcotest.(check int) "partition sums" r.E.Liveness_eval.candidates
    (r.E.Liveness_eval.real_leaks + r.E.Liveness_eval.false_positives);
  Alcotest.(check int) "ablated partition sums" r.E.Liveness_eval.candidates
    (r.E.Liveness_eval.no_liveness_correct + r.E.Liveness_eval.no_liveness_wrong);
  ignore (E.Liveness_eval.render r)

let test_bugcheck_all_detected () =
  List.iter
    (fun bug ->
      let cfg = E.Bugcheck.vulnerable_core bug in
      let v = E.Bugcheck.check cfg bug in
      Alcotest.(check bool) (E.Bugcheck.name bug ^ " detected") true
        v.E.Bugcheck.v_detected;
      Alcotest.(check bool)
        (E.Bugcheck.name bug ^ " attributes "
        ^ E.Bugcheck.expected_component bug)
        true
        (List.mem (E.Bugcheck.expected_component bug)
           v.E.Bugcheck.v_components))
    E.Bugcheck.all

let test_bugcheck_controls_clean () =
  List.iter
    (fun bug ->
      match E.Bugcheck.immune_core bug with
      | None -> ()
      | Some immune ->
          let v = E.Bugcheck.check immune bug in
          Alcotest.(check bool)
            (E.Bugcheck.name bug ^ " control lacks the component")
            false
            (List.mem (E.Bugcheck.expected_component bug)
               v.E.Bugcheck.v_components))
    E.Bugcheck.all

let test_bugcheck_b1_is_meltdown () =
  let v = E.Bugcheck.check (E.Bugcheck.vulnerable_core E.Bugcheck.B1) E.Bugcheck.B1 in
  Alcotest.(check bool) "privilege-crossing" true
    (v.E.Bugcheck.v_attack = Some `Meltdown)

(* [Core.finish] builds no effect event, but it must make every state
   transition [Core.run] makes.  Each PoC drives one planted mechanism:
   B1's sampling forward, B2's top-only RAS recovery, B3's BTB update on
   an exception squash after a transient jalr, B4's fetch-port stall and
   B5's write-back port contention. *)
let test_bugcheck_finish_matches_run () =
  let secret = Array.make Dvz_soc.Layout.secret_dwords 0xB16B00B5 in
  List.iter
    (fun bug ->
      List.iter
        (fun cfg ->
          let stim () = Packet.stimulus ~secret (E.Bugcheck.poc cfg bug) in
          let loud = Core.create cfg (stim ()) in
          let slots = Core.run loud in
          let quiet = Core.create cfg (stim ()) in
          Core.finish quiet;
          let label what =
            Printf.sprintf "%s on %s: %s" (E.Bugcheck.name bug) cfg.Cfg.name
              what
          in
          let same what f =
            Alcotest.(check int) (label what) (f loud) (f quiet)
          in
          same "state hash" Core.state_hash;
          same "cycles" Core.cycles;
          same "committed" Core.committed;
          same "slots" Core.slot_count;
          Alcotest.(check int) (label "slots run") (List.length slots)
            (Core.slot_count quiet);
          Alcotest.(check bool) (label "windows") true
            (Core.windows loud = Core.windows quiet);
          for r = 0 to 31 do
            same
              (Printf.sprintf "x%d" r)
              (fun c -> Core.arch_reg c (Dvz_isa.Reg.x r))
          done)
        (E.Bugcheck.vulnerable_core bug
        :: Option.to_list (E.Bugcheck.immune_core bug)))
    E.Bugcheck.all

let test_ablation_shape () =
  let r = E.Ablation.run ~iterations:60 ~rng_seed:3 boom in
  Alcotest.(check bool) "cellift population explodes" true
    (r.E.Ablation.cellift_mean_taint > 2.0 *. r.E.Ablation.diffift_mean_taint);
  Alcotest.(check bool) "renders" true
    (String.length (E.Ablation.render r) > 0)

(* Counts below 1 are refused by name where they enter the library,
   instead of failing deep inside with an array error or printing a table
   of empty cells. *)
let check_refused what msg f =
  Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))

let test_fig7_refuses_zero_iterations () =
  check_refused "iterations" "Fig7.run: iterations must be at least 1"
    (fun () -> E.Fig7.run ~iterations:0 ~trials:1 boom)

let test_fig7_refuses_zero_trials () =
  check_refused "trials" "Fig7.run: trials must be at least 1" (fun () ->
      E.Fig7.run ~iterations:10 ~trials:0 boom)

let test_table4_refuses_zero_reps () =
  check_refused "reps" "Table4.run: reps must be at least 1" (fun () ->
      E.Table4.run ~reps:0 boom)

let test_table3_refuses_zero_samples () =
  check_refused "samples" "Table3.run: samples must be at least 1" (fun () ->
      E.Table3.run ~samples:0 ())

let test_table2_renders () =
  let s = E.Table2.render () in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions both cores" true
    (contains "BOOM" && contains "XiangShan")

let () =
  Alcotest.run "dvz_experiments"
    [ ( "attacks",
        [ Alcotest.test_case "build and trigger" `Quick
            test_attacks_build_everywhere;
          Alcotest.test_case "secret reached" `Quick test_attacks_access_secret;
          Alcotest.test_case "meltdown privileged" `Quick
            test_meltdown_is_privileged ] );
      ( "fig6",
        [ Alcotest.test_case "shape" `Quick test_fig6_shape;
          Alcotest.test_case "population per slot" `Quick
            test_fig6_population ] );
      ( "table3",
        [ Alcotest.test_case "shape" `Slow test_table3_shape;
          Alcotest.test_case "zero samples refused" `Quick
            test_table3_refuses_zero_samples ] );
      ( "table4",
        [ Alcotest.test_case "shape" `Quick test_table4_shape;
          Alcotest.test_case "zero reps refused" `Quick
            test_table4_refuses_zero_reps ] );
      ( "fig7",
        [ Alcotest.test_case "shape" `Slow test_fig7_shape;
          Alcotest.test_case "zero iterations refused" `Quick
            test_fig7_refuses_zero_iterations;
          Alcotest.test_case "zero trials refused" `Quick
            test_fig7_refuses_zero_trials ] );
      ( "table5",
        [ Alcotest.test_case "shape" `Slow test_table5_shape;
          Alcotest.test_case "nested log is per-core, in order" `Quick
            test_table5_nested_log ] );
      ( "liveness", [ Alcotest.test_case "shape" `Quick test_liveness_shape ] );
      ( "ablation", [ Alcotest.test_case "shape" `Slow test_ablation_shape ] );
      ( "bugcheck",
        [ Alcotest.test_case "all five detected" `Quick test_bugcheck_all_detected;
          Alcotest.test_case "controls clean" `Quick test_bugcheck_controls_clean;
          Alcotest.test_case "B1 is Meltdown" `Quick test_bugcheck_b1_is_meltdown;
          Alcotest.test_case "finish matches run on every PoC" `Quick
            test_bugcheck_finish_matches_run ] );
      ( "table2", [ Alcotest.test_case "render" `Quick test_table2_renders ] ) ]
