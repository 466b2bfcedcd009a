(* Quickstart: the complete DejaVuzz pipeline on one seed.

   Generates a Spectre-RSB-style trigger (Phase 1), derives and reduces its
   training packets, completes the transient window (Phase 2), runs the
   dual-DUT diffIFT testbench, and applies the Phase 3 oracles.

   Run with: dune exec examples/quickstart.exe *)

module Cfg = Dvz_uarch.Config
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet

let () =
  let cfg = Cfg.boom_small in
  Printf.printf "Target core: %s\n\n" cfg.Cfg.name;

  (* Phase 1: trigger generation + training derivation. *)
  let seed =
    { Seed.kind = Seed.T_return; trigger_entropy = 3; window_entropy = 42;
      tighten = false; mask_high = false }
  in
  let tc = Dejavuzz.Trigger_gen.generate cfg seed in
  Printf.printf "Phase 1: seed %s\n" (Seed.to_string seed);
  Printf.printf "  trigger at 0x%x, window at 0x%x, %d training packet(s)\n"
    tc.Packet.trigger_addr tc.Packet.window_addr
    (List.length tc.Packet.trigger_trainings);
  Printf.printf "  window triggers: %b\n" (Dejavuzz.Trigger_opt.evaluate cfg tc);

  (* Phase 1.2: training reduction. *)
  let tc, removed = Dejavuzz.Trigger_opt.reduce cfg tc in
  let total, effective = Packet.training_overhead tc in
  Printf.printf
    "  reduction dropped %d ineffective packet(s); TO=%d ETO=%d\n\n"
    removed total effective;

  (* Phase 2: window completion + diffIFT coverage. *)
  let tc = Dejavuzz.Window_gen.complete cfg tc in
  Printf.printf "Phase 2: window gadgets: %s\n"
    (String.concat ", " tc.Packet.gadget_tags);
  let secret = Array.make Dvz_soc.Layout.secret_dwords 0xBEEF in
  let analysis = Dejavuzz.Oracle.analyze cfg ~secret tc in
  let result = analysis.Dejavuzz.Oracle.a_result in
  (* Taint growth inside transient windows (the Phase 2 "sensitive data
     successfully propagated" signal), read slot by slot off a testbench
     stepped as Figure 6 steps one. *)
  let growth, _ =
    Array.fold_left
      (fun (growth, prev) (total, in_window) ->
        ((if in_window && total > prev then growth + total - prev else growth),
         total))
      (0, 0)
      (Dvz_experiments.Fig6.population
         (Dvz_uarch.Dualcore.create cfg (Packet.stimulus ~secret tc)))
  in
  Printf.printf "  slots=%d, windows(instance A)=%d, taint growth in windows=%d\n"
    result.Dvz_uarch.Dualcore.r_slots
    (List.length result.Dvz_uarch.Dualcore.r_windows_a)
    growth;
  let coverage = Dejavuzz.Coverage.create () in
  let fresh = Dejavuzz.Coverage.observe_result coverage result in
  Printf.printf "  taint coverage points: %d\n\n" fresh;

  (* Phase 3: oracles. *)
  Printf.printf "Phase 3:\n";
  (match analysis.Dejavuzz.Oracle.a_attack with
  | None -> Printf.printf "  no transient secret access\n"
  | Some `Meltdown -> Printf.printf "  attack type: Meltdown\n"
  | Some `Spectre -> Printf.printf "  attack type: Spectre\n");
  List.iter
    (fun leak ->
      match leak with
      | Dejavuzz.Oracle.Timing { pairs; components } ->
          Printf.printf "  TIMING LEAK via %s (%d divergent windows)\n"
            (String.concat ", " components)
            (List.length pairs)
      | Dejavuzz.Oracle.Encode { sinks; components } ->
          Printf.printf "  ENCODE LEAK via %s (%d live tainted sinks)\n"
            (String.concat ", " components)
            (List.length sinks))
    analysis.Dejavuzz.Oracle.a_leaks;
  if analysis.Dejavuzz.Oracle.a_leaks = [] then
    Printf.printf "  no exploitable leak for this window payload\n"
