module Campaign = Dejavuzz.Campaign
module Dualcore = Dvz_uarch.Dualcore
module Packet = Dejavuzz.Packet

type result = {
  diffift : Campaign.stats;
  cellift : Campaign.stats;
  diffift_mean_taint : float;
  cellift_mean_taint : float;
}

(* Mean final taint population over the five curated attacks. *)
let mean_taint cfg mode =
  let secret = Array.make Dvz_soc.Layout.secret_dwords 0xA11 in
  let totals =
    List.map
      (fun name ->
        let tc = Attacks.build cfg name in
        let r =
          Dualcore.run (Dualcore.create ~mode cfg (Packet.stimulus ~secret tc))
        in
        float_of_int (List.length r.Dualcore.r_final_tainted))
      Attacks.all
  in
  Dvz_util.Stats.mean totals

let run ?(telemetry = Campaign.quiet) ?(iterations = 400) ?(rng_seed = 17)
    ?jobs ?(batch = 1) cfg =
  let campaign telemetry mode =
    (* Both mode campaigns share the sink/board; events and progress
       lines are labelled so the streams stay separable, and the event
       lines reach the sink diffIFT first, then CellIFT. *)
    let name = Dvz_ift.Policy.mode_name mode in
    let telemetry =
      Campaign.label telemetry ~prefix:name
        [ ("mode", Dvz_obs.Json.Str name) ]
    in
    Campaign.run ~telemetry ?jobs cfg
      { Campaign.default_options with
        Campaign.iterations; rng_seed; taint_mode = mode; batch }
  in
  let results =
    Campaign.map_nested telemetry
      (fun telemetry mode -> (campaign telemetry mode, mean_taint cfg mode))
      [ Dvz_ift.Policy.Diffift; Dvz_ift.Policy.Cellift ]
  in
  match results with
  | [ (diffift, dt); (cellift, ct) ] ->
      { diffift; cellift; diffift_mean_taint = dt; cellift_mean_taint = ct }
  | _ -> assert false

let render r =
  Printf.sprintf
    "Ablation: diffIFT vs CellIFT as the fuzzing substrate\n\n\
    \  mean final taint population:  diffIFT %.0f   CellIFT %.0f (%.1fx)\n\
    \  reported leak classes:        diffIFT %d   CellIFT %d\n\
    \  coverage points:              diffIFT %d   CellIFT %d\n\
    \  CellIFT's rollback explosion multiplies the tracked taint population\n\
    \  (the Table 4 slowdown and Figure 6 saturation) and pads the coverage\n\
    \  matrix with explosion artifacts that carry no secret-flow information;\n\
    \  the liveness oracle and encode sanitization absorb most of the noise\n\
    \  at the verdict level, at the cost of every run paying for the blast\n\
    \  radius.\n"
    r.diffift_mean_taint r.cellift_mean_taint
    (r.cellift_mean_taint /. max 1.0 r.diffift_mean_taint)
    (List.length r.diffift.Campaign.s_findings)
    (List.length r.cellift.Campaign.s_findings)
    r.diffift.Campaign.s_final_coverage r.cellift.Campaign.s_final_coverage
