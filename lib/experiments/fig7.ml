module Stats = Dvz_util.Stats
module Campaign = Dejavuzz.Campaign
module Variants = Dvz_baselines.Variants
module Sd = Dvz_baselines.Specdoctor

type curve = {
  cv_fuzzer : string;
  cv_mean : float array;
  cv_ci : float array;
}

type result = {
  curves : curve list;
  ratio_vs_specdoctor : float;
  ratio_vs_minus : float;
  iters_to_specdoctor : int option;
}

let aggregate name trials_curves =
  let iterations = Array.length (List.hd trials_curves) in
  let mean = Array.make iterations 0.0 and ci = Array.make iterations 0.0 in
  for i = 0 to iterations - 1 do
    let points = List.map (fun c -> float_of_int c.(i)) trials_curves in
    let m, half = Stats.ci95 points in
    mean.(i) <- m;
    ci.(i) <- half
  done;
  { cv_fuzzer = name; cv_mean = mean; cv_ci = ci }

let run ?(iterations = 1000) ?(trials = 5) ?(rng_seed = 7)
    ?(telemetry = Campaign.quiet) ?resilience ?jobs ?(batch = 1) cfg =
  (* Trials are independent deterministic computations: run them on
     parallel domains, as the paper's multi-threaded fuzzing manager runs
     its RTL simulation instances. *)
  let trial_seeds = List.init trials (fun t -> (t, rng_seed + (100 * t))) in
  (* One campaign per trial, sharing [telemetry]: every event and
     progress line is labelled with its origin, and the trials' event
     lines reach the shared sink in trial order. *)
  let campaigns fuzzer options =
    Campaign.map_nested telemetry
      (fun telemetry (t, s) ->
        let telemetry =
          Campaign.label telemetry
            ~prefix:(Printf.sprintf "%s/trial%d" fuzzer t)
            [ ("fuzzer", Dvz_obs.Json.Str fuzzer);
              ("trial", Dvz_obs.Json.Int t) ]
        in
        (* One checkpoint file per campaign, derived from the shared flag.
           SpecDoctor trials below have no campaign loop and don't
           checkpoint. *)
        let resilience =
          Option.map
            (fun rz ->
              Campaign.with_suffix rz (Printf.sprintf "%s.trial%d" fuzzer t))
            resilience
        in
        (Campaign.run ~telemetry ?resilience ?jobs cfg
           { (options ~iterations ~rng_seed:s) with Campaign.batch })
          .Campaign.s_coverage_curve)
      trial_seeds
  in
  let dejavuzz = campaigns "DejaVuzz" Variants.full_options in
  let minus = campaigns "DejaVuzz-" Variants.minus_options in
  let specdoctor =
    Dvz_util.Parallel.map
      (fun (_, s) ->
        (Sd.campaign ~rng_seed:s ~iterations cfg).Sd.sd_coverage_curve)
      trial_seeds
  in
  let curves =
    [ aggregate "DejaVuzz" dejavuzz;
      aggregate "DejaVuzz-" minus;
      aggregate "SpecDoctor" specdoctor ]
  in
  let final c = c.cv_mean.(iterations - 1) in
  let dv = List.nth curves 0 and mn = List.nth curves 1 and sd = List.nth curves 2 in
  let iters_to_specdoctor =
    let target = final sd in
    let rec find i =
      if i >= iterations then None
      else if dv.cv_mean.(i) >= target then Some i
      else find (i + 1)
    in
    find 0
  in
  { curves;
    ratio_vs_specdoctor = final dv /. max 1.0 (final sd);
    ratio_vs_minus = final dv /. max 1.0 (final mn);
    iters_to_specdoctor }

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Figure 7: taint coverage over fuzzing iterations\n";
  let iterations = Array.length (List.hd r.curves).cv_mean in
  let buckets = 20 in
  List.iter
    (fun c ->
      let pts =
        List.init buckets (fun i ->
            let idx = min (iterations - 1) ((i + 1) * iterations / buckets) in
            Printf.sprintf "%.0f±%.0f" c.cv_mean.(idx) c.cv_ci.(idx))
      in
      Buffer.add_string buf
        (Printf.sprintf "%-11s %s\n" c.cv_fuzzer (String.concat " " pts)))
    r.curves;
  Buffer.add_string buf
    (Printf.sprintf
       "final coverage: DejaVuzz/SpecDoctor = %.1fx (paper: 4.7x); \
        DejaVuzz/DejaVuzz- = %.2fx (paper: 1.22x)\n"
       r.ratio_vs_specdoctor r.ratio_vs_minus);
  Buffer.add_string buf
    (match r.iters_to_specdoctor with
    | Some i ->
        Printf.sprintf
          "DejaVuzz reaches SpecDoctor's saturation coverage in %d iterations \
           (paper: 118)\n"
          i
    | None -> "DejaVuzz did not reach SpecDoctor's final coverage\n");
  Buffer.contents buf
