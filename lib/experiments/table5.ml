module Cfg = Dvz_uarch.Config
module Campaign = Dejavuzz.Campaign
module Report = Dejavuzz.Report
module Oracle = Dejavuzz.Oracle
module Sd = Dvz_baselines.Specdoctor

type result = {
  core : string;
  stats : Campaign.stats;
  specdoctor_components : string list;
}

let specdoctor_reach cfg ~rng_seed =
  if cfg.Cfg.preset <> Cfg.Boom then []
  else begin
    (* Replay SpecDoctor's hash-difference candidates through the liveness
       oracle to see which components its stimuli actually reach. *)
    let st = Sd.campaign ~rng_seed ~iterations:100 cfg in
    let secret = Array.make Dvz_soc.Layout.secret_dwords 0x1234 in
    let comps =
      List.concat_map
        (fun c ->
          let a = Oracle.analyze cfg ~secret c.Sd.sc_testcase in
          List.concat_map
            (function
              | Oracle.Timing { components; _ } -> components
              | Oracle.Encode { components; _ } -> components)
            a.Oracle.a_leaks)
        st.Sd.sd_candidates
    in
    List.sort_uniq compare comps
  end

let run ?(iterations = 1200) ?(rng_seed = 13) ?telemetry ?resilience ?jobs
    ?(batch = 1) cfg =
  let resilience =
    (* Each core campaign gets its own checkpoint file from one flag. *)
    Option.map (fun rz -> Campaign.with_suffix rz cfg.Cfg.name) resilience
  in
  let telemetry =
    (* run_many puts each core on its own domain sharing one sink and
       progress printer: label events and progress lines with the core. *)
    Option.map
      (fun tel ->
        Campaign.label tel ~prefix:cfg.Cfg.name
          [ ("core", Dvz_obs.Json.Str cfg.Cfg.name) ])
      telemetry
  in
  let stats =
    Campaign.run ?telemetry ?resilience ?jobs cfg
      { Campaign.default_options with Campaign.iterations; rng_seed; batch }
  in
  { core = cfg.Cfg.name; stats;
    specdoctor_components = specdoctor_reach cfg ~rng_seed }

let run_many ?iterations ?rng_seed ?(telemetry = Campaign.quiet) ?resilience
    ?jobs ?batch cfgs =
  (* Per-core campaigns are independent: one domain each; [jobs] worker
     domains additionally fan out inside each campaign's batches. *)
  Campaign.map_nested telemetry
    (fun telemetry cfg ->
      run ?iterations ?rng_seed ~telemetry ?resilience ?jobs ?batch cfg)
    cfgs

let render results =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Table 5: discovered transient execution bugs\n\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Report.table5 ~core_name:r.core r.stats.Campaign.s_findings);
      Buffer.add_string buf
        (Printf.sprintf "first bug at iteration %s of %d (%d distinct bug classes)\n"
           (match r.stats.Campaign.s_first_bug with
           | None -> "n/a"
           | Some i -> string_of_int i)
           r.stats.Campaign.s_options.Campaign.iterations
           (List.length r.stats.Campaign.s_findings));
      if r.specdoctor_components <> [] then
        Buffer.add_string buf
          (Printf.sprintf
             "SpecDoctor on the same core reaches only: %s (paper: dcache, lsu)\n"
             (String.concat ", " r.specdoctor_components));
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf
