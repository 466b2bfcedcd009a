(* Per-layer accounting of one traced suite run: the self-time table,
   the per-layer metrics and the Chrome trace. *)

open Dejavuzz

(* One traced campaign of the suite. *)
type run = {
  r_options : Campaign.options;
  r_log : Traced.log;
  r_wall : int;  (** ns inside [Campaign.run] *)
  r_stats : Campaign.stats;
}

(* Facts taken from the plain (untraced) runs. *)
type plain = {
  p_wall : float;  (** fastest plain suite, s *)
  p_minor_words : float;  (** per suite *)
  p_major : int;  (** major collections per suite *)
  p_pool_hits : int;
  p_pool_misses : int;
}

let iters runs =
  List.concat_map
    (fun r -> List.concat_map (fun b -> b.Traced.b_iters) r.r_log.Traced.batches)
    runs

(* Wall-equivalent ns of the top-level layers.  A batch that ran on
   [lanes] lanes contributes its summed span time divided by [lanes];
   [dispatch] is the batch wall time the lanes did not spend executing
   (domain spawn and join, idle lanes), and [executor] the execute time
   no layer span covers — the only unattributed share. *)
type top = {
  wall : int;
  campaign_self : int;
  dispatch_self : float;
  executor_self : float;
  per_layer : (Traced.layer * float) list;
  busy : int;  (** summed execute ns over all lanes *)
  capacity : int;  (** summed lanes x batch wall ns *)
}

let top runs =
  let wall = List.fold_left (fun a r -> a + r.r_wall) 0 runs in
  let layer_ns = Hashtbl.create 8 in
  let dispatch = ref 0 and dispatch_self = ref 0.0 and executor_self = ref 0.0 in
  let busy = ref 0 and capacity = ref 0 in
  List.iter
    (fun r ->
      List.iter
        (fun (b : Traced.batch) ->
          let lanes = float_of_int b.Traced.b_lanes in
          let exec = List.fold_left (fun a i -> a + i.Traced.it_dur) 0 b.Traced.b_iters in
          let spans = ref 0 in
          List.iter
            (fun (i : Traced.iter) ->
              List.iter
                (fun (s : Traced.span) ->
                  spans := !spans + s.Traced.sp_dur;
                  let l = s.Traced.sp_layer in
                  let prev = Option.value ~default:0.0 (Hashtbl.find_opt layer_ns l) in
                  Hashtbl.replace layer_ns l (prev +. (float_of_int s.Traced.sp_dur /. lanes)))
                i.Traced.it_spans)
            b.Traced.b_iters;
          dispatch := !dispatch + b.Traced.b_wall;
          dispatch_self :=
            !dispatch_self +. float_of_int b.Traced.b_wall -. (float_of_int exec /. lanes);
          executor_self := !executor_self +. (float_of_int (exec - !spans) /. lanes);
          busy := !busy + exec;
          capacity := !capacity + (b.Traced.b_lanes * b.Traced.b_wall))
        r.r_log.Traced.batches)
    runs;
  { wall;
    campaign_self = wall - !dispatch;
    dispatch_self = !dispatch_self;
    executor_self = !executor_self;
    per_layer =
      List.map
        (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt layer_ns l)))
        Traced.layers;
    busy = !busy;
    capacity = !capacity }

let layer_coverage t =
  if t.wall = 0 then 0.0 else 1.0 -. (t.executor_self /. float_of_int t.wall)

(* Raw per-call span statistics of one layer: calls and summed ns. *)
let spans_of runs layer =
  List.fold_left
    (fun (n, ns) (i : Traced.iter) ->
      List.fold_left
        (fun (n, ns) (s : Traced.span) ->
          if s.Traced.sp_layer = layer then (n + 1, ns + s.Traced.sp_dur) else (n, ns))
        (n, ns) i.Traced.it_spans)
    (0, 0) (iters runs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let per_call_us runs layer =
  let n, ns = spans_of runs layer in
  ratio ns n /. 1e3

(* --- the self-time table ------------------------------------------------ *)

(* The replayed children of [Oracle.analyze]; what they leave of the
   analyze time measured in the same pass is the oracle's self time. *)
let phase3_children (rp : Resim.t) =
  Resim.
    [ ("packet.stimulus", rp.stimulus);
      ("window_gen.sanitize", rp.sanitize);
      ("simpool.acquire", rp.acquire);
      ("core.step (both instances)", rp.cores);
      ("taintstate.apply_pair", rp.apply);
      ("taintstate.log (count + by_module)", rp.log);
      ("dualcore.collect", rp.collect) ]

let oracle_self_ns (rp : Resim.t) =
  rp.Resim.analyze.Resim.ns
  - List.fold_left (fun a (_, g) -> a + g.Resim.ns) 0 (phase3_children rp)

let table (rp : Resim.t) t =
  let b = Buffer.create 2048 in
  let wall = float_of_int t.wall in
  let row name ns parent =
    Printf.bprintf b "  %-34s %10.2f ms %6.1f%%\n" name (ns /. 1e6)
      (if parent = 0.0 then 0.0 else 100.0 *. ns /. parent)
  in
  Printf.bprintf b "layer self-time table (traced wall %.2f ms = 100%%)\n" (wall /. 1e6);
  row "campaign (self: schedule + fold)" (float_of_int t.campaign_self) wall;
  row "parallel.dispatch (self)" t.dispatch_self wall;
  row "executor (self, unattributed)" t.executor_self wall;
  List.iter (fun (l, ns) -> row (Traced.layer_name l) ns wall) t.per_layer;
  let lane ns = float_of_int ns in
  let p3 = phase3_children rp in
  let analyze = lane rp.Resim.analyze.Resim.ns in
  Printf.bprintf b
    "oracle.analyze breakdown (replay pass, lane time, %% of its oracle.analyze)\n";
  List.iter (fun (n, a) -> row n (lane a.Resim.ns) analyze) p3;
  row "oracle (self)" (lane (oracle_self_ns rp)) analyze;
  let opt = lane rp.Resim.opt.Resim.ns in
  let ev = rp.Resim.eval_run.Resim.ns in
  let acq = rp.Resim.acquire_core.Resim.ns and step = rp.Resim.core_step.Resim.ns in
  Printf.bprintf b
    "trigger_opt breakdown (replay pass, lane time, %% of its evaluate + reduce)\n";
  row "simpool.acquire_core" (lane acq) opt;
  row "core.step" (lane step) opt;
  row "packet.stimulus + triggered check" (lane (ev - acq - step)) opt;
  row "trigger_opt (self)" (lane (rp.Resim.opt.Resim.ns - ev)) opt;
  Buffer.contents b

(* --- metrics ------------------------------------------------------------ *)

let metrics runs t (rp : Resim.t) (p : plain) ~lanes ~traced_wall =
  let its = iters runs in
  let n_iters = List.length its in
  let kiter = float_of_int n_iters /. 1000.0 in
  let analyses = List.filter_map (fun i -> i.Traced.it_analysis) its in
  let n_analyses = List.length analyses in
  let evaluated = List.filter (fun i -> i.Traced.it_generated <> None) its in
  let durs = List.map (fun i -> float_of_int i.Traced.it_dur) its in
  let sum f = List.fold_left (fun a r -> a + f r.r_stats) 0 runs in
  let final_cov = sum (fun s -> s.Campaign.s_final_coverage) in
  let findings = sum (fun s -> List.length s.Campaign.s_findings) in
  let n_runs = float_of_int (max 1 (List.length runs)) in
  let us ns = ns /. 1e3 in
  let mean = Resim.mean_ns in
  let count p xs = List.length (List.filter p xs) in
  [ ( "campaign.self_ms_per_kiter",
      float_of_int t.campaign_self /. 1e6 /. kiter,
      "ms/kiter" );
    ("campaign.coverage_points", float_of_int final_cov /. n_runs, "count");
    ("campaign.findings", float_of_int findings /. n_runs, "count");
    ("executor.iter_us_p50", Dvz_util.Stats.percentile durs 0.50 /. 1e3, "us");
    ("executor.iter_us_p99", Dvz_util.Stats.percentile durs 0.99 /. 1e3, "us");
    ("trigger_gen.generate_us", per_call_us runs Traced.Generate, "us");
    ("trigger_opt.evaluate_us", per_call_us runs Traced.Evaluate, "us");
    ("trigger_opt.reduce_us", per_call_us runs Traced.Reduce, "us");
    ("trigger_opt.evals_per_iter", ratio rp.Resim.evals n_iters, "count");
    ( "trigger_opt.trigger_ratio",
      ratio (count (fun i -> i.Traced.it_fired) evaluated) (List.length evaluated),
      "ratio" );
    ("window_gen.complete_us", per_call_us runs Traced.Complete, "us");
    ("window_gen.sanitize_us", us (mean rp.Resim.sanitize), "us");
    ("oracle.analyze_us", per_call_us runs Traced.Analyze, "us");
    ( "oracle.self_us",
      ratio (oracle_self_ns rp) rp.Resim.analyze.Resim.n /. 1e3,
      "us" );
    ( "oracle.sanitize_runs_per_analysis",
      ratio rp.Resim.sanitize.Resim.n n_analyses,
      "count" );
    ( "oracle.leak_ratio",
      ratio (count (fun a -> a.Traced.an_leak) analyses) n_analyses,
      "ratio" );
    ("coverage.observe_us", per_call_us runs Traced.Observe, "us");
    ("coverage.fresh_points_per_kiter", float_of_int final_cov /. kiter, "count/kiter");
    ("packet.stimulus_us", us (mean rp.Resim.stimulus), "us");
    ("simpool.acquire_us", us (mean rp.Resim.acquire), "us");
    ("simpool.acquire_core_us", us (mean rp.Resim.acquire_core), "us");
    ( "simpool.miss_ratio",
      ratio p.p_pool_misses (p.p_pool_hits + p.p_pool_misses),
      "ratio" );
    ("dualcore.runs_per_iter", ratio rp.Resim.dual_runs n_iters, "count");
    ("dualcore.slots_per_run", ratio rp.Resim.cores.Resim.n rp.Resim.dual_runs, "count");
    ( "dualcore.step_ns_per_slot",
      ratio Resim.(rp.cores.ns + rp.apply.ns + rp.log.ns) rp.Resim.cores.Resim.n,
      "ns" );
    ("dualcore.collect_us", us (mean rp.Resim.collect), "us");
    ("core.step_ns", mean rp.Resim.core_step, "ns");
    ("core.eval_run_us", us (mean rp.Resim.eval_run), "us");
    ("core.eval_slots_per_run", ratio rp.Resim.eval_slots rp.Resim.evals, "count");
    ("taintstate.apply_pair_ns", mean rp.Resim.apply, "ns");
    ("taintstate.log_ns", mean rp.Resim.log, "ns");
    ( "taintstate.tainted_per_slot",
      ratio rp.Resim.tainted_sum rp.Resim.apply.Resim.n,
      "count" );
    ( "taintstate.final_tainted_per_run",
      ratio rp.Resim.final_tainted rp.Resim.dual_runs,
      "count" );
    ("parallel.lanes", float_of_int lanes, "count");
    ("parallel.efficiency", ratio t.busy t.capacity, "ratio");
    ("gc.minor_words_per_iter", p.p_minor_words /. float_of_int (max 1 n_iters), "words");
    ("gc.major_collections_per_kiter", float_of_int p.p_major /. kiter, "count/kiter");
    ("trace.layer_coverage", layer_coverage t, "ratio");
    ("trace.overhead", (traced_wall /. p.p_wall) -. 1.0, "ratio") ]

(* --- Chrome trace -------------------------------------------------------- *)

(* Iteration- and layer-level spans, one process group per campaign of
   the suite and one track per lane; the iteration index is the id in
   each event's path. *)
let write_trace path runs =
  let ev ~path ~name ~tid ~start ~dur =
    { Dvz_obs.Profile.ev_path = path; ev_name = name; ev_tid = tid;
      ev_start = float_of_int start *. 1e-9; ev_dur = float_of_int dur *. 1e-9 }
  in
  let groups =
    List.mapi
      (fun k r ->
        let events =
          List.concat_map
            (fun (i : Traced.iter) ->
              let id = Printf.sprintf "iter/%d" i.Traced.it_index in
              ev ~path:id ~name:"iteration" ~tid:i.Traced.it_tid ~start:i.Traced.it_start
                ~dur:i.Traced.it_dur
              :: List.map
                   (fun (s : Traced.span) ->
                     let name = Traced.layer_name s.Traced.sp_layer in
                     ev ~path:(id ^ "/" ^ name) ~name ~tid:i.Traced.it_tid
                       ~start:s.Traced.sp_start ~dur:s.Traced.sp_dur)
                   i.Traced.it_spans)
            (iters [ r ])
        in
        ( k + 1,
          Printf.sprintf "campaign rng_seed=%d" r.r_options.Campaign.rng_seed,
          List.sort
            (fun a b -> compare a.Dvz_obs.Profile.ev_start b.Dvz_obs.Profile.ev_start)
            events ))
      runs
  in
  Dvz_obs.Trace_event.write_file_multi path groups
