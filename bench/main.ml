(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§6) and reports bechamel micro-benchmark latencies
   for the core operations each experiment exercises.

   Run with: dune exec bench/main.exe
   Scale with: DVZ_BENCH_SCALE=small|full (default small: same shapes,
   tractable runtime). *)

open Bechamel
module Cfg = Dvz_uarch.Config
module E = Dvz_experiments

let scale_full =
  match Sys.getenv_opt "DVZ_BENCH_SCALE" with
  | Some ("full" | "FULL") -> true
  | _ -> false

let banner title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* --- netlist-level simulation benches: compiled vs interpretive engines --

   The fig6/cellift-simulation and table4/diffift-simulation units of work
   are one clock cycle of the netlist-level shadow co-simulator on the same
   circuit shape Table 4 uses for instrumentation cost (the Figure 2 RoB
   plus a register file): CellIFT mode runs on the flattened netlist (as
   the real tool must), diffIFT mode on the word-level one.  Each workload
   has an [-interp] twin on the reference interpreter, so the pair measures
   exactly what the compiled engine buys. *)

module Simbench = struct
  module N = Dvz_ir.Netlist
  module Sim = Dvz_ir.Sim
  module Shadow = Dvz_ift.Shadow

  type dut = {
    d_nl : N.t;
    d_enq_valid : N.signal;
    d_enq_uopc : N.signal;
    d_rollback : N.signal;
    d_rollback_idx : N.signal;
    d_wen : N.signal;
    d_waddr : N.signal;
    d_wdata : N.signal;
    d_raddr : N.signal;
  }

  let build () =
    let rob = Dvz_ir.Circuits.rob ~entries:64 ~uopc_width:8 in
    let nl = rob.Dvz_ir.Circuits.rob_nl in
    let wen, waddr, wdata, raddr =
      N.scoped nl "prf" (fun () ->
          let m = N.mem nl ~name:"regfile" ~width:32 ~depth:128 () in
          let waddr = N.input nl ~name:"waddr" 10 in
          let wdata = N.input nl ~name:"wdata" 32 in
          let wen = N.input nl ~name:"wen" 1 in
          N.mem_write nl m ~wen ~addr:waddr ~data:wdata;
          let raddr = N.input nl ~name:"raddr" 10 in
          ignore (N.mem_read nl m raddr);
          (wen, waddr, wdata, raddr))
    in
    { d_nl = nl;
      d_enq_valid = rob.Dvz_ir.Circuits.enq_valid;
      d_enq_uopc = rob.Dvz_ir.Circuits.enq_uopc;
      d_rollback = rob.Dvz_ir.Circuits.rollback;
      d_rollback_idx = rob.Dvz_ir.Circuits.rollback_idx;
      d_wen = wen; d_waddr = waddr; d_wdata = wdata; d_raddr = raddr }

  let translate tr d nl =
    { d_nl = nl;
      d_enq_valid = tr d.d_enq_valid;
      d_enq_uopc = tr d.d_enq_uopc;
      d_rollback = tr d.d_rollback;
      d_rollback_idx = tr d.d_rollback_idx;
      d_wen = tr d.d_wen; d_waddr = tr d.d_waddr;
      d_wdata = tr d.d_wdata; d_raddr = tr d.d_raddr }

  (* One cycle of stimulus: steady enqueue traffic, a rollback every 32
     cycles, and a tainted (pair-differing) write marching through the
     register file so taint keeps flowing through both planes. *)
  let drive_shadow sh d i =
    Shadow.set_input sh d.d_enq_valid 1;
    Shadow.set_input sh d.d_enq_uopc (i land 0xFF);
    Shadow.set_input sh d.d_rollback (if i land 31 = 0 then 1 else 0);
    Shadow.set_input sh d.d_rollback_idx (i land 63);
    Shadow.set_input sh d.d_wen 1;
    Shadow.set_input sh d.d_waddr (i land 127);
    Shadow.set_input_pair sh d.d_wdata (i land 0xFFFF) ((i * 17) land 0xFFFF);
    Shadow.set_input sh d.d_raddr ((i * 7) land 127);
    Shadow.cycle sh

  let drive_sim sim d i =
    Sim.set_input sim d.d_enq_valid 1;
    Sim.set_input sim d.d_enq_uopc (i land 0xFF);
    Sim.set_input sim d.d_rollback (if i land 31 = 0 then 1 else 0);
    Sim.set_input sim d.d_rollback_idx (i land 63);
    Sim.set_input sim d.d_wen 1;
    Sim.set_input sim d.d_waddr (i land 127);
    Sim.set_input sim d.d_wdata (i land 0xFFFF);
    Sim.set_input sim d.d_raddr ((i * 7) land 127);
    Sim.cycle sim

  type workload = { w_name : string; w_engine : string; w_cycle : int -> unit }

  (* The six workloads: the two named benches and the plain simulator, each
     on both engines.  Instances are built once; the per-run unit is one
     driven clock cycle. *)
  let workloads () =
    let d = build () in
    let flat_nl, tr = Dvz_ir.Flatten.flatten_with_map d.d_nl in
    let df = translate tr d flat_nl in
    let shadow name mode dut engine =
      let sh = Shadow.create ~engine mode dut.d_nl in
      let i = ref 0 in
      { w_name = name;
        w_engine = (match engine with `Compiled -> "compiled" | `Interp -> "interp");
        w_cycle = (fun _ -> incr i; drive_shadow sh dut !i) }
    in
    let plain name engine =
      let sim = Sim.create ~engine d.d_nl in
      let i = ref 0 in
      { w_name = name;
        w_engine = (match engine with `Compiled -> "compiled" | `Interp -> "interp");
        w_cycle = (fun _ -> incr i; drive_sim sim d !i) }
    in
    [ shadow "fig6/cellift-simulation" Dvz_ift.Policy.Cellift df `Compiled;
      shadow "fig6/cellift-simulation-interp" Dvz_ift.Policy.Cellift df `Interp;
      shadow "table4/diffift-simulation" Dvz_ift.Policy.Diffift d `Compiled;
      shadow "table4/diffift-simulation-interp" Dvz_ift.Policy.Diffift d `Interp;
      plain "ir/sim-cycle" `Compiled;
      plain "ir/sim-cycle-interp" `Interp ]

  let tests () =
    List.map
      (fun w -> Test.make ~name:w.w_name (Staged.stage (fun () -> w.w_cycle 0)))
      (workloads ())

  (* Plain wall-clock measurement for the machine-readable BENCH_sim.json
     artifact: warm up, then take the fastest of several fixed-size blocks
     — scheduler and frequency noise is strictly additive, so the minimum
     is the stablest estimator and keeps the CI regression gate tight. *)
  let min_of_blocks ~blocks ~per_block run =
    let best = ref infinity in
    for _ = 1 to blocks do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to per_block do run () done;
      let dt = Unix.gettimeofday () -. t0 in
      best := Float.min !best (dt *. 1e9 /. float_of_int per_block)
    done;
    !best

  (* Two sides of one comparison, each warmed once and then timed in
     alternating single runs: the best of [blocks] per side.  Timing one
     side completely before the other lets one slow stretch of a noisy
     host land on a single side and skew the ratio. *)
  let min_of_interleaved ~blocks a b =
    a ();
    b ();
    let time f =
      let t0 = Unix.gettimeofday () in
      f ();
      (Unix.gettimeofday () -. t0) *. 1e9
    in
    let best_a = ref infinity and best_b = ref infinity in
    for _ = 1 to blocks do
      best_a := Float.min !best_a (time a);
      best_b := Float.min !best_b (time b)
    done;
    (!best_a, !best_b)

  (* A compiled workload and its interpretive twin: the fastest of five
     8,000-cycle blocks each, timed in turn, so that a slow stretch of a
     noisy host lands on both sides of the speedup. *)
  let measure_pair_ns c i =
    let per_block = 8_000 in
    let block w () = for _ = 1 to per_block do w.w_cycle 0 done in
    let c_ns, i_ns = min_of_interleaved ~blocks:5 (block c) (block i) in
    (c_ns /. float_of_int per_block, i_ns /. float_of_int per_block)

  (* End-to-end dual-DUT runs through the abstract core model, one entry
     per IFT mode.  These are the workloads the provenance option must not
     slow down while disarmed; CI gates them against the committed
     baseline (normalised by the interp scale to factor out machine
     speed). *)
  let e2e_report () =
    let boom = Cfg.boom_small in
    let meltdown = E.Attacks.build boom E.Attacks.Meltdown in
    let stim = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret meltdown in
    let measure mode =
      let run () =
        ignore
          (Dvz_uarch.Dualcore.run (Dvz_uarch.Dualcore.create ~mode boom stim))
      in
      for _ = 1 to 30 do run () done;
      min_of_blocks ~blocks:4 ~per_block:100 run
    in
    List.map
      (fun (name, mode) ->
        Dvz_obs.Json.Obj
          [ ("name", Dvz_obs.Json.Str name);
            ("ns_per_run", Dvz_obs.Json.Float (measure mode)) ])
      [ ("table4/dualcore-diffift-e2e", Dvz_ift.Policy.Diffift);
        ("fig6/dualcore-cellift-e2e", Dvz_ift.Policy.Cellift) ]

  (* Each [campaign] entry comes with the summary line [write_json] echoes
     for it, printed from the values it was built from. *)

  (* Batched-campaign throughput: the same deterministic campaign run on 1
     and 4 jobs.  Records the wall-clock scaling CI gates (only when the
     machine actually has the cores — [domains_available] says so) plus a
     determinism bit re-checking that jobs never change results. *)
  let campaign_report () =
    let module C = Dejavuzz.Campaign in
    let boom = Cfg.boom_small in
    let options =
      { C.default_options with C.iterations = 64; rng_seed = 11; batch = 8 }
    in
    let run jobs () = ignore (C.run ~jobs boom options) in
    (* Blocks of one run each.  A run takes under 10 ms, so one slow
       stretch of a noisy host can cover a whole run: the best of 15 per
       side, not of 3, keeps both ratios steady. *)
    let jobs1_ns, jobs4_ns = min_of_interleaved ~blocks:15 (run 1) (run 4) in
    let deterministic = C.run ~jobs:1 boom options = C.run ~jobs:4 boom options in
    let name = "campaign/batch-throughput" in
    let scaling = jobs1_ns /. Float.max 1.0 jobs4_ns in
    let domains = Dvz_util.Parallel.available () in
    ( Dvz_obs.Json.Obj
        [ ("name", Dvz_obs.Json.Str name);
          ("iterations", Dvz_obs.Json.Int options.C.iterations);
          ("batch", Dvz_obs.Json.Int options.C.batch);
          ("jobs1_ns", Dvz_obs.Json.Float jobs1_ns);
          ("jobs4_ns", Dvz_obs.Json.Float jobs4_ns);
          ("scaling", Dvz_obs.Json.Float scaling);
          ("jobs_requested", Dvz_obs.Json.Int 4);
          ("jobs_effective",
           Dvz_obs.Json.Int (Dvz_util.Parallel.effective_lanes 4));
          ("domains_available", Dvz_obs.Json.Int domains);
          ("deterministic", Dvz_obs.Json.Bool deterministic) ],
      Printf.sprintf "%-32s %.2fx scaling at 4 jobs (%d domains available)"
        name scaling domains )

  (* What the layered engine costs when there is nothing to parallelise:
     the same 64-iteration campaign run once through the batching
     machinery (snapshot → schedule a plan batch → dispatch → fold,
     batch = 8) and once as the direct sequential fold (batch = 1, the
     classic feedback loop with no batch bookkeeping), both at jobs = 1.
     The ratio is the price of keeping one engine for both shapes. *)
  let parallel_overhead_report () =
    let module C = Dejavuzz.Campaign in
    let boom = Cfg.boom_small in
    let options batch =
      { C.default_options with C.iterations = 64; rng_seed = 11; batch }
    in
    let run batch () = ignore (C.run ~jobs:1 boom (options batch)) in
    let engine_ns, direct_ns = min_of_interleaved ~blocks:15 (run 8) (run 1) in
    let name = "campaign/parallel-overhead" in
    let overhead = engine_ns /. Float.max 1.0 direct_ns in
    ( Dvz_obs.Json.Obj
        [ ("name", Dvz_obs.Json.Str name);
          ("iterations", Dvz_obs.Json.Int 64);
          ("engine_batch", Dvz_obs.Json.Int 8);
          ("engine_ns", Dvz_obs.Json.Float engine_ns);
          ("direct_ns", Dvz_obs.Json.Float direct_ns);
          ("overhead", Dvz_obs.Json.Float overhead);
          ("domains_available",
           Dvz_obs.Json.Int (Dvz_util.Parallel.available ())) ],
      Printf.sprintf "%-32s %.2fx engine over direct fold at 1 job" name
        overhead )

  (* What the per-domain instance pool buys: one dual-DUT Meltdown run
     through a freshly constructed testbench vs through the pooled one
     (a [Dualcore.reset] re-arm).  The speedup is recorded, not gated —
     it is the mechanism behind the jobs=1 ns/iteration improvement the
     e2e and campaign gates above already hold. *)
  let pooled_vs_fresh_report () =
    let boom = Cfg.boom_small in
    let meltdown = E.Attacks.build boom E.Attacks.Meltdown in
    let stim () = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret meltdown in
    let fresh () =
      ignore (Dvz_uarch.Dualcore.run (Dvz_uarch.Dualcore.create boom (stim ())))
    in
    let pooled () =
      ignore (Dvz_uarch.Dualcore.run (Dejavuzz.Simpool.acquire boom (stim ())))
    in
    Dejavuzz.Simpool.clear ();
    for _ = 1 to 30 do fresh () done;
    let fresh_ns = min_of_blocks ~blocks:4 ~per_block:100 fresh in
    for _ = 1 to 30 do pooled () done;
    let pooled_ns = min_of_blocks ~blocks:4 ~per_block:100 pooled in
    let name = "campaign/pooled-vs-fresh" in
    let speedup = fresh_ns /. Float.max 1.0 pooled_ns in
    ( Dvz_obs.Json.Obj
        [ ("name", Dvz_obs.Json.Str name);
          ("fresh_ns", Dvz_obs.Json.Float fresh_ns);
          ("pooled_ns", Dvz_obs.Json.Float pooled_ns);
          ("speedup", Dvz_obs.Json.Float speedup) ],
      Printf.sprintf "%-32s %.2fx pooled over fresh construction" name speedup )

  (* What one telemetry flush costs the plane: encoding a realistic
     worker batch for the wire, decoding it coordinator-side, and
     merging its cumulative metrics snapshot into a slot aggregate.
     Flushes ride the heartbeat cadence (~1/s per worker), so these are
     recorded, not gated — the numbers document how far off any hot
     path the plane sits. *)
  let telemetry_report () =
    let reg = Dvz_obs.Metrics.create () in
    for i = 0 to 15 do
      let c =
        Dvz_obs.Metrics.counter reg ~help:"bench telemetry counter"
          (Printf.sprintf "dvz_bench_counter_%d_total" i)
      in
      Dvz_obs.Metrics.incr ~by:(i * 3) c
    done;
    let h = Dvz_obs.Metrics.histogram reg "dvz_bench_seconds" in
    for i = 1 to 64 do
      Dvz_obs.Metrics.observe h (float_of_int i /. 100.0)
    done;
    let snap = Dvz_obs.Metrics.snapshot reg in
    let profile =
      List.init 24 (fun i ->
          { Dvz_obs.Profile.pf_path = Printf.sprintf "campaign/phase%d" i;
            pf_name = Printf.sprintf "phase%d" i;
            pf_depth = 1;
            pf_count = 100 + i;
            pf_total_s = 0.25;
            pf_self_s = 0.125;
            pf_max_s = 0.01 })
    in
    let trace =
      List.init 32 (fun i ->
          { Dvz_obs.Profile.ev_path = "campaign/iteration";
            ev_name = "iteration";
            ev_tid = 1;
            ev_start = float_of_int i *. 0.001;
            ev_dur = 0.0005 })
    in
    let batch =
      { Dvz_fleet.Wire.tb_metrics = snap;
        tb_profile = profile;
        tb_trace = trace;
        tb_trace_dropped = 0;
        tb_events = [ {|{"type":"assign","epoch":3,"plans":8}|} ];
        tb_events_dropped = 0 }
    in
    let payload = Dvz_fleet.Wire.telemetry_to_string batch in
    let codec () =
      match
        Dvz_fleet.Wire.telemetry_of_string
          (Dvz_fleet.Wire.telemetry_to_string batch)
      with
      | Ok _ -> ()
      | Error e -> failwith ("bench: telemetry codec: " ^ e)
    in
    let merge () = ignore (Dvz_obs.Metrics.merge snap snap) in
    for _ = 1 to 100 do codec () done;
    let codec_ns = min_of_blocks ~blocks:4 ~per_block:400 codec in
    let merge_ns = min_of_blocks ~blocks:4 ~per_block:2_000 merge in
    Dvz_obs.Json.Obj
      [ ("name", Dvz_obs.Json.Str "fleet/telemetry-flush");
        ("payload_bytes", Dvz_obs.Json.Int (String.length payload));
        ("codec_roundtrip_ns", Dvz_obs.Json.Float codec_ns);
        ("metrics_merge_ns", Dvz_obs.Json.Float merge_ns) ]

  (* The report and its summary lines. *)
  let json_report () =
    (* [workloads] lists each compiled workload just before its twin. *)
    let rec measure = function
      | c :: i :: rest ->
          let c_ns, i_ns = measure_pair_ns c i in
          (c, c_ns) :: (i, i_ns) :: measure rest
      | _ -> []
    in
    let measured = measure (workloads ()) in
    let find name engine =
      List.find_opt
        (fun (w, _) ->
          w.w_engine = engine
          && (w.w_name = name || w.w_name = name ^ "-interp"))
        measured
    in
    let bench_objs =
      List.map
        (fun (w, ns) ->
          Dvz_obs.Json.Obj
            [ ("name", Dvz_obs.Json.Str w.w_name);
              ("engine", Dvz_obs.Json.Str w.w_engine);
              ("ns_per_cycle", Dvz_obs.Json.Float ns) ])
        measured
    in
    let speedups =
      List.filter_map
        (fun base ->
          match (find base "compiled", find base "interp") with
          | Some (_, c), Some (_, i) when c > 0.0 ->
              Some
                ( Dvz_obs.Json.Obj
                    [ ("name", Dvz_obs.Json.Str base);
                      ("interp_ns_per_cycle", Dvz_obs.Json.Float i);
                      ("compiled_ns_per_cycle", Dvz_obs.Json.Float c);
                      ("speedup", Dvz_obs.Json.Float (i /. c)) ],
                  Printf.sprintf "%-32s %.1fx compiled over interp" base
                    (i /. c) )
          | _ -> None)
        [ "fig6/cellift-simulation"; "table4/diffift-simulation";
          "ir/sim-cycle" ]
    in
    (* Measured in the order the report has always been taken in: the
       later sections first, the dual-DUT runs last. *)
    let fleet = telemetry_report () in
    let pooled = pooled_vs_fresh_report () in
    let overhead = parallel_overhead_report () in
    let batch = campaign_report () in
    let e2e = e2e_report () in
    let campaign = [ batch; overhead; pooled ] in
    ( Dvz_obs.Json.Obj
        [ ("schema", Dvz_obs.Json.Str "dvz-bench-sim/7");
          ("benches", Dvz_obs.Json.Arr bench_objs);
          ("speedups", Dvz_obs.Json.Arr (List.map fst speedups));
          ("e2e", Dvz_obs.Json.Arr e2e);
          ("campaign", Dvz_obs.Json.Arr (List.map fst campaign));
          ("fleet", Dvz_obs.Json.Arr [ fleet ]) ],
      List.map snd speedups @ List.map snd campaign )

  let write_json path =
    let json, summary = json_report () in
    let oc = open_out path in
    output_string oc (Dvz_obs.Json.to_string json);
    output_char oc '\n';
    close_out oc;
    (* Echo the headline numbers so CI logs show them. *)
    List.iter print_endline summary;
    Printf.printf "wrote %s\n" path
end

(* --- bechamel micro-benchmarks: one Test.make per table/figure ----------- *)

let micro_tests () =
  let boom = Cfg.boom_small in
  let rng = Dvz_util.Rng.create 1 in
  let secret = Array.make Dvz_soc.Layout.secret_dwords 0xAB in
  (* Table 3's unit of work: phase-1 generate + evaluate one seed. *)
  let table3 =
    Test.make ~name:"table3/phase1-generate-evaluate"
      (Staged.stage (fun () ->
           let seed = Dejavuzz.Seed.random rng in
           let tc = Dejavuzz.Trigger_gen.generate boom seed in
           ignore (Dejavuzz.Trigger_opt.evaluate boom tc)))
  in
  (* Table 4's end-to-end unit of work: one diffIFT dual-DUT simulation of
     Meltdown through the abstract core model.  (The netlist-level
     table4/diffift-simulation bench lives in {!Simbench}.) *)
  let meltdown = E.Attacks.build boom E.Attacks.Meltdown in
  let table4 =
    Test.make ~name:"table4/dualcore-diffift-e2e"
      (Staged.stage (fun () ->
           let stim = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret meltdown in
           ignore (Dvz_uarch.Dualcore.run (Dvz_uarch.Dualcore.create boom stim))))
  in
  (* Figure 6's end-to-end unit of work: one CellIFT-mode simulation (taint
     explosion) through the abstract core model. *)
  let fig6 =
    Test.make ~name:"fig6/dualcore-cellift-e2e"
      (Staged.stage (fun () ->
           let stim = Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret meltdown in
           ignore
             (Dvz_uarch.Dualcore.run
                (Dvz_uarch.Dualcore.create ~mode:Dvz_ift.Policy.Cellift boom stim))))
  in
  (* Figure 7 / Table 5's unit of work: one full fuzzing iteration
     (phases 1-3) through the campaign loop. *)
  let fig7 =
    Test.make ~name:"fig7/one-campaign-iteration"
      (Staged.stage (fun () ->
           ignore
             (Dejavuzz.Campaign.run boom
                { Dejavuzz.Campaign.default_options with
                  Dejavuzz.Campaign.iterations = 1;
                  rng_seed = Dvz_util.Rng.next rng })))
  in
  (* Same unit of work with telemetry fully enabled, events formatted as
     JSONL and written to /dev/null: the acceptance bar is <5% overhead
     over the bare iteration above. *)
  let devnull = open_out "/dev/null" in
  let telemetry =
    { Dejavuzz.Campaign.quiet with
      Dejavuzz.Campaign.t_events = Dvz_obs.Events.to_channel devnull;
      t_metrics = Dvz_obs.Metrics.create () }
  in
  let fig7_tel =
    Test.make ~name:"fig7/one-campaign-iteration-telemetry"
      (Staged.stage (fun () ->
           ignore
             (Dejavuzz.Campaign.run ~telemetry boom
                { Dejavuzz.Campaign.default_options with
                  Dejavuzz.Campaign.iterations = 1;
                  rng_seed = Dvz_util.Rng.next rng })))
  in
  (* Liveness study's unit of work: one oracle analysis. *)
  let completed = Dejavuzz.Window_gen.complete boom meltdown in
  let liveness =
    Test.make ~name:"liveness/oracle-analysis"
      (Staged.stage (fun () ->
           ignore (Dejavuzz.Oracle.analyze boom ~secret completed)))
  in
  (* The explain pass's unit of work: one armed provenance replay plus
     backward slicing — the per-finding cost of --explain-dir. *)
  let explain_stim =
    Dejavuzz.Packet.stimulus ~secret:E.Attacks.secret meltdown
  in
  let explain =
    Test.make ~name:"explain/provenance-replay"
      (Staged.stage (fun () ->
           ignore (Dejavuzz.Explain.explain ~attack:"meltdown" boom explain_stim)))
  in
  (* Telemetry primitives on the hot path. *)
  let obs_reg = Dvz_obs.Metrics.create () in
  let obs_counter = Dvz_obs.Metrics.counter obs_reg "bench_counter" in
  let obs_hist = Dvz_obs.Metrics.histogram obs_reg "bench_hist" in
  let obs_incr =
    Test.make ~name:"obs/counter-incr"
      (Staged.stage (fun () -> Dvz_obs.Metrics.incr obs_counter))
  in
  let obs_observe =
    Test.make ~name:"obs/histogram-observe"
      (Staged.stage (fun () -> Dvz_obs.Metrics.observe obs_hist 0.003))
  in
  (* Resilience primitives: the per-slot fault check must cost ~nothing
     when no fault plan is armed, and checkpointing must be cheap enough
     to run every few dozen iterations. *)
  let fault_tick =
    Test.make ~name:"resilience/fault-tick-disarmed"
      (Staged.stage (fun () ->
           ignore (Dvz_resilience.Fault.tick ~cycle:100)))
  in
  let snap_path = Filename.temp_file "dvz_bench" ".snap" in
  at_exit (fun () -> try Sys.remove snap_path with Sys_error _ -> ());
  let snap_payload = String.init 4096 (fun i -> Char.chr (i mod 256)) in
  let snapshot_rt =
    Test.make ~name:"resilience/checkpoint-roundtrip"
      (Staged.stage (fun () ->
           Dvz_resilience.Snapshot.save ~path:snap_path ~magic:"bench"
             ~version:1 snap_payload;
           ignore
             (Dvz_resilience.Snapshot.load ~path:snap_path ~magic:"bench")))
  in
  Simbench.tests ()
  @ [ table3; table4; fig6; fig7; fig7_tel; liveness; explain; obs_incr;
      obs_observe; fault_tick; snapshot_rt ]

let run_micro () =
  banner "Bechamel micro-benchmarks (one per experiment)";
  let cfg_b = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg_b [ Toolkit.Instance.monotonic_clock ] test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | _ -> nan
          in
          Printf.printf "  %-36s %12.1f ns/run\n" name ns)
        analyzed)
    (micro_tests ());
  print_newline ()

(* --- full experiment reproduction ---------------------------------------- *)

let () =
  (* `main.exe --sim-json FILE` is the CI smoke mode: measure only the
     compiled-vs-interpretive simulation benches and write the
     machine-readable report, skipping the full experiment reproduction. *)
  (match Array.to_list Sys.argv with
  | _ :: "--sim-json" :: path :: _ ->
      Simbench.write_json path;
      exit 0
  | _ -> ());
  let t0 = Unix.gettimeofday () in
  banner "Table 2 (cores under evaluation)";
  print_string (E.Table2.render ());

  banner "Table 3 (training overhead per transient-window type)";
  let samples = if scale_full then 100 else 30 in
  print_string (E.Table3.render (E.Table3.run ~samples ~rng_seed:2025 ()));
  Printf.printf
    "(paper: DejaVuzz 0.0 for exception windows, ~85 TO / ~3 ETO for\n\
    \ mispredictions; DejaVuzz* x on XiangShan indirect jumps; SpecDoctor\n\
    \ ~113-127 everywhere it can trigger, x elsewhere)\n";

  banner "Table 4 (overhead of differential information flow tracking)";
  let reps = if scale_full then 100 else 25 in
  print_string
    (E.Table4.render
       [ E.Table4.run ~reps Cfg.boom_small;
         E.Table4.run ~reps Cfg.xiangshan_minimal ]);
  Printf.printf
    "(paper: CellIFT compile ~23x Base on BOOM and times out on XiangShan;\n\
    \ CellIFT simulation ~75x Base, diffIFT ~2.4-4.5x)\n";

  banner "Figure 6 (taint population over time, BOOM)";
  print_string (E.Fig6.render (E.Fig6.run ()));
  Printf.printf
    "(paper: CellIFT explodes at the RoB rollback and saturates; diffIFT\n\
    \ stays bounded; diffIFT-FN plateaus once control taints are suppressed)\n";

  banner "Figure 7 (taint coverage over iterations)";
  let iterations = if scale_full then 5000 else 1000 in
  let trials = if scale_full then 5 else 3 in
  print_string
    (E.Fig7.render (E.Fig7.run ~iterations ~trials ~rng_seed:7 Cfg.boom_small));

  banner "Liveness evaluation (SpecDoctor candidates, BOOM)";
  let li = if scale_full then 400 else 150 in
  print_string
    (E.Liveness_eval.render
       (E.Liveness_eval.run ~iterations:li ~rng_seed:5 Cfg.boom_small));

  banner "B1-B5 CVE proof-of-concepts (section 6.4)";
  print_string (E.Bugcheck.render ());

  banner "Table 5 (discovered transient execution bugs)";
  let t5_iters = if scale_full then 4000 else 1000 in
  print_string
    (E.Table5.render
       (E.Table5.run_many ~iterations:t5_iters ~rng_seed:13
          [ Cfg.boom_small; Cfg.xiangshan_minimal ]));

  banner "Ablation: diffIFT vs CellIFT substrate";
  print_string
    (E.Ablation.render
       (E.Ablation.run ~iterations:(if scale_full then 800 else 250)
          Cfg.boom_small));

  run_micro ();
  Printf.printf "total bench time: %.1fs\n" (Unix.gettimeofday () -. t0)
