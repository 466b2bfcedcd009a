module Rng = Dvz_util.Rng
module Clock = Dvz_obs.Clock
module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile
module Fault = Dvz_resilience.Fault

type crash = {
  cr_iteration : int;
  cr_seed : Seed.t option;
  cr_exn : string;
  cr_backtrace : string;
}

type status = [ `Ok | `Crashed | `Timeout ]

type outcome = {
  oc_iteration : int;
  oc_seed_kind : Seed.trigger_kind option;
  oc_triggered : bool;
  oc_testcase : Packet.testcase option;
  oc_completed : Packet.testcase option;
  oc_analysis : Oracle.analysis option;
  oc_coverage : Coverage.t option;
  oc_status : status;
  oc_crash : crash option;
  oc_fired : Fault.fault list;
  oc_cycles : int;
  oc_p1 : float;
  oc_p2 : float;
  oc_p3 : float;
}

type ctx = {
  cx_cfg : Dvz_uarch.Config.t;
  cx_style : [ `Derived | `Random ];
  cx_taint_mode : Dvz_ift.Policy.mode;
  cx_secret : int array;
  cx_fault_plan : Fault.plan;
  cx_budget : Dvz_uarch.Dualcore.budget option;
  cx_clock : Clock.t;
  cx_domain_iters : Metrics.counter array;
}

let execute cx (plan : Scheduler.plan) =
  let it = plan.Scheduler.pl_iteration in
  let irng = plan.Scheduler.pl_rng in
  let clk = cx.cx_clock in
  (if Array.length cx.cx_domain_iters > 0 then begin
     (* The array is sized from the campaign's effective lane count and
        [Parallel.map] never hands out indices beyond it, so an
        out-of-range index is a wiring bug — assert instead of silently
        folding high slots into the last counter. *)
     let w = Dvz_util.Parallel.worker_index () in
     assert (w < Array.length cx.cx_domain_iters);
     Metrics.incr cx.cx_domain_iters.(w)
   end);
  (* Fault arming is domain-local (Domain.DLS), so each worker arms and
     drains its own plan's faults without touching its siblings'. *)
  Fault.arm ~iteration:it cx.cx_fault_plan;
  let iter_seed = ref None in
  let seed_kind = ref None in
  let p1 = ref 0.0 and p2 = ref 0.0 and p3 = ref 0.0 in
  let triggered = ref false in
  let testcase = ref None in
  let completed = ref None in
  let analysis = ref None in
  let shard = ref None in
  let cycles = ref 0 in
  let status = ref `Ok in
  let crash = ref None in
  let body () =
    (* Phase 1 — realise the scheduled pick: mutate a corpus entry's
       window, or generate, evaluate and reduce a fresh trigger. *)
    let t0 = Clock.now clk in
    let phase1 =
      Profile.wrap "executor/phase1" (fun () ->
          match plan.Scheduler.pl_pick with
          | Scheduler.Fresh ->
              let seed = Seed.random irng in
              iter_seed := Some seed;
              seed_kind := Some seed.Seed.kind;
              let tc = Trigger_gen.generate ~style:cx.cx_style cx.cx_cfg seed in
              if Trigger_opt.evaluate cx.cx_cfg tc then begin
                let reduced, _ = Trigger_opt.reduce cx.cx_cfg tc in
                Some reduced
              end
              else None
          | Scheduler.Mutate tc ->
              let seed = Seed.mutate_window irng tc.Packet.seed in
              iter_seed := Some seed;
              seed_kind := Some seed.Seed.kind;
              Some { tc with Packet.seed })
    in
    p1 := Clock.now clk -. t0;
    match phase1 with
    | None -> ()
    | Some tc ->
        triggered := true;
        testcase := Some tc;
        (* Phase 2 — complete the transient window with encoding gadgets. *)
        let t1 = Clock.now clk in
        let comp =
          Profile.wrap "executor/phase2" (fun () ->
              Window_gen.complete cx.cx_cfg tc)
        in
        completed := Some comp;
        p2 := Clock.now clk -. t1;
        (* Phase 3 — dual-DUT simulation, coverage, oracles. *)
        let t2 = Clock.now clk in
        let a =
          Profile.wrap "executor/phase3" (fun () ->
              Oracle.analyze ~mode:cx.cx_taint_mode ?budget:cx.cx_budget
                cx.cx_cfg ~secret:cx.cx_secret comp)
        in
        analysis := Some a;
        p3 := Clock.now clk -. t2;
        cycles :=
          a.Oracle.a_result.Dvz_uarch.Dualcore.r_cycles_a
          + a.Oracle.a_result.Dvz_uarch.Dualcore.r_cycles_b;
        if a.Oracle.a_timed_out then status := `Timeout
        else begin
          (* Coverage is observed into a private per-iteration shard; the
             orchestrator folds shards into the campaign matrix in plan
             order, so the fresh-point accounting is identical to the
             sequential loop's while the observing itself parallelises. *)
          let cov = Coverage.create () in
          ignore (Coverage.observe_result cov a.Oracle.a_result);
          shard := Some cov
        end
  in
  (try body () with
  | Fault.Killed _ as e ->
      (* An injected kill models the whole process dying: clean up the
         ambient fault state and let it rip through every layer. *)
      let bt = Printexc.get_raw_backtrace () in
      ignore (Fault.drain_fired ());
      Fault.disarm ();
      Printexc.raise_with_backtrace e bt
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      status := `Crashed;
      crash :=
        Some
          { cr_iteration = it;
            cr_seed = !iter_seed;
            cr_exn = Printexc.to_string e;
            cr_backtrace = Printexc.raw_backtrace_to_string bt });
  let fired = Fault.drain_fired () in
  Fault.disarm ();
  { oc_iteration = it;
    oc_seed_kind = !seed_kind;
    oc_triggered = !triggered;
    oc_testcase = !testcase;
    oc_completed = !completed;
    oc_analysis = !analysis;
    oc_coverage = !shard;
    oc_status = !status;
    oc_crash = !crash;
    oc_fired = fired;
    oc_cycles = !cycles;
    oc_p1 = !p1;
    oc_p2 = !p2;
    oc_p3 = !p3 }
