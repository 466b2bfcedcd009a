(* The traced dispatcher: a replica of [Executor.execute] for fault-free
   plans, passed to [Campaign.run ~dispatch], that records a span around
   every call into a layer's public function.  Each plan's spans travel
   back with its outcome, so parallel lanes share no mutable state; the
   orchestrator collects them per batch together with the batch's
   dispatch wall time and lane count. *)

open Dejavuzz
module Fault = Dvz_resilience.Fault
module Clock = Dvz_obs.Clock
module Metrics = Dvz_obs.Metrics

type layer =
  | Seed_pick  (** [Seed.random] / [Seed.mutate_window] *)
  | Generate  (** [Trigger_gen.generate] *)
  | Evaluate  (** [Trigger_opt.evaluate] *)
  | Reduce  (** [Trigger_opt.reduce] *)
  | Complete  (** [Window_gen.complete] *)
  | Analyze  (** [Oracle.analyze] *)
  | Observe  (** [Coverage.create] + [Coverage.observe_result] *)

let layers = [ Seed_pick; Generate; Evaluate; Reduce; Complete; Analyze; Observe ]

let layer_name = function
  | Seed_pick -> "seed.pick"
  | Generate -> "trigger_gen.generate"
  | Evaluate -> "trigger_opt.evaluate"
  | Reduce -> "trigger_opt.reduce"
  | Complete -> "window_gen.complete"
  | Analyze -> "oracle.analyze"
  | Observe -> "coverage.observe"

type span = { sp_layer : layer; sp_start : int; sp_dur : int }  (* ns *)

(* What the replay checks of an [Oracle.analysis]; the full record (taint
   log included) is not kept, so tracing retains little memory. *)
type analysis = {
  an_slots : int;
  an_cycles_a : int;
  an_cycles_b : int;
  an_leak : bool;
}

let summarize (a : Oracle.analysis) =
  let r = a.Oracle.a_result in
  { an_slots = r.Dvz_uarch.Dualcore.r_slots;
    an_cycles_a = r.Dvz_uarch.Dualcore.r_cycles_a;
    an_cycles_b = r.Dvz_uarch.Dualcore.r_cycles_b;
    an_leak = Oracle.is_leak a }

(* One executed iteration: its spans plus the inputs the replay pass
   re-simulates. *)
type iter = {
  it_index : int;
  it_tid : int;  (** worker lane that executed it *)
  it_start : int;
  it_dur : int;
  it_spans : span list;
  it_generated : Packet.testcase option;  (** fresh candidate (phase 1) *)
  it_fired : bool;  (** [Trigger_opt.evaluate] on the fresh candidate *)
  it_reduced : Packet.testcase option;  (** [Trigger_opt.reduce] output *)
  it_completed : Packet.testcase option;  (** phase-3 input *)
  it_analysis : analysis option;
}

type batch = { b_wall : int; b_lanes : int; b_iters : iter list }

(* Everything one traced campaign recorded, newest batch first. *)
type log = { mutable batches : batch list; mutable secret : int array }

let new_log () = { batches = []; secret = [||] }

let execute cx (plan : Scheduler.plan) =
  let t_start = Mono.now () in
  let it = plan.Scheduler.pl_iteration in
  let irng = plan.Scheduler.pl_rng in
  let clk = cx.Executor.cx_clock in
  let tid = Dvz_util.Parallel.worker_index () in
  (if Array.length cx.Executor.cx_domain_iters > 0 then begin
     assert (tid < Array.length cx.Executor.cx_domain_iters);
     Metrics.incr cx.Executor.cx_domain_iters.(tid)
   end);
  Fault.arm ~iteration:it cx.Executor.cx_fault_plan;
  let spans = ref [] in
  let timed layer f =
    let t0 = Mono.now () in
    let r = f () in
    spans := { sp_layer = layer; sp_start = t0; sp_dur = Mono.now () - t0 } :: !spans;
    r
  in
  let iter_seed = ref None and seed_kind = ref None in
  let p1 = ref 0.0 and p2 = ref 0.0 and p3 = ref 0.0 in
  let triggered = ref false and testcase = ref None and completed = ref None in
  let analysis = ref None and shard = ref None and cycles = ref 0 in
  let generated = ref None and fired = ref false and reduced = ref None in
  let status = ref `Ok and crash = ref None in
  let body () =
    let t0 = Clock.now clk in
    let phase1 =
      match plan.Scheduler.pl_pick with
      | Scheduler.Fresh ->
          let seed = timed Seed_pick (fun () -> Seed.random irng) in
          iter_seed := Some seed;
          seed_kind := Some seed.Seed.kind;
          let tc =
            timed Generate (fun () ->
                Trigger_gen.generate ~style:cx.Executor.cx_style
                  cx.Executor.cx_cfg seed)
          in
          generated := Some tc;
          fired := timed Evaluate (fun () -> Trigger_opt.evaluate cx.Executor.cx_cfg tc);
          if !fired then begin
            let r, _ = timed Reduce (fun () -> Trigger_opt.reduce cx.Executor.cx_cfg tc) in
            reduced := Some r;
            Some r
          end
          else None
      | Scheduler.Mutate tc ->
          let seed =
            timed Seed_pick (fun () -> Seed.mutate_window irng tc.Packet.seed)
          in
          iter_seed := Some seed;
          seed_kind := Some seed.Seed.kind;
          Some { tc with Packet.seed }
    in
    p1 := Clock.now clk -. t0;
    match phase1 with
    | None -> ()
    | Some tc ->
        triggered := true;
        testcase := Some tc;
        let t1 = Clock.now clk in
        let comp = timed Complete (fun () -> Window_gen.complete cx.Executor.cx_cfg tc) in
        completed := Some comp;
        p2 := Clock.now clk -. t1;
        let t2 = Clock.now clk in
        let a =
          timed Analyze (fun () ->
              Oracle.analyze ~mode:cx.Executor.cx_taint_mode
                ~log_bound:Workload.log_bound
                ?budget:cx.Executor.cx_budget cx.Executor.cx_cfg
                ~secret:cx.Executor.cx_secret comp)
        in
        analysis := Some a;
        p3 := Clock.now clk -. t2;
        let r = a.Oracle.a_result in
        cycles := r.Dvz_uarch.Dualcore.r_cycles_a + r.Dvz_uarch.Dualcore.r_cycles_b;
        if a.Oracle.a_timed_out then status := `Timeout
        else
          shard :=
            Some
              (timed Observe (fun () ->
                   let cov = Coverage.create () in
                   ignore (Coverage.observe_result cov r);
                   cov))
  in
  (try body () with
  | Fault.Killed _ as e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Fault.drain_fired ());
      Fault.disarm ();
      Printexc.raise_with_backtrace e bt
  | e ->
      let bt = Printexc.get_raw_backtrace () in
      status := `Crashed;
      crash :=
        Some
          { Executor.cr_iteration = it;
            cr_seed = !iter_seed;
            cr_exn = Printexc.to_string e;
            cr_backtrace = Printexc.raw_backtrace_to_string bt });
  let fired_faults = Fault.drain_fired () in
  Fault.disarm ();
  let outcome =
    { Executor.oc_iteration = it;
      oc_seed_kind = !seed_kind;
      oc_triggered = !triggered;
      oc_testcase = !testcase;
      oc_completed = !completed;
      oc_analysis = !analysis;
      oc_coverage = !shard;
      oc_status = !status;
      oc_crash = !crash;
      oc_fired = fired_faults;
      oc_cycles = !cycles;
      oc_p1 = !p1;
      oc_p2 = !p2;
      oc_p3 = !p3 }
  in
  let record =
    { it_index = it;
      it_tid = tid;
      it_start = t_start;
      it_dur = Mono.now () - t_start;
      it_spans = List.rev !spans;
      it_generated = !generated;
      it_fired = !fired;
      it_reduced = !reduced;
      it_completed = !completed;
      it_analysis = Option.map summarize !analysis }
  in
  (outcome, record)

(* A dispatcher for [Campaign.run ~dispatch] that mirrors the engine's
   own choice (sequential unless several lanes and several plans) and
   prepends each batch's record to [log]. *)
let dispatcher ~lanes log ctx plans =
  log.secret <- ctx.Executor.cx_secret;
  let t0 = Mono.now () in
  let par = lanes > 1 && List.compare_length_with plans 1 > 0 in
  let results =
    if par then Dvz_util.Parallel.map ~domains:lanes (execute ctx) plans
    else List.map (execute ctx) plans
  in
  log.batches <-
    { b_wall = Mono.now () - t0;
      b_lanes = (if par then lanes else 1);
      b_iters = List.map snd results }
    :: log.batches;
  List.map fst results
