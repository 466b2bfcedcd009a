(* The replay pass: re-simulates the phase-1 candidates and phase-3
   testbench runs a traced campaign recorded, timing the layers beneath
   [Trigger_opt] and [Oracle.analyze] from outside.  Each replayed
   simulation is checked against a plain library run of the same input:
   both [Core.state_hash]es, the final tainted elements and the slot
   count must agree. *)

open Dejavuzz
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Taintstate = Dvz_uarch.Taintstate

(* A timed aggregate: number of timed calls and their summed ns, each
   net of the clock read that closed it. *)
type agg = { mutable n : int; mutable ns : int }

let agg () = { n = 0; ns = 0 }

let add a dt =
  a.n <- a.n + 1;
  a.ns <- a.ns + max 0 (dt - Lazy.force Mono.cost)

let mean_ns a = if a.n = 0 then 0.0 else float_of_int a.ns /. float_of_int a.n

type t = {
  (* phase 3 *)
  analyze : agg;  (** [Oracle.analyze], re-timed in this pass *)
  stimulus : agg;  (** [Packet.stimulus] *)
  sanitize : agg;  (** [Window_gen.sanitize] *)
  acquire : agg;  (** [Simpool.acquire] *)
  cores : agg;  (** [Core.step] of both instances, once per slot *)
  apply : agg;  (** [Taintstate.apply_pair] *)
  log : agg;  (** [tainted_count] + [tainted_by_module] *)
  collect : agg;  (** [Dualcore.run] on a finished testbench *)
  mutable dual_runs : int;
  mutable tainted_sum : int;  (** [tainted_count] summed over slots *)
  mutable final_tainted : int;
  (* phase 1 *)
  opt : agg;  (** [Trigger_opt.evaluate] and [reduce], re-timed in this pass *)
  eval_run : agg;  (** one whole replayed evaluation *)
  acquire_core : agg;  (** [Simpool.acquire_core] *)
  core_step : agg;  (** [Core.step] of the single evaluation core *)
  mutable eval_slots : int;
  mutable evals : int;
  (* checks *)
  mutable checked : int;
  mutable mismatches : string list;
}

let create () =
  { analyze = agg (); stimulus = agg (); sanitize = agg (); acquire = agg ();
    cores = agg (); apply = agg (); log = agg ();
    collect = agg (); dual_runs = 0; tainted_sum = 0; final_tainted = 0;
    opt = agg (); eval_run = agg (); acquire_core = agg (); core_step = agg ();
    eval_slots = 0; evals = 0; checked = 0; mismatches = [] }

let check t what ok =
  t.checked <- t.checked + 1;
  if not ok then t.mismatches <- what :: t.mismatches

let cfg = Workload.cfg

(* --- phase 3 ------------------------------------------------------------ *)

(* Steps a pooled testbench slot by slot in [Dualcore.step]'s order:
   both cores, then the taint pair, the population count and the
   per-module breakdown the taint log records.  Returns the slot count. *)
let step_dual t tb =
  let a = Dualcore.core_a tb and b = Dualcore.core_b tb in
  let taint = Dualcore.taint tb in
  let rec loop slots prev =
    if Core.is_done a && Core.is_done b then slots
    else begin
      let sa = Core.step a in
      let sb = Core.step b in
      let t1 = Mono.now () in
      add t.cores (t1 - prev);
      let t3 =
        match (sa, sb) with
        | None, None -> t1
        | _ ->
            Taintstate.apply_pair taint sa sb;
            let t2 = Mono.now () in
            add t.apply (t2 - t1);
            let total = Taintstate.tainted_count taint in
            ignore (Sys.opaque_identity (Taintstate.tainted_by_module taint));
            let t3 = Mono.now () in
            add t.log (t3 - t2);
            t.tainted_sum <- t.tainted_sum + total;
            t3
      in
      loop (slots + 1) t3
    end
  in
  loop 0 (Mono.now ())

let replay_dual t ~mode ~secret tcase =
  let log_bound = Workload.log_bound in
  (* Reference: the library's own run of the same input. *)
  let ref_tb = Simpool.acquire ~log_bound ~mode cfg (Packet.stimulus ~secret tcase) in
  let ref_r = Dualcore.run ~budget:Workload.budget ref_tb in
  let ref_ha = Core.state_hash (Dualcore.core_a ref_tb) in
  let ref_hb = Core.state_hash (Dualcore.core_b ref_tb) in
  (* Replay, layer by layer. *)
  let t0 = Mono.now () in
  let stim = Packet.stimulus ~secret tcase in
  let t1 = Mono.now () in
  let tb = Simpool.acquire ~log_bound ~mode cfg stim in
  let t2 = Mono.now () in
  add t.stimulus (t1 - t0);
  add t.acquire (t2 - t1);
  let slots = step_dual t tb in
  let t3 = Mono.now () in
  let r = Dualcore.run tb in
  add t.collect (Mono.now () - t3);
  t.dual_runs <- t.dual_runs + 1;
  t.final_tainted <- t.final_tainted + List.length r.Dualcore.r_final_tainted;
  check t "dual state_hash a" (Core.state_hash (Dualcore.core_a tb) = ref_ha);
  check t "dual state_hash b" (Core.state_hash (Dualcore.core_b tb) = ref_hb);
  check t "dual tainted_elems"
    (Taintstate.tainted_elems (Dualcore.taint tb) = ref_r.Dualcore.r_final_tainted);
  check t "dual slots" (slots = ref_r.Dualcore.r_slots);
  ref_r

(* One recorded analysis: [Oracle.analyze] itself, timed in this pass so
   its self time is measured against children timed moments apart; then
   the main run, plus the sanitize run whenever the oracle performed it
   (any live candidate sink, or a watchdog budget — always armed here —
   and a main run that did not time out). *)
let replay_analysis t ~mode ~secret comp (a : Traced.analysis) =
  let t0 = Mono.now () in
  let again =
    Oracle.analyze ~mode ~log_bound:Workload.log_bound ~budget:Workload.budget cfg
      ~secret comp
  in
  add t.analyze (Mono.now () - t0);
  check t "analysis repeat" (Traced.summarize again = a);
  let main = replay_dual t ~mode ~secret comp in
  check t "analysis main run"
    (main.Dualcore.r_slots = a.Traced.an_slots
    && main.Dualcore.r_cycles_a = a.Traced.an_cycles_a
    && main.Dualcore.r_cycles_b = a.Traced.an_cycles_b);
  if not main.Dualcore.r_timed_out then begin
    let t0 = Mono.now () in
    let san = Window_gen.sanitize cfg comp in
    add t.sanitize (Mono.now () - t0);
    ignore (replay_dual t ~mode ~secret san)
  end

(* --- phase 1 ------------------------------------------------------------ *)

let replay_eval t tc =
  let secret = Trigger_opt.eval_secret in
  let ref_core = Simpool.acquire_core cfg (Packet.stimulus ~secret tc) in
  let ref_slots = List.length (Core.run ref_core) in
  let ref_hash = Core.state_hash ref_core in
  let t0 = Mono.now () in
  let stim = Packet.stimulus ~secret tc in
  let t1 = Mono.now () in
  let core = Simpool.acquire_core cfg stim in
  let t2 = Mono.now () in
  add t.acquire_core (t2 - t1);
  let rec loop slots prev =
    let s = Core.step core in
    let now = Mono.now () in
    add t.core_step (now - prev);
    match s with None -> slots | Some _ -> loop (slots + 1) now
  in
  let slots = loop 0 t2 in
  let fired = Trigger_gen.triggered tc (Core.windows core) in
  add t.eval_run (Mono.now () - t0);
  t.eval_slots <- t.eval_slots + slots;
  t.evals <- t.evals + 1;
  check t "core state_hash" (Core.state_hash core = ref_hash);
  check t "core slots" (slots = ref_slots);
  fired

(* [Trigger_opt.reduce]'s walk over the training packets, evaluating
   each candidate through the replay. *)
let replay_reduce t tc =
  let rec go kept = function
    | [] -> List.rev kept
    | p :: rest ->
        let candidate = Packet.with_trigger_trainings tc (List.rev_append kept rest) in
        if replay_eval t candidate then go kept rest else go (p :: kept) rest
  in
  if not (replay_eval t tc) then tc
  else Packet.with_trigger_trainings tc (go [] tc.Packet.trigger_trainings)

(* Phase 1 of a fresh iteration: the library's [evaluate] (and [reduce]
   when it fired), timed in this pass, then the same calls replayed. *)
let replay_phase1 t (it : Traced.iter) tc =
  let t0 = Mono.now () in
  let fired = Trigger_opt.evaluate cfg tc in
  let reduced = if fired then Some (fst (Trigger_opt.reduce cfg tc)) else None in
  add t.opt (Mono.now () - t0);
  check t "evaluate repeat" (fired = it.Traced.it_fired);
  check t "reduce repeat" (reduced = it.Traced.it_reduced);
  check t "evaluate" (replay_eval t tc = fired);
  match reduced with
  | Some r -> check t "reduce" (replay_reduce t tc = r)
  | None -> ()

let replay_iter t ~mode ~secret (it : Traced.iter) =
  Option.iter (replay_phase1 t it) it.Traced.it_generated;
  match (it.Traced.it_completed, it.Traced.it_analysis) with
  | Some comp, Some a -> replay_analysis t ~mode ~secret comp a
  | _ -> ()
