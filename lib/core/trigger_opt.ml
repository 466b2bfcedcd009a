module Core = Dvz_uarch.Core
module Swapmem = Dvz_soc.Swapmem

let eval_secret = Array.make Dvz_soc.Layout.secret_dwords 0x5A

(* Reduction re-evaluates once per training packet, so this is the hottest
   construction site in phase 1 — draw the testbench from the per-domain
   pool and re-arm it instead of rebuilding, and step it with
   [Core.finish], which builds no slot: only the windows are inspected. *)
let fires cfg tc stim =
  let core = Simpool.acquire_core cfg stim in
  Core.finish core;
  Trigger_gen.triggered tc (Core.windows core)

let evaluate cfg tc = fires cfg tc (Packet.stimulus ~secret:eval_secret tc)

let reduce cfg tc =
  (* Walk the trigger training packets in schedule order; drop each whose
     removal leaves the window triggering.  [tc] itself is known to
     trigger: every caller has just evaluated it.  The packets are encoded
     once; a candidate only reschedules them.  Blob indices follow
     [Packet.stimulus]: window trainings, trigger trainings, transient. *)
  let base = Packet.stimulus ~secret:eval_secret tc in
  let nw = List.length tc.Packet.window_trainings in
  let transient = nw + List.length tc.Packet.trigger_trainings in
  let window_trainings = List.init nw Fun.id in
  (* [kept] holds (blob index, packet) pairs, newest first; [i] is the
     index of the packet the candidate drops. *)
  let rec go kept removed i = function
    | [] -> (List.rev_map snd kept, removed)
    | p :: rest ->
        let sched =
          window_trainings
          @ List.rev_map fst kept
          @ List.init (transient - i) (fun k -> i + 1 + k)
        in
        let swap = Swapmem.with_schedule base.Core.st_swapmem sched in
        if fires cfg tc { base with Core.st_swapmem = swap } then
          go kept (removed + 1) (i + 1) rest
        else go ((i, p) :: kept) removed (i + 1) rest
  in
  match go [] 0 nw tc.Packet.trigger_trainings with
  | _, 0 -> (tc, 0)
  | kept, removed -> (Packet.with_trigger_trainings tc kept, removed)
