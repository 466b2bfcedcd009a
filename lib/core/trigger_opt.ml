module Core = Dvz_uarch.Core

let eval_secret = Array.make Dvz_soc.Layout.secret_dwords 0x5A

let evaluate cfg tc =
  (* Reduction re-evaluates once per training packet, so this is the
     hottest construction site in phase 1 — draw the testbench from the
     per-domain pool and re-arm it instead of rebuilding. *)
  let stim = Packet.stimulus ~secret:eval_secret tc in
  let core = Simpool.acquire_core cfg stim in
  ignore (Core.run core);
  Trigger_gen.triggered tc (Core.windows core)

let reduce cfg tc =
  (* Walk the trigger training packets in schedule order; drop each whose
     removal leaves the window triggering.  [tc] itself is known to
     trigger: every caller has just evaluated it. *)
  let rec go kept removed = function
    | [] -> (List.rev kept, removed)
    | p :: rest ->
        let candidate =
          Packet.with_trigger_trainings tc (List.rev_append kept rest)
        in
        if evaluate cfg candidate then go kept (removed + 1) rest
        else go (p :: kept) removed rest
  in
  match go [] 0 tc.Packet.trigger_trainings with
  | _, 0 -> (tc, 0)
  | kept, removed -> (Packet.with_trigger_trainings tc kept, removed)
