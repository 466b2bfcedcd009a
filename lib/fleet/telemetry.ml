(* The coordinator's half of the fleet telemetry plane.

   Workers flush [Telemetry] frames every heartbeat interval (the flush
   is the heartbeat); this module turns them into a per-slot aggregate
   the observers read: worker-labelled metrics groups for /metrics and
   the JSON exporter, merged profiles for --profile, clock-aligned trace
   events for the merged Chrome trace, and the per-slot rows of /fleet
   and /status.

   The plane keeps only what Telemetry frames and the Hello clock carry,
   plus each slot's restart log.  Supervision facts — pid, state,
   deaths, outcomes, last-frame age — live in the coordinator's worker
   record alone; the coordinator publishes them here as one snapshot,
   and [fleet_json] joins that snapshot with each slot's telemetry
   stats, so every fact appears once.

   Incarnations make respawns safe: each slot's spawn generation is
   stamped into every frame its worker sends, and a frame whose
   incarnation is not the slot's death count (which the coordinator
   passes to [ingest]) is counted and dropped — a SIGKILLed predecessor
   whose last flush was still in the pipe cannot pollute its
   successor's aggregates.  Within an incarnation the metrics/profile
   payloads are cumulative, so ingest is last-wins; across incarnations
   the retired generations' final batches are summed (via
   {!Dvz_obs.Metrics.merge}/{!Dvz_obs.Profile.merge}) so a slot's series
   reflect everything its workers ever did.

   Everything here is observation: nothing the campaign folds into
   results ever reads this state, which is what keeps fleet output
   byte-identical to --jobs 1 regardless of telemetry traffic. *)

module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile
module Events = Dvz_obs.Events
module Clock = Dvz_obs.Clock
module Json = Dvz_obs.Json

(* Per-slot retained trace events; overflow is counted, not grown. *)
let trace_cap = 262_144

type slot_state = {
  ss_slot : int;
  ss_reg : Metrics.t;
      (* coordinator-side per-slot series (flush intervals, batch
         counts, ...) — merged into the slot's label group *)
  ss_hb_interval : Metrics.histogram;
  ss_batches : Metrics.counter;
  ss_stale : Metrics.counter;
  mutable ss_clock_offset_s : float;  (* coordinator now - worker clock *)
  mutable ss_hb_last : float;  (* arrival of the last flush; nan after Hello *)
  mutable ss_current : Wire.telemetry_batch option;  (* this incarnation *)
  mutable ss_retired_metrics : Metrics.snapshot;  (* Σ dead incarnations *)
  mutable ss_retired_profile : Profile.entry list;
  mutable ss_trace : Profile.event list;  (* shifted, newest first *)
  mutable ss_trace_len : int;
  mutable ss_trace_dropped : int;
      (* coordinator-side cap overflow + dead incarnations' own drops *)
  mutable ss_events_dropped : int;    (* Σ worker-side event overflow *)
  mutable ss_restarts : (float * string) list;  (* newest first *)
}

type worker_row = {
  wr_slot : int;
  wr_pid : int;
  wr_state : string;
  wr_deaths : int;
  wr_outcomes : int;
  wr_last_frame_age_s : float;
}

type supervision = {
  sv_epoch : int;
  sv_workers : worker_row list;
  sv_counters : (string * int) list;
}

type t = {
  p_clock : Clock.t;
  p_mutex : Mutex.t;
  p_slots : (int, slot_state) Hashtbl.t;
  p_events : Events.sink;
  p_started : float;
  mutable p_supervision : supervision option;
}

let create ?(clock = Clock.real) ?(events = Events.null) () =
  { p_clock = clock;
    p_mutex = Mutex.create ();
    p_slots = Hashtbl.create 8;
    p_events = events;
    p_started = Clock.now clock;
    p_supervision = None }

let locked t f =
  Mutex.lock t.p_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.p_mutex) f

let new_slot_state t slot =
  let reg = Metrics.create ~clock:t.p_clock () in
  { ss_slot = slot;
    ss_reg = reg;
    ss_hb_interval =
      Metrics.histogram reg
        ~help:"Seconds between telemetry flushes (heartbeats) from this worker"
        "dvz_fleet_heartbeat_interval_seconds";
    ss_batches =
      Metrics.counter reg
        ~help:"Telemetry batches ingested from this worker slot"
        "dvz_fleet_telemetry_batches_total";
    ss_stale =
      Metrics.counter reg
        ~help:
          "Telemetry frames dropped because they carried a stale incarnation"
        "dvz_fleet_telemetry_stale_total";
    ss_clock_offset_s = 0.0;
    ss_hb_last = nan;
    ss_current = None;
    ss_retired_metrics = Metrics.empty_snapshot;
    ss_retired_profile = [];
    ss_trace = [];
    ss_trace_len = 0;
    ss_trace_dropped = 0;
    ss_events_dropped = 0;
    ss_restarts = [] }

let slot_state t slot =
  match Hashtbl.find_opt t.p_slots slot with
  | Some ss -> ss
  | None ->
      let ss = new_slot_state t slot in
      Hashtbl.replace t.p_slots slot ss;
      ss

let hello t ~slot ~clock_us =
  locked t (fun () ->
      let ss = slot_state t slot in
      ss.ss_clock_offset_s <-
        Clock.now t.p_clock -. (float_of_int clock_us /. 1e6);
      ss.ss_hb_last <- nan)

(* The slot's worker died: its current incarnation will never flush
   again, so fold its final cumulative batch (aggregates and trace-drop
   count) into the retired sums and log the restart.  The coordinator's
   death count, against which [ingest] checks incarnations, has already
   moved on. *)
let record_restart t ~slot ~reason =
  locked t (fun () ->
      let ss = slot_state t slot in
      (match ss.ss_current with
      | None -> ()
      | Some b ->
          ss.ss_retired_metrics <-
            Metrics.merge ss.ss_retired_metrics b.Wire.tb_metrics;
          ss.ss_retired_profile <-
            Profile.merge ss.ss_retired_profile b.Wire.tb_profile;
          ss.ss_trace_dropped <- ss.ss_trace_dropped + b.Wire.tb_trace_dropped;
          ss.ss_current <- None);
      ss.ss_restarts <-
        (Clock.now t.p_clock -. t.p_started, reason) :: ss.ss_restarts)

let ingest t ~slot ~deaths ~incarnation (batch : Wire.telemetry_batch) =
  let replay =
    locked t (fun () ->
        let ss = slot_state t slot in
        if incarnation <> deaths then begin
          Metrics.incr ss.ss_stale;
          None
        end
        else begin
          let now = Clock.now t.p_clock in
          if not (Float.is_nan ss.ss_hb_last) then
            Metrics.observe ss.ss_hb_interval (now -. ss.ss_hb_last);
          ss.ss_hb_last <- now;
          Metrics.incr ss.ss_batches;
          ss.ss_current <- Some batch;
          ss.ss_events_dropped <-
            ss.ss_events_dropped + batch.Wire.tb_events_dropped;
          (* Trace deltas append, shifted onto the coordinator's clock
             and capped per slot. *)
          List.iter
            (fun ev ->
              if ss.ss_trace_len >= trace_cap then
                ss.ss_trace_dropped <- ss.ss_trace_dropped + 1
              else begin
                ss.ss_trace <-
                  { ev with
                    Profile.ev_start =
                      ev.Profile.ev_start +. ss.ss_clock_offset_s }
                  :: ss.ss_trace;
                ss.ss_trace_len <- ss.ss_trace_len + 1
              end)
            batch.Wire.tb_trace;
          Some
            (Events.with_context t.p_events
               [ ("wslot", Json.Int slot); ("winc", Json.Int incarnation) ])
        end)
  in
  (* Event lines replay outside the plane lock: ring sinks have their
     own, and a slow sink must not stall frame handling for other
     slots' state readers. *)
  match replay with
  | None -> false
  | Some sink ->
      List.iter (Events.emit_rendered sink) batch.Wire.tb_events;
      true

let stale_frames t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ ss n -> n + Metrics.counter_value ss.ss_stale)
        t.p_slots 0)

let merged_slot_metrics ss =
  let base =
    match ss.ss_current with
    | None -> ss.ss_retired_metrics
    | Some b -> Metrics.merge ss.ss_retired_metrics b.Wire.tb_metrics
  in
  Metrics.merge base (Metrics.snapshot ss.ss_reg)

let merged_slot_profile ss =
  match ss.ss_current with
  | None -> ss.ss_retired_profile
  | Some b -> Profile.merge ss.ss_retired_profile b.Wire.tb_profile

let sorted_slots t =
  Hashtbl.fold (fun _ ss acc -> ss :: acc) t.p_slots []
  |> List.sort (fun a b -> compare a.ss_slot b.ss_slot)

let worker_metrics t =
  locked t (fun () ->
      List.map (fun ss -> (ss.ss_slot, merged_slot_metrics ss))
        (sorted_slots t))

let worker_profiles t =
  locked t (fun () ->
      List.map (fun ss -> (ss.ss_slot, merged_slot_profile ss))
        (sorted_slots t))

let merged_profile t =
  List.fold_left
    (fun acc (_, p) -> Profile.merge acc p)
    [] (worker_profiles t)

let trace_groups t =
  locked t (fun () ->
      List.filter_map
        (fun ss ->
          if ss.ss_trace = [] then None
          else
            Some
              ( (* pid 1 is the coordinator's group in the merged trace *)
                ss.ss_slot + 2,
                Printf.sprintf "dejavuzz worker %d" ss.ss_slot,
                List.sort
                  (fun a b ->
                    compare
                      (a.Profile.ev_start, a.Profile.ev_tid)
                      (b.Profile.ev_start, b.Profile.ev_tid))
                  ss.ss_trace ))
        (sorted_slots t))

let publish t sv = locked t (fun () -> t.p_supervision <- Some sv)

(* One slot's row: the coordinator's supervision facts, then the
   plane's own per-slot stats (zeros for a slot that has not said Hello
   yet, without registering it). *)
let row_json t w =
  let ss =
    match Hashtbl.find_opt t.p_slots w.wr_slot with
    | Some ss -> ss
    | None -> new_slot_state t w.wr_slot
  in
  Json.Obj
    [ ("slot", Json.Int w.wr_slot);
      ("pid", Json.Int w.wr_pid);
      ("state", Json.Str w.wr_state);
      ("incarnation", Json.Int w.wr_deaths);
      ("outcomes", Json.Int w.wr_outcomes);
      ("last_frame_age_s", Json.Float w.wr_last_frame_age_s);
      ( "telemetry_batches",
        Json.Int (Metrics.counter_value ss.ss_batches) );
      ("stale_frames", Json.Int (Metrics.counter_value ss.ss_stale));
      ("trace_events", Json.Int ss.ss_trace_len);
      ( "trace_dropped",
        Json.Int
          (ss.ss_trace_dropped
          + match ss.ss_current with
            | Some b -> b.Wire.tb_trace_dropped
            | None -> 0) );
      ("events_dropped", Json.Int ss.ss_events_dropped);
      ( "restart_log",
        Json.Arr
          (List.rev_map
             (fun (at, reason) ->
               Json.Obj
                 [ ("at_s", Json.Float at); ("reason", Json.Str reason) ])
             ss.ss_restarts) ) ]

let fleet_json t =
  locked t (fun () ->
      match t.p_supervision with
      | None -> Json.Obj [ ("phase", Json.Str "starting") ]
      | Some sv ->
          Json.Obj
            (("epoch", Json.Int sv.sv_epoch)
            :: ("workers", Json.Arr (List.map (row_json t) sv.sv_workers))
            :: List.map (fun (k, v) -> (k, Json.Int v)) sv.sv_counters))
