(* Payload codecs for the opaque strings carried inside {!Proto} frames.

   Values cross the pipe with [Marshal]: coordinator and workers are
   always the same executable (the worker entrypoint is a hidden
   subcommand), so representation compatibility is guaranteed, and the
   frame CRC already rejects bit damage.  Each payload is wrapped as
   [(wire_version, tag, value)] so a build mismatch or a cross-kind mixup
   is caught by an explicit check instead of a segfault deep in the
   runtime. *)

module Config = Dvz_uarch.Config
module Scheduler = Dejavuzz.Scheduler
module Executor = Dejavuzz.Executor

let wire_version = 1

type spec = {
  w_cfg : Config.t;
  w_style : [ `Derived | `Random ];
  w_taint_mode : Dvz_ift.Policy.mode;
  w_secret : int array;
  w_fault_plan : Dvz_resilience.Fault.plan;
  w_max_slots : int option;
  w_max_wall_s : float option;
  w_jobs : int;
  w_heartbeat_s : float;
  w_profile : bool;
  w_trace : bool;
}

let pack tag v = Marshal.to_string (wire_version, tag, v) []

let unpack : type a. string -> string -> (a, string) result =
 fun tag s ->
  match (Marshal.from_string s 0 : int * string * a) with
  | exception _ -> Error (Printf.sprintf "%s payload does not unmarshal" tag)
  | v, t, _ when v <> wire_version || t <> tag ->
      Error
        (Printf.sprintf
           "%s payload has wire version %d tag %S (this build speaks v%d)"
           tag v t wire_version)
  | _, _, value -> Ok value

let spec_to_string (s : spec) = pack "spec" s
let spec_of_string s : (spec, string) result = unpack "spec" s

let plans_to_string (ps : Scheduler.plan list) = pack "plans" ps
let plans_of_string s : (Scheduler.plan list, string) result = unpack "plans" s

(* The taint log, window points and window records of a dual-DUT run
   dominate an outcome's size and are only consumed executor-side (the
   oracle has already distilled them into [a_leaks]/[a_attack], and the
   coverage shard [oc_coverage] holds the set of the window points); the
   coordinator's fold reads [r_slots] and the scalar counters.  Strip them
   before the wire so an assignment's worth of outcomes stays in the tens
   of kilobytes. *)
let slim (o : Executor.outcome) =
  match o.Executor.oc_analysis with
  | None -> o
  | Some a ->
      let r = a.Dejavuzz.Oracle.a_result in
      { o with
        Executor.oc_analysis =
          Some
            { a with
              Dejavuzz.Oracle.a_result =
                { r with
                  Dvz_uarch.Dualcore.r_log = [];
                  r_window_counts = [];
                  r_windows_a = [];
                  r_windows_b = [] } } }

let outcome_to_string (o : Executor.outcome) = pack "outcome" (slim o)
let outcome_of_string s : (Executor.outcome, string) result =
  unpack "outcome" s

(* One telemetry flush.  Metrics and profile aggregates are CUMULATIVE
   since the worker process started — the coordinator keeps only the
   latest batch per (slot, incarnation), so a lost flush costs staleness
   for one heartbeat, never double counting.  Trace events and event
   lines are DELTAS (a cursor-suffix read / a drained queue): the
   coordinator appends them, and a flush lost with its process loses
   only that window's events. *)
type telemetry_batch = {
  tb_metrics : Dvz_obs.Metrics.snapshot;
  tb_profile : Dvz_obs.Profile.entry list;
  tb_trace : Dvz_obs.Profile.event list;
  tb_trace_dropped : int;
  tb_events : string list;
  tb_events_dropped : int;
}

let telemetry_to_string (b : telemetry_batch) = pack "telemetry" b
let telemetry_of_string s : (telemetry_batch, string) result =
  unpack "telemetry" s
