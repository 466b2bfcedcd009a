(** The coordinator's per-slot telemetry aggregation state.

    Workers flush {!Proto.msg.Telemetry} frames every heartbeat interval
    (the flush is the heartbeat); the coordinator ingests them here,
    labelled by worker slot and incarnation, and observers read the
    merged views: one [worker="N"] Prometheus label group per slot,
    merged coordinator+worker profiles, clock-aligned trace groups for
    the merged Chrome trace, and the per-slot rows of [/fleet].

    The plane keeps only what [Telemetry] frames and the [Hello] clock
    carry, plus each slot's restart log.  Supervision facts (pid, state,
    deaths, outcomes, last-frame age) are the coordinator's; it
    {!publish}es them here, and {!fleet_json} joins them with each
    slot's telemetry stats so that no fact is kept or shown twice.

    Frames stamped with an incarnation other than the slot's death count
    (a SIGKILLed predecessor's last flush still in the pipe) are counted
    and dropped.  Within an incarnation the cumulative metrics/profile
    payloads are last-wins; retired incarnations' final batches are
    folded in via {!Dvz_obs.Metrics.merge} and {!Dvz_obs.Profile.merge},
    so slot aggregates survive respawns without double counting.

    All operations are mutex-protected and touched only on frame
    arrival, supervision publishes or observer reads — never on the
    campaign's fold path, so telemetry cannot perturb campaign
    results. *)

type t

val create : ?clock:Dvz_obs.Clock.t -> ?events:Dvz_obs.Events.sink -> unit -> t
(** [events] (default null) receives each worker event line with
    [wslot]/[winc] context spliced in — wire it to the [/events] ring.
    Each slot retains at most 262144 trace events; overflow is counted,
    not grown. *)

val hello : t -> slot:int -> clock_us:int -> unit
(** A worker announced itself: record the clock offset (coordinator now
    minus the worker's [clock_us]) used to shift its trace events onto
    the coordinator's time axis. *)

val record_restart : t -> slot:int -> reason:string -> unit
(** The slot's worker died: fold its current incarnation's final batch
    (metrics, profile, trace-drop count) into the retired aggregates and
    append to the restart log. *)

val ingest :
  t -> slot:int -> deaths:int -> incarnation:int -> Wire.telemetry_batch ->
  bool
(** Ingest one flush from a worker of spawn generation [incarnation];
    [deaths] is the slot's death count in the coordinator.  Returns
    [false] (and counts a stale frame) when the two differ; otherwise
    observes the flush interval, stores the batch last-wins, appends its
    clock-shifted trace delta, replays its event lines into the
    [events] sink, and returns [true]. *)

val stale_frames : t -> int
(** Stale frames dropped, summed over slots. *)

(** {2 The fleet view} *)

(** One slot's supervision facts, from the coordinator's worker
    record. *)
type worker_row = {
  wr_slot : int;
  wr_pid : int;  (** 0 unless live *)
  wr_state : string;  (** ["live"] / ["backoff"] / ["retired"] *)
  wr_deaths : int;  (** the incarnation of the slot's latest worker *)
  wr_outcomes : int;  (** [Outcome] frames recorded, all incarnations *)
  wr_last_frame_age_s : float;  (** seconds since the last frame, if live *)
}

type supervision = {
  sv_epoch : int;
  sv_workers : worker_row list;  (** one per slot, ascending *)
  sv_counters : (string * int) list;
      (** the fleet-wide supervision counters, keyed as in the JSON *)
}

val publish : t -> supervision -> unit
(** Replaces the supervision snapshot {!fleet_json} renders. *)

val fleet_json : t -> Dvz_obs.Json.t
(** The one JSON behind [/fleet] and [/status]'s ["fleet"] block:
    [{"epoch", "workers": [...], <counters>}], where each worker row
    holds the slot's supervision facts (pid, state, incarnation,
    outcomes, last-frame age) joined with its telemetry stats
    (telemetry batches, stale frames, trace events and trace/event loss
    counts) and its restart log.  [{"phase": "starting"}] before the
    first {!publish}. *)

val worker_metrics : t -> (int * Dvz_obs.Metrics.snapshot) list
(** Per slot (ascending): the worker's latest cumulative snapshot,
    merged across retired incarnations and with the coordinator-side
    per-slot series (flush intervals, batch/stale counters). *)

val merged_profile : t -> Dvz_obs.Profile.entry list
(** All slots' profiles folded into one (the caller merges in the
    coordinator's own). *)

val trace_groups : t -> (int * string * Dvz_obs.Profile.event list) list
(** Per-slot [(pid, process_name, events)] groups for
    {!Dvz_obs.Trace_event.write_file_multi}: pid [slot + 2] (pid 1 is the
    coordinator), events shifted onto the coordinator's clock and
    start-sorted.  Slots with no trace are omitted. *)
