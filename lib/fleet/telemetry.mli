(** The coordinator's per-slot telemetry aggregation state.

    Workers flush {!Proto.msg.Telemetry} frames on the heartbeat
    cadence; the coordinator ingests them here, labelled by worker slot
    and incarnation, and observers read the merged views: one
    [worker="N"] Prometheus label group per slot, merged
    coordinator+worker profiles, clock-aligned trace groups for the
    merged Chrome trace, and per-slot health for [/fleet].

    Frames stamped with an incarnation other than the slot's current
    one (a SIGKILLed predecessor's last flush still in the pipe) are
    counted and dropped.  Within an incarnation the cumulative
    metrics/profile payloads are last-wins; retired incarnations' final
    batches are folded in via {!Dvz_obs.Metrics.merge} and
    {!Dvz_obs.Profile.merge}, so slot aggregates survive respawns
    without double counting.

    All operations are mutex-protected and touched only on frame
    arrival or observer reads — never on the campaign's fold path, so
    telemetry cannot perturb campaign results. *)

type t

val create :
  ?clock:Dvz_obs.Clock.t ->
  ?events:Dvz_obs.Events.sink ->
  ?trace_cap:int ->
  unit ->
  t
(** [events] (default null) receives each worker event line with
    [wslot]/[winc] context spliced in — wire it to the [/events] ring.
    [trace_cap] (default 262144) bounds retained trace events per slot;
    overflow is counted, not grown. *)

val hello : t -> slot:int -> incarnation:int -> pid:int -> clock_us:int -> unit
(** A worker announced itself: record its generation, pid, and the
    clock offset (coordinator now minus the worker's [clock_us]) used
    to shift its trace events onto the coordinator's time axis. *)

val heartbeat : t -> slot:int -> done_count:int -> unit
(** Records the heartbeat arrival: inter-arrival interval into the
    slot's [dvz_fleet_heartbeat_interval_seconds] histogram, last-seen,
    and the worker's cumulative iteration count. *)

val seen : t -> slot:int -> unit
(** Bumps the slot's last-seen timestamp (called on any frame). *)

val record_restart : t -> slot:int -> reason:string -> unit
(** The slot's worker died: fold its current incarnation's final batch
    into the retired aggregates, advance the expected incarnation (so
    in-flight frames from the dead generation drop as stale), and
    append to the restart timeline. *)

val ingest : t -> slot:int -> incarnation:int -> Wire.telemetry_batch -> bool
(** Ingest one flush.  Returns [false] (and counts it) when the frame's
    incarnation is stale; otherwise stores the batch last-wins, appends
    its clock-shifted trace delta, replays its event lines into the
    [events] sink, and returns [true]. *)

val stale_frames : t -> int

val worker_metrics : t -> (int * Dvz_obs.Metrics.snapshot) list
(** Per slot (ascending): the worker's latest cumulative snapshot,
    merged across retired incarnations and with the coordinator-side
    per-slot series (heartbeat intervals, batch/stale counters). *)

val merged_profile : t -> Dvz_obs.Profile.entry list
(** All slots' profiles folded into one (the caller merges in the
    coordinator's own). *)

val trace_groups : t -> (int * string * Dvz_obs.Profile.event list) list
(** Per-slot [(pid, process_name, events)] groups for
    {!Dvz_obs.Trace_event.write_file_multi}: pid [slot + 2] (pid 1 is the
    coordinator), events shifted onto the coordinator's clock and
    start-sorted.  Slots with no trace are omitted. *)

val health_json : t -> Dvz_obs.Json.t
(** [{"stale_frames": ..., "workers": [...]}] — per-slot incarnation,
    pid, iterations, last-seen, heartbeat stats, batch/stale counts,
    trace totals and the restart timeline, for [/fleet]. *)
