(** Hierarchical self-profiler: nested timed regions aggregated by
    call-path with count / total / self / max statistics, plus an
    optional bounded trace-event recording for Chrome [trace_event]
    export.  Process-global (like {!Metrics.default}) and domain-safe;
    when disarmed every probe is a single atomic load, and the
    recommended call pattern

    {[ if Profile.armed () then Profile.wrap "x" (fun () -> f t) else f t ]}

    keeps hot paths allocation-free. *)

type entry = {
  pf_path : string;  (** slash-joined path from the region's root *)
  pf_name : string;  (** leaf region name *)
  pf_depth : int;    (** nesting depth (0 = root region) *)
  pf_count : int;
  pf_total_s : float;
  pf_self_s : float; (** total minus time in directly nested regions *)
  pf_max_s : float;
}

type event = {
  ev_path : string;
  ev_name : string;
  ev_tid : int;     (** worker track set via {!set_tid} *)
  ev_start : float; (** absolute clock reading at region entry *)
  ev_dur : float;
}

val arm : ?clock:Clock.t -> ?trace:bool -> unit -> unit
(** Enable recording.  [trace] additionally records individual region
    events (up to 262144 per process; overflow is dropped and
    counted). *)

val disarm : unit -> unit
val armed : unit -> bool

val reset : unit -> unit
(** Drop all aggregates and recorded events.  Regions open in any
    domain are invalidated: closing them adds nothing to the fresh
    aggregates. *)

val wrap : string -> (unit -> 'a) -> 'a
(** [wrap name f] runs [f] inside a region when armed, closing it even
    on exceptions; when disarmed it is just [f ()].  Hot-path callers
    should guard with {!armed} so the closure is never allocated when
    disarmed. *)

val set_tid : int -> unit
(** Set the trace track id for the calling domain (worker index). *)

val tid : unit -> int

val snapshot : unit -> entry list
(** Aggregates sorted by path (children follow their parent). *)

val events : unit -> event list
(** Recorded trace events in start-time order (empty unless armed with
    [~trace:true]). *)

val events_dropped : unit -> int

val events_from : int -> event list * int
(** [events_from cursor] returns the recorded events at slot indices
    [>= cursor] in insertion order, plus the cursor to pass next time —
    the delta read a fleet worker uses to ship each telemetry flush
    without re-sending its whole trace buffer. *)

val merge : entry list -> entry list -> entry list
(** Path-keyed combination: counts and times add, maxima take the max.
    Commutative (same-path entries agree on name and depth), output
    path-sorted like {!snapshot} — how the coordinator folds worker
    profiles into the merged [--profile] view. *)

val render_table : entry list -> string
(** Fixed-width flat profile: one row per path with a %-of-total-self
    column, sorted by self time descending (path ascending as tiebreak)
    so repeated runs diff cleanly. *)

val to_json : entry list -> Json.t
(** [dvz-profile/1] artifact. *)
