(** Structured JSONL event sinks.

    A campaign streams one JSON object per line to a sink: [iteration]
    records during the run, [finding] records as bugs dedup, and a
    [campaign_end] summary.  Sinks are cheap to test for no-op-ness so
    hot loops can skip building the record entirely, and line emission
    is mutex-protected so parallel campaigns (Fig. 7 trials, Table 5
    cores) can share one file without interleaving partial lines. *)

type sink

val null : sink
(** Drops everything; {!is_null} is true. *)

val to_buffer : Buffer.t -> sink
val to_channel : out_channel -> sink

val ring : ?cap:int -> unit -> sink
(** A bounded in-memory ring of the most recent [cap] (default 1024)
    emitted lines, for serving [/events?n=K] tails without touching the
    on-disk log. *)

val batch : ?cap:int -> unit -> sink
(** A bounded FIFO of at most [cap] (default 512) emitted lines between
    {!drain} calls; further emissions are dropped and counted rather
    than unbounded.  The fleet worker buffers its lifecycle events here
    and ships them with each telemetry flush. *)

val tee : sink -> sink -> sink
(** Fans every emitted line out to both sinks.  The line is rendered
    once with the tee's own context; each leaf appends under its own
    lock. *)

val with_context : sink -> (string * Json.t) list -> sink
(** A view of the same sink that appends the given fields to every
    emitted record — how parallel trials label their events (e.g.
    [("fuzzer", Str "DejaVuzz"); ("trial", Int 3)]).  The underlying
    target and lock are shared with the parent. *)

val defer : sink -> sink * (unit -> unit)
(** [defer sink] is a sink that renders each line exactly as [sink]
    would (same context fields) but holds it in memory, paired with a
    [commit] that appends the held lines to [sink] in emission order
    and empties the hold.  Parallel campaigns sharing one sink each run
    into their own deferred sink and commit in a fixed order, so the
    shared log's line order does not depend on scheduling.  On a null
    [sink], the null sink and a no-op commit. *)

val is_null : sink -> bool
(** True when emission would be a no-op — guard record construction on
    this in hot paths. *)

val emit : sink -> (string * Json.t) list -> unit
(** Writes the fields (followed by the sink's context fields) as one
    compact JSON object terminated by a newline.  Atomic per line. *)

val emit_rendered : sink -> string -> unit
(** Writes an already-rendered JSON object line, splicing this sink's
    context fields into the object — how the coordinator replays a
    worker's batched event lines into the [/events] ring with a
    worker-slot label on each.  A line that is not [{...}]-shaped is
    wrapped as [{"line": ..., <context>}] instead of guessed at. *)

val recent : sink -> int -> string list
(** The last [n] lines held by a {!ring} sink, oldest first (fewer if
    the ring has seen fewer).  On a {!tee}, the first branch holding
    lines wins; [[]] for other sinks. *)

val drain : sink -> string list * int
(** Takes everything a {!batch} sink holds — the buffered lines (oldest
    first) and the count of lines dropped since the previous drain —
    and empties it.  On a {!tee}, both branches are drained and their
    results concatenated; [([], 0)] for other sinks. *)

val flush : sink -> unit
