(** Chrome [trace_event] export.

    Renders the profiler's recorded regions ({!Profile.events}) as a
    Perfetto/chrome://tracing-loadable JSON object: complete ["X"]
    events on one track per worker domain (tid = the worker index set
    via {!Profile.set_tid}), plus ["M"] thread-name and process-name
    metadata.  Timestamps are microseconds relative to the earliest
    recorded region.

    Both forms take [(pid, process_name, events)] groups — a single
    process passes one group; a fleet passes one per process, events
    already shifted onto the coordinator's clock — and share a single
    time base across groups, so a merged fleet trace renders as one
    named row group per worker process. *)

val render_multi : (int * string * Profile.event list) list -> string

val write_file_multi :
  string -> (int * string * Profile.event list) list -> unit
(** Writes {!render_multi} (plus a trailing newline) to [path]. *)
