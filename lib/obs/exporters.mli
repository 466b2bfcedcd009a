(** Registry exporters: a JSON snapshot and Prometheus text exposition.

    The JSON form is what the CLI prints on demand and what dashboards
    would scrape from a file; the Prometheus form follows the text
    exposition format (HELP/TYPE comments, [_bucket{le="..."}] series
    with cumulative counts) so the registry can be dropped behind any
    standard scraper unchanged. *)

val snapshot_json : Metrics.snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]; each
    histogram carries [buckets] (upper bound → count, non-cumulative),
    [count] and [sum].  Keys are the raw metric names (unique by registry
    construction); exact duplicates in a hand-built snapshot are suffixed
    ["_dupN"] rather than silently shadowing on parse. *)

val render_json : Metrics.t -> string
(** One-line JSON of {!snapshot_json} of the registry. *)

val prometheus_groups :
  ((string * string) list * Metrics.snapshot) list -> string
(** Labelled exposition over label groups.  Each group is a label set
    (rendered [{k="v",...}] on every sample line, names sanitized and
    values escaped) plus a snapshot; metrics sharing a name across
    groups share one HELP/TYPE header and emit one sample line per
    group.  Histogram [le] labels are appended after the group's own
    labels.  A single registry is the one unlabelled group
    [[ ([], Metrics.snapshot t) ]]; the fleet [/metrics] endpoint passes
    the coordinator unlabelled plus one [worker="N"] group per slot. *)

val fleet_json :
  coordinator:Metrics.snapshot ->
  workers:(int * Metrics.snapshot) list ->
  Json.t
(** [{"coordinator": ..., "workers": {"0": ..., ...}}] — the JSON
    exporter's fleet shape, workers keyed by slot in ascending order. *)
