(** Metrics registry: named counters, gauges and log₂-bucketed
    histograms.

    The paper's fuzzing manager is an instrumented pipeline (per-phase
    overheads in Tables 3–4, coverage growth in Fig. 7); this registry is
    the in-process store those numbers flow through.  Hot-path
    instrumentation (dual-DUT simulation, oracles, parallel map workers)
    writes to the shared {!default} registry; campaigns and tests may
    carry a private registry with a {!Clock.fake} clock for
    deterministic output.

    Counters are updated with [Atomic] operations and registration is
    mutex-protected, so metrics may be touched concurrently from
    multiple domains (the parallel experiment runners do).  Registration
    is idempotent: asking twice for the same name returns the same
    metric. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : ?clock:Clock.t -> unit -> t
(** Fresh registry.  Its clock (default {!Clock.real}) is the one
    {!clock} hands to the code that times work into the registry — the
    campaign's phase and batch histograms read it. *)

val default : t
(** The process-wide registry that library instrumentation hooks use. *)

val clock : t -> Clock.t

val reset : t -> unit
(** Zeroes every registered metric (tests and campaign isolation). *)

(** {2 Counters} — monotone integers. *)

val counter : t -> ?help:string -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {2 Gauges} — floats that go up and down. *)

val gauge : t -> ?help:string -> string -> gauge
val set : gauge -> float -> unit
val record_max : gauge -> float -> unit
(** Keeps the high-water mark: [set] only if above the current value. *)

val gauge_value : gauge -> float

(** {2 Histograms} — log₂ buckets.

    A positive observation [v] lands in the bucket whose inclusive upper
    bound is [2^ceil(log2 v)]; exact powers of two land on their own
    bound (["le"] semantics).  Non-positive observations land in the
    smallest bucket; values beyond [2^32] land in the [+inf] overflow
    bucket. *)

val histogram : t -> ?help:string -> string -> histogram
val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_upper : float -> float
(** The inclusive upper bound of the bucket an observation falls in
    (exposed for boundary tests; [infinity] for the overflow bucket). *)

(** {2 Snapshots} — a consistent, name-sorted view for exporters. *)

type hist_snapshot = {
  hs_buckets : (float * int) list;
      (** non-empty buckets as [(upper_bound, count)], ascending;
          the overflow bound is [infinity] *)
  hs_count : int;
  hs_sum : float;
}

type snapshot = {
  sn_counters : (string * string * int) list;  (** name, help, value *)
  sn_gauges : (string * string * float) list;
  sn_histograms : (string * string * hist_snapshot) list;
}

val snapshot : t -> snapshot

val empty_snapshot : snapshot
(** The identity element of {!merge}. *)

val merge : snapshot -> snapshot -> snapshot
(** Combines two snapshots name-wise: counters add, gauges keep the
    maximum, histograms add bucket-wise (counts and sums included).
    Help strings pick the lexicographically smaller non-empty one, so
    the operation is commutative — telemetry frames from fleet workers
    arrive in arbitrary order and the aggregate must not care.  Output
    lists are name-sorted like {!snapshot}'s. *)
