(** The fleet's coordinator/worker wire protocol.

    Length-prefixed binary frames over pipes:

    {v
    offset  size
    0       4     magic "DVZF"
    4       1     protocol version
    5       1     message kind tag
    6       4     payload length   (big-endian)
    10      4     payload CRC-32   (big-endian)
    14      len   payload
    v}

    Opaque payloads ([Config]/[Assign]/[Outcome]/[Telemetry] carry
    {!Wire}-encoded values) travel as length-prefixed strings inside
    the frame payload; everything else is 8-byte big-endian integers.
    Validation is layered — magic, version, kind, length cap, CRC, then
    per-kind field decoding — and each layer failing yields a distinct
    {!error} rather than an exception.  A {!reader} that has reported an
    error stays poisoned: a corrupt pipe has no trustworthy frame
    boundaries left, so the supervisor's only correct move is to drop
    the peer. *)

val version : int
val header_len : int
val max_payload : int

(** The six message kinds, each carrying only what its receiver reads:
    campaign decisions (dedup, coverage, checkpoints) are made in the
    coordinator's fold, so no finding or checkpoint traffic crosses the
    pipe, and no frame names its sender — the pipe it arrives on does.
    There is no heartbeat kind: the periodic [Telemetry] flush is the
    heartbeat, and any frame proves the worker alive. *)
type msg =
  | Hello of { h_pid : int; h_clock_us : int }
      (** first frame a worker sends: its OS pid and its wall clock in
          microseconds at send time — the coordinator aligns the
          worker's trace timestamps onto its own axis from the offset
          observed here.  The pipe it arrives on names the slot. *)
  | Config of { c_payload : string }
      (** coordinator → worker: {!Wire.spec_to_string} of the campaign
          spec; sent once per worker lifetime, before any assignment *)
  | Assign of { a_epoch : int; a_payload : string }
      (** coordinator → worker: {!Wire.plans_to_string} of a shard of
          one batch's plans; the worker logs [a_epoch] in its [assign]
          event line *)
  | Outcome of { o_iteration : int; o_payload : string }
      (** worker → coordinator: {!Wire.outcome_to_string} of one
          executed plan — the corpus-delta stream the fold consumes.
          The coordinator rejects an [o_iteration] outside the batch it
          is collecting. *)
  | Shutdown  (** coordinator → worker: drain and exit cleanly *)
  | Telemetry of { t_incarnation : int; t_payload : string }
      (** worker → coordinator, every heartbeat interval and at
          shutdown: {!Wire.telemetry_to_string} of the worker's
          cumulative metrics snapshot, profiler aggregates, trace-event
          delta and buffered event lines.  [t_incarnation] is the spawn
          generation the coordinator launched this worker under; a frame
          whose incarnation is not the slot's death count (a respawned
          slot's predecessor) is ignored at ingest. *)

val kind_name : msg -> string

type error =
  | Bad_magic
  | Bad_version of int
  | Bad_kind of int
  | Oversized of int
  | Crc_mismatch
  | Bad_payload of string  (** kind name whose fields failed to decode *)

val error_message : error -> string

val encode : msg -> string
(** The full frame (header + payload) for one message.  Raises
    [Invalid_argument] if the payload exceeds {!max_payload}. *)

val write : Unix.file_descr -> msg -> unit
(** Encodes one message and writes the whole frame — the only frame
    writer, used by coordinator and worker alike.  A broken pipe
    surfaces as [Unix.Unix_error] (a zero-byte write as [EPIPE]). *)

type reader
(** Incremental frame reassembler for one pipe. *)

val reader : unit -> reader

val feed : reader -> bytes -> int -> int -> unit
(** [feed r buf off len] appends [len] bytes — partial reads and
    batched frames both welcome. *)

val feed_string : reader -> string -> unit

val next : reader -> (msg option, error) result
(** [Ok (Some msg)] peels one complete frame off the front (counted in
    [dvz_fleet_frames_total]); [Ok None] means more bytes are needed;
    [Error _] means the stream is corrupt and the reader is poisoned —
    every later call returns the same error. *)

val buffered : reader -> int
(** Bytes currently awaiting reassembly. *)
