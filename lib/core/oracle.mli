(** Phase 3 — transient leakage analysis (§4.3).

    First the constant-time check: paired transient windows whose durations
    differ between the two DUT instances are timing leaks (port contention,
    fetch preemption).  Otherwise, encode sanitization re-runs the stimulus
    with the secret encoding block nop'd out and diffs the tainted sinks;
    taints present only in the original run were produced by the encoding
    block.  Finally the tainted-sink liveness analysis keeps only sinks
    whose liveness signal is high — squash-drained structures (PRF, RoB,
    load/store queues) and stale-but-invalid buffers (the LFB decoy) are
    filtered as unexploitable. *)

type component = string
(** Table 5's "encoded timing component" labels: "dcache", "icache",
    "(l2)tlb", "(fau)btb", "ras", "loop", "lsu", "fpu", ... *)

type leak =
  | Timing of { pairs : (int * int * int) list; components : component list }
      (** transient-window constant-time violations *)
  | Encode of { sinks : Dvz_uarch.Elem.t list; components : component list }
      (** exploitable encoded secrets identified via liveness *)

type analysis = {
  a_result : Dvz_uarch.Dualcore.result;   (** the original diffIFT run *)
  a_leaks : leak list;
  a_attack : [ `Meltdown | `Spectre ] option;
      (** [Some] when a transient window in the transient packet accessed
          the secret; [`Meltdown] if that access violated privilege *)
  a_live_sinks : Dvz_uarch.Elem.t list;   (** after liveness filtering *)
  a_all_sinks : Dvz_uarch.Elem.t list;
      (** without liveness filtering — what a liveness-unaware oracle
          (or SpecDoctor's hash comparison) would report *)
  a_timed_out : bool;
      (** a watchdog budget aborted a testbench run; the analysis is a
          Timeout verdict — no leaks, no attack classification *)
}

val component_of_module : string -> component option
(** Maps an {!Dvz_uarch.Elem.module_of} tag to its Table 5 label; [None]
    for architectural state, which is not a sink. *)

val microarch_sink : Dvz_uarch.Elem.t -> bool
(** True for elements the oracle counts as microarchitectural sinks —
    everything except architectural state (ARF, memory, the pc).  Exposed
    so the provenance explain pass filters live sinks identically. *)

(** How the sanitize run of an analysis was obtained. *)
type replay_path =
  | Resumed
      (** from a copy of the main run taken just before its first fetch
          of a word the sanitized packet changes *)
  | Reused
      (** the main run never read such a word, so its result is the
          sanitized run's *)
  | Replayed
      (** simulated from scratch: a changed word was read before it was
          fetched, or a fault plan is armed *)

type sanitized = {
  s_result : Dvz_uarch.Dualcore.result;
  s_path : replay_path;
  s_dut : Dvz_uarch.Dualcore.t option;
      (** the pooled testbench the run finished in; [None] when reused *)
}

val simulate :
  ?mode:Dvz_ift.Policy.mode ->
  ?budget:Dvz_uarch.Dualcore.budget ->
  Dvz_uarch.Config.t ->
  secret:int array ->
  Packet.testcase ->
  Dvz_uarch.Dualcore.result * (unit -> sanitized)
(** The two testbench runs behind {!analyze}: the main run of the test
    case, and a thunk for the run of its {!Window_gen.sanitize}d twin.
    Every path yields the result a from-scratch run of the twin would;
    each counts in [dvz_oracle_sanitize_{resumed,reused,replayed}_total]
    and, like a real run, once in [dvz_sim_runs_total] and
    [dvz_sim_cycles_total].  Call the thunk at most once, before the
    calling domain's next pooled acquire. *)

val analyze :
  ?use_liveness:bool ->
  ?mode:Dvz_ift.Policy.mode ->
  ?log_bound:Dvz_ift.Taintlog.bound ->
  ?budget:Dvz_uarch.Dualcore.budget ->
  Dvz_uarch.Config.t ->
  secret:int array ->
  Packet.testcase ->
  analysis
(** Runs the full Phase 3 pipeline on a completed test case.
    [use_liveness=false] reproduces the ablated oracle of the §6.3 liveness
    evaluation (residual PRF/RoB taints become false positives); [mode]
    selects the IFT policy driving the testbench ([Diffift] by default —
    [Cellift] shows how control-flow over-tainting floods the oracle).
    [budget] arms a watchdog on each run: a run that exceeds it yields
    [a_timed_out = true] instead of hanging.

    [log_bound] is accepted and ignored: no testbench keeps a taint log.
    It stays only because [bench/e2e]'s replay passes it, until that
    replay ([resim.ml], [traced.ml]) is retired. *)

val analyze_with_retries :
  ?use_liveness:bool ->
  ?retries:int ->
  ?budget:Dvz_uarch.Dualcore.budget ->
  Dvz_uarch.Config.t ->
  secret:int array ->
  Packet.testcase ->
  analysis
(** §7's false-negative mitigation: diffIFT under-approximates when a
    secret pair happens to agree on a control signal, so re-attempt the
    analysis with different secret pairs (derived deterministically from
    the original) until a leak is found or [retries] (default 3) pairs have
    been tried.  Returns the first leaking analysis, else the last one. *)

val is_leak : analysis -> bool
