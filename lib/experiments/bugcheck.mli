(** Proof-of-concept reproductions of the paper's five new vulnerabilities
    (§6.4, Table 5), each built as a deterministic test case whose oracle
    verdict is checked against the planted ground truth:

    - {b B1 MeltDown-Sampling} (CVE-2024-44594, XiangShan): a masked
      out-of-physical-range alias of the secret address is sampled by the
      load unit despite the access fault — a privilege-crossing Meltdown.
    - {b B2 Phantom-RSB} (CVE-2024-44591, BOOM): secret-gated transient
      returns-then-calls corrupt RAS entries below the checkpointed TOS,
      which BOOM's top-only squash recovery never repairs.
    - {b B3 Phantom-BTB} (CVE-2024-44590, BOOM): a transient jalr's
      misprediction correction racing an exception commit updates the
      faulting pc's BTB entry with a secret-dependent target.
    - {b B4 Spectre-Refetch} (CVE-2024-44592/3, both): a secret-dependent
      branch to a cold instruction line preempts the fetch port past the
      squash, delaying the first post-window instruction.
    - {b B5 Spectre-Reload} (CVE-2024-44595, XiangShan): the load pipeline
      and load queue contend on the load write-back port, so a transient
      cache-hitting load's latency depends on an in-flight miss. *)

type bug = B1 | B2 | B3 | B4 | B5

val all : bug list

val name : bug -> string
val cve : bug -> string

val vulnerable_core : bug -> Dvz_uarch.Config.t
(** The configuration that plants the bug. *)

val immune_core : bug -> Dvz_uarch.Config.t option
(** A configuration expected {e not} to exhibit the bug, when one exists. *)

type verdict = {
  v_detected : bool;                    (** the oracle flags a leak *)
  v_components : Dejavuzz.Oracle.component list; (** attributed components *)
  v_attack : [ `Meltdown | `Spectre ] option;
}

val poc : Dvz_uarch.Config.t -> bug -> Dejavuzz.Packet.testcase
(** The bug's PoC test case on the given core: the first trigger entropy
    (1 to 64) whose test case triggers there, with the bug's payload
    spliced into the transient packet.  Raises [Failure] if none does. *)

val check : Dvz_uarch.Config.t -> bug -> verdict
(** Runs the full Phase 3 analysis on {!poc}. *)

val expected_component : bug -> Dejavuzz.Oracle.component
(** The Table 5 component the detection must attribute ("dcache" for B1's
    sampled secret, "ras" for B2, "(fau)btb" for B3, "icache" for B4,
    "lsu" for B5). *)

val render : unit -> string
(** Runs every PoC on its vulnerable core (and immune core where defined)
    and renders the B1-B5 summary table. *)
