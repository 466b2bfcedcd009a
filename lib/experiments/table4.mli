(** Table 4 — overhead of differential information flow tracking.

    Two measurements, as in the paper:

    - {b Compile}: instrumentation time.  CellIFT instruments at the cell
      level and must flatten all memories first; diffIFT instruments at the
      RTL IR level.  We measure on representative netlists (the Figure 2
      RoB circuit plus memories) scaled per core: building the plain
      simulator (Base), flattening + shadow construction (CellIFT), and
      direct shadow construction (diffIFT).

    - {b Simulation}: wall-clock time of one run of each of the five
      attack test cases of {!Attacks} under Base (two uninstrumented DUT
      instances), CellIFT mode and diffIFT mode of the dual-DUT testbench:
      the fastest of [reps] runs on {!Dejavuzz.Simpool}'s pooled
      testbenches, printed in µs per run.  CellIFT's taint
      explosion makes its per-cycle shadow work grow with the tainted-state
      population, which is the paper's slowdown mechanism. *)

type timing = { base : float; cellift : float; diffift : float }

type result = {
  core : string;
  compile : timing;
  sims : (string * timing) list;
      (** per attack test case: the fastest single run, seconds *)
}

val run : ?reps:int -> Dvz_uarch.Config.t -> result
(** [reps] defaults to 30; raises [Invalid_argument] if it is below 1. *)

val render : result list -> string
