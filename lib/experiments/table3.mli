(** Table 3 — training overhead for the eight transient-window types,
    comparing DejaVuzz, the DejaVuzz* ablation (random training) and
    SpecDoctor.

    For each (core, fuzzer, window-type) cell we sample [samples] windows,
    run Phase 1 (evaluation + training reduction where the fuzzer supports
    it) and report mean TO — training instructions including alignment
    nops — and mean ETO (nops excluded).  ✗ marks window types the fuzzer
    failed to trigger, matching the paper's notation.  Like the paper, the
    misprediction rows only count windows that actually require training. *)

type cell = { c_rate : float; c_to : float; c_eto : float }
(** Trigger success rate and mean overheads over the successful samples. *)

type row = {
  r_core : string;
  r_fuzzer : string;
  r_cells : (Dejavuzz.Seed.trigger_kind * cell option) list;
      (** [None] when the fuzzer never triggered the window type *)
}

val run : ?samples:int -> ?rng_seed:int -> unit -> row list
(** Collects the full matrix (both cores; SpecDoctor only on BOOM, as in
    the paper — its DUT patching only supports BOOM).  [samples] defaults
    to 40; raises [Invalid_argument] if it is below 1. *)

val render : row list -> string
