(** Taint-log memory policy.

    The campaign's per-slot taint log (its total-taint series is the
    paper's Figure 6 y-axis, its per-module counts feed the taint coverage
    matrix of §4.2.2) is kept by the dual-core testbench; this module only
    names how much of it to retain. *)

type bound =
  | Unbounded
  | Keep_first of int  (** keep only the first [n] entries *)
  | Keep_last of int  (** keep a sliding window of the last [n] entries *)
  | Stride of int  (** keep every [k]-th entry (slots [0, k, 2k, ...]) *)
(** Memory policy for long campaigns: the log otherwise grows without
    bound, one entry per simulated slot. *)
