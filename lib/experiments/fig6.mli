(** Figure 6 — taint population over time while executing each attack test
    case on BOOM, under CellIFT, diffIFT, and the diffIFT^FN worst case
    (both instances driven with the same secret).

    The paper's observations to reproduce: CellIFT's taints explode at the
    RoB rollback and never recover; diffIFT's stay bounded and track the
    secret's footprint; diffIFT^FN's data taints still grow while the
    secret is loaded but control-taint propagation is suppressed, so the
    curve plateaus. *)

type series = {
  s_case : string;
  s_mode : string;           (** "CellIFT" | "diffIFT" | "diffIFT-FN" *)
  s_totals : int array;      (** tainted elements per slot *)
  s_window : (int * int) option;  (** transient window slot range *)
}

val run : unit -> series list
(** The fifteen series (five attacks × three modes) on [boom_small]. *)

val render : series list -> string
(** Prints per test case a downsampled series plus peak/final values. *)
