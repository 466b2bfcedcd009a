(** Fuzzing seeds.

    A seed is the paper's §5 notion: the configuration of the trigger
    instruction and the transient window, plus entropy for the random
    instruction generator.  Phase 2's mutation loop regenerates only the
    window section, which corresponds to replacing [window_entropy]. *)

(** The eight trigger classes of Table 3. *)
type trigger_kind =
  | T_access_fault
  | T_page_fault
  | T_misalign
  | T_illegal
  | T_mem_disamb
  | T_branch
  | T_jump
  | T_return

val all_kinds : trigger_kind array
val kind_name : trigger_kind -> string

val kind_of_name : string -> trigger_kind option
(** The inverse of {!kind_name}: what event logs and crash artifacts are
    parsed with. *)

val is_exception : trigger_kind -> bool
(** True for the four architectural-exception classes. *)

val is_misprediction : trigger_kind -> bool

type t = {
  kind : trigger_kind;
  trigger_entropy : int;   (** randomness of the trigger section (Phase 1) *)
  window_entropy : int;    (** randomness of the window payload (Phase 2) *)
  tighten : bool;          (** run the transient packet with the secret page
                               restricted to machine mode (Meltdown-style) *)
  mask_high : bool;        (** mask high address bits in the secret access
                               block to hunt MDS-type bugs (§4.2.1) *)
}

val random : Dvz_util.Rng.t -> t
val random_of_kind : Dvz_util.Rng.t -> trigger_kind -> t

val mutate_window : Dvz_util.Rng.t -> t -> t
(** Fresh window entropy, everything else preserved — the Phase 2 "mutate
    the seed to regenerate the window section" operation. *)

val to_string : t -> string
