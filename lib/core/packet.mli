(** Instruction packets and their assembly into swapMem stimuli.

    Three packet roles mirror §4.1/§4.2: {e trigger training} packets train
    the predictor state needed to open the window, {e window training}
    packets warm memory-related state (e.g. the secret into the data cache),
    and the single {e transient} packet carries the trigger and the window
    section.  Each packet is an isolated instruction sequence loaded alone
    into the swappable region, which is precisely what lets the training
    reduction strategy drop packets independently. *)

type role = Trigger_training | Window_training | Transient

type t = {
  name : string;
  role : role;
  insns : Dvz_isa.Insn.t list;  (** placed from {!Dvz_soc.Layout.swap_base} *)
  training_total : int;         (** training instructions incl. padding nops *)
  training_effective : int;     (** excluding nops — the ETO numerator *)
}

val make :
  name:string -> role:role -> ?training_total:int -> ?training_effective:int ->
  Dvz_isa.Insn.t list -> t
(** Training counts default to 0 (right for transient packets). *)

(** A complete test case: the packets plus the memory environment. *)
type testcase = {
  seed : Seed.t;
  transient : t;
  trigger_trainings : t list;
  window_trainings : t list;
  trigger_addr : int;           (** absolute address of the trigger insn *)
  window_addr : int;            (** absolute address of the window section *)
  window_words : int;           (** capacity of the window section *)
  data : (int * int) list;      (** dword initialisation *)
  perms : (int * Dvz_soc.Perm.t) list;
  tighten : bool;
  gadget_tags : string list;    (** window-payload gadget labels (Phase 2) *)
}

val stimulus : secret:int array -> testcase -> Dvz_uarch.Core.stimulus
(** Builds the runnable stimulus: schedule = window trainings, then trigger
    trainings, then the transient packet (§4.2.1), stopping after 3,000
    slots. *)

val with_transient : Dvz_uarch.Core.stimulus -> t -> Dvz_uarch.Core.stimulus
(** [with_transient stim p] is [stim] with its transient blob replaced by
    [p]'s encoding, on a fresh swap cursor: what {!stimulus} builds for a
    test case that differs from [stim]'s only in its transient packet,
    but only [p] is encoded and the other blobs are shared (blobs are
    immutable). *)

val transient_words : Dvz_uarch.Core.stimulus -> int array
(** The encoded words of a stimulus's transient blob. *)

val training_overhead : testcase -> int * int
(** [(total, effective)] training-instruction counts over all training
    packets — the TO/ETO columns of Table 3. *)

val with_trigger_trainings : testcase -> t list -> testcase
