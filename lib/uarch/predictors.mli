(** Branch-prediction structures: BHT, BTB, RAS and loop predictor.

    Each structure exposes its update footprint as {!Elem.t} indices so the
    shared taint shadow can attribute state changes, and liveness predicates
    so the oracle can tell pending entries from dead ones.

    A transient window checkpoints the RAS as a {!Ras.blit} copy made at
    window open.  The two squash-restore policies relevant to bug B2
    (Phantom-RSB) read that copy: the correct policy {!Ras.blit}s the whole
    stack back; the buggy BOOM policy ({!Ras.restore_top_only}) restores
    only the TOS pointer and the top entry, leaving transient overwrites of
    deeper entries in place. *)

(* Branch history table: 2-bit saturating counters. *)
module Bht : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val predict_taken : t -> pc:int -> bool
  val update : t -> pc:int -> taken:bool -> int
  (** Returns the updated entry index. *)

  val counter : t -> int -> int
end

(* Branch target buffer: direct-mapped, tagged. *)
module Btb : sig
  type t

  val create : ?tagged:bool -> entries:int -> unit -> t
  (** [tagged] (default true): whether lookups require an exact pc-tag
      match; untagged BTBs hit on index aliasing. *)

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val lookup : ?word:int -> t -> pc:int -> int option
  (** [word] is the encoding of the looking-up instruction; a tagged BTB
      requires it to match the installing instruction's. *)

  val update : ?word:int -> t -> pc:int -> target:int -> int
  (** Installs/overwrites the entry for [pc]; returns the entry index. *)

  val valid : t -> int -> bool
  val target_of : t -> int -> int
end

(* Return address stack. *)
module Ras : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry): every entry, TOS
      and depth.  Also the correct squash recovery, from the window's
      checkpoint copy. *)

  val push : t -> int -> int
  (** Pushes a return address; returns the written slot. *)

  val pop : t -> (int * int) option
  (** Pops; returns [(addr, slot)] or [None] when empty. *)

  val peek : t -> int option
  val depth : t -> int
  val tos : t -> int
  val entry : t -> int -> int

  val restore_top_only : src:t -> dst:t -> unit
  (** BOOM's buggy recovery (B2) from the checkpoint copy [src]: restores
      [dst]'s TOS, depth and top entry; deeper entries keep whatever
      transient execution wrote. *)

  val live : t -> int -> bool
  (** Whether slot [i] holds a pending (poppable) return address. *)
end

(* Loop predictor: per-branch trip counting. *)
module Loop : sig
  type t

  val create : entries:int -> t
  (** [entries = 0] builds a disabled predictor (XiangShan MinimalConfig). *)

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val enabled : t -> bool
  val update : t -> pc:int -> taken:bool -> int option
  (** Returns the updated entry index, if the predictor is enabled. *)

  val valid : t -> int -> bool
  val streak : t -> int -> int
end

(* Memory dependence (disambiguation) predictor. *)
module Mdp : sig
  type t

  val create : entries:int -> t

  val blit : src:t -> dst:t -> unit
  (** Copies [src]'s state into [dst] (same geometry). *)

  val predicts_alias : t -> pc:int -> bool
  (** Optimistic default: loads are predicted independent of older stores. *)

  val train_alias : t -> pc:int -> int
  (** Records that the load at [pc] aliased; returns the entry index. *)
end
