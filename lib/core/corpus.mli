(** Coverage-rewarded corpus — the scheduling layer's seed store.

    Array-backed with a configurable capacity: admission appends, and
    when the corpus overflows the cap the entries with the highest
    coverage reward (ties broken toward the youngest birth) survive.
    Births are the admitting iteration indices and must be unique, which
    makes every derived structure — eviction order, checkpoint bytes,
    the weighted-choice alias table — a pure function of the entry set
    rather than of the admission order.

    [choose] is O(1) via Vose's alias method, weighted by [1 + reward]. *)

type entry = {
  en_birth : int;  (** iteration that admitted the testcase; unique *)
  en_reward : int;  (** fresh coverage points the run contributed *)
  en_testcase : Packet.testcase;
}

type t

val create : cap:int -> t
(** Empty corpus holding at most [cap] entries.  Raises
    [Invalid_argument] when [cap < 1]. *)

val size : t -> int

val is_empty : t -> bool

val admit : t -> birth:int -> reward:int -> Packet.testcase -> unit
(** Adds an entry, then evicts down to the cap by (reward desc, birth
    desc) priority. *)

val replace_all : t -> birth:int -> Packet.testcase -> unit
(** Drops every entry and installs the single given testcase — the
    blind (DejaVuzz⁻) corpus policy, which only carries the current
    seed forward. *)

val choose : t -> Dvz_util.Rng.t -> Packet.testcase
(** O(1) weighted pick: probability proportional to [1 + reward].
    Consumes exactly two draws from the generator regardless of the
    weight profile.  Raises [Invalid_argument] on an empty corpus. *)

val snapshot : t -> t
(** Independent copy; later mutations of either side do not affect the
    other.  The batch scheduler reads from a snapshot so every plan in
    a batch sees the same corpus state. *)

val entries : t -> entry list
(** Entries sorted by birth ascending — the stable checkpoint form. *)

val of_entries : cap:int -> entry list -> t
(** Rebuilds a corpus from {!entries} output (any order accepted). *)
