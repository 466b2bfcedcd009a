(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64, which is fast, statistically sound for fuzzing purposes, and
    splittable: independent sub-streams can be forked for sub-tasks without
    correlating their outputs. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val state : t -> int64
(** The full internal state, for checkpointing. *)

val of_state : int64 -> t
(** Rebuilds a generator from {!state} — the resulting stream continues
    exactly where the saved one left off. *)

val split : t -> t
(** [split t] advances [t] and returns an independent child generator. *)

val next : t -> int
(** [next t] returns a uniformly distributed non-negative 62-bit integer. *)

val int : t -> int -> int
(** [int t n] returns a uniform integer in [\[0, n)].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] returns a uniform integer in [\[lo, hi\]] inclusive. *)

val bool : t -> bool
(** [bool t] returns a fair coin flip. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val float : t -> float -> float
(** [float t x] returns a uniform float in [\[0, x)]. *)

val choose : t -> 'a array -> 'a
(** [choose t arr] picks a uniform element.  Requires [arr] non-empty. *)

val choose_list : t -> 'a list -> 'a
(** [choose_list t l] picks a uniform element.  Requires [l] non-empty. *)
