(** Page permissions for the physical memory model. *)

type t = {
  read : bool;
  write : bool;
  exec : bool;
  user : bool;    (** accessible from user privilege *)
  present : bool; (** a cleared bit yields page faults instead of access faults *)
}

val rwx : t
(** Machine-and-user readable, writable, executable, present. *)

val rw : t
val rx : t

val priv_only : t -> t
(** Same rights but reserved to machine mode — the paper's "update sensitive
    data permissions" step marks the secret region this way. *)

val absent : t
(** Not present: all accesses page-fault. *)

val none : t
(** Unmapped: all accesses access-fault. *)
