(** Byte-addressed physical memory with page-granular permissions.

    Accesses outside the modelled range raise access faults; accesses to a
    page whose [present] bit is clear raise page faults; permission
    mismatches (user access to a machine-only page, store to a read-only
    page, fetch from a non-executable page) raise access faults.  This is
    the permission surface the Meltdown-class trigger types of Table 3
    exercise. *)

type t

val create : unit -> t
(** A zeroed memory of {!Layout.mem_size} bytes, all pages [Perm.rwx]. *)

val copy : t -> t
(** An independent copy of the bytes, the page permissions and the
    dirty-page mark (unwatched). *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src]'s bytes and page permissions into
    [dst] in place; [dst] is left unwatched.  Every writer below marks
    the pages it touches, and a page no writer has touched since
    {!create} holds only zero bytes, so [blit] copies only the pages
    marked in [src] or [dst] (a page marked in [dst] alone gets [src]'s
    zeros) and [dst] takes [src]'s marks; the permissions are copied
    whole.  Blitting a fresh memory re-zeroes [dst] at the cost of the
    pages it wrote. *)

val set_perm : t -> int -> Perm.t -> unit
(** [set_perm t addr p] sets the permission of the page containing [addr]. *)

val read_byte : t -> int -> int
(** Backdoor read (no permission check).  Out-of-range reads return 0. *)

val write_byte : t -> int -> int -> unit
(** Backdoor write; out-of-range writes are ignored. *)

val read : t -> addr:int -> size:int -> int
(** Backdoor little-endian read of [size] (≤ 7) bytes.  Every read —
    checked loads and fetches included — goes through here, so this is
    where an armed read watch looks. *)

(** {2 Read watch}

    A memory can watch reads of chosen words of the swappable region
    ({!Layout.swap_base}, {!Layout.swap_size}): once armed, any {!read}
    that overlaps a watched word latches {!watch_hit}.  The oracle uses it
    to prove that a run never observed the words in which two stimuli
    differ.  Disarmed, the cost is one field test per read. *)

val watch_bitmap : int list -> Bytes.t
(** [watch_bitmap ws] is the 128-byte bitmap of swap-region word indices
    [ws] (word [i] is at [Layout.swap_base + 4 * i]). *)

val set_watch : t -> Bytes.t -> unit
(** Installs a {!watch_bitmap}, disarmed and with the hit latch clear. *)

val arm_watch : t -> unit
(** Starts watching (no-op without an installed bitmap). *)

val unwatch : t -> unit
(** Stops watching and forgets the bitmap and the latch.  {!blit} (on
    its destination) does the same. *)

val watch_hit : t -> bool
(** Whether an armed watch has seen a read of a watched word. *)

val watched : t -> addr:int -> size:int -> bool
(** Whether the watch is armed and [[addr, addr + size)] overlaps a
    watched word. *)

val write : t -> addr:int -> size:int -> int -> unit
(** Backdoor little-endian write. *)

val write_words : t -> int -> int array -> unit
(** [write_words t addr ws] stores 32-bit words consecutively from [addr];
    the common way of loading assembled code. *)

val blit_bytes : t -> addr:int -> Bytes.t -> off:int -> len:int -> unit
(** [blit_bytes t ~addr src ~off ~len] copies [len] bytes of [src] from
    [off] to [addr] (a backdoor write).  Raises [Invalid_argument] when
    either range is out of bounds. *)

val checked_load :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> size:int ->
  (int, Dvz_isa.Trap.cause) result

val checked_store :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> size:int -> value:int ->
  (unit, Dvz_isa.Trap.cause) result

val checked_fetch :
  t -> priv:Dvz_isa.Golden.priv -> addr:int -> (int, Dvz_isa.Trap.cause) result

val fetchable : t -> priv:Dvz_isa.Golden.priv -> addr:int -> bool
(** Whether {!checked_fetch} would succeed, without reading the word (so
    without touching the read watch). *)

val golden_memory : t -> Dvz_isa.Golden.memory
(** The checked accessors packaged for {!Dvz_isa.Golden.create}. *)
