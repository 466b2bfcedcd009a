(** The swapMem address map (Figure 4, bottom).

    One 4 KiB page per region keeps permission handling page-granular:

    - the {e shared region} holds the execution environment every DUT
      instance sees: trap handler, state initialisation, and the runtime
      instruction-sequence scheduler;
    - the {e swappable region} is where instruction sequences (training and
      transient packets) are loaded one at a time;
    - the {e dedicated region} holds each DUT's mutable operands;
    - the {e secret region} holds the sensitive data (its permissions are
      flipped to machine-only before the transient packet runs);
    - the {e probe region} is an eight-page array transient payloads may
      touch (the classic flush+reload encoding surface, with page-granular
      strides for TLB-level encodings). *)

val page_size : int

val swap_base : int
val swap_size : int

val dedicated_base : int

val secret_base : int
val secret_size : int

val secret_dwords : int
(** Number of 64-bit secret words the harness initialises (and taints). *)

val probe_base : int

val mem_size : int
(** Total modelled physical memory. *)

val mtvec : int
(** Trap-handler entry, inside the shared region. *)

val swap_entry : int
(** Entry point of a freshly loaded swappable sequence ([swap_base]). *)
