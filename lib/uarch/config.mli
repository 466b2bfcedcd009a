(** Core configurations.

    Two presets mirror the paper's Table 2 devices-under-test: [boom_small]
    (SmallBOOM) and [xiangshan_minimal] (MinimalConfig).  Structure sizes
    are scaled-down but proportionate; the bug flags plant the transient
    execution behaviours each real core exhibits (§6.4 and Table 5), so the
    fuzzer's findings can be checked against ground truth. *)

type preset = Boom | Xiangshan

type t = {
  name : string;
  preset : preset;
  (* capacity parameters *)
  rob_entries : int;
  window_insns : int;       (** max transiently executed instructions *)
  icache_lines : int;
  dcache_lines : int;
  line_bytes : int;
  lfb_entries : int;
  bht_entries : int;
  btb_entries : int;
  ras_entries : int;
  loop_entries : int;
  tlb_entries : int;
  l2tlb_entries : int;      (** 0 when the core has no L2 TLB *)
  ldq_entries : int;
  stq_entries : int;
  (* timing parameters *)
  miss_latency : int;       (** cache refill latency in cycles *)
  fdiv_latency : int;
  squash_penalty : int;
  store_resolve_delay : int;(** slots a store address stays unresolved *)
  (* behaviour switches *)
  illegal_window : bool;    (** illegal instructions open transient windows *)
  btb_tagged : bool;        (** BTB entries carry a full-pc tag (XiangShan);
                                an untagged BTB (BOOM) predicts on index
                                aliasing alone, so untargeted training can
                                still install usable entries *)
  spec_update_loop : bool;  (** loop predictor updated by transient branches *)
  phys_addr_bits : int;     (** width the load unit truncates addresses to *)
  (* planted bugs (§6.4) *)
  meltdown_forward : bool;          (** faulting loads forward real data *)
  addr_truncate_bug : bool;         (** B1 MeltDown-Sampling *)
  ras_restore_below_tos_bug : bool; (** B2 Phantom-RSB *)
  btb_exception_race_bug : bool;    (** B3 Phantom-BTB *)
  fetch_contention_bug : bool;      (** B4 Spectre-Refetch *)
  load_wb_contention_bug : bool;    (** B5 Spectre-Reload *)
}

val boom_small : t
val xiangshan_minimal : t

val annotation_loc : t -> int
(** The manual liveness-annotation effort this configuration models,
    mirroring Table 2's "Annotation LoC" row. *)

val verilog_loc : t -> int
(** Size of the corresponding RTL design in the paper (Table 2), reported
    for the descriptive Table 2 bench. *)
