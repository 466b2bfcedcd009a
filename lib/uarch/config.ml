type preset = Boom | Xiangshan

type t = {
  name : string;
  preset : preset;
  rob_entries : int;
  window_insns : int;
  icache_lines : int;
  dcache_lines : int;
  line_bytes : int;
  lfb_entries : int;
  bht_entries : int;
  btb_entries : int;
  ras_entries : int;
  loop_entries : int;
  tlb_entries : int;
  l2tlb_entries : int;
  ldq_entries : int;
  stq_entries : int;
  miss_latency : int;
  fdiv_latency : int;
  squash_penalty : int;
  store_resolve_delay : int;
  illegal_window : bool;
  btb_tagged : bool;
  spec_update_loop : bool;
  phys_addr_bits : int;
  meltdown_forward : bool;
  addr_truncate_bug : bool;
  ras_restore_below_tos_bug : bool;
  btb_exception_race_bug : bool;
  fetch_contention_bug : bool;
  load_wb_contention_bug : bool;
}

let boom_small =
  { name = "BOOM(SmallBOOM)";
    preset = Boom;
    rob_entries = 32;
    window_insns = 20;
    icache_lines = 128;
    dcache_lines = 256;
    line_bytes = 64;
    lfb_entries = 8;
    bht_entries = 128;
    btb_entries = 32;
    ras_entries = 8;
    loop_entries = 16;
    tlb_entries = 8;
    l2tlb_entries = 32;
    ldq_entries = 8;
    stq_entries = 8;
    miss_latency = 20;
    fdiv_latency = 24;
    squash_penalty = 4;
    store_resolve_delay = 4;
    (* BOOM catches illegal instructions at decode; no transient window. *)
    illegal_window = false;
    btb_tagged = false;
    spec_update_loop = true;
    phys_addr_bits = 32;
    meltdown_forward = true;
    addr_truncate_bug = false;
    ras_restore_below_tos_bug = true;
    btb_exception_race_bug = true;
    fetch_contention_bug = true;
    load_wb_contention_bug = false }

let xiangshan_minimal =
  { name = "XiangShan(MinimalConfig)";
    preset = Xiangshan;
    rob_entries = 48;
    window_insns = 24;
    icache_lines = 128;
    dcache_lines = 256;
    line_bytes = 64;
    lfb_entries = 8;
    bht_entries = 256;
    btb_entries = 64;
    ras_entries = 16;
    loop_entries = 0;
    tlb_entries = 16;
    l2tlb_entries = 0;
    ldq_entries = 16;
    stq_entries = 16;
    miss_latency = 24;
    fdiv_latency = 20;
    squash_penalty = 5;
    store_resolve_delay = 5;
    illegal_window = true;
    btb_tagged = true;
    spec_update_loop = false;
    phys_addr_bits = 36;
    meltdown_forward = true;
    addr_truncate_bug = true;
    ras_restore_below_tos_bug = false;
    btb_exception_race_bug = false;
    fetch_contention_bug = true;
    load_wb_contention_bug = true }

let annotation_loc c = match c.preset with Boom -> 212 | Xiangshan -> 592

let verilog_loc c =
  match c.preset with Boom -> 171_000 | Xiangshan -> 893_000
