open Dvz_isa
open Dvz_soc
module P = Predictors
module Metrics = Dvz_obs.Metrics

let m_nops_skipped =
  Metrics.counter Metrics.default
    ~help:"Committed canonical-nop slots advanced in closed form, summed \
           over cores"
    "dvz_core_nop_slots_skipped_total"

type stimulus = {
  st_swapmem : Swapmem.t;
  st_tighten_secret : bool;
  st_secret : int array;
  st_data : (int * int) list;
  st_perms : (int * Dvz_soc.Perm.t) list;
  st_max_slots : int;
}

type window_record = {
  wr_kind : Effect.window_kind;
  wr_trigger_pc : int;
  wr_enqueued : int;
  wr_cycles : int;
  wr_start_slot : int;
  wr_secret_accessed : bool;
  wr_secret_fault : bool;
  wr_in_transient_blob : bool;
}

type window = {
  w_kind : Effect.window_kind;
  w_trigger_pc : int;
  w_after : [ `Resume | `Swap ];
  mutable w_remaining : int;
  mutable w_stalled : bool;
      (** the frontend stalled (system insn / fetch fault): remaining slots
          are bubbles, keeping the two testbench instances slot-aligned *)
  w_sregs : int array;
  mutable w_spec_pc : int;
  w_ras : P.Ras.t;
  w_stq : Lsu.Stq.t;
  w_ldq : Lsu.Ldq.t;
      (** copies of the three structures at window open, which squash
          copies back; never mutated, so [blit] shares them *)
  mutable w_enqueued : int;
  w_start_cycle : int;
  w_start_slot : int;
  mutable w_secret_accessed : bool;
  mutable w_secret_fault : bool;
  mutable w_last_jalr : (int * Elem.t list) option;
      (** target and taint sources of the most recent transient jalr, used
          by the B3 exception/misprediction race *)
}

type t = {
  cfg : Config.t;
  mutable stim : stimulus;
  mem : Phys_mem.t;
  arch : Golden.t;
  bht : P.Bht.t;
  btb : P.Btb.t;
  ras : P.Ras.t;
  loop : P.Loop.t;
  mdp : P.Mdp.t;
  icache : Cache.t;
  dcache : Cache.t;
  lfb : Cache.Lfb.t;
  tlb : Tlb.t;
  l2tlb : Tlb.t;
  stq : Lsu.Stq.t;
  ldq : Lsu.Ldq.t;
  mutable cycles : int;
  mutable slot : int;
  mutable committed : int;
  mutable fetch_busy_until : int;
  mutable fdiv_busy_until : int;
  mutable load_wb_busy_until : int;
  mutable lsu_busy_until : int;
  mutable window : window option;
  mutable windows : window_record list;
  mutable done_ : bool;
  mutable secret_tightened : bool;
  elems : elems;
}

(* The elements events name that depend only on the structure sizes. *)
and elems = {
  rob_elems : Elem.t array;     (** [Elem.Rob i] at [i] *)
  queue_elems : Elem.t list;    (** STQ then LDQ entries *)
  window_elems : Elem.t list;
      (** RAS entries, then [queue_elems]: what a window checkpoints, and
          what a full squash recovery restores *)
  flush_elems : Elem.t list;
      (** every RoB entry, the speculative registers and the pc *)
}

(* The value [build] makes for [key], built once and shared by every
   domain: [memo] holds one per key, [eq] compares keys. *)
let rec memoised memo ~eq key build =
  let m = Atomic.get memo in
  match List.find_opt (fun (k, _) -> eq k key) m with
  | Some (_, v) -> v
  | None ->
      let v = build () in
      if Atomic.compare_and_set memo m ((key, v) :: m) then v
      else memoised memo ~eq key build

(* Built once per set of sizes and shared by every core and every event
   that names them.  A set per core measurably raised the campaign's peak
   RSS: each pooled core kept its own scattered long-lived blocks. *)
let elems_memo : ((int * int * int * int) * elems) list Atomic.t =
  Atomic.make []

let elems_of cfg =
  let key =
    Config.(cfg.rob_entries, cfg.ras_entries, cfg.stq_entries,
            cfg.ldq_entries)
  in
  memoised elems_memo ~eq:( = ) key (fun () ->
      let rob_elems = Array.init cfg.Config.rob_entries (fun i -> Elem.Rob i) in
      let queue_elems =
        List.init cfg.Config.stq_entries (fun i -> Elem.Stq i)
        @ List.init cfg.Config.ldq_entries (fun i -> Elem.Ldq i)
      in
      { rob_elems; queue_elems;
        window_elems =
          List.init cfg.Config.ras_entries (fun i -> Elem.Ras i) @ queue_elems;
        flush_elems =
          Array.to_list rob_elems
          @ List.init 32 (fun i -> Elem.Sreg i)
          @ [ Elem.Pc ] })

let swap_in t =
  match Swapmem.load_next t.stim.st_swapmem t.mem with
  | None ->
      t.done_ <- true;
      false
  | Some blob ->
      if blob.Swapmem.is_transient then Phys_mem.arm_watch t.mem;
      if blob.Swapmem.is_transient && t.stim.st_tighten_secret
         && not t.secret_tightened
      then begin
        Phys_mem.set_perm t.mem Layout.secret_base (Perm.priv_only Perm.rw);
        t.secret_tightened <- true
      end;
      (* The trap handler flushes the instruction cache before jumping to
         the freshly loaded sequence (§3.2). *)
      Cache.invalidate_all t.icache;
      Golden.set_pc t.arch Layout.swap_entry;
      Golden.set_priv t.arch Golden.User;
      true

(* What a core holds before [load] arms it. *)
let no_stim =
  { st_swapmem = Swapmem.create ~blobs:[] ~schedule:[];
    st_tighten_secret = false; st_secret = [||]; st_data = []; st_perms = [];
    st_max_slots = 0 }

(* Every stateful layer allocated in its zero state, nothing loaded:
   [create] arms the result with [load], [copy] with [blit]. *)
let alloc cfg =
  let mem = Phys_mem.create () in
  let arch =
    Golden.create ~pc:Layout.swap_entry ~priv:Golden.User ~mtvec:Layout.mtvec
      (Phys_mem.golden_memory mem)
  in
  { cfg; stim = no_stim; mem; arch;
    bht = P.Bht.create ~entries:cfg.Config.bht_entries;
    btb = P.Btb.create ~tagged:cfg.Config.btb_tagged ~entries:cfg.Config.btb_entries ();
    ras = P.Ras.create ~entries:cfg.Config.ras_entries;
    loop = P.Loop.create ~entries:cfg.Config.loop_entries;
    mdp = P.Mdp.create ~entries:cfg.Config.bht_entries;
    icache = Cache.create ~lines:cfg.Config.icache_lines
               ~line_bytes:cfg.Config.line_bytes;
    dcache = Cache.create ~lines:cfg.Config.dcache_lines
               ~line_bytes:cfg.Config.line_bytes;
    lfb = Cache.Lfb.create ~entries:cfg.Config.lfb_entries;
    tlb = Tlb.create ~entries:cfg.Config.tlb_entries
            ~page_bytes:Layout.page_size;
    l2tlb = Tlb.create ~entries:cfg.Config.l2tlb_entries
              ~page_bytes:Layout.page_size;
    stq = Lsu.Stq.create ~entries:cfg.Config.stq_entries;
    ldq = Lsu.Ldq.create ~entries:cfg.Config.ldq_entries;
    cycles = 0; slot = 0; committed = 0;
    fetch_busy_until = 0; fdiv_busy_until = 0; load_wb_busy_until = 0;
    lsu_busy_until = 0;
    window = None; windows = []; done_ = false; secret_tightened = false;
    elems = elems_of cfg }

(* Arm a core in its zero state with [stim]: the secret, the operand data
   and the permission overrides written, the first blob loaded. *)
let load t stim =
  Swapmem.reset stim.st_swapmem;
  Array.iteri
    (fun i v ->
      Phys_mem.write t.mem ~addr:(Layout.secret_base + (8 * i)) ~size:8 v)
    stim.st_secret;
  List.iter
    (fun (addr, v) -> Phys_mem.write t.mem ~addr ~size:8 v)
    stim.st_data;
  List.iter (fun (addr, p) -> Phys_mem.set_perm t.mem addr p) stim.st_perms;
  t.stim <- stim;
  ignore (swap_in t)

let create cfg stim =
  let t = alloc cfg in
  load t stim;
  t

(* Copy every stateful layer in place.  The stimulus gets its own swap
   cursor (blobs are immutable and shared); an open window gets its own
   speculative registers (its checkpoints are never mutated, so they are
   shared). *)
let blit ~src ~dst =
  if src.cfg != dst.cfg && src.cfg <> dst.cfg then
    invalid_arg "Core.blit: configuration mismatch";
  dst.stim <- { src.stim with st_swapmem = Swapmem.copy src.stim.st_swapmem };
  Phys_mem.blit ~src:src.mem ~dst:dst.mem;
  Golden.blit ~src:src.arch ~dst:dst.arch;
  P.Bht.blit ~src:src.bht ~dst:dst.bht;
  P.Btb.blit ~src:src.btb ~dst:dst.btb;
  P.Ras.blit ~src:src.ras ~dst:dst.ras;
  P.Loop.blit ~src:src.loop ~dst:dst.loop;
  P.Mdp.blit ~src:src.mdp ~dst:dst.mdp;
  Cache.blit ~src:src.icache ~dst:dst.icache;
  Cache.blit ~src:src.dcache ~dst:dst.dcache;
  Cache.Lfb.blit ~src:src.lfb ~dst:dst.lfb;
  Tlb.blit ~src:src.tlb ~dst:dst.tlb;
  Tlb.blit ~src:src.l2tlb ~dst:dst.l2tlb;
  Lsu.Stq.blit ~src:src.stq ~dst:dst.stq;
  Lsu.Ldq.blit ~src:src.ldq ~dst:dst.ldq;
  dst.cycles <- src.cycles;
  dst.slot <- src.slot;
  dst.committed <- src.committed;
  dst.fetch_busy_until <- src.fetch_busy_until;
  dst.fdiv_busy_until <- src.fdiv_busy_until;
  dst.load_wb_busy_until <- src.load_wb_busy_until;
  dst.lsu_busy_until <- src.lsu_busy_until;
  dst.window <-
    Option.map (fun w -> { w with w_sregs = Array.copy w.w_sregs }) src.window;
  dst.windows <- src.windows;
  dst.done_ <- src.done_;
  dst.secret_tightened <- src.secret_tightened

let copy t =
  let dst = alloc t.cfg in
  blit ~src:t ~dst;
  dst

(* One never-stepped core per configuration, shared read-only by every
   core and domain like [elems_memo]: [reset] copies it. *)
let zero_memo : (Config.t * t) list Atomic.t = Atomic.make []

let zero_of cfg =
  memoised zero_memo ~eq:(fun c cfg -> c == cfg || c = cfg) cfg (fun () ->
      alloc cfg)

(* Re-arm in place: [create]'s zero state copied over every layer (dead
   state included, since [state_hash] reads it), then [create]'s load.
   The stimulus copy [blit] makes is the zero core's empty one, which
   [load] replaces. *)
let reset t stim =
  blit ~src:(zero_of t.cfg) ~dst:t;
  load t stim

let transient_loaded t =
  match Swapmem.current t.stim.st_swapmem with
  | Some b -> b.Swapmem.is_transient
  | None -> false

let rebase t swap =
  let old = t.stim.st_swapmem in
  let swap = Swapmem.copy ~pos:(Swapmem.position old) swap in
  (match (Swapmem.current old, Swapmem.current swap) with
  | Some ob, Some nb ->
      let ow = ob.Swapmem.words and nw = nb.Swapmem.words in
      if Array.length ow <> Array.length nw then
        invalid_arg "Core.rebase: loaded blob changes length";
      Array.iteri
        (fun i w ->
          if w <> ow.(i) then
            Phys_mem.write t.mem ~addr:(Layout.swap_base + (4 * i)) ~size:4 w)
        nw
  | None, None -> ()
  | _ -> invalid_arg "Core.rebase: schedule mismatch");
  t.stim <- { t.stim with st_swapmem = swap }

let watch t words =
  Phys_mem.set_watch t.mem words;
  if transient_loaded t then Phys_mem.arm_watch t.mem

let unwatch t = Phys_mem.unwatch t.mem
let watch_hit t = Phys_mem.watch_hit t.mem

let arch_reg t r = Golden.reg t.arch r
let mem t = t.mem
let is_done t = t.done_
let cycles t = t.cycles
let committed t = t.committed
let slot_count t = t.slot
let windows t = List.rev t.windows

let rob_elem t = t.elems.rob_elems.(t.slot mod t.cfg.Config.rob_entries)

let secret_page addr =
  addr >= Layout.secret_base && addr < Layout.secret_base + Layout.secret_size

(* --- microarchitectural access helpers ------------------------------------ *)

(* [fx] says whether the slot's effect events have a reader: [step] passes
   [true], [finish] [false].  A quiet slot makes every state transition a
   loud one makes, but builds no event, element list or slot record.  [ev]
   accumulates the slot's events newest-first, so each [emit] is O(|es|);
   the access helpers return their cycle cost. *)
let emit ev es = ev := List.rev_append es !ev

let mem_srcs ~fx addr = if fx then [ Elem.Mem (addr / 8) ] else []

let fetch_access ~fx t ~transient ev pc =
  (* The hit/miss decision reads the line's tag state as well as the pc, so
     both appear as control sources; the value encodes index and outcome. *)
  match Cache.access t.icache ~addr:pc with
  | `Hit i ->
      if fx then
        emit ev [ Effect.Ctrl { kind = Effect.C_addr; value = 2 * i;
                                srcs = [ Elem.Pc; Elem.Icache i ];
                                touched = [ Elem.Icache i ] } ];
      1
  | `Miss i ->
      let cost = 1 + t.cfg.Config.miss_latency in
      if transient && t.cfg.Config.fetch_contention_bug then
        (* B4: the transient refill occupies the fetch port past the squash. *)
        t.fetch_busy_until <-
          max t.fetch_busy_until (t.cycles + cost + t.cfg.Config.miss_latency);
      if fx then
        emit ev [ Effect.Write (Elem.Icache i, []);
                  Effect.Ctrl { kind = Effect.C_addr; value = (2 * i) + 1;
                                srcs = [ Elem.Pc; Elem.Icache i ];
                                touched = [ Elem.Icache i ] } ];
      cost

(* A data-memory access: dcache + TLB (+ L2 TLB on a TLB miss) + LFB on a
   dcache miss.  [addr_srcs] are the elements the effective address derives
   from; [data_srcs] what the accessed memory word's taint derives from. *)
let data_access ~fx t ~transient ev ~is_store ~addr ~addr_srcs ~data_srcs =
  let cost = ref 0 in
  (match Tlb.access t.tlb ~addr with
  | `Disabled -> ()
  | `Hit i ->
      if fx then
        emit ev [ Effect.Ctrl { kind = Effect.C_addr; value = i;
                                srcs = addr_srcs; touched = [ Elem.Tlb i ] } ]
  | `Miss i ->
      cost := !cost + 3;
      if fx then
        emit ev [ Effect.Write (Elem.Tlb i, []);
                  Effect.Ctrl { kind = Effect.C_addr; value = i;
                                srcs = addr_srcs; touched = [ Elem.Tlb i ] } ];
      (match Tlb.access t.l2tlb ~addr with
      | `Disabled | `Hit _ -> ()
      | `Miss j ->
          cost := !cost + 6;
          if fx then
            emit ev [ Effect.Write (Elem.L2tlb j, []);
                      Effect.Ctrl { kind = Effect.C_addr; value = j;
                                    srcs = addr_srcs;
                                    touched = [ Elem.L2tlb j ] } ]));
  (match Cache.access t.dcache ~addr with
  | `Hit i ->
      cost := !cost + 1;
      if transient && not is_store && t.cfg.Config.load_wb_contention_bug
         && t.load_wb_busy_until > t.cycles
      then
        (* B5: the load pipeline and the load queue contend on the load
           write-back port while a miss refill is in flight. *)
        cost := !cost + 2;
      if fx then
        emit ev [ Effect.Ctrl { kind = Effect.C_addr; value = 2 * i;
                                srcs = Elem.Dcache i :: addr_srcs;
                                touched = [ Elem.Dcache i ] } ]
  | `Miss i ->
      cost := !cost + t.cfg.Config.miss_latency;
      t.lsu_busy_until <-
        max t.lsu_busy_until (t.cycles + !cost + (t.cfg.Config.miss_latency / 2));
      if t.cfg.Config.load_wb_contention_bug && not is_store then
        t.load_wb_busy_until <-
          max t.load_wb_busy_until (t.cycles + !cost + t.cfg.Config.miss_latency);
      let lfb_slot = Cache.Lfb.refill t.lfb ~data:(Phys_mem.read t.mem ~addr ~size:8) in
      if fx then
        emit ev [ Effect.Write (Elem.Lfb lfb_slot, data_srcs);
                  Effect.Write (Elem.Dcache i, data_srcs);
                  Effect.Ctrl { kind = Effect.C_addr; value = (2 * i) + 1;
                                srcs = Elem.Dcache i :: addr_srcs;
                                touched =
                                  [ Elem.Dcache i; Elem.Lfb lfb_slot ] } ]);
  !cost

let fdiv_issue t =
  let wait = max 0 (t.fdiv_busy_until - t.cycles) in
  t.fdiv_busy_until <- t.cycles + wait + t.cfg.Config.fdiv_latency;
  2 + wait

(* Forwarded value of a faulting load: the heart of the Meltdown-class
   behaviours.  Returns (value, taint sources, sampled-secret flag). *)
let transient_fault_forward ~fx t ~addr ~size =
  let phys_limit = 1 lsl t.cfg.Config.phys_addr_bits in
  if addr >= phys_limit && t.cfg.Config.addr_truncate_bug then begin
    (* B1: inconsistent wire widths truncate the high bits on the way to
       the load unit; the access samples the aliased physical address. *)
    let eff = addr mod phys_limit in
    (Phys_mem.read t.mem ~addr:eff ~size, mem_srcs ~fx eff, secret_page eff)
  end
  else if t.cfg.Config.meltdown_forward then
    (Phys_mem.read t.mem ~addr ~size, mem_srcs ~fx addr, secret_page addr)
  else (0, [], false)

(* --- window (transient) execution ------------------------------------- *)

let close_window ~fx t w =
  (* Squash: restore checkpointed structures.  The RAS restore policy is
     where B2 lives. *)
  let restored =
    if t.cfg.Config.ras_restore_below_tos_bug then begin
      P.Ras.restore_top_only ~src:w.w_ras ~dst:t.ras;
      if fx then Elem.Ras (P.Ras.tos t.ras) :: t.elems.queue_elems else []
    end
    else begin
      P.Ras.blit ~src:w.w_ras ~dst:t.ras;
      t.elems.window_elems
    end
  in
  Lsu.Stq.blit ~src:w.w_stq ~dst:t.stq;
  Lsu.Ldq.blit ~src:w.w_ldq ~dst:t.ldq;
  (* B3: an exception commit racing a mispredicted-jalr correction updates
     the faulting pc's BTB entry with the jalr's corrected target. *)
  let b3_events =
    match (w.w_kind, w.w_last_jalr) with
    | Effect.W_exception _, Some (target, srcs)
      when t.cfg.Config.btb_exception_race_bug ->
        let i = P.Btb.update t.btb ~pc:w.w_trigger_pc ~target in
        if fx then [ Effect.Write (Elem.Btb i, srcs) ] else []
    | _ -> []
  in
  t.cycles <- t.cycles + t.cfg.Config.squash_penalty;
  (* Post-squash stalls: outstanding transient refills and divides delay
     the first instructions after the window (B4, Spectre-Rewind). *)
  if t.cfg.Config.fetch_contention_bug then
    t.cycles <- max t.cycles t.fetch_busy_until;
  let lingering =
    max 0 (t.fdiv_busy_until - t.cycles) / 4
    + (max 0 (t.lsu_busy_until - t.cycles) / 4)
  in
  t.cycles <- t.cycles + lingering;
  t.windows <-
    { wr_kind = w.w_kind; wr_trigger_pc = w.w_trigger_pc;
      wr_enqueued = w.w_enqueued;
      wr_cycles = t.cycles - w.w_start_cycle;
      wr_start_slot = w.w_start_slot;
      wr_secret_accessed = w.w_secret_accessed;
      wr_secret_fault = w.w_secret_fault;
      wr_in_transient_blob =
        (match Swapmem.current t.stim.st_swapmem with
        | Some b -> b.Swapmem.is_transient
        | None -> false) }
    :: t.windows;
  t.window <- None;
  (match w.w_after with `Resume -> () | `Swap -> ignore (swap_in t));
  if not fx then []
  else
    let squash_srcs =
      (* the rollback index derives from the in-flight (RoB) state *)
      List.init (min w.w_enqueued t.cfg.Config.rob_entries) (fun i ->
          Elem.Rob ((w.w_start_slot + i) mod t.cfg.Config.rob_entries))
    in
    (* The rollback's control decision steers [flush_elems]: every RoB
       entry field, the speculative register copies and the redirected pc
       — the §2.2 "all 736 RoB entry field registers are suddenly tainted"
       blast radius, which the diff gating suppresses unless the two
       instances actually squash differently. *)
    b3_events
    @ [ Effect.Restore restored;
        Effect.Ctrl { kind = Effect.C_squash; value = w.w_enqueued;
                      srcs = squash_srcs; touched = t.elems.flush_elems };
        Effect.Write (Elem.Pc, []) ]

let open_window ~fx t ev ~kind ~trigger_pc ~after ~spec_pc ~sreg_init =
  let sregs = Array.init 32 (fun i -> Golden.reg t.arch (Reg.x i)) in
  List.iter (fun (r, v) -> sregs.(Reg.to_int r) <- v) sreg_init;
  (* The checkpoints: copies of the RAS and both queues. *)
  let cfg = t.cfg in
  let ras = P.Ras.create ~entries:cfg.Config.ras_entries
  and stq = Lsu.Stq.create ~entries:cfg.Config.stq_entries
  and ldq = Lsu.Ldq.create ~entries:cfg.Config.ldq_entries in
  P.Ras.blit ~src:t.ras ~dst:ras;
  Lsu.Stq.blit ~src:t.stq ~dst:stq;
  Lsu.Ldq.blit ~src:t.ldq ~dst:ldq;
  t.window <-
    Some
      { w_kind = kind; w_trigger_pc = trigger_pc; w_after = after;
        w_remaining = cfg.Config.window_insns;
        w_stalled = false;
        w_sregs = sregs; w_spec_pc = spec_pc;
        w_ras = ras; w_stq = stq; w_ldq = ldq;
        w_enqueued = 0; w_start_cycle = t.cycles; w_start_slot = t.slot;
        w_secret_accessed = false; w_secret_fault = false;
        w_last_jalr = None };
  if fx then
    emit ev [ Effect.Copy_regs_to_spec; Effect.Snapshot t.elems.window_elems ]

let sreg w r = if Reg.to_int r = 0 then 0 else w.w_sregs.(Reg.to_int r)

let set_sreg w r v = if Reg.to_int r <> 0 then w.w_sregs.(Reg.to_int r) <- v

let sreg_elem r = Elem.Sreg (Reg.to_int r)

let sreg_srcs rs = List.map sreg_elem rs

let spec_reg t r =
  match t.window with Some w -> Some (sreg w r) | None -> None

(* Execute one transient instruction inside the window.  Windows always
   consume [window_insns] slots; once the speculative frontend stalls the
   remaining slots are bubbles.  This keeps the two differential-testbench
   instances slot-aligned regardless of secret-dependent divergence.  The
   slot's record when [fx], [None] when quiet. *)
let step_transient ~fx t w =
  if w.w_stalled then begin
    w.w_remaining <- w.w_remaining - 1;
    t.cycles <- t.cycles + 1;
    let closed = w.w_remaining <= 0 in
    let close_events = if closed then close_window ~fx t w else [] in
    if not fx then None
    else
      Some
        { Effect.sl_pc = w.w_spec_pc; sl_insn = Insn.nop; sl_transient = true;
          sl_window_opened = None; sl_window_closed = closed;
          sl_events = close_events; sl_cycles = t.cycles; sl_swapped = false }
  end
  else begin
  let pc = w.w_spec_pc in
  let ev = ref [] in
  let cost = ref (fetch_access ~fx t ~transient:true ev pc) in
  let word =
    match Phys_mem.checked_fetch t.mem ~priv:Golden.User ~addr:pc with
    | Ok word -> Some word
    | Error _ -> None
  in
  let close_now = ref false in
  let insn =
    match word with
    | None ->
        close_now := true;
        Insn.Illegal 0
    | Some word -> Decode.decode word
  in
  let rob = rob_elem t in
  w.w_enqueued <- w.w_enqueued + 1;
  let next_pc = ref (pc + 4) in
  (if not !close_now then
     match insn with
     | Insn.Lui (rd, _) | Insn.Auipc (rd, _) | Insn.Op (_, rd, _, _)
     | Insn.Opi (_, rd, _, _) | Insn.Fdiv (rd, _, _) ->
         ignore (Golden.exec w.w_sregs ~pc insn);
         (match insn with Insn.Fdiv _ -> cost := !cost + fdiv_issue t | _ -> ());
         if fx then begin
           let srcs = sreg_srcs (Insn.reads insn) in
           emit ev [ Effect.Write (sreg_elem rd, srcs); Effect.Write (rob, srcs) ]
         end
     | Insn.Load (width, unsigned, rd, rs1, imm) -> (
         let addr = sreg w rs1 + imm in
         let size = Insn.bytes width in
         let addr_srcs = if fx then sreg_srcs (Insn.reads insn) else [] in
         if secret_page addr then w.w_secret_accessed <- true;
         let ldq_slot = Lsu.Ldq.alloc t.ldq ~addr in
         if fx then emit ev [ Effect.Write (Elem.Ldq ldq_slot, addr_srcs) ];
         let aligned = addr mod size = 0 in
         let ok =
           if not aligned then Error Trap.Load_misalign
           else Phys_mem.checked_load t.mem ~priv:Golden.User ~addr ~size
         in
         match ok with
         | Ok raw -> (
             (* Store-queue effects first: forwarding beats the cache. *)
             match Lsu.Stq.forward t.stq ~now:t.slot ~addr ~size with
             | Some (slot', data) ->
                 set_sreg w rd (Golden.load_value width unsigned data);
                 cost := !cost + 1;
                 if fx then
                   emit ev [ Effect.Write (sreg_elem rd, [ Elem.Stq slot' ]);
                             Effect.Write (rob, [ Elem.Stq slot' ]) ]
             | None ->
                 set_sreg w rd (Golden.load_value width unsigned raw);
                 let data_srcs = mem_srcs ~fx addr in
                 cost :=
                   !cost
                   + data_access ~fx t ~transient:true ev ~is_store:false ~addr
                       ~addr_srcs ~data_srcs;
                 if fx then
                   emit ev [ Effect.Write (sreg_elem rd, data_srcs);
                             Effect.Write (rob, data_srcs) ])
         | Error _ ->
             (* No nested window: the fault squashes with the outer window;
               but the load unit forwards data meanwhile. *)
             if secret_page addr then w.w_secret_fault <- true;
             let v, data_srcs, sampled =
               transient_fault_forward ~fx t ~addr ~size
             in
             if sampled then begin
               w.w_secret_accessed <- true;
               w.w_secret_fault <- true
             end;
             set_sreg w rd v;
             if fx then
               emit ev [ Effect.Write (sreg_elem rd, data_srcs);
                         Effect.Write (rob, data_srcs) ])
     | Insn.Store (width, rs2, rs1, imm) ->
         let addr = sreg w rs1 + imm in
         let size = Insn.bytes width in
         if secret_page addr then w.w_secret_accessed <- true;
         let slot' =
           Lsu.Stq.alloc t.stq ~addr ~size ~data:(sreg w rs2)
             ~old_data:(Phys_mem.read t.mem ~addr ~size)
             ~resolve_at:(t.slot + t.cfg.Config.store_resolve_delay) ()
         in
         if fx then begin
           let srcs = sreg_srcs (Insn.reads insn) in
           emit ev [ Effect.Write (Elem.Stq slot', srcs);
                     Effect.Write (rob, srcs) ]
         end;
         cost :=
           !cost
           + data_access ~fx t ~transient:true ev ~is_store:true ~addr
               ~addr_srcs:(if fx then sreg_srcs [ rs1 ] else [])
               ~data_srcs:(if fx then sreg_srcs [ rs2 ] else [])
     | Insn.Branch (cond, rs1, rs2, off) ->
         let taken = Golden.cond_holds cond (sreg w rs1) (sreg w rs2) in
         let srcs = if fx then sreg_srcs (Insn.reads insn) else [] in
         next_pc := (if taken then pc + off else pc + 4);
         if fx then
           emit ev [ Effect.Ctrl { kind = Effect.C_branch;
                                   value = (if taken then 1 else 0);
                                   srcs; touched = [ Elem.Pc ] };
                     Effect.Write (Elem.Pc, srcs);
                     Effect.Write (rob, srcs) ];
         if t.cfg.Config.spec_update_loop then (
           match P.Loop.update t.loop ~pc ~taken with
           | Some i -> if fx then emit ev [ Effect.Write (Elem.Loop i, srcs) ]
           | None -> ());
         w.w_last_jalr <- None
     | Insn.Jal (rd, _) ->
         next_pc := Golden.exec w.w_sregs ~pc insn;
         if Insn.is_call insn then begin
           let slot' = P.Ras.push t.ras (pc + 4) in
           if fx then emit ev [ Effect.Write (Elem.Ras slot', []) ]
         end;
         if fx then
           emit ev [ Effect.Write (sreg_elem rd, []); Effect.Write (rob, []) ]
     | Insn.Jalr (rd, rs1, _) ->
         let target = Golden.exec w.w_sregs ~pc insn in
         let srcs = if fx then sreg_srcs [ rs1 ] else [] in
         next_pc := target;
         if Insn.is_return insn then (
           match P.Ras.pop t.ras with
           | Some (_, slot') ->
               if fx then
                 emit ev [ Effect.Write (Elem.Pc, Elem.Ras slot' :: srcs) ]
           | None -> if fx then emit ev [ Effect.Write (Elem.Pc, srcs) ])
         else if Insn.is_call insn then begin
           (* B2's vehicle: transient calls overwrite RAS entries. *)
           let slot' = P.Ras.push t.ras (pc + 4) in
           if fx then
             emit ev [ Effect.Ctrl { kind = Effect.C_target; value = target; srcs;
                                     touched = [ Elem.Ras slot' ] };
                       Effect.Write (Elem.Ras slot', []) ]
         end;
         if fx then
           emit ev [ Effect.Ctrl { kind = Effect.C_target; value = target; srcs;
                                   touched = [ Elem.Pc ] };
                     Effect.Write (Elem.Pc, srcs);
                     Effect.Write (sreg_elem rd, []); Effect.Write (rob, srcs) ];
         (* Recorded quiet or loud: B3's squash keys on the jalr itself;
            only its event reads [srcs]. *)
         w.w_last_jalr <- Some (target, srcs)
     | Insn.Fence_i | Insn.Ecall | Insn.Ebreak | Insn.Mret | Insn.Csr _ ->
         (* System instructions (including CSR accesses) are serializing:
            the frontend stalls on them, ending useful transient
            execution. *)
         close_now := true;
         if fx then emit ev [ Effect.Write (rob, []) ]
     | Insn.Illegal _ -> if fx then emit ev [ Effect.Write (rob, []) ]);
  w.w_spec_pc <- !next_pc;
  w.w_remaining <- w.w_remaining - 1;
  if !close_now then w.w_stalled <- true;
  t.cycles <- t.cycles + !cost;
  let closed = w.w_remaining <= 0 in
  let close_events = if closed then close_window ~fx t w else [] in
  if not fx then None
  else
    Some
      { Effect.sl_pc = pc; sl_insn = insn; sl_transient = true;
        sl_window_opened = None; sl_window_closed = closed;
        sl_events = List.rev_append !ev close_events;
        sl_cycles = t.cycles; sl_swapped = false }
  end

(* --- committed execution ----------------------------------------------- *)

let areg_srcs rs = List.map (fun r -> Elem.Areg (Reg.to_int r)) rs

let step_committed ~fx t =
  let pc = Golden.pc t.arch in
  let ev = ref [] in
  let cost = ref (fetch_access ~fx t ~transient:false ev pc) in
  (* Fetch-stage prediction state, consulted before architectural
     execution resolves the truth.  One fetch+decode feeds both the
     prediction lookups and the golden model ([Golden.step_decoded]
     below) — the commit-point word cannot change in between. *)
  let fetched =
    match Phys_mem.checked_fetch t.mem ~priv:(Golden.priv t.arch) ~addr:pc with
    | Error cause -> Error cause
    | Ok word -> Ok (word, Decode.decode word)
  in
  let prefetch =
    match fetched with Error _ -> None | Ok (_, i) -> Some i
  in
  let predicted_taken =
    match prefetch with
    | Some i when Insn.is_branch i -> Some (P.Bht.predict_taken t.bht ~pc)
    | _ -> None
  in
  let ras_prediction =
    match prefetch with
    | Some i when Insn.is_return i -> (
        match P.Ras.pop t.ras with
        | Some (addr, slot') -> Some (addr, slot')
        | None -> None)
    | _ -> None
  in
  (match prefetch with
  | Some i when Insn.is_call i ->
      let slot' = P.Ras.push t.ras (pc + 4) in
      if fx then emit ev [ Effect.Write (Elem.Ras slot', []) ]
  | _ -> ());
  let btb_prediction =
    match prefetch with
    | Some i when Insn.is_indirect i && not (Insn.is_return i) ->
        P.Btb.lookup ~word:(Encode.encode i) t.btb ~pc
    | _ -> None
  in
  (* Stores overwrite memory when the golden model steps; capture the old
     content first so the store-queue entry can expose it to
     disambiguation-mispredicted loads. *)
  let store_old_data =
    match prefetch with
    | Some (Insn.Store (width, _, rs1, imm)) ->
        let addr = Golden.reg t.arch rs1 + imm in
        Phys_mem.read t.mem ~addr ~size:(Insn.bytes width)
    | _ -> 0
  in
  (* Memory-disambiguation check happens against the pre-execution memory:
     capture the stale value a mispredicted load would consume. *)
  let disamb =
    match prefetch with
    | Some (Insn.Load (width, unsigned, rd, rs1, imm)) ->
        let addr = Golden.reg t.arch rs1 + imm in
        let size = Insn.bytes width in
        if addr mod size <> 0 then None
        else (
          match Lsu.Stq.pending_alias t.stq ~now:t.slot ~addr ~size with
          | Some (stq_slot, old_raw) when not (P.Mdp.predicts_alias t.mdp ~pc) ->
              (* The aliasing store's address is still unresolved in the
                 pipeline, so the speculative load reads around it and
                 consumes the value memory held before the store. *)
              Some (rd, Golden.load_value width unsigned old_raw, stq_slot)
          | _ -> None)
    | _ -> None
  in
  let s = Golden.step_decoded t.arch ~fetched in
  let insn = s.Golden.s_insn in
  t.committed <- t.committed + 1;
  let srcs =
    (* Data sources: a load's result derives from the memory word, not
       from its address register. *)
    if not fx then []
    else
      match (insn, s.Golden.s_mem_addr, s.Golden.s_trap) with
      | Insn.Load _, Some addr, None -> [ Elem.Mem (addr / 8) ]
      | _ -> areg_srcs (Insn.reads insn)
  in
  if fx then begin
    emit ev [ Effect.Write (rob_elem t, srcs) ];
    match Insn.writes insn with
    | Some rd -> emit ev [ Effect.Write (Elem.Areg (Reg.to_int rd), srcs) ]
    | None -> ()
  end;
  (* Committed micro-updates. *)
  (match s.Golden.s_mem_addr with
  | Some addr when s.Golden.s_trap = None ->
      let addr_srcs =
        match insn with
        | (Insn.Load (_, _, _, rs1, _) | Insn.Store (_, _, rs1, _)) when fx ->
            areg_srcs [ rs1 ]
        | _ -> []
      in
      let is_store = Insn.is_store insn in
      let data_srcs =
        if not fx then []
        else if is_store then
          match insn with
          | Insn.Store (_, rs2, _, _) -> areg_srcs [ rs2 ]
          | _ -> []
        else [ Elem.Mem (addr / 8) ]
      in
      cost :=
        !cost
        + data_access ~fx t ~transient:false ev ~is_store ~addr ~addr_srcs
            ~data_srcs;
      if is_store then begin
        match insn with
        | Insn.Store (width, rs2, _, _) ->
            let stq_slot =
              Lsu.Stq.alloc t.stq ~addr ~size:(Insn.bytes width)
                ~data:(Golden.reg t.arch rs2) ~old_data:store_old_data
                ~resolve_at:(t.slot + t.cfg.Config.store_resolve_delay) ()
            in
            if fx then
              emit ev [ Effect.Write (Elem.Stq stq_slot, srcs);
                        Effect.Write (Elem.Mem (addr / 8), areg_srcs [ rs2 ]) ]
        | _ -> ()
      end
      else begin
        let ldq_slot = Lsu.Ldq.alloc t.ldq ~addr in
        if fx then emit ev [ Effect.Write (Elem.Ldq ldq_slot, addr_srcs) ]
      end
  | _ -> ());
  (match insn with
  | Insn.Fdiv _ -> cost := !cost + fdiv_issue t
  | Insn.Fence_i -> Cache.invalidate_all t.icache
  | _ -> ());
  (* Branch resolution: predictor updates and misprediction windows.  At
     most one window opens per committed slot. *)
  (match s.Golden.s_taken with
  | Some taken ->
      let i = P.Bht.update t.bht ~pc ~taken in
      if fx then
        emit ev [ Effect.Write (Elem.Bht i, srcs);
                  Effect.Ctrl { kind = Effect.C_branch;
                                value = (if taken then 1 else 0); srcs;
                                touched = [ Elem.Pc ] } ];
      (match P.Loop.update t.loop ~pc ~taken with
      | Some li -> if fx then emit ev [ Effect.Write (Elem.Loop li, srcs) ]
      | None -> ());
      (match predicted_taken with
      | Some p when p <> taken ->
          (* Mispredicted branch: the wrong path runs transiently. *)
          let wrong_path =
            if taken then pc + 4
            else
              match insn with
              | Insn.Branch (_, _, _, off) -> pc + off
              | _ -> pc + 4
          in
          open_window ~fx t ev ~kind:Effect.W_branch_mispred ~trigger_pc:pc
            ~after:`Resume ~spec_pc:wrong_path ~sreg_init:[]
      | _ -> ())
  | None -> ());
  (match (insn, s.Golden.s_target) with
  | Insn.Jalr _, Some actual when Insn.is_return insn -> (
      if fx then
        emit ev [ Effect.Ctrl { kind = Effect.C_target; value = actual;
                                srcs = areg_srcs [ Reg.ra ];
                                touched = [ Elem.Pc ] } ];
      match ras_prediction with
      | Some (predicted, _) when predicted <> actual ->
          open_window ~fx t ev ~kind:Effect.W_return_mispred ~trigger_pc:pc
            ~after:`Resume ~spec_pc:predicted ~sreg_init:[]
      | _ -> ())
  | Insn.Jalr _, Some actual -> (
      let i = P.Btb.update ~word:(Encode.encode insn) t.btb ~pc ~target:actual in
      if fx then
        emit ev [ Effect.Write (Elem.Btb i, srcs);
                  Effect.Ctrl { kind = Effect.C_target; value = actual; srcs;
                                touched = [ Elem.Pc ] } ];
      match btb_prediction with
      | Some predicted when predicted <> actual ->
          open_window ~fx t ev ~kind:Effect.W_jump_mispred ~trigger_pc:pc
            ~after:`Resume ~spec_pc:predicted ~sreg_init:[]
      | _ -> ())
  | _ -> ());
  (* Memory-disambiguation window. *)
  (match disamb with
  | Some (rd, stale, _stq_slot) when s.Golden.s_trap = None ->
      ignore (P.Mdp.train_alias t.mdp ~pc);
      open_window ~fx t ev ~kind:Effect.W_mem_disamb ~trigger_pc:pc
        ~after:`Resume ~spec_pc:s.Golden.s_next_pc ~sreg_init:[ (rd, stale) ]
  | _ -> ());
  (* Exceptions: transient window on the sequential successors, then the
     trap commits — which, under swapMem, hands control to the scheduler. *)
  let swapped = ref false in
  (match s.Golden.s_trap with
  | Some cause ->
      let window_worthy =
        match cause with
        | Trap.Load_misalign | Trap.Store_misalign | Trap.Load_access_fault
        | Trap.Store_access_fault | Trap.Load_page_fault
        | Trap.Store_page_fault -> true
        | Trap.Illegal_instruction -> t.cfg.Config.illegal_window
        | Trap.Breakpoint | Trap.Ecall_from_user | Trap.Ecall_from_machine
        | Trap.Fetch_access_fault -> false
      in
      if window_worthy && t.window = None then begin
        let kind = Effect.W_exception cause in
        match insn with
        | Insn.Load (width, _, rd, rs1, imm) when Trap.is_memory cause ->
            (* The window starts from the value the load unit forwards;
               taint and secret bookkeeping follow it. *)
            let addr = Golden.reg t.arch rs1 + imm in
            let v, fsrcs, sampled =
              transient_fault_forward ~fx t ~addr ~size:(Insn.bytes width)
            in
            open_window ~fx t ev ~kind ~trigger_pc:pc ~after:`Swap
              ~spec_pc:(pc + 4) ~sreg_init:[ (rd, v) ];
            (match t.window with
            | Some w when secret_page addr || sampled ->
                w.w_secret_accessed <- true;
                w.w_secret_fault <- true
            | _ -> ());
            if fx then emit ev [ Effect.Write (sreg_elem rd, fsrcs) ]
        | _ ->
            open_window ~fx t ev ~kind ~trigger_pc:pc ~after:`Swap
              ~spec_pc:(pc + 4) ~sreg_init:[]
      end
      else begin
        swapped := true;
        ignore (swap_in t)
      end
  | None -> ());
  t.cycles <- t.cycles + !cost;
  if not fx then None
  else
    Some
      { Effect.sl_pc = pc; sl_insn = insn; sl_transient = false;
        (* the slot started outside a window: an open one opened here *)
        sl_window_opened = Option.map (fun w -> w.w_kind) t.window;
        sl_window_closed = false; sl_events = List.rev !ev;
        sl_cycles = t.cycles; sl_swapped = !swapped }

let over t = t.done_ || t.slot >= t.stim.st_max_slots

(* The end of the run: an open window squashes, quietly — no reader sees
   that squash's events. *)
let stop t =
  (match t.window with
  | Some w -> ignore (close_window ~fx:false t w)
  | None -> ());
  t.done_ <- true

(* One slot, [over] being false. *)
let exec ~fx t =
  let slot_info =
    match t.window with
    | Some w -> step_transient ~fx t w
    | None -> step_committed ~fx t
  in
  t.slot <- t.slot + 1;
  slot_info

let step t =
  if over t then begin
    stop t;
    None
  end
  else exec ~fx:true t

(* The word [step] fetches next, if any: the commit pc outside a window,
   the speculative pc inside one until its frontend stalls. *)
let fetch_watched t =
  (not t.done_)
  &&
  match t.window with
  | None -> Phys_mem.watched t.mem ~addr:(Golden.pc t.arch) ~size:4
  | Some w ->
      (not w.w_stalled) && Phys_mem.watched t.mem ~addr:w.w_spec_pc ~size:4

(* --- committed nop runs in closed form ------------------------------------ *)

(* Derived training pads every packet with nops up to the trigger address,
   so most committed slots are the canonical nop.  Its [step_committed]
   slot is the fetch alone: one icache access, the golden pc + 4, a clean
   RoB write, cost 1 plus the refill latency on a miss; no predictor,
   queue, TLB or dcache effect.  (The B4 stall cannot reach it: only a
   transient fetch raises [fetch_busy_until], and [close_window] lifts
   [cycles] past it at every squash.)  So a run of them advances in
   closed form.  [Taintstate.committed_nop] mirrors the slot's events. *)

let nop_word = Encode.encode Insn.nop

(* Slots of a run, from [pc] on, that fetch from [pc]'s icache line. *)
let slots_on_line t pc =
  let lb = t.cfg.Config.line_bytes in
  (lb - (pc mod lb) + 3) / 4

let nop_run t limit =
  if t.done_ || Option.is_some t.window then 0
  else begin
    let limit = min limit (t.stim.st_max_slots - t.slot) in
    let pc0 = Golden.pc t.arch and priv = Golden.priv t.arch in
    let lb = t.cfg.Config.line_bytes in
    (* One icache's worth of lines at most, so that no line of the run
       evicts another and only a line's first fetch can miss. *)
    let stop_pc = ((pc0 / lb) + t.cfg.Config.icache_lines) * lb in
    let rec go n =
      let pc = pc0 + (4 * n) in
      if n >= limit || pc >= stop_pc
         (* before the read: reading a watched word latches [watch_hit] *)
         || Phys_mem.watched t.mem ~addr:pc ~size:4
         || (not (Phys_mem.fetchable t.mem ~priv ~addr:pc))
         || Phys_mem.read t.mem ~addr:pc ~size:4 <> nop_word
      then n
      else go (n + 1)
    in
    go 0
  end

let nop_run_pair a b limit =
  let pc0 = Golden.pc a.arch in
  let n = if pc0 = Golden.pc b.arch then nop_run a limit else 0 in
  if n = 0 then 0
  else begin
    let n = nop_run b n in
    (* Cut the run at the first line on which the two icaches disagree. *)
    let rec agree k =
      if k >= n then n
      else
        let pc = pc0 + (4 * k) in
        if Cache.hits a.icache ~addr:pc <> Cache.hits b.icache ~addr:pc then k
        else agree (k + slots_on_line a pc)
    in
    agree 0
  end

let skip_nops ?each t n =
  let pc0 = Golden.pc t.arch and slot0 = t.slot in
  let misses = ref 0 and k = ref 0 in
  while !k < n do
    let pc = pc0 + (4 * !k) in
    let refill = Cache.fill t.icache ~addr:pc in
    if refill then incr misses;
    let on_line = min (n - !k) (slots_on_line t pc) in
    (match each with
    | None -> ()
    | Some f ->
        let line = Cache.line_index t.icache ~addr:pc in
        for j = 0 to on_line - 1 do
          f ~line ~refill:(refill && j = 0)
            ~rob:((slot0 + !k + j) mod t.cfg.Config.rob_entries)
        done);
    k := !k + on_line
  done;
  Golden.set_pc t.arch (pc0 + (4 * n));
  t.slot <- slot0 + n;
  t.committed <- t.committed + n;
  t.cycles <- t.cycles + n + (!misses * t.cfg.Config.miss_latency);
  Metrics.incr ~by:n m_nops_skipped

let live t elem =
  match elem with
  | Elem.Areg _ | Elem.Mem _ | Elem.Pc | Elem.Bht _ -> true
  | Elem.Sreg _ | Elem.Rob _ | Elem.Ldq _ | Elem.Stq _ -> false
  | Elem.Dcache i -> Cache.valid t.dcache i
  | Elem.Icache i -> Cache.valid t.icache i
  | Elem.Lfb i -> Cache.Lfb.valid t.lfb i
  | Elem.Btb i -> P.Btb.valid t.btb i
  | Elem.Ras i -> P.Ras.live t.ras i
  | Elem.Loop i -> P.Loop.enabled t.loop && P.Loop.valid t.loop i
  | Elem.Tlb i -> Tlb.valid t.tlb i
  | Elem.L2tlb i -> Tlb.valid t.l2tlb i

let run t =
  let rec go acc =
    match step t with None -> List.rev acc | Some s -> go (s :: acc)
  in
  go []

let rec finish t =
  let n = nop_run t max_int in
  if n > 0 then skip_nops t n;
  if over t then stop t
  else begin
    ignore (exec ~fx:false t);
    finish t
  end

let state_hash t =
  let h = ref 0 in
  let mix v = h := (!h * 1000003) lxor v lxor (!h lsr 23) in
  let cfg = t.cfg in
  for i = 0 to cfg.Config.dcache_lines - 1 do
    if Cache.valid t.dcache i then begin
      mix (1 + i);
      (* A valid line's contents are observable (e.g. by reload timing):
         hash the first dword of the cached memory. *)
      mix (Phys_mem.read t.mem ~addr:(Cache.line_addr t.dcache i) ~size:8)
    end
  done;
  for i = 0 to cfg.Config.icache_lines - 1 do
    if Cache.valid t.icache i then mix (0x100 + i)
  done;
  for i = 0 to cfg.Config.lfb_entries - 1 do
    mix (Cache.Lfb.data t.lfb i);
    mix (if Cache.Lfb.valid t.lfb i then 1 else 0)
  done;
  for i = 0 to cfg.Config.btb_entries - 1 do
    if P.Btb.valid t.btb i then mix (P.Btb.target_of t.btb i)
  done;
  for i = 0 to cfg.Config.ras_entries - 1 do
    mix (P.Ras.entry t.ras i)
  done;
  mix (P.Ras.tos t.ras);
  for i = 0 to cfg.Config.bht_entries - 1 do
    mix (P.Bht.counter t.bht i)
  done;
  mix t.cycles;
  !h land max_int
