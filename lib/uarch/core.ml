open Dvz_isa
open Dvz_soc
module P = Predictors

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
  w_ras_snap : P.Ras.snapshot;
  w_stq_snap : Lsu.Stq.snapshot;
  w_ldq_snap : Lsu.Ldq.snapshot;
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
}

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

(* Every stateful layer allocated in its zero state, nothing loaded:
   [create] arms the result with [reset], [copy] with [blit]. *)
let alloc cfg stim =
  let mem = Phys_mem.create () in
  let arch =
    Golden.create ~pc:Layout.swap_entry ~priv:Golden.User ~mtvec:Layout.mtvec
      (Phys_mem.golden_memory mem)
  in
  { cfg; stim; mem; arch;
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
    window = None; windows = []; done_ = false; secret_tightened = false }

(* Re-arm an existing core for a new stimulus without reallocating any of
   its state.  Must leave [t] bit-identical (under [state_hash] and every
   observable) to [create t.cfg stim]: zeroed memory and predictor tags, not
   just cleared valid bits, because dead state is still hashed. *)
let reset t stim =
  Phys_mem.clear t.mem;
  Swapmem.reset stim.st_swapmem;
  Array.iteri
    (fun i v ->
      Phys_mem.write t.mem ~addr:(Layout.secret_base + (8 * i)) ~size:8 v)
    stim.st_secret;
  List.iter
    (fun (addr, v) -> Phys_mem.write t.mem ~addr ~size:8 v)
    stim.st_data;
  List.iter (fun (addr, p) -> Phys_mem.set_perm t.mem addr p) stim.st_perms;
  Golden.reset ~pc:Layout.swap_entry ~priv:Golden.User ~mtvec:Layout.mtvec
    t.arch;
  P.Bht.reset t.bht;
  P.Btb.reset t.btb;
  P.Ras.reset t.ras;
  P.Loop.reset t.loop;
  P.Mdp.reset t.mdp;
  Cache.reset t.icache;
  Cache.reset t.dcache;
  Cache.Lfb.reset t.lfb;
  Tlb.reset t.tlb;
  Tlb.reset t.l2tlb;
  Lsu.Stq.reset t.stq;
  Lsu.Ldq.reset t.ldq;
  t.stim <- stim;
  t.cycles <- 0;
  t.slot <- 0;
  t.committed <- 0;
  t.fetch_busy_until <- 0;
  t.fdiv_busy_until <- 0;
  t.load_wb_busy_until <- 0;
  t.lsu_busy_until <- 0;
  t.window <- None;
  t.windows <- [];
  t.done_ <- false;
  t.secret_tightened <- false;
  ignore (swap_in t)

let create cfg stim =
  let t = alloc cfg stim in
  reset t stim;
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
  let dst = alloc t.cfg t.stim in
  blit ~src:t ~dst;
  dst

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

let config t = t.cfg
let arch_reg t r = Golden.reg t.arch r
let mem t = t.mem
let is_done t = t.done_
let cycles t = t.cycles
let committed t = t.committed
let slot_count t = t.slot
let windows t = List.rev t.windows
let in_window t = t.window <> None

let rob_elem t = Elem.Rob (t.slot mod t.cfg.Config.rob_entries)

let secret_page addr =
  addr >= Layout.secret_base && addr < Layout.secret_base + Layout.secret_size

(* --- microarchitectural access helpers; each returns (events, cost) --- *)

let fetch_access t ~transient pc =
  let events = ref [] and cost = ref 1 in
  (* The hit/miss decision reads the line's tag state as well as the pc, so
     both appear as control sources; the value encodes index and outcome. *)
  (match Cache.access t.icache ~addr:pc with
  | `Hit i ->
      events := [ Effect.Ctrl { kind = Effect.C_addr; value = 2 * i;
                                srcs = [ Elem.Pc; Elem.Icache i ];
                                touched = [ Elem.Icache i ] } ]
  | `Miss i ->
      cost := !cost + t.cfg.Config.miss_latency;
      if transient && t.cfg.Config.fetch_contention_bug then
        (* B4: the transient refill occupies the fetch port past the squash. *)
        t.fetch_busy_until <-
          max t.fetch_busy_until (t.cycles + !cost + t.cfg.Config.miss_latency);
      events := [ Effect.Write (Elem.Icache i, []);
                  Effect.Ctrl { kind = Effect.C_addr; value = (2 * i) + 1;
                                srcs = [ Elem.Pc; Elem.Icache i ];
                                touched = [ Elem.Icache i ] } ]);
  (!events, !cost)

(* A data-memory access: dcache + TLB (+ L2 TLB on a TLB miss) + LFB on a
   dcache miss.  [addr_srcs] are the elements the effective address derives
   from; [data_srcs] what the accessed memory word's taint derives from. *)
let data_access t ~transient ~is_store ~addr ~addr_srcs ~data_srcs =
  let events = ref [] and cost = ref 0 in
  let emit e = events := e :: !events in
  (match Tlb.access t.tlb ~addr with
  | `Disabled -> ()
  | `Hit i ->
      emit (Effect.Ctrl { kind = Effect.C_addr; value = i; srcs = addr_srcs;
                          touched = [ Elem.Tlb i ] })
  | `Miss i ->
      cost := !cost + 3;
      emit (Effect.Write (Elem.Tlb i, []));
      emit (Effect.Ctrl { kind = Effect.C_addr; value = i; srcs = addr_srcs;
                          touched = [ Elem.Tlb i ] });
      (match Tlb.access t.l2tlb ~addr with
      | `Disabled | `Hit _ -> ()
      | `Miss j ->
          cost := !cost + 6;
          emit (Effect.Write (Elem.L2tlb j, []));
          emit (Effect.Ctrl { kind = Effect.C_addr; value = j; srcs = addr_srcs;
                              touched = [ Elem.L2tlb j ] })));
  (match Cache.access t.dcache ~addr with
  | `Hit i ->
      cost := !cost + 1;
      if transient && not is_store && t.cfg.Config.load_wb_contention_bug
         && t.load_wb_busy_until > t.cycles
      then
        (* B5: the load pipeline and the load queue contend on the load
           write-back port while a miss refill is in flight. *)
        cost := !cost + 2;
      emit (Effect.Ctrl { kind = Effect.C_addr; value = 2 * i;
                          srcs = Elem.Dcache i :: addr_srcs;
                          touched = [ Elem.Dcache i ] })
  | `Miss i ->
      cost := !cost + t.cfg.Config.miss_latency;
      t.lsu_busy_until <-
        max t.lsu_busy_until (t.cycles + !cost + (t.cfg.Config.miss_latency / 2));
      if t.cfg.Config.load_wb_contention_bug && not is_store then
        t.load_wb_busy_until <-
          max t.load_wb_busy_until (t.cycles + !cost + t.cfg.Config.miss_latency);
      let lfb_slot = Cache.Lfb.refill t.lfb ~data:(Phys_mem.read t.mem ~addr ~size:8) in
      emit (Effect.Write (Elem.Lfb lfb_slot, data_srcs));
      emit (Effect.Write (Elem.Dcache i, data_srcs));
      emit (Effect.Ctrl { kind = Effect.C_addr; value = (2 * i) + 1;
                          srcs = Elem.Dcache i :: addr_srcs;
                          touched = [ Elem.Dcache i; Elem.Lfb lfb_slot ] }));
  (List.rev !events, !cost)

let fdiv_issue t =
  let wait = max 0 (t.fdiv_busy_until - t.cycles) in
  t.fdiv_busy_until <- t.cycles + wait + t.cfg.Config.fdiv_latency;
  2 + wait

(* Forwarded value of a faulting load: the heart of the Meltdown-class
   behaviours.  Returns (value, taint sources, sampled-secret flag). *)
let transient_fault_forward t ~addr ~size =
  let phys_limit = 1 lsl t.cfg.Config.phys_addr_bits in
  if addr >= phys_limit && t.cfg.Config.addr_truncate_bug then begin
    (* B1: inconsistent wire widths truncate the high bits on the way to
       the load unit; the access samples the aliased physical address. *)
    let eff = addr mod phys_limit in
    (Phys_mem.read t.mem ~addr:eff ~size, [ Elem.Mem (eff / 8) ],
     secret_page eff)
  end
  else if t.cfg.Config.meltdown_forward then
    (Phys_mem.read t.mem ~addr ~size, [ Elem.Mem (addr / 8) ],
     secret_page addr)
  else (0, [], false)

(* --- window (transient) execution ------------------------------------- *)

let close_window t w =
  (* Squash: restore checkpointed structures.  The RAS restore policy is
     where B2 lives. *)
  let restore_ras_elems =
    if t.cfg.Config.ras_restore_below_tos_bug then begin
      P.Ras.restore_top_only t.ras w.w_ras_snap;
      [ Elem.Ras (P.Ras.tos t.ras) ]
    end
    else begin
      P.Ras.restore_full t.ras w.w_ras_snap;
      List.init t.cfg.Config.ras_entries (fun i -> Elem.Ras i)
    end
  in
  Lsu.Stq.restore t.stq w.w_stq_snap;
  Lsu.Ldq.restore t.ldq w.w_ldq_snap;
  let queue_elems =
    List.init (Lsu.Stq.entries t.stq) (fun i -> Elem.Stq i)
    @ List.init (Lsu.Ldq.entries t.ldq) (fun i -> Elem.Ldq i)
  in
  (* B3: an exception commit racing a mispredicted-jalr correction updates
     the faulting pc's BTB entry with the jalr's corrected target. *)
  let b3_events =
    match (w.w_kind, w.w_last_jalr) with
    | Effect.W_exception _, Some (target, srcs)
      when t.cfg.Config.btb_exception_race_bug ->
        let i = P.Btb.update t.btb ~pc:w.w_trigger_pc ~target in
        [ Effect.Write (Elem.Btb i, srcs) ]
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
  let rob_flush =
    (* What the rollback's control decision steers: every RoB entry field,
       the speculative register copies and the redirected pc — the §2.2
       "all 736 RoB entry field registers are suddenly tainted" blast
       radius, which the diff gating suppresses unless the two instances
       actually squash differently. *)
    List.init t.cfg.Config.rob_entries (fun i -> Elem.Rob i)
    @ List.init 32 (fun i -> Elem.Sreg i)
    @ [ Elem.Pc ]
  in
  let squash_srcs =
    (* the rollback index derives from the in-flight (RoB) state *)
    List.init (min w.w_enqueued t.cfg.Config.rob_entries) (fun i ->
        Elem.Rob ((w.w_start_slot + i) mod t.cfg.Config.rob_entries))
  in
  let events =
    b3_events
    @ [ Effect.Restore (restore_ras_elems @ queue_elems);
        Effect.Ctrl { kind = Effect.C_squash; value = w.w_enqueued;
                      srcs = squash_srcs; touched = rob_flush };
        Effect.Write (Elem.Pc, []) ]
  in
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
  events

let open_window t ~kind ~trigger_pc ~after ~spec_pc ~sreg_init =
  let sregs = Array.init 32 (fun i -> Golden.reg t.arch (Reg.x i)) in
  List.iter (fun (r, v) -> sregs.(Reg.to_int r) <- v) sreg_init;
  let snap_elems =
    List.init t.cfg.Config.ras_entries (fun i -> Elem.Ras i)
    @ List.init (Lsu.Stq.entries t.stq) (fun i -> Elem.Stq i)
    @ List.init (Lsu.Ldq.entries t.ldq) (fun i -> Elem.Ldq i)
  in
  t.window <-
    Some
      { w_kind = kind; w_trigger_pc = trigger_pc; w_after = after;
        w_remaining = t.cfg.Config.window_insns;
        w_stalled = false;
        w_sregs = sregs; w_spec_pc = spec_pc;
        w_ras_snap = P.Ras.snapshot t.ras;
        w_stq_snap = Lsu.Stq.snapshot t.stq;
        w_ldq_snap = Lsu.Ldq.snapshot t.ldq;
        w_enqueued = 0; w_start_cycle = t.cycles; w_start_slot = t.slot;
        w_secret_accessed = false; w_secret_fault = false;
        w_last_jalr = None };
  [ Effect.Copy_regs_to_spec; Effect.Snapshot snap_elems ]

let sreg _t w r = if Reg.to_int r = 0 then 0 else w.w_sregs.(Reg.to_int r)

let set_sreg w r v = if Reg.to_int r <> 0 then w.w_sregs.(Reg.to_int r) <- v

let sreg_elem r = Elem.Sreg (Reg.to_int r)

let sreg_srcs rs = List.map sreg_elem rs

(* Execute one transient instruction inside the window.  Windows always
   consume [window_insns] slots; once the speculative frontend stalls the
   remaining slots are bubbles.  This keeps the two differential-testbench
   instances slot-aligned regardless of secret-dependent divergence. *)
let step_transient t w =
  if w.w_stalled then begin
    w.w_remaining <- w.w_remaining - 1;
    t.cycles <- t.cycles + 1;
    let closed = w.w_remaining <= 0 in
    let close_events = if closed then close_window t w else [] in
    { Effect.sl_pc = w.w_spec_pc; sl_insn = Insn.nop; sl_transient = true;
      sl_window_opened = None; sl_window_closed = closed;
      sl_events = close_events; sl_cycles = t.cycles; sl_committed = false;
      sl_swapped = false }
  end
  else begin
  let pc = w.w_spec_pc in
  (* Newest-first accumulator, as in [step_committed]. *)
  let events = ref [] and cost = ref 0 in
  let emit es = events := List.rev_append es !events in
  let fetch_events, fetch_cost = fetch_access t ~transient:true pc in
  emit fetch_events;
  cost := !cost + fetch_cost;
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
     | Insn.Lui (rd, imm20) ->
         let v = (imm20 lsl 12 lsl (Sys.int_size - 32)) asr (Sys.int_size - 32) in
         set_sreg w rd v;
         emit [ Effect.Write (sreg_elem rd, []); Effect.Write (rob, []) ]
     | Insn.Auipc (rd, imm20) ->
         let v = pc + ((imm20 lsl 12 lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)) in
         set_sreg w rd v;
         emit [ Effect.Write (sreg_elem rd, []); Effect.Write (rob, []) ]
     | Insn.Op (op, rd, rs1, rs2) ->
         let v = Exec_alu.alu op (sreg t w rs1) (sreg t w rs2) in
         set_sreg w rd v;
         let srcs = sreg_srcs (Insn.reads insn) in
         emit [ Effect.Write (sreg_elem rd, srcs); Effect.Write (rob, srcs) ]
     | Insn.Opi (op, rd, rs1, imm) ->
         let v = Exec_alu.alui op (sreg t w rs1) imm in
         set_sreg w rd v;
         let srcs = sreg_srcs (Insn.reads insn) in
         emit [ Effect.Write (sreg_elem rd, srcs); Effect.Write (rob, srcs) ]
     | Insn.Fdiv (rd, rs1, rs2) ->
         let b = sreg t w rs2 in
         set_sreg w rd (if b = 0 then -1 else sreg t w rs1 / b);
         cost := !cost + fdiv_issue t;
         let srcs = sreg_srcs (Insn.reads insn) in
         emit [ Effect.Write (sreg_elem rd, srcs); Effect.Write (rob, srcs) ]
     | Insn.Load (width, unsigned, rd, rs1, imm) -> (
         let addr = sreg t w rs1 + imm in
         let size = Insn.bytes width in
         let addr_srcs = sreg_srcs (Insn.reads insn) in
         if secret_page addr then w.w_secret_accessed <- true;
         let ldq_slot = Lsu.Ldq.alloc t.ldq ~addr in
         emit [ Effect.Write (Elem.Ldq ldq_slot, addr_srcs) ];
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
                 set_sreg w rd data;
                 cost := !cost + 1;
                 emit [ Effect.Write (sreg_elem rd, [ Elem.Stq slot' ]);
                        Effect.Write (rob, [ Elem.Stq slot' ]) ]
             | None ->
                 let v =
                   let bits = 8 * size in
                   if unsigned || width = Insn.D then raw
                   else (raw lsl (Sys.int_size - bits)) asr (Sys.int_size - bits)
                 in
                 set_sreg w rd v;
                 let data_srcs = [ Elem.Mem (addr / 8) ] in
                 let es, c =
                   data_access t ~transient:true ~is_store:false ~addr
                     ~addr_srcs ~data_srcs
                 in
                 emit es;
                 cost := !cost + c;
                 emit [ Effect.Write (sreg_elem rd, data_srcs);
                        Effect.Write (rob, data_srcs) ])
         | Error cause ->
             (* No nested window: the fault squashes with the outer window;
               but the load unit forwards data meanwhile. *)
             if secret_page addr then w.w_secret_fault <- true;
             ignore cause;
             let v, data_srcs, sampled = transient_fault_forward t ~addr ~size in
             if sampled then begin
               w.w_secret_accessed <- true;
               w.w_secret_fault <- true
             end;
             set_sreg w rd v;
             emit [ Effect.Write (sreg_elem rd, data_srcs);
                    Effect.Write (rob, data_srcs) ])
     | Insn.Store (width, rs2, rs1, imm) ->
         let addr = sreg t w rs1 + imm in
         let size = Insn.bytes width in
         let addr_srcs = sreg_srcs [ rs1 ] in
         if secret_page addr then w.w_secret_accessed <- true;
         let slot' =
           Lsu.Stq.alloc t.stq ~addr ~size ~data:(sreg t w rs2)
             ~old_data:(Phys_mem.read t.mem ~addr ~size)
             ~resolve_at:(t.slot + t.cfg.Config.store_resolve_delay) ()
         in
         let srcs = sreg_srcs (Insn.reads insn) in
         emit [ Effect.Write (Elem.Stq slot', srcs); Effect.Write (rob, srcs) ];
         let es, c =
           data_access t ~transient:true ~is_store:true ~addr ~addr_srcs
             ~data_srcs:(sreg_srcs [ rs2 ])
         in
         emit es;
         cost := !cost + c
     | Insn.Branch (cond, rs1, rs2, off) ->
         let taken = Exec_alu.cond_holds cond (sreg t w rs1) (sreg t w rs2) in
         let srcs = sreg_srcs (Insn.reads insn) in
         next_pc := (if taken then pc + off else pc + 4);
         emit [ Effect.Ctrl { kind = Effect.C_branch;
                              value = (if taken then 1 else 0);
                              srcs; touched = [ Elem.Pc ] };
                Effect.Write (Elem.Pc, srcs);
                Effect.Write (rob, srcs) ];
         if t.cfg.Config.spec_update_loop then (
           match P.Loop.update t.loop ~pc ~taken with
           | Some i -> emit [ Effect.Write (Elem.Loop i, srcs) ]
           | None -> ());
         w.w_last_jalr <- None
     | Insn.Jal (rd, off) ->
         next_pc := pc + off;
         set_sreg w rd (pc + 4);
         if Insn.is_call insn then begin
           let slot' = P.Ras.push t.ras (pc + 4) in
           emit [ Effect.Write (Elem.Ras slot', []) ]
         end;
         emit [ Effect.Write (sreg_elem rd, []); Effect.Write (rob, []) ]
     | Insn.Jalr (rd, rs1, imm) ->
         let target = (sreg t w rs1 + imm) land lnot 1 in
         let srcs = sreg_srcs [ rs1 ] in
         next_pc := target;
         set_sreg w rd (pc + 4);
         if Insn.is_return insn then (
           match P.Ras.pop t.ras with
           | Some (_, slot') ->
               emit [ Effect.Write (Elem.Pc, Elem.Ras slot' :: srcs) ]
           | None -> emit [ Effect.Write (Elem.Pc, srcs) ])
         else if Insn.is_call insn then begin
           (* B2's vehicle: transient calls overwrite RAS entries. *)
           let slot' = P.Ras.push t.ras (pc + 4) in
           emit [ Effect.Ctrl { kind = Effect.C_target; value = target; srcs;
                                touched = [ Elem.Ras slot' ] };
                  Effect.Write (Elem.Ras slot', []) ]
         end;
         emit [ Effect.Ctrl { kind = Effect.C_target; value = target; srcs;
                              touched = [ Elem.Pc ] };
                Effect.Write (Elem.Pc, srcs);
                Effect.Write (sreg_elem rd, []); Effect.Write (rob, srcs) ];
         w.w_last_jalr <- Some (target, srcs)
     | Insn.Fence_i | Insn.Ecall | Insn.Ebreak | Insn.Mret | Insn.Csr _ ->
         (* System instructions (including CSR accesses) are serializing:
            the frontend stalls on them, ending useful transient
            execution. *)
         close_now := true;
         emit [ Effect.Write (rob, []) ]
     | Insn.Illegal _ -> emit [ Effect.Write (rob, []) ]);
  w.w_spec_pc <- !next_pc;
  w.w_remaining <- w.w_remaining - 1;
  if !close_now then w.w_stalled <- true;
  t.cycles <- t.cycles + !cost;
  let closed = w.w_remaining <= 0 in
  let close_events = if closed then close_window t w else [] in
  { Effect.sl_pc = pc; sl_insn = insn; sl_transient = true;
    sl_window_opened = None; sl_window_closed = closed;
    sl_events = List.rev_append !events close_events;
    sl_cycles = t.cycles; sl_committed = false; sl_swapped = false }
  end

(* --- committed execution ----------------------------------------------- *)

let areg_srcs rs = List.map (fun r -> Elem.Areg (Reg.to_int r)) rs

let step_committed t =
  let pc = Golden.pc t.arch in
  if t.cfg.Config.fetch_contention_bug then
    t.cycles <- max t.cycles t.fetch_busy_until;
  (* [events] accumulates newest-first ([List.rev] at the end) so each
     [emit] is O(|es|) instead of copying the whole tail. *)
  let events = ref [] and cost = ref 0 in
  let emit es = events := List.rev_append es !events in
  let fetch_events, fetch_cost = fetch_access t ~transient:false pc in
  emit fetch_events;
  cost := !cost + fetch_cost;
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
      emit [ Effect.Write (Elem.Ras slot', []) ]
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
    | Some (Insn.Load (width, unsigned, rd, rs1, imm) as i) ->
        let addr = Golden.reg t.arch rs1 + imm in
        let size = Insn.bytes width in
        if addr mod size <> 0 then None
        else (
          match Lsu.Stq.pending_alias t.stq ~now:t.slot ~addr ~size with
          | Some (stq_slot, old_raw) when not (P.Mdp.predicts_alias t.mdp ~pc) ->
              (* The aliasing store's address is still unresolved in the
                 pipeline, so the speculative load reads around it and
                 consumes the value memory held before the store. *)
              let stale =
                let bits = 8 * size in
                if unsigned || width = Insn.D then old_raw
                else (old_raw lsl (Sys.int_size - bits)) asr (Sys.int_size - bits)
              in
              ignore i;
              Some (rd, stale, stq_slot)
          | _ -> None)
    | _ -> None
  in
  let s = Golden.step_decoded t.arch ~fetched in
  let insn = s.Golden.s_insn in
  let rob = rob_elem t in
  t.committed <- t.committed + 1;
  let srcs =
    (* Data sources: a load's result derives from the memory word, not
       from its address register. *)
    match (insn, s.Golden.s_mem_addr, s.Golden.s_trap) with
    | Insn.Load _, Some addr, None -> [ Elem.Mem (addr / 8) ]
    | _ -> areg_srcs (Insn.reads insn)
  in
  emit [ Effect.Write (rob, srcs) ];
  (match Insn.writes insn with
  | Some rd -> emit [ Effect.Write (Elem.Areg (Reg.to_int rd), srcs) ]
  | None -> ());
  (* Committed micro-updates. *)
  (match s.Golden.s_mem_addr with
  | Some addr when s.Golden.s_trap = None ->
      let addr_srcs =
        match insn with
        | Insn.Load (_, _, _, rs1, _) | Insn.Store (_, _, rs1, _) ->
            areg_srcs [ rs1 ]
        | _ -> []
      in
      let is_store = Insn.is_store insn in
      let data_srcs =
        if is_store then
          match insn with
          | Insn.Store (_, rs2, _, _) -> areg_srcs [ rs2 ]
          | _ -> []
        else [ Elem.Mem (addr / 8) ]
      in
      let es, c =
        data_access t ~transient:false ~is_store ~addr ~addr_srcs ~data_srcs
      in
      emit es;
      cost := !cost + c;
      if is_store then begin
        match insn with
        | Insn.Store (width, rs2, _, _) ->
            let stq_slot =
              Lsu.Stq.alloc t.stq ~addr ~size:(Insn.bytes width)
                ~data:(Golden.reg t.arch rs2) ~old_data:store_old_data
                ~resolve_at:(t.slot + t.cfg.Config.store_resolve_delay) ()
            in
            emit [ Effect.Write (Elem.Stq stq_slot, srcs);
                   Effect.Write (Elem.Mem (addr / 8), areg_srcs [ rs2 ]) ]
        | _ -> ()
      end
      else begin
        let ldq_slot = Lsu.Ldq.alloc t.ldq ~addr in
        emit [ Effect.Write (Elem.Ldq ldq_slot, addr_srcs) ]
      end
  | _ -> ());
  (match insn with
  | Insn.Fdiv _ -> cost := !cost + fdiv_issue t
  | Insn.Fence_i -> Cache.invalidate_all t.icache
  | _ -> ());
  (* Branch resolution: predictor updates and misprediction windows. *)
  let window_opened = ref None in
  let open_w kind ~after ~spec_pc ~sreg_init =
    window_opened := Some kind;
    emit (open_window t ~kind ~trigger_pc:pc ~after ~spec_pc ~sreg_init)
  in
  (match s.Golden.s_taken with
  | Some taken ->
      let i = P.Bht.update t.bht ~pc ~taken in
      emit [ Effect.Write (Elem.Bht i, srcs);
             Effect.Ctrl { kind = Effect.C_branch;
                           value = (if taken then 1 else 0); srcs;
                           touched = [ Elem.Pc ] } ];
      (match P.Loop.update t.loop ~pc ~taken with
      | Some li -> emit [ Effect.Write (Elem.Loop li, srcs) ]
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
          open_w Effect.W_branch_mispred ~after:`Resume ~spec_pc:wrong_path
            ~sreg_init:[]
      | _ -> ())
  | None -> ());
  (match (insn, s.Golden.s_target) with
  | Insn.Jalr _, Some actual when Insn.is_return insn -> (
      emit [ Effect.Ctrl { kind = Effect.C_target; value = actual;
                           srcs = areg_srcs [ Reg.ra ]; touched = [ Elem.Pc ] } ];
      match ras_prediction with
      | Some (predicted, _) when predicted <> actual ->
          open_w Effect.W_return_mispred ~after:`Resume ~spec_pc:predicted
            ~sreg_init:[]
      | _ -> ())
  | Insn.Jalr _, Some actual -> (
      let i = P.Btb.update ~word:(Encode.encode insn) t.btb ~pc ~target:actual in
      emit [ Effect.Write (Elem.Btb i, srcs);
             Effect.Ctrl { kind = Effect.C_target; value = actual; srcs;
                           touched = [ Elem.Pc ] } ];
      match btb_prediction with
      | Some predicted when predicted <> actual ->
          open_w Effect.W_jump_mispred ~after:`Resume ~spec_pc:predicted
            ~sreg_init:[]
      | _ -> ())
  | _ -> ());
  (* Memory-disambiguation window. *)
  (match disamb with
  | Some (rd, stale, _stq_slot) when s.Golden.s_trap = None ->
      ignore (P.Mdp.train_alias t.mdp ~pc);
      open_w Effect.W_mem_disamb ~after:`Resume ~spec_pc:s.Golden.s_next_pc
        ~sreg_init:[ (rd, stale) ]
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
        let sreg_init =
          match insn with
          | Insn.Load (width, _, rd, rs1, imm) when Trap.is_memory cause ->
              let addr = Golden.reg t.arch rs1 + imm in
              let v, fsrcs, sampled =
                transient_fault_forward t ~addr ~size:(Insn.bytes width)
              in
              ignore fsrcs;
              if secret_page addr || sampled then begin
                (* recorded on the window below *)
                ()
              end;
              [ (rd, v) ]
          | _ -> []
        in
        open_w (Effect.W_exception cause) ~after:`Swap ~spec_pc:(pc + 4)
          ~sreg_init;
        (* Taint and secret bookkeeping for the forwarded value. *)
        (match (insn, t.window) with
        | Insn.Load (width, _, rd, rs1, imm), Some w when Trap.is_memory cause ->
            let addr = Golden.reg t.arch rs1 + imm in
            let _, fsrcs, sampled =
              transient_fault_forward t ~addr ~size:(Insn.bytes width)
            in
            if secret_page addr then begin
              w.w_secret_accessed <- true;
              w.w_secret_fault <- true
            end;
            if sampled then begin
              w.w_secret_accessed <- true;
              w.w_secret_fault <- true
            end;
            emit [ Effect.Write (sreg_elem rd, fsrcs) ]
        | _ -> ())
      end
      else begin
        swapped := true;
        ignore (swap_in t)
      end
  | None -> ());
  t.cycles <- t.cycles + !cost;
  { Effect.sl_pc = pc; sl_insn = insn; sl_transient = false;
    sl_window_opened = !window_opened; sl_window_closed = false;
    sl_events = List.rev !events; sl_cycles = t.cycles; sl_committed = true;
    sl_swapped = !swapped }

let step t =
  if t.done_ || t.slot >= t.stim.st_max_slots then begin
    (match t.window with Some w -> ignore (close_window t w) | None -> ());
    t.done_ <- true;
    None
  end
  else begin
    let slot_info =
      match t.window with
      | Some w -> step_transient t w
      | None -> step_committed t
    in
    t.slot <- t.slot + 1;
    Some slot_info
  end

(* The word [step] fetches next, if any: the commit pc outside a window,
   the speculative pc inside one until its frontend stalls. *)
let fetch_watched t =
  (not t.done_)
  &&
  match t.window with
  | None -> Phys_mem.watched t.mem ~addr:(Golden.pc t.arch) ~size:4
  | Some w ->
      (not w.w_stalled) && Phys_mem.watched t.mem ~addr:w.w_spec_pc ~size:4

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

let rec finish t = match step t with None -> () | Some _ -> finish t

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
