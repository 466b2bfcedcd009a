(* Tests for Dvz_uarch: predictors, caches, TLB, LSU queues, the core
   model's transient-window behaviour, each planted bug, the taint engine,
   and the dual-DUT testbench. *)

open Dvz_isa
open Dvz_soc
module P = Dvz_uarch.Predictors
module Cache = Dvz_uarch.Cache
module Tlb = Dvz_uarch.Tlb
module Lsu = Dvz_uarch.Lsu
module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Elem = Dvz_uarch.Elem
module Eff = Dvz_uarch.Effect
module Taintstate = Dvz_uarch.Taintstate
module Dualcore = Dvz_uarch.Dualcore
module Packet = Dejavuzz.Packet
module Genlib = Dejavuzz.Genlib

(* --- predictors ---------------------------------------------------------- *)

let test_bht_saturation () =
  let bht = P.Bht.create ~entries:16 in
  Alcotest.(check bool) "default weakly untaken" false
    (P.Bht.predict_taken bht ~pc:0x1000);
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:true);
  Alcotest.(check bool) "one taken trains" true
    (P.Bht.predict_taken bht ~pc:0x1000);
  for _ = 1 to 5 do ignore (P.Bht.update bht ~pc:0x1000 ~taken:true) done;
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:false);
  Alcotest.(check bool) "saturated survives one untaken" true
    (P.Bht.predict_taken bht ~pc:0x1000)

let test_bht_aliasing () =
  let bht = P.Bht.create ~entries:16 in
  ignore (P.Bht.update bht ~pc:0x1000 ~taken:true);
  (* 16 entries * 4 bytes = aliasing stride of 64 bytes *)
  Alcotest.(check bool) "aliased pc shares counter" true
    (P.Bht.predict_taken bht ~pc:(0x1000 + 64))

let test_btb_tagged_vs_untagged () =
  let tagged = P.Btb.create ~tagged:true ~entries:8 () in
  let untagged = P.Btb.create ~tagged:false ~entries:8 () in
  ignore (P.Btb.update tagged ~pc:0x1000 ~target:0x2000);
  ignore (P.Btb.update untagged ~pc:0x1000 ~target:0x2000);
  let alias = 0x1000 + (8 * 4) in
  Alcotest.(check bool) "tagged rejects alias" true
    (P.Btb.lookup tagged ~pc:alias = None);
  Alcotest.(check bool) "untagged hits alias" true
    (P.Btb.lookup untagged ~pc:alias = Some 0x2000);
  Alcotest.(check bool) "exact hit both" true
    (P.Btb.lookup tagged ~pc:0x1000 = Some 0x2000)

let test_ras_push_pop () =
  let ras = P.Ras.create ~entries:4 in
  Alcotest.(check bool) "empty pops nothing" true (P.Ras.pop ras = None);
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  Alcotest.(check int) "depth" 2 (P.Ras.depth ras);
  (match P.Ras.pop ras with
  | Some (a, _) -> Alcotest.(check int) "LIFO" 0x200 a
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "peek" true (P.Ras.peek ras = Some 0x100)

let test_ras_restore_full () =
  let ras = P.Ras.create ~entries:4 in
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  let snap = P.Ras.snapshot ras in
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.restore_full ras snap;
  Alcotest.(check bool) "top restored" true (P.Ras.peek ras = Some 0x200);
  (match P.Ras.pop ras with
  | Some _ -> ()
  | None -> Alcotest.fail "pop");
  Alcotest.(check bool) "deep entry restored" true (P.Ras.peek ras = Some 0x100)

let test_ras_restore_top_only_bug () =
  (* B2's mechanism: entries below the TOS keep transient overwrites. *)
  let ras = P.Ras.create ~entries:4 in
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  let snap = P.Ras.snapshot ras in
  (* transient execution: pop twice (down to empty), push two corruptions *)
  ignore (P.Ras.pop ras);
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD1);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.restore_top_only ras snap;
  Alcotest.(check bool) "top entry repaired" true (P.Ras.peek ras = Some 0x200);
  ignore (P.Ras.pop ras);
  (* the deeper entry was overwritten transiently and never repaired *)
  Alcotest.(check bool) "below-TOS entry corrupted" true
    (P.Ras.peek ras <> Some 0x100)

let test_ras_liveness () =
  let ras = P.Ras.create ~entries:4 in
  let s1 = P.Ras.push ras 0x100 in
  let s2 = P.Ras.push ras 0x200 in
  Alcotest.(check bool) "pushed slots live" true
    (P.Ras.live ras s1 && P.Ras.live ras s2);
  ignore (P.Ras.pop ras);
  Alcotest.(check bool) "popped slot dead" false (P.Ras.live ras s2)

let test_loop_predictor () =
  let loop = P.Loop.create ~entries:8 in
  Alcotest.(check bool) "enabled" true (P.Loop.enabled loop);
  (match P.Loop.update loop ~pc:0x1000 ~taken:true with
  | Some i ->
      ignore (P.Loop.update loop ~pc:0x1000 ~taken:true);
      Alcotest.(check int) "streak" 2 (P.Loop.streak loop i);
      ignore (P.Loop.update loop ~pc:0x1000 ~taken:false);
      Alcotest.(check int) "reset" 0 (P.Loop.streak loop i)
  | None -> Alcotest.fail "expected update");
  let disabled = P.Loop.create ~entries:0 in
  Alcotest.(check bool) "disabled" false (P.Loop.enabled disabled);
  Alcotest.(check bool) "disabled update" true
    (P.Loop.update disabled ~pc:0 ~taken:true = None)

let test_mdp () =
  let mdp = P.Mdp.create ~entries:16 in
  Alcotest.(check bool) "optimistic default" false
    (P.Mdp.predicts_alias mdp ~pc:0x1000);
  ignore (P.Mdp.train_alias mdp ~pc:0x1000);
  Alcotest.(check bool) "trained" true (P.Mdp.predicts_alias mdp ~pc:0x1000)

(* --- caches / TLB -------------------------------------------------------- *)

let test_cache_fill_and_hit () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  (match Cache.access c ~addr:0x1000 with
  | `Miss i ->
      Alcotest.(check bool) "line valid after fill" true (Cache.valid c i);
      Alcotest.(check int) "line addr" 0x1000 (Cache.line_addr c i)
  | `Hit _ -> Alcotest.fail "cold access must miss");
  match Cache.access c ~addr:0x1008 with
  | `Hit _ -> ()
  | `Miss _ -> Alcotest.fail "same line must hit"

let test_cache_conflict () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0x0);
  ignore (Cache.access c ~addr:(8 * 64));
  match Cache.access c ~addr:0x0 with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "conflicting line must have evicted"

let test_cache_flush () =
  let c = Cache.create ~lines:8 ~line_bytes:64 in
  ignore (Cache.access c ~addr:0x1000);
  Cache.invalidate_all c;
  match Cache.access c ~addr:0x1000 with
  | `Miss _ -> ()
  | `Hit _ -> Alcotest.fail "flush must clear"

let test_lfb_decoy () =
  let lfb = Cache.Lfb.create ~entries:4 in
  let s = Cache.Lfb.refill lfb ~data:0x5EC2E7 in
  Alcotest.(check int) "data parked" 0x5EC2E7 (Cache.Lfb.data lfb s);
  Alcotest.(check bool) "MSHR already invalid" false (Cache.Lfb.valid lfb s);
  let s2 = Cache.Lfb.refill lfb ~data:1 in
  Alcotest.(check bool) "round robin" true (s2 <> s)

let test_tlb () =
  let t = Tlb.create ~entries:8 ~page_bytes:4096 in
  (match Tlb.access t ~addr:0x5000 with
  | `Miss i -> Alcotest.(check bool) "filled" true (Tlb.valid t i)
  | _ -> Alcotest.fail "cold miss expected");
  (match Tlb.access t ~addr:0x5800 with
  | `Hit _ -> ()
  | _ -> Alcotest.fail "same page hits");
  let disabled = Tlb.create ~entries:0 ~page_bytes:4096 in
  Alcotest.(check bool) "disabled" true (Tlb.access disabled ~addr:0 = `Disabled)

(* --- LSU queues ---------------------------------------------------------- *)

let test_stq_forwarding () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:42 ~resolve_at:0 ());
  (match Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 with
  | Some (_, v) -> Alcotest.(check int) "forwarded" 42 v
  | None -> Alcotest.fail "expected forward");
  Alcotest.(check bool) "size mismatch no forward" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:4 = None)

let test_stq_pending_alias () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore
    (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:42 ~old_data:7 ~resolve_at:10 ());
  (match Lsu.Stq.pending_alias stq ~now:5 ~addr:0x104 ~size:4 with
  | Some (_, old) -> Alcotest.(check int) "stale value" 7 old
  | None -> Alcotest.fail "overlap expected");
  Alcotest.(check bool) "resolved store no longer pending" true
    (Lsu.Stq.pending_alias stq ~now:20 ~addr:0x100 ~size:8 = None)

let test_stq_youngest_wins () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:1 ~resolve_at:0 ());
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:2 ~resolve_at:0 ());
  match Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 with
  | Some (_, v) -> Alcotest.(check int) "youngest" 2 v
  | None -> Alcotest.fail "forward"

let test_stq_snapshot_restore () =
  let stq = Lsu.Stq.create ~entries:4 in
  ignore (Lsu.Stq.alloc stq ~addr:0x100 ~size:8 ~data:1 ~resolve_at:0 ());
  let snap = Lsu.Stq.snapshot stq in
  ignore (Lsu.Stq.alloc stq ~addr:0x200 ~size:8 ~data:2 ~resolve_at:0 ());
  Lsu.Stq.restore stq snap;
  Alcotest.(check bool) "speculative entry dropped" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x200 ~size:8 = None);
  Alcotest.(check bool) "committed entry kept" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 <> None)

let test_ldq_basic () =
  let ldq = Lsu.Ldq.create ~entries:4 in
  let s = Lsu.Ldq.alloc ldq ~addr:0x100 in
  Alcotest.(check bool) "valid" true (Lsu.Ldq.valid ldq s);
  let snap = Lsu.Ldq.snapshot ldq in
  let s2 = Lsu.Ldq.alloc ldq ~addr:0x200 in
  Lsu.Ldq.restore ldq snap;
  Alcotest.(check bool) "restored" false (s2 <> s && Lsu.Ldq.valid ldq s2 && s2 > s)

(* --- core: stimulus helpers ---------------------------------------------- *)

let secret = Array.make Layout.secret_dwords 0x7E57

let stim_of_insns ?(tighten = false) ?(data = []) ?(perms = []) insns =
  let blob =
    { Swapmem.name = "t"; words = Array.of_list (List.map Encode.encode insns);
      is_transient = true }
  in
  { Core.st_swapmem = Swapmem.create ~blobs:[ blob ] ~schedule:[ 0 ];
    st_tighten_secret = tighten; st_secret = secret; st_data = data;
    st_perms = perms; st_max_slots = 2000 }

let run_core ?(cfg = Cfg.boom_small) stim =
  let core = Core.create cfg stim in
  ignore (Core.run core);
  core

let test_core_runs_linear_code () =
  let core =
    run_core
      (stim_of_insns
         [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
           Insn.Opi (Insn.Addi, Reg.t0, Reg.t0, 1); Insn.Ebreak ])
  in
  Alcotest.(check bool) "done" true (Core.is_done core);
  Alcotest.(check int) "3 committed" 3 (Core.committed core);
  Alcotest.(check bool) "no windows" true (Core.windows core = [])

let test_core_exception_window () =
  (* A faulting load opens a transient window over its successors. *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0);
        Insn.Opi (Insn.Addi, Reg.t2, Reg.zero, 1); Insn.Ebreak ]
  in
  let core =
    run_core (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check bool) "page-fault kind" true
        (w.Core.wr_kind = Eff.W_exception Trap.Load_page_fault);
      Alcotest.(check bool) "enqueued transients" true (w.Core.wr_enqueued > 0)
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

let test_core_boom_no_illegal_window () =
  let insns = [ Insn.Illegal 0xFFFFFFFF; Insn.Ebreak ] in
  let boom = run_core ~cfg:Cfg.boom_small (stim_of_insns insns) in
  Alcotest.(check bool) "BOOM: no window" true (Core.windows boom = []);
  let xs = run_core ~cfg:Cfg.xiangshan_minimal (stim_of_insns insns) in
  Alcotest.(check int) "XiangShan: window" 1 (List.length (Core.windows xs))

let test_core_branch_needs_training () =
  (* untrained: weakly-untaken prediction matches an untaken branch *)
  let insns =
    [ Insn.Branch (Insn.Ne, Reg.zero, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns insns) in
  Alcotest.(check bool) "no window untrained" true (Core.windows core = [])

let test_core_branch_window_after_training () =
  (* two blobs: training teaches taken; the transient blob's branch is
     architecturally untaken -> misprediction window *)
  let train =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
      Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let transient =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 0);
      Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, 8); Insn.Ebreak; Insn.Ebreak ]
  in
  let mk name insns is_transient =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient }
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:[ mk "train" train false; mk "tr" transient true ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = []; st_max_slots = 2000 }
  in
  let core = run_core stim in
  let windows =
    List.filter (fun w -> w.Core.wr_in_transient_blob) (Core.windows core)
  in
  match windows with
  | [ w ] ->
      Alcotest.(check bool) "branch mispred" true
        (w.Core.wr_kind = Eff.W_branch_mispred)
  | ws -> Alcotest.failf "expected 1 transient-blob window, got %d" (List.length ws)

let test_core_return_window () =
  (* a call pushes the RAS; pointing ra elsewhere makes the ret mispredict *)
  let insns =
    [ Insn.Jal (Reg.ra, 4);                    (* push 0x1004 *)
      Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
      (* overwrite ra with the ebreak's address, so the RAS stale entry
         (0x1004) disagrees with the actual target *)
    ]
    @ Genlib.li Reg.ra (Layout.swap_base + (4 * 6))
    @ [ Insn.Jalr (Reg.zero, Reg.ra, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns insns) in
  match List.filter (fun w -> w.Core.wr_kind = Eff.W_return_mispred)
          (Core.windows core) with
  | [ _ ] -> ()
  | ws -> Alcotest.failf "expected 1 return window, got %d" (List.length ws)

let test_core_disamb_window_and_stale_value () =
  let x = Layout.dedicated_base + 0x80 in
  let insns =
    Genlib.li Reg.t0 x
    @ Genlib.li Reg.t1 0x42
    @ [ Insn.Store (Insn.D, Reg.t1, Reg.t0, 0);
        Insn.Load (Insn.D, false, Reg.t2, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns ~data:[ (x, 0x99) ] insns) in
  (match List.filter (fun w -> w.Core.wr_kind = Eff.W_mem_disamb)
           (Core.windows core) with
  | [ _ ] -> ()
  | ws -> Alcotest.failf "expected 1 disamb window, got %d" (List.length ws));
  (* second run on the same pc would be MDP-trained; fresh core required *)
  Alcotest.(check bool) "done" true (Core.is_done core)

let test_core_window_bounded () =
  let cfg = Cfg.boom_small in
  let insns =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ]
    @ List.init 40 (fun _ -> Insn.nop)
  in
  let core =
    run_core ~cfg (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check int) "window bounded by config"
        cfg.Cfg.window_insns w.Core.wr_enqueued
  | _ -> Alcotest.fail "expected 1 window"

let test_core_transient_stores_dont_commit () =
  (* a store in the shadow of a faulting load must not reach memory *)
  let x = Layout.dedicated_base + 0x100 in
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.t1 x
    @ Genlib.li Reg.t2 0xBAD
    @ [ Insn.Load (Insn.D, false, Reg.a0, Reg.t0, 0);  (* faults: window *)
        Insn.Store (Insn.D, Reg.t2, Reg.t1, 0);        (* transient *)
        Insn.Ebreak ]
  in
  let core =
    run_core (stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns)
  in
  Alcotest.(check int) "memory unchanged" 0
    (Phys_mem.read (Core.mem core) ~addr:x ~size:8)

let test_core_meltdown_forwarding_b1 () =
  (* B1 on XiangShan: an out-of-physical-range alias of the secret address
     is sampled by the load unit despite the access fault. *)
  let cfg = Cfg.xiangshan_minimal in
  let insns =
    Genlib.li_high Reg.t0 ~tmp:Reg.t2 ~low:Layout.secret_base ~shift:40
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core ~cfg (stim_of_insns insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "secret sampled" true w.Core.wr_secret_accessed;
      Alcotest.(check bool) "privilege bypass" true w.Core.wr_secret_fault
  | [] -> Alcotest.fail "expected a window"

let test_core_no_b1_on_boom () =
  let cfg = Cfg.boom_small in
  let insns =
    Genlib.li_high Reg.t0 ~tmp:Reg.t2 ~low:Layout.secret_base ~shift:40
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core ~cfg (stim_of_insns insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "no sampling without the bug" false
        w.Core.wr_secret_accessed
  | [] -> Alcotest.fail "expected a window"

let test_core_tighten_secret () =
  (* with tightening, the transient blob's secret load faults *)
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let core = run_core (stim_of_insns ~tighten:true insns) in
  match Core.windows core with
  | w :: _ ->
      Alcotest.(check bool) "meltdown-style fault" true w.Core.wr_secret_fault
  | [] -> Alcotest.fail "expected exception window"

let test_core_state_hash_secret_sensitivity () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run secret_val =
    let s = stim_of_insns insns in
    let s = { s with Core.st_secret = Array.make Layout.secret_dwords secret_val } in
    Core.state_hash (run_core s)
  in
  (* loading the secret into the cache leaves its value in reach of the
     hash: SpecDoctor's oracle flags exactly this *)
  Alcotest.(check bool) "hash is secret sensitive" true (run 1 <> run 2)

(* --- taint engine -------------------------------------------------------- *)

let slot ?(pc = 0) events =
  { Eff.sl_pc = pc; sl_insn = Insn.nop; sl_transient = false;
    sl_window_opened = None; sl_window_closed = false; sl_events = events;
    sl_cycles = 0; sl_committed = true; sl_swapped = false }

let test_taint_write_propagation () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let s = slot [ Eff.Write (Elem.Areg 5, [ Elem.Mem 1 ]) ] in
  Taintstate.apply_pair t (Some s) (Some s);
  Alcotest.(check bool) "propagated" true (Taintstate.is_tainted t (Elem.Areg 5));
  let s2 = slot [ Eff.Write (Elem.Areg 5, []) ] in
  Taintstate.apply_pair t (Some s2) (Some s2);
  Alcotest.(check bool) "clean overwrite clears (diffIFT)" false
    (Taintstate.is_tainted t (Elem.Areg 5))

let test_taint_cellift_monotone () =
  let t = Taintstate.create Dvz_ift.Policy.Cellift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let s = slot [ Eff.Write (Elem.Areg 5, [ Elem.Mem 1 ]) ] in
  Taintstate.apply_pair t (Some s) (Some s);
  let s2 = slot [ Eff.Write (Elem.Areg 5, []) ] in
  Taintstate.apply_pair t (Some s2) (Some s2);
  Alcotest.(check bool) "cellift taints only accumulate" true
    (Taintstate.is_tainted t (Elem.Areg 5))

let test_taint_ctrl_gating () =
  let mk value =
    slot
      [ Eff.Ctrl { kind = Eff.C_addr; value; srcs = [ Elem.Mem 1 ];
                   touched = [ Elem.Dcache 3 ] } ]
  in
  (* same decision in both instances: diffIFT suppresses *)
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  Taintstate.apply_pair t (Some (mk 7)) (Some (mk 7));
  Alcotest.(check bool) "suppressed" false (Taintstate.is_tainted t (Elem.Dcache 3));
  (* differing decisions: propagate *)
  Taintstate.apply_pair t (Some (mk 7)) (Some (mk 9));
  Alcotest.(check bool) "propagated" true (Taintstate.is_tainted t (Elem.Dcache 3));
  (* cellift propagates even when equal *)
  let tc = Taintstate.create Dvz_ift.Policy.Cellift in
  Taintstate.set_tainted tc (Elem.Mem 1);
  Taintstate.apply_pair tc (Some (mk 7)) (Some (mk 7));
  Alcotest.(check bool) "cellift ungated" true
    (Taintstate.is_tainted tc (Elem.Dcache 3))

let test_taint_ctrl_untainted_sources () =
  let mk value =
    slot
      [ Eff.Ctrl { kind = Eff.C_addr; value; srcs = [ Elem.Mem 1 ];
                   touched = [ Elem.Dcache 3 ] } ]
  in
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  (* sources untainted: even differing decisions must not taint *)
  Taintstate.apply_pair t (Some (mk 1)) (Some (mk 2));
  Alcotest.(check bool) "untainted sources never taint" false
    (Taintstate.is_tainted t (Elem.Dcache 3))

let test_taint_divergence () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Mem 1);
  let sa = slot ~pc:0x1000 [ Eff.Write (Elem.Sreg 3, []) ] in
  let sb = slot ~pc:0x2000 [ Eff.Write (Elem.Sreg 3, []) ] in
  Taintstate.apply_pair t (Some sa) (Some sb);
  Alcotest.(check bool) "divergent slots control-taint writes" true
    (Taintstate.is_tainted t (Elem.Sreg 3))

let test_taint_copy_and_restore () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Areg 4);
  let s = slot [ Eff.Copy_regs_to_spec ] in
  Taintstate.apply_pair t (Some s) (Some s);
  Alcotest.(check bool) "spec copy inherits" true
    (Taintstate.is_tainted t (Elem.Sreg 4));
  (* snapshot, taint, restore *)
  let snap = slot [ Eff.Snapshot [ Elem.Ras 1 ] ] in
  Taintstate.apply_pair t (Some snap) (Some snap);
  Taintstate.set_tainted t (Elem.Ras 1);
  let rest = slot [ Eff.Restore [ Elem.Ras 1 ] ] in
  Taintstate.apply_pair t (Some rest) (Some rest);
  Alcotest.(check bool) "restore clears transient taint" false
    (Taintstate.is_tainted t (Elem.Ras 1))

let test_taint_module_counts () =
  let t = Taintstate.create Dvz_ift.Policy.Diffift in
  Taintstate.set_tainted t (Elem.Dcache 0);
  Taintstate.set_tainted t (Elem.Dcache 4);
  Taintstate.set_tainted t (Elem.Ras 0);
  let counts = Taintstate.tainted_by_module t in
  Alcotest.(check bool) "dcache bank count 2" true
    (List.assoc_opt "lsu.dcache.bank0" counts = Some 2);
  Alcotest.(check bool) "ras count 1" true
    (List.assoc_opt "frontend.ras" counts = Some 1)

(* --- dual core ----------------------------------------------------------- *)

let test_dualcore_secret_flows () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "register tainted" true
    (List.exists (fun e -> e = Elem.Areg (Reg.to_int Reg.t1)) r.Dualcore.r_final_tainted)

let test_dualcore_no_secret_no_taint_growth () =
  let insns =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 3);
      Insn.Op (Insn.Add, Reg.t1, Reg.t0, Reg.t0); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  (* only the pre-tainted secret words remain *)
  Alcotest.(check int) "only secret dwords tainted" Layout.secret_dwords
    (List.length r.Dualcore.r_final_tainted)

let test_dualcore_fn_mode_suppresses_control () =
  (* same secret in both instances: secret-indexed cache line stays clean *)
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ Genlib.li Reg.a3 Layout.probe_base
    @ [ Insn.Load (Insn.D, false, Reg.s0, Reg.t0, 0);
        Insn.Opi (Insn.Andi, Reg.t1, Reg.s0, 1);
        Insn.Opi (Insn.Slli, Reg.t1, Reg.t1, 6);
        Insn.Op (Insn.Add, Reg.t1, Reg.t1, Reg.a3);
        Insn.Load (Insn.D, false, Reg.t2, Reg.t1, 0);
        Insn.Ebreak ]
  in
  let count_dcache secret_b =
    let dc = Dualcore.create ~secret_b Cfg.boom_small (stim_of_insns insns) in
    let r = Dualcore.run dc in
    List.length
      (List.filter
         (fun e -> match e with Elem.Dcache _ -> true | _ -> false)
         r.Dualcore.r_final_tainted)
  in
  let diff_count = count_dcache (Array.map (fun v -> v lxor 1) secret) in
  let fn_count = count_dcache secret in
  Alcotest.(check bool) "differing secrets taint the probe line" true
    (diff_count > fn_count)

let test_dualcore_timing_identical_without_secret_paths () =
  let insns =
    [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 3); Insn.Ebreak ]
  in
  let dc = Dualcore.create Cfg.boom_small (stim_of_insns insns) in
  let r = Dualcore.run dc in
  Alcotest.(check int) "same cycles" r.Dualcore.r_cycles_a r.Dualcore.r_cycles_b;
  Alcotest.(check bool) "no timing diffs" true
    (Dualcore.window_timing_diffs r = [])

let test_core_liveness_views () =
  let core = run_core (stim_of_insns [ Insn.Ebreak ]) in
  Alcotest.(check bool) "arch regs live" true (Core.live core (Elem.Areg 1));
  Alcotest.(check bool) "spec regs dead" false (Core.live core (Elem.Sreg 1));
  Alcotest.(check bool) "rob dead" false (Core.live core (Elem.Rob 0));
  Alcotest.(check bool) "mem live" true (Core.live core (Elem.Mem 0))

(* --- timing side channels -------------------------------------------------- *)

let test_fpu_contention_timing () =
  (* A secret-gated fdiv inside an exception window: the two instances'
     window durations must differ (Spectre-Rewind / the fpu component). *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.s1 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); (* window opens *)
        Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0); (* secret *)
        Insn.Opi (Insn.Andi, Reg.t2, Reg.s0, 1);
        Insn.Branch (Insn.Eq, Reg.t2, Reg.zero, 8);
        Insn.Fdiv (Reg.t2, Reg.t0, Reg.t1);
        Insn.Ebreak ]
  in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  (* secrets 0 vs bitwise-not: bit 0 differs, so exactly one instance runs
     the divide *)
  let dc = Dualcore.create Cfg.boom_small stim in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "window timing differs" true
    (Dualcore.window_timing_diffs r <> [])

let test_no_timing_diff_without_secret_control () =
  (* The same window shape but with the divide unconditional: identical
     timing in both instances. *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ Genlib.li Reg.s1 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0);
        Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0);
        Insn.Fdiv (Reg.t2, Reg.t0, Reg.t1);
        Insn.Ebreak ]
  in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  let dc = Dualcore.create Cfg.boom_small stim in
  let r = Dualcore.run dc in
  Alcotest.(check bool) "constant time" true
    (Dualcore.window_timing_diffs r = [])

(* --- sequencing edge cases -------------------------------------------------- *)

let test_ecall_also_terminates_sequence () =
  let mk name insns =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient = false }
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:
            [ mk "a" [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1); Insn.Ecall ];
              mk "b" [ Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, 2); Insn.Ebreak ] ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = []; st_max_slots = 100 }
  in
  let core = run_core stim in
  Alcotest.(check int) "both blobs executed" 2 (Core.arch_reg core Reg.t1)

let test_max_slots_bounds_runaway () =
  (* a tight infinite loop must stop at the slot budget *)
  let insns = [ Insn.Jal (Reg.zero, 0) ] in
  let stim = { (stim_of_insns insns) with Core.st_max_slots = 50 } in
  let core = run_core stim in
  Alcotest.(check bool) "terminates" true (Core.is_done core);
  Alcotest.(check bool) "stopped at budget" true (Core.slot_count core <= 51)

let test_training_blob_windows_flagged () =
  let mk name insns is_transient =
    { Swapmem.name; words = Array.of_list (List.map Encode.encode insns);
      is_transient }
  in
  (* the "training" blob itself faults -> its window is not in the
     transient blob *)
  let faulting =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let stim =
    { Core.st_swapmem =
        Swapmem.create
          ~blobs:[ mk "train" faulting false; mk "tr" [ Insn.Ebreak ] true ]
          ~schedule:[ 0; 1 ];
      st_tighten_secret = false; st_secret = secret; st_data = [];
      st_perms = [ (0xE000, Perm.absent) ]; st_max_slots = 500 }
  in
  let core = run_core stim in
  match Core.windows core with
  | [ w ] ->
      Alcotest.(check bool) "flagged as training-time" false
        w.Core.wr_in_transient_blob
  | ws -> Alcotest.failf "expected 1 window, got %d" (List.length ws)

let test_state_hash_deterministic () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run () = Core.state_hash (run_core (stim_of_insns insns)) in
  Alcotest.(check int) "hash stable across runs" (run ()) (run ())

let test_dualcore_deterministic () =
  let insns =
    Genlib.li Reg.t0 Layout.secret_base
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ]
  in
  let run () =
    let r = Dualcore.run (Dualcore.create Cfg.boom_small (stim_of_insns insns)) in
    (r.Dualcore.r_cycles_a, r.Dualcore.r_final_tainted)
  in
  Alcotest.(check bool) "same result" true (run () = run ())

(* --- co-simulation: speculation is architecturally invisible -------------- *)

(* Random linear programs (forward control flow only, accesses confined to
   the dedicated region) executed on the speculative core must leave the
   same architectural register state as the pure golden model. *)
let random_linear_program rng =
  let module R = Dvz_util.Rng in
  let n = R.int_in rng 15 40 in
  let body = ref [] in
  let emit i = body := i :: !body in
  List.iter emit (Genlib.li Reg.t0 (Layout.dedicated_base + 0x100));
  for _ = 1 to n do
    match R.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        emit
          (Genlib.random_arith rng
             ~dst:(R.choose rng Genlib.scratch)
             ~srcs:[ R.choose rng Genlib.scratch ])
    | 4 ->
        emit (Insn.Store (Insn.D, R.choose rng Genlib.scratch, Reg.t0,
                          8 * R.int rng 8))
    | 5 -> emit (Insn.Load (Insn.D, false, R.choose rng Genlib.scratch,
                            Reg.t0, 8 * R.int rng 8))
    | 6 ->
        let cond = R.choose rng [| Insn.Eq; Insn.Ne; Insn.Ltu |] in
        let v0, v1 = Genlib.random_cond_operands rng cond ~taken:(R.bool rng) in
        emit (Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, v0));
        emit (Insn.Opi (Insn.Addi, Reg.t2, Reg.zero, v1));
        emit (Insn.Branch (cond, Reg.t1, Reg.t2, 8));
        emit Insn.nop
    | 7 -> emit (Insn.Jal (Reg.ra, 8)); emit Insn.nop
    | 8 -> emit (Insn.Fdiv (R.choose rng Genlib.scratch, Reg.t1, Reg.t2))
    | _ -> emit Insn.nop
  done;
  emit Insn.Ebreak;
  List.rev !body

let prop_cosim_arch_state =
  QCheck.Test.make ~name:"speculative core matches the golden model"
    ~count:60 QCheck.small_int (fun seed_int ->
      let rng = Dvz_util.Rng.create seed_int in
      let insns = random_linear_program rng in
      (* Speculative core run. *)
      let core = run_core (stim_of_insns insns) in
      (* Pure golden run over the same environment, stopped at the
         terminating trap. *)
      let mem = Phys_mem.create () in
      Array.iteri
        (fun i v -> Phys_mem.write mem ~addr:(Layout.secret_base + (8 * i)) ~size:8 v)
        secret;
      Phys_mem.write_words mem Layout.swap_base
        (Array.of_list (List.map Encode.encode insns));
      let g =
        Golden.create ~pc:Layout.swap_entry ~priv:Golden.User
          ~mtvec:Layout.mtvec (Phys_mem.golden_memory mem)
      in
      ignore (Golden.run g ~fuel:500 ~stop:(fun g -> Golden.mcause g <> 0) ());
      let ok = ref true in
      for r = 1 to 31 do
        if Core.arch_reg core (Reg.x r) <> Golden.reg g (Reg.x r) then
          ok := false
      done;
      !ok)

(* --- transient windows compute what the golden model computes ----------- *)

let presets = [ ("BOOM", Cfg.boom_small); ("XiangShan", Cfg.xiangshan_minimal) ]

(* The speculative registers of the run's first window as they last stood
   before it closed, or [None] if no window opened. *)
let window_sregs cfg stim =
  let core = Core.create cfg stim in
  let snapshot () =
    Array.init 32 (fun i -> Option.get (Core.spec_reg core (Reg.x i)))
  in
  let rec go last =
    match Core.step core with
    | None -> last
    | Some _ -> (
        match Core.spec_reg core Reg.zero with
        | Some _ -> go (Some (snapshot ()))
        | None -> ( match last with None -> go None | Some _ -> last))
  in
  go None

let check_window_regs name cfg stim expected =
  match window_sregs cfg stim with
  | None -> Alcotest.failf "%s: no window" name
  | Some r ->
      List.iter
        (fun (what, reg, v) ->
          Alcotest.(check int) (name ^ " " ^ what) v r.(Reg.to_int reg))
        expected

let test_core_window_lui_auipc () =
  (* A faulting load's window runs lui and auipc with the golden model's
     values: the upper immediate, sign-extended from bit 31. *)
  let insns =
    Genlib.li Reg.t0 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0);
        Insn.Lui (Reg.t2, 0x12345); Insn.Auipc (Reg.a0, 0x80001); Insn.Ebreak ]
  in
  let auipc_pc = Layout.swap_entry + (4 * (List.length insns - 2)) in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  List.iter
    (fun (name, cfg) ->
      check_window_regs name cfg stim
        [ ("lui", Reg.t2, 0x12345000);
          ("auipc", Reg.a0, auipc_pc - 0x7FFFF000) ])
    presets

let test_core_window_stq_forward_width () =
  (* A transient byte load forwarded from a resolved byte store reads the
     stored byte, extended as the load says, not the store's register. *)
  let insns =
    Genlib.li Reg.t0 Layout.dedicated_base
    @ [ Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, 0x180);
        Insn.Store (Insn.B, Reg.t1, Reg.t0, 0) ]
    @ Genlib.nops 8
    @ Genlib.li Reg.t2 0xE000
    @ [ Insn.Load (Insn.D, false, Reg.a0, Reg.t2, 0);
        Insn.Load (Insn.B, false, Reg.a1, Reg.t0, 0);
        Insn.Load (Insn.B, true, Reg.a2, Reg.t0, 0); Insn.Ebreak ]
  in
  let stim = stim_of_insns ~perms:[ (0xE000, Perm.absent) ] insns in
  List.iter
    (fun (name, cfg) ->
      check_window_regs name cfg stim
        [ ("lb", Reg.a1, -0x80); ("lbu", Reg.a2, 0x80) ])
    presets

let window_data = Layout.dedicated_base + 0x100

(* A random straight-line window body of at most [len] instructions: [li]
   of random 32-bit constants into every register it reads (s1 points at
   [window_data]), then lui/auipc/op/opi/fdiv, loads of never-stored
   words, forward branches and jal. *)
let random_window_body rng ~len =
  let module R = Dvz_util.Rng in
  let pool =
    List.filter
      (fun r -> not (Reg.equal r Reg.s1))
      (List.init 31 (fun i -> Reg.x (i + 1)))
  in
  let regs = Array.of_list (R.sample rng pool (R.int_in rng 2 4)) in
  let src () = if R.chance rng 0.1 then Reg.zero else R.choose rng regs in
  let dst () = R.choose rng regs in
  let reg_insn () =
    match R.int rng 5 with
    | 0 -> Insn.Lui (dst (), R.int rng (1 lsl 20))
    | 1 -> Insn.Auipc (dst (), R.int rng (1 lsl 20))
    | 2 ->
        let op =
          R.choose rng
            [| Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Sll;
               Insn.Srl; Insn.Sra; Insn.Slt; Insn.Sltu; Insn.Mul; Insn.Div |]
        in
        Insn.Op (op, dst (), src (), src ())
    | 3 -> (
        match
          R.choose rng
            [| Insn.Addi; Insn.Andi; Insn.Ori; Insn.Xori; Insn.Slli;
               Insn.Srli; Insn.Srai; Insn.Slti; Insn.Sltiu |]
        with
        | (Insn.Slli | Insn.Srli | Insn.Srai) as op ->
            Insn.Opi (op, dst (), src (), R.int rng 64)
        | op -> Insn.Opi (op, dst (), src (), R.int_in rng (-2048) 2047))
    | _ -> Insn.Fdiv (dst (), src (), src ())
  in
  let item () =
    match R.int rng 8 with
    | 0 | 1 | 2 | 3 -> [ reg_insn () ]
    | 4 | 5 ->
        let w = R.choose rng [| Insn.B; Insn.H; Insn.W; Insn.D |] in
        let n = Insn.bytes w in
        [ Insn.Load (w, w <> Insn.D && R.bool rng, dst (), Reg.s1,
                     n * R.int rng (64 / n)) ]
    | 6 ->
        let cond =
          R.choose rng [| Insn.Eq; Insn.Ne; Insn.Lt; Insn.Ge; Insn.Ltu; Insn.Geu |]
        in
        [ Insn.Branch (cond, src (), src (), 8); reg_insn () ]
    | _ -> [ Insn.Jal (R.choose rng [| Reg.zero; Reg.ra; dst () |], 8); reg_insn () ]
  in
  let prologue =
    Genlib.li Reg.s1 window_data
    @ List.concat_map (fun r -> Genlib.li r (R.int rng 0x7FFFF000))
        (Array.to_list regs)
  in
  let rec fill acc n =
    let it = item () in
    if List.length it > n then acc else fill (acc @ it) (n - List.length it)
  in
  fill prologue (R.int_in rng 1 len - List.length prologue)

(* A faulting store opens an exception window over a random body; the
   window's speculative registers must equal a golden run of the same body
   from the same pc and memory, where the store does not fault. *)
let prop_window_matches_golden (name, cfg) =
  QCheck.Test.make ~name:("window matches golden, " ^ name)
    ~count:150 QCheck.small_int (fun seed_int ->
      let module R = Dvz_util.Rng in
      let rng = R.create seed_int in
      let body = random_window_body rng ~len:(cfg.Cfg.window_insns - 1) in
      let insns =
        Genlib.li Reg.t0 0xE000
        @ [ Insn.Store (Insn.D, Reg.zero, Reg.t0, 0) ]
        @ body @ [ Insn.Ebreak ]
      in
      let data = List.init 8 (fun i -> (window_data + (8 * i), R.next rng)) in
      let stim = stim_of_insns ~data ~perms:[ (0xE000, Perm.absent) ] insns in
      let mem = Phys_mem.create () in
      List.iter (fun (addr, v) -> Phys_mem.write mem ~addr ~size:8 v) data;
      Phys_mem.write_words mem Layout.swap_base
        (Array.of_list (List.map Encode.encode insns));
      let g =
        Golden.create ~pc:Layout.swap_entry ~priv:Golden.User
          ~mtvec:Layout.mtvec (Phys_mem.golden_memory mem)
      in
      ignore (Golden.run g ~fuel:500 ~stop:(fun g -> Golden.mcause g <> 0) ());
      match window_sregs cfg stim with
      | None -> false
      | Some r ->
          List.for_all
            (fun i -> r.(i) = Golden.reg g (Reg.x i))
            (List.init 32 Fun.id))

(* --- trace rendering ------------------------------------------------------ *)

let test_trace_rendering () =
  let stim =
    stim_of_insns
      (Genlib.li Reg.t0 0xE000
      @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0); Insn.Ebreak ])
  in
  let stim = { stim with Core.st_perms = [ (0xE000, Perm.absent) ] } in
  let core = Core.create Cfg.boom_small stim in
  let slots = Core.run core in
  let rendered = Dvz_uarch.Trace.render_slots slots in
  Alcotest.(check bool) "trace nonempty" true (String.length rendered > 0);
  let windows = Dvz_uarch.Trace.render_windows (Core.windows core) in
  Alcotest.(check bool) "window line mentions kind" true
    (String.length windows > 10);
  (* dual run report *)
  let stim2 =
    { stim with
      Core.st_swapmem =
        Swapmem.with_schedule stim.Core.st_swapmem
          (Swapmem.schedule stim.Core.st_swapmem) }
  in
  let r = Dualcore.run (Dualcore.create Cfg.boom_small stim2) in
  Alcotest.(check bool) "result report" true
    (String.length (Dvz_uarch.Trace.render_result r) > 0);
  Alcotest.(check bool) "taint log report" true
    (String.length (Dvz_uarch.Trace.render_taint_log ~every:4 r.Dualcore.r_log) > 0)

let () =
  Alcotest.run "dvz_uarch"
    [ ( "predictors",
        [ Alcotest.test_case "bht saturation" `Quick test_bht_saturation;
          Alcotest.test_case "bht aliasing" `Quick test_bht_aliasing;
          Alcotest.test_case "btb tagging" `Quick test_btb_tagged_vs_untagged;
          Alcotest.test_case "ras push/pop" `Quick test_ras_push_pop;
          Alcotest.test_case "ras restore full" `Quick test_ras_restore_full;
          Alcotest.test_case "ras B2 bug" `Quick test_ras_restore_top_only_bug;
          Alcotest.test_case "ras liveness" `Quick test_ras_liveness;
          Alcotest.test_case "loop predictor" `Quick test_loop_predictor;
          Alcotest.test_case "mdp" `Quick test_mdp ] );
      ( "caches",
        [ Alcotest.test_case "fill and hit" `Quick test_cache_fill_and_hit;
          Alcotest.test_case "conflict" `Quick test_cache_conflict;
          Alcotest.test_case "flush" `Quick test_cache_flush;
          Alcotest.test_case "lfb decoy" `Quick test_lfb_decoy;
          Alcotest.test_case "tlb" `Quick test_tlb ] );
      ( "lsu",
        [ Alcotest.test_case "forwarding" `Quick test_stq_forwarding;
          Alcotest.test_case "pending alias" `Quick test_stq_pending_alias;
          Alcotest.test_case "youngest wins" `Quick test_stq_youngest_wins;
          Alcotest.test_case "snapshot/restore" `Quick test_stq_snapshot_restore;
          Alcotest.test_case "ldq" `Quick test_ldq_basic ] );
      ( "core",
        [ Alcotest.test_case "linear code" `Quick test_core_runs_linear_code;
          Alcotest.test_case "exception window" `Quick test_core_exception_window;
          Alcotest.test_case "illegal per core" `Quick
            test_core_boom_no_illegal_window;
          Alcotest.test_case "untrained branch quiet" `Quick
            test_core_branch_needs_training;
          Alcotest.test_case "trained branch window" `Quick
            test_core_branch_window_after_training;
          Alcotest.test_case "return window" `Quick test_core_return_window;
          Alcotest.test_case "disamb window" `Quick
            test_core_disamb_window_and_stale_value;
          Alcotest.test_case "window bounded" `Quick test_core_window_bounded;
          Alcotest.test_case "transient stores uncommitted" `Quick
            test_core_transient_stores_dont_commit;
          Alcotest.test_case "B1 sampling on XiangShan" `Quick
            test_core_meltdown_forwarding_b1;
          Alcotest.test_case "no B1 on BOOM" `Quick test_core_no_b1_on_boom;
          Alcotest.test_case "tightened secret faults" `Quick
            test_core_tighten_secret;
          Alcotest.test_case "state hash sensitivity" `Quick
            test_core_state_hash_secret_sensitivity;
          Alcotest.test_case "liveness views" `Quick test_core_liveness_views;
          Alcotest.test_case "window lui/auipc" `Quick
            test_core_window_lui_auipc;
          Alcotest.test_case "window STQ forward width" `Quick
            test_core_window_stq_forward_width ] );
      ( "taint",
        [ Alcotest.test_case "write propagation" `Quick test_taint_write_propagation;
          Alcotest.test_case "cellift monotone" `Quick test_taint_cellift_monotone;
          Alcotest.test_case "ctrl gating" `Quick test_taint_ctrl_gating;
          Alcotest.test_case "untainted ctrl" `Quick
            test_taint_ctrl_untainted_sources;
          Alcotest.test_case "divergence" `Quick test_taint_divergence;
          Alcotest.test_case "copy/snapshot/restore" `Quick
            test_taint_copy_and_restore;
          Alcotest.test_case "module counts" `Quick test_taint_module_counts ] );
      ( "timing",
        [ Alcotest.test_case "fpu contention" `Quick test_fpu_contention_timing;
          Alcotest.test_case "constant-time control" `Quick
            test_no_timing_diff_without_secret_control ] );
      ( "sequencing",
        [ Alcotest.test_case "ecall terminates" `Quick
            test_ecall_also_terminates_sequence;
          Alcotest.test_case "slot budget" `Quick test_max_slots_bounds_runaway;
          Alcotest.test_case "training windows flagged" `Quick
            test_training_blob_windows_flagged;
          Alcotest.test_case "hash deterministic" `Quick
            test_state_hash_deterministic;
          Alcotest.test_case "dualcore deterministic" `Quick
            test_dualcore_deterministic ] );
      ( "cosim",
        QCheck_alcotest.to_alcotest prop_cosim_arch_state
        :: List.map
             (fun p -> QCheck_alcotest.to_alcotest (prop_window_matches_golden p))
             presets
        @ [ Alcotest.test_case "trace rendering" `Quick test_trace_rendering ] );
      ( "dualcore",
        [ Alcotest.test_case "secret flows" `Quick test_dualcore_secret_flows;
          Alcotest.test_case "no spurious taint" `Quick
            test_dualcore_no_secret_no_taint_growth;
          Alcotest.test_case "FN mode suppression" `Quick
            test_dualcore_fn_mode_suppresses_control;
          Alcotest.test_case "clean timing" `Quick
            test_dualcore_timing_identical_without_secret_paths ] ) ]
