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
module N = Dvz_ir.Netlist
module Shadow = Dvz_ift.Shadow
module Policy = Dvz_ift.Policy
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

(* A window checkpoints the RAS as a blitted copy; a correct squash blits
   it back. *)
let ras_checkpoint ras =
  let snap = P.Ras.create ~entries:4 in
  P.Ras.blit ~src:ras ~dst:snap;
  snap

let test_ras_restore_full () =
  let ras = P.Ras.create ~entries:4 in
  ignore (P.Ras.push ras 0x100);
  ignore (P.Ras.push ras 0x200);
  let snap = ras_checkpoint ras in
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.blit ~src:snap ~dst:ras;
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
  let snap = ras_checkpoint ras in
  (* transient execution: pop twice (down to empty), push two corruptions *)
  ignore (P.Ras.pop ras);
  ignore (P.Ras.pop ras);
  ignore (P.Ras.push ras 0xBAD1);
  ignore (P.Ras.push ras 0xBAD2);
  P.Ras.restore_top_only ~src:snap ~dst:ras;
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

(* The record-per-line cache and TLB the flat int arrays replaced, kept as
   the model: a line or entry is a valid bit beside a tag, and a flush
   clears the valid bits only. *)
module Line_model = struct
  type line = { mutable valid : bool; mutable tag : int }
  type t = { lines : line array; bytes : int }

  let create ~lines ~bytes =
    { lines = Array.init lines (fun _ -> { valid = false; tag = 0 }); bytes }

  let index t addr = addr / t.bytes land (Array.length t.lines - 1)
  let holds t l addr = l.valid && l.tag = addr / t.bytes

  let access t ~addr =
    let i = index t addr in
    let l = t.lines.(i) in
    if holds t l addr then `Hit i
    else begin
      l.valid <- true;
      l.tag <- addr / t.bytes;
      `Miss i
    end

  let hits t ~addr = holds t t.lines.(index t addr) addr
  let fill t ~addr = match access t ~addr with `Hit _ -> false | `Miss _ -> true
  let invalidate_all t = Array.iter (fun l -> l.valid <- false) t.lines

  let blit ~src ~dst =
    Array.iteri
      (fun i s ->
        dst.lines.(i).valid <- s.valid;
        dst.lines.(i).tag <- s.tag)
      src.lines

  let valid t i = t.lines.(i).valid
  let line_addr t i = t.lines.(i).tag * t.bytes

  (* [Tlb.access]: a direct-mapped page table, disabled when empty. *)
  let tlb_access t ~addr =
    if Array.length t.lines = 0 then `Disabled
    else match access t ~addr with `Hit i -> `Hit i | `Miss i -> `Miss i
end

type line_op =
  | L_access of int
  | L_fill of int
  | L_hits of int
  | L_flush
  | L_blit  (** copy into the other instance and carry on there *)

let line_op_to_string = function
  | L_access a -> Printf.sprintf "access %d" a
  | L_fill a -> Printf.sprintf "fill %d" a
  | L_hits a -> Printf.sprintf "hits %d" a
  | L_flush -> "flush"
  | L_blit -> "blit"

(* Addresses a few blocks either side of zero, so tags collide across
   lines and include -1 (a transient fetch or store may reach a negative
   address), plus the extremes. *)
let gen_line_ops ~block =
  let open QCheck.Gen in
  let addr =
    frequency
      [ (8, map2 (fun b off -> (b * block) + off) (int_range (-20) 20)
              (int_bound (block - 1)));
        (1, oneofl [ min_int; max_int; -1; -block; -block - 1 ]) ]
  in
  list_size (int_range 1 60)
    (frequency
       [ (6, map (fun a -> L_access a) addr); (3, map (fun a -> L_fill a) addr);
         (2, map (fun a -> L_hits a) addr); (1, return L_flush);
         (1, return L_blit) ])

let print_line_case (n, b, ops) =
  Printf.sprintf "size=%d block=%d [%s]" n b
    (String.concat "; " (List.map line_op_to_string ops))

let swap a b =
  let x = !a in
  a := !b;
  b := x

(* Both instances of each side start from the same state; [L_blit] copies
   the current one into the other (dirty from earlier steps) and goes on
   in the copy. *)
let prop_cache_matches_model =
  QCheck.Test.make ~name:"flat cache matches a record model" ~count:500
    (QCheck.make ~print:print_line_case
       QCheck.Gen.(
         let* lines = oneofl [ 1; 2; 8 ] and* block = oneofl [ 2; 8; 64 ] in
         let* ops = gen_line_ops ~block in
         return (lines, block, ops)))
    (fun (lines, block, ops) ->
      let c = ref (Cache.create ~lines ~line_bytes:block)
      and c' = ref (Cache.create ~lines ~line_bytes:block)
      and m = ref (Line_model.create ~lines ~bytes:block)
      and m' = ref (Line_model.create ~lines ~bytes:block) in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | L_access addr -> Cache.access !c ~addr = Line_model.access !m ~addr
            | L_fill addr -> Cache.fill !c ~addr = Line_model.fill !m ~addr
            | L_hits addr -> Cache.hits !c ~addr = Line_model.hits !m ~addr
            | L_flush ->
                Cache.invalidate_all !c;
                Line_model.invalidate_all !m;
                true
            | L_blit ->
                Cache.blit ~src:!c ~dst:!c';
                Line_model.blit ~src:!m ~dst:!m';
                swap c c';
                swap m m';
                true
          in
          agree
          && List.for_all
               (fun i ->
                 Cache.valid !c i = Line_model.valid !m i
                 && ((not (Cache.valid !c i))
                    || Cache.line_addr !c i = Line_model.line_addr !m i))
               (List.init lines Fun.id))
        ops)

let prop_tlb_matches_model =
  QCheck.Test.make ~name:"flat tlb matches a record model" ~count:500
    (QCheck.make ~print:print_line_case
       QCheck.Gen.(
         let* entries = oneofl [ 0; 1; 4 ] and* page = oneofl [ 2; 4096 ] in
         let* ops = gen_line_ops ~block:page in
         return (entries, page, ops)))
    (fun (entries, page, ops) ->
      let t = ref (Tlb.create ~entries ~page_bytes:page)
      and t' = ref (Tlb.create ~entries ~page_bytes:page)
      and m = ref (Line_model.create ~lines:entries ~bytes:page)
      and m' = ref (Line_model.create ~lines:entries ~bytes:page) in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | L_access addr | L_fill addr | L_hits addr ->
                Tlb.access !t ~addr = Line_model.tlb_access !m ~addr
            | L_flush -> true
            | L_blit ->
                Tlb.blit ~src:!t ~dst:!t';
                Line_model.blit ~src:!m ~dst:!m';
                swap t t';
                swap m m';
                true
          in
          agree
          && List.for_all
               (fun i -> Tlb.valid !t i = Line_model.valid !m i)
               (List.init entries Fun.id))
        ops)

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
  let snap = Lsu.Stq.create ~entries:4 in
  Lsu.Stq.blit ~src:stq ~dst:snap;
  ignore (Lsu.Stq.alloc stq ~addr:0x200 ~size:8 ~data:2 ~resolve_at:0 ());
  Lsu.Stq.blit ~src:snap ~dst:stq;
  Alcotest.(check bool) "speculative entry dropped" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x200 ~size:8 = None);
  Alcotest.(check bool) "committed entry kept" true
    (Lsu.Stq.forward stq ~now:5 ~addr:0x100 ~size:8 <> None)

let test_ldq_basic () =
  let ldq = Lsu.Ldq.create ~entries:4 in
  let s = Lsu.Ldq.alloc ldq ~addr:0x100 in
  Alcotest.(check bool) "valid" true (Lsu.Ldq.valid ldq s);
  let snap = Lsu.Ldq.create ~entries:4 in
  Lsu.Ldq.blit ~src:ldq ~dst:snap;
  let s2 = Lsu.Ldq.alloc ldq ~addr:0x200 in
  Lsu.Ldq.blit ~src:snap ~dst:ldq;
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
    sl_cycles = 0; sl_swapped = false }

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

(* A paired event reads both instances' sources: the taint may come from
   either side alone. *)
let test_taint_paired_sources () =
  List.iter
    (fun (name, ea, eb, probe) ->
      List.iter
        (fun (sa, sb) ->
          let t = Taintstate.create Dvz_ift.Policy.Diffift in
          Taintstate.set_tainted t (Elem.Mem 1);
          Taintstate.apply_pair t (Some (slot [ sa ])) (Some (slot [ sb ]));
          Alcotest.(check bool) name true (Taintstate.is_tainted t probe))
        [ (ea, eb); (eb, ea) ])
    [ ( "write",
        Eff.Write (Elem.Areg 5, [ Elem.Mem 1 ]),
        Eff.Write (Elem.Areg 5, [ Elem.Mem 2 ]),
        Elem.Areg 5 );
      ( "ctrl",
        Eff.Ctrl { kind = Eff.C_addr; value = 1; srcs = [ Elem.Mem 1 ];
                   touched = [ Elem.Dcache 3 ] },
        Eff.Ctrl { kind = Eff.C_addr; value = 2; srcs = [ Elem.Mem 2 ];
                   touched = [ Elem.Dcache 4 ] },
        Elem.Dcache 4 ) ]

(* --- taint engine against the cell-level shadow ------------------------- *)

(* One element-level event pair over four elements, lowered to a small
   netlist and run on [Shadow]'s interpretive engine beside [Taintstate].
   [taint] marks the elements tainted beforehand; [va]/[vb] are their
   values in the two instances.  [Taintstate] sees the same event in both
   slots, at differing pcs when [diverged]. *)
type event_case = {
  ec_taint : bool array;
  ec_va : int array;
  ec_vb : int array;
  ec_dst : int;  (** [Write]'s destination *)
  ec_srcs : int list;
  ec_pairs : (int * int) list;  (** [Ctrl]'s touched pairs, [x <> y] *)
  ec_diverged : bool;
}

let case_to_string c =
  let ints a = String.concat "" (Array.to_list (Array.map string_of_int a)) in
  let taint = Array.map (fun b -> if b then 1 else 0) c.ec_taint in
  Printf.sprintf "taint=%s a=%s b=%s dst=%d srcs=[%s] pairs=[%s] diverged=%b"
    (ints taint) (ints c.ec_va) (ints c.ec_vb) c.ec_dst
    (String.concat ";" (List.map string_of_int c.ec_srcs))
    (String.concat ";"
       (List.map (fun (x, y) -> Printf.sprintf "%d,%d" x y) c.ec_pairs))
    c.ec_diverged

let taint_modes = [ Policy.Cellift; Policy.Diffift ]

(* The case's [Write], and its [Ctrl] for one instance's decision
   [value], over the elements [elem 0] .. [elem 3]. *)
let write_event c elem = Eff.Write (elem c.ec_dst, List.map elem c.ec_srcs)

let ctrl_event c elem value =
  Eff.Ctrl
    { kind = Eff.C_addr; value; srcs = List.map elem c.ec_srcs;
      touched =
        List.map (fun (x, y) -> elem (if value <> 0 then y else x)) c.ec_pairs }

let run_taintstate mode c elem ea eb =
  let t = Taintstate.create mode in
  Array.iteri
    (fun i b -> if b then Taintstate.set_tainted t (elem i))
    c.ec_taint;
  let pc_b = if c.ec_diverged then 4 else 0 in
  Taintstate.apply_pair t (Some (slot [ ea ])) (Some (slot ~pc:pc_b [ eb ]));
  Array.init 4 (fun i -> Taintstate.is_tainted t (elem i))

(* [Write (dst, srcs)] on 1-bit registers.  Cycle 1, with a clean [phase]
   at 0, loads every register's initial value (tainted ones through
   [set_input_pair]).  In cycle 2, [dst] latches the XOR of its sources
   under a tainted enable that is 1 in both instances, or 1 in A and 0 in
   B when diverged; every other register's enable is a clean 0.  Returns
   both engines' final taints and whether the write changes [dst]'s value
   exactly when the streams diverged (the premise of the element model's
   [dq_xor] convention). *)
let lower_write mode c =
  let nl = N.create () in
  let phase = N.input nl 1 and wen = N.input nl 1 in
  let zero = N.const nl 1 0 and one = N.const nl 1 1 in
  let inits = Array.init 4 (fun _ -> N.input nl 1) in
  let regs = Array.init 4 (fun _ -> N.reg nl 1) in
  let data =
    List.fold_left (fun acc j -> N.xor_ nl acc regs.(j)) zero c.ec_srcs
  in
  Array.iteri
    (fun i q ->
      let d, en = if i = c.ec_dst then (data, wen) else (q, zero) in
      N.reg_connect nl q ~d:(N.mux nl phase inits.(i) d)
        ~en:(N.mux nl phase one en) ())
    regs;
  let sh = Shadow.create ~engine:`Interp mode nl in
  Shadow.set_input sh phase 0;
  Array.iteri
    (fun i s ->
      if c.ec_taint.(i) then
        Shadow.set_input_pair sh s c.ec_va.(i) c.ec_vb.(i)
      else Shadow.set_input sh s c.ec_va.(i))
    inits;
  Shadow.cycle sh;
  Shadow.set_input sh phase 1;
  Shadow.set_input_pair sh wen 1 (if c.ec_diverged then 0 else 1);
  Shadow.eval sh;
  let q = regs.(c.ec_dst) in
  let changes =
    Shadow.peek_a sh data <> Shadow.peek_a sh q
    || Shadow.peek_b sh data <> Shadow.peek_b sh q
  in
  Shadow.cycle sh;
  let ev = write_event c (fun i -> Elem.Areg i) in
  ( run_taintstate mode c (fun i -> Elem.Areg i) ev ev,
    Array.map (fun q -> Shadow.taint_of sh q <> 0) regs,
    changes = c.ec_diverged )

(* [Ctrl] on the words of a 1-bit memory, poked with differing values
   exactly where tainted.  The selector [s] is the XOR of the source
   words' reads and a divergence input (tainted 0/1 when diverged, clean 0
   otherwise); each touched pair [(x, y)] is a write port with [wen = 1],
   [addr = mux s x y] and [data = mem_read addr].  On the [Taintstate]
   side each instance's decision is its selector value and it touches the
   word its own selector picks.  The premise: a diverged slot's selectors
   differ. *)
let lower_ctrl mode c =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:1 ~depth:4 () in
  let div = N.input nl 1 in
  let s =
    List.fold_left
      (fun acc j -> N.xor_ nl acc (N.mem_read nl m (N.const nl 2 j)))
      div c.ec_srcs
  in
  let one = N.const nl 1 1 in
  List.iter
    (fun (x, y) ->
      let addr = N.mux nl s (N.const nl 2 x) (N.const nl 2 y) in
      N.mem_write nl m ~wen:one ~addr ~data:(N.mem_read nl m addr))
    c.ec_pairs;
  let sh = Shadow.create ~engine:`Interp mode nl in
  for i = 0 to 3 do Shadow.poke_mem_pair sh m i c.ec_va.(i) c.ec_vb.(i) done;
  if c.ec_diverged then Shadow.set_input_pair sh div 0 1
  else Shadow.set_input sh div 0;
  Shadow.eval sh;
  let sa = Shadow.peek_a sh s and sb = Shadow.peek_b sh s in
  Shadow.cycle sh;
  let ev = ctrl_event c (fun i -> Elem.Mem i) in
  ( run_taintstate mode c (fun i -> Elem.Mem i) (ev sa) (ev sb),
    Array.init 4 (fun i -> Shadow.mem_taint sh m i <> 0),
    (not c.ec_diverged) || sa <> sb )

(* Random cases: clean elements hold equal values; [~ctrl] makes tainted
   memory words differ (a poke taints exactly the differing words) and
   draws one to three touched pairs of distinct words. *)
let gen_event_case ~ctrl =
  let open QCheck.Gen in
  let* taint = array_size (return 4) bool in
  let* va = array_size (return 4) (int_bound 1) in
  let* vb = array_size (return 4) (int_bound 1) in
  let vb =
    Array.mapi
      (fun i v ->
        if not taint.(i) then va.(i) else if ctrl then 1 - va.(i) else v)
      vb
  in
  let* dst = int_bound 3 in
  let* srcs = list_size (int_bound 3) (int_bound 3) in
  let* pairs =
    if ctrl then
      list_size (int_range 1 3)
        (let* x = int_bound 3 in
         let* d = int_range 1 3 in
         return (x, (x + d) mod 4))
    else return []
  in
  let* diverged = bool in
  return
    { ec_taint = taint; ec_va = va; ec_vb = vb; ec_dst = dst; ec_srcs = srcs;
      ec_pairs = pairs; ec_diverged = diverged }

(* Under the conventions' premises, [Taintstate] (Table 1 through
   [Policy], on 1-bit taints) and [Shadow] (Table 1 per cell) give every
   element the same taint, in both modes.  QCheck counts only the cases
   that meet the premises and fails unless 1,000 of them do. *)
let prop_taintstate_matches_shadow ~ctrl =
  let lower = if ctrl then lower_ctrl else lower_write in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "taintstate %s matches shadow"
         (if ctrl then "ctrl" else "write"))
    ~count:1000 ~max_gen:10000 ~if_assumptions_fail:(`Fatal, 1.0)
    (QCheck.make ~print:case_to_string (gen_event_case ~ctrl))
    (fun c ->
      let runs = List.map (fun mode -> lower mode c) taint_modes in
      QCheck.assume (List.for_all (fun (_, _, premise) -> premise) runs);
      List.for_all (fun (ts, sh, _) -> ts = sh) runs)

(* Without the premises the engines disagree in exactly three classes,
   each an element-level abstraction: the element model has no data
   values, so it cannot see whether a write changed its destination, nor
   whether a diverged slot's two decisions happen to agree.  Each test
   below pins one class on a one-event netlist. *)
let clean_case =
  { ec_taint = Array.make 4 false; ec_va = Array.make 4 0;
    ec_vb = Array.make 4 0; ec_dst = 0; ec_srcs = [ 1 ]; ec_pairs = [];
    ec_diverged = false }

(* [ts]/[sh]: element [elem]'s expected taint under [Taintstate]/[Shadow]. *)
let check_engines what c lower elem ~mode ~ts ~sh =
  let ts', sh', _ = lower mode c in
  let name = Policy.mode_name mode in
  Alcotest.(check bool) (Printf.sprintf "%s: %s, taintstate" name what) ts
    ts'.(elem);
  Alcotest.(check bool) (Printf.sprintf "%s: %s, shadow" name what) sh
    sh'.(elem)

(* CellIFT, an aligned write of clean data that changes a clean element's
   value: the cell-level enable is tainted and CellIFT does not gate it,
   so the value change taints the register; the element model assumes an
   aligned write leaves the value unchanged.  diffIFT's [en_diff] gate
   makes both engines agree. *)
let test_taint_abstraction_cellift_value_change () =
  let c =
    { clean_case with ec_va = [| 0; 1; 0; 0 |]; ec_vb = [| 0; 1; 0; 0 |] }
  in
  check_engines "aligned clean write changes the value" c lower_write 0
    ~mode:Policy.Cellift ~ts:false ~sh:true;
  check_engines "aligned clean write changes the value" c lower_write 0
    ~mode:Policy.Diffift ~ts:false ~sh:false

(* Either mode, a diverged write that leaves the value unchanged: the
   element model assumes divergence changes the written value, the cell
   level sees [d = q] in both instances. *)
let test_taint_abstraction_diverged_same_value () =
  let c = { clean_case with ec_diverged = true } in
  List.iter
    (fun mode ->
      check_engines "diverged write keeps the value" c lower_write 0 ~mode
        ~ts:true ~sh:false)
    taint_modes

(* diffIFT, a diverged slot whose two decisions are equal: the element
   model counts a diverged slot's decisions as differing, the cell-level
   [s_diff] sees equal selectors and suppresses the control taint.  Word
   0 is tainted and XORed with the divergence input, so both selectors are
   0 and both instances touch word 1.  CellIFT taints it in both
   engines. *)
let test_taint_abstraction_diverged_equal_decisions () =
  let c =
    { clean_case with ec_taint = [| true; false; false; false |];
      ec_vb = [| 1; 0; 0; 0 |]; ec_srcs = [ 0 ]; ec_pairs = [ (1, 2) ];
      ec_diverged = true }
  in
  check_engines "diverged slot, equal decisions" c lower_ctrl 1
    ~mode:Policy.Diffift ~ts:true ~sh:false;
  check_engines "diverged slot, equal decisions" c lower_ctrl 1
    ~mode:Policy.Cellift ~ts:true ~sh:true

(* --- the dense taint plane ------------------------------------------------ *)

let mem_dwords = Layout.mem_size / 8

(* Each random case of the [Shadow] property, rerun with its four elements
   renamed to ones outside [Taintstate]'s dense plane (its side table):
   every element must get the same taint.  The decisions are the
   selectors [lower_ctrl] computes. *)
let prop_dense_side_agree =
  QCheck.Test.make ~name:"dense and side elements agree" ~count:1000
    (QCheck.make
       ~print:(fun (_, c) -> case_to_string c)
       QCheck.Gen.(
         bool >>= fun ctrl -> map (fun c -> (ctrl, c)) (gen_event_case ~ctrl)))
    (fun (ctrl, c) ->
      let selector v d =
        List.fold_left (fun acc j -> acc lxor v.(j)) d c.ec_srcs
      in
      let run mode elem =
        if ctrl then
          run_taintstate mode c elem
            (ctrl_event c elem (selector c.ec_va 0))
            (ctrl_event c elem
               (selector c.ec_vb (if c.ec_diverged then 1 else 0)))
        else
          let ev = write_event c elem in
          run_taintstate mode c elem ev ev
      in
      let dense =
        if ctrl then fun i -> Elem.Mem i else fun i -> Elem.Areg i
      in
      List.for_all
        (fun mode ->
          let expected = run mode dense in
          List.for_all
            (fun elem -> run mode elem = expected)
            [ (fun i -> Elem.Mem (mem_dwords + i));
              (fun i -> Elem.Mem (-1 - i)) ])
        taint_modes)

(* Every kind at index 0 and at both presets' largest index, plus [Pc] and
   elements outside the dense plane. *)
let plane_pool =
  let presets = [ Cfg.boom_small; Cfg.xiangshan_minimal ] in
  let kind k size =
    k 0
    :: List.filter_map
         (fun c -> if size c > 0 then Some (k (size c - 1)) else None)
         presets
  in
  List.sort_uniq Elem.compare
    (List.concat
       [ [ Elem.Pc ];
         kind (fun i -> Elem.Areg i) (fun _ -> 32);
         kind (fun i -> Elem.Sreg i) (fun _ -> 32);
         kind (fun i -> Elem.Mem i) (fun _ -> mem_dwords);
         kind (fun i -> Elem.Dcache i) (fun c -> c.Cfg.dcache_lines);
         kind (fun i -> Elem.Icache i) (fun c -> c.Cfg.icache_lines);
         kind (fun i -> Elem.Lfb i) (fun c -> c.Cfg.lfb_entries);
         kind (fun i -> Elem.Btb i) (fun c -> c.Cfg.btb_entries);
         kind (fun i -> Elem.Bht i) (fun c -> c.Cfg.bht_entries);
         kind (fun i -> Elem.Ras i) (fun c -> c.Cfg.ras_entries);
         kind (fun i -> Elem.Loop i) (fun c -> c.Cfg.loop_entries);
         kind (fun i -> Elem.Tlb i) (fun c -> c.Cfg.tlb_entries);
         kind (fun i -> Elem.L2tlb i) (fun c -> c.Cfg.l2tlb_entries);
         kind (fun i -> Elem.Rob i) (fun c -> c.Cfg.rob_entries);
         kind (fun i -> Elem.Ldq i) (fun c -> c.Cfg.ldq_entries);
         kind (fun i -> Elem.Stq i) (fun c -> c.Cfg.stq_entries);
         [ Elem.Mem mem_dwords; Elem.Mem (-1); Elem.Areg 32; Elem.Sreg (-1);
           Elem.Dcache 4096; Elem.Rob (-1); Elem.Tlb max_int ] ])

(* A random run: the mode, the initially tainted elements, then steps of
   one slot pair plus the elements that dirty the blit target.  B's events
   mostly pair with A's (the same event, or a [Ctrl] with the other
   decision), so both the paired and the unpaired paths run. *)
let gen_plane_run =
  let open QCheck.Gen in
  let elem = oneofl plane_pool in
  let elems = list_size (int_bound 3) elem in
  let event =
    frequency
      [ (4, map2 (fun d s -> Eff.Write (d, s)) elem elems);
        ( 4,
          let* kind =
            oneofl [ Eff.C_branch; Eff.C_target; Eff.C_addr; Eff.C_squash ]
          in
          let* value = int_bound 1 in
          let* srcs = elems in
          let* touched = elems in
          return (Eff.Ctrl { kind; value; srcs; touched }) );
        (1, return Eff.Copy_regs_to_spec);
        (1, map (fun es -> Eff.Snapshot es) elems);
        (1, map (fun es -> Eff.Restore es) elems) ]
  in
  let partner = function
    | Eff.Ctrl c as ea ->
        oneof
          [ return ea; return (Eff.Ctrl { c with value = 1 - c.value }); event ]
    | ea -> frequency [ (2, return ea); (1, event) ]
  in
  let step =
    let* pairs =
      list_size (int_bound 4)
        (let* ea = event in
         let* eb = partner ea in
         return (ea, eb))
    in
    let* extra = list_size (int_bound 1) event in
    let* pc_b = oneofl [ 0; 0; 4 ] in
    let* absent = int_bound 9 in
    let* junk = list_size (int_bound 2) elem in
    let sa = slot (List.map fst pairs)
    and sb = slot ~pc:pc_b (List.map snd pairs @ extra) in
    return
      ( (if absent = 0 then None else Some sa),
        (if absent = 1 then None else Some sb),
        junk )
  in
  let* cellift = bool in
  let* init = list_size (int_bound 6) elem in
  let* steps = list_size (int_range 1 20) step in
  return (cellift, init, steps)

let regroup elems =
  List.fold_left
    (fun acc e ->
      let m = Elem.module_of e in
      (m, 1 + Option.value ~default:0 (List.assoc_opt m acc))
      :: List.remove_assoc m acc)
    [] elems
  |> List.sort compare

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> Elem.compare a b < 0 && strictly_sorted rest
  | _ -> true

let plane_reads t =
  ( Taintstate.tainted_elems t, Taintstate.tainted_count t,
    Taintstate.tainted_by_module t,
    List.map (Taintstate.is_tainted t) plane_pool )

(* After every slot pair, the plane's four reads agree with each other, and
   a blit into a dirty instance reads the same — also after both apply the
   next pair, which restores from the copied checkpoint. *)
let prop_plane_reads_agree =
  QCheck.Test.make ~name:"plane reads agree after every pair" ~count:200
    (QCheck.make gen_plane_run)
    (fun (cellift, init, steps) ->
      let mode = if cellift then Policy.Cellift else Policy.Diffift in
      let t = Taintstate.create mode and d = Taintstate.create mode in
      List.iter (Taintstate.set_tainted t) init;
      Taintstate.blit ~src:t ~dst:d;
      List.for_all
        (fun (sa, sb, junk) ->
          Taintstate.apply_pair t sa sb;
          Taintstate.apply_pair d sa sb;
          let followed = plane_reads d = plane_reads t in
          let elems = Taintstate.tainted_elems t in
          let consistent =
            strictly_sorted elems
            && Taintstate.tainted_count t = List.length elems
            && Taintstate.tainted_by_module t = regroup elems
            && List.for_all
                 (fun e -> Taintstate.is_tainted t e = List.mem e elems)
                 (plane_pool @ elems)
          in
          List.iter (Taintstate.set_tainted d) junk;
          Taintstate.apply_pair d (Some (slot [ Eff.Snapshot junk ])) None;
          Taintstate.blit ~src:t ~dst:d;
          followed && consistent && plane_reads d = plane_reads t)
        steps)

(* The dense plane in number order, as [Taintstate]'s interface lays it
   out: [Pc], 32 registers per file, every memory dword, then 512 entries
   of each table in constructor order. *)
let dense_plane =
  let range k n = List.init n k in
  Array.of_list
    (List.concat
       ([ [ Elem.Pc ];
          range (fun i -> Elem.Areg i) 32;
          range (fun i -> Elem.Sreg i) 32;
          range (fun i -> Elem.Mem i) mem_dwords ]
       @ List.map
           (fun k -> range k 512)
           [ (fun i -> Elem.Dcache i); (fun i -> Elem.Icache i);
             (fun i -> Elem.Lfb i); (fun i -> Elem.Btb i);
             (fun i -> Elem.Bht i); (fun i -> Elem.Ras i);
             (fun i -> Elem.Loop i); (fun i -> Elem.Tlb i);
             (fun i -> Elem.L2tlb i); (fun i -> Elem.Rob i);
             (fun i -> Elem.Ldq i); (fun i -> Elem.Stq i) ]))

(* Elements just outside the plane's ranges: the side table. *)
let side_elems =
  [ Elem.Mem mem_dwords; Elem.Mem (-1); Elem.Areg 32; Elem.Sreg (-1);
    Elem.Dcache 512; Elem.Rob (-1); Elem.Stq 512; Elem.Tlb max_int ]

let plane_universe =
  List.sort Elem.compare (Array.to_list dense_plane @ side_elems)

(* Random taints and clears, drawn mostly at the edges of the plane's
   64-bit words — both bits either side of a word boundary, and every bit
   of the last (partial) word — plus side-table elements. *)
let gen_set_clear =
  let open QCheck.Gen in
  let n = Array.length dense_plane in
  let words = (n + 63) / 64 in
  let at i = dense_plane.(min i (n - 1)) in
  let elem =
    frequency
      [ ( 4,
          map2
            (fun w off -> at ((64 * w) + off))
            (int_bound (words - 1))
            (oneofl [ 0; 1; 62; 63 ]) );
        (2, map (fun i -> at ((64 * (words - 1)) + i)) (int_bound 63));
        (1, map at (int_bound (n - 1)));
        (1, oneofl side_elems) ]
  in
  list_size (int_range 1 40) (pair bool elem)

let prop_tainted_elems_walk =
  QCheck.Test.make ~name:"tainted_elems equals an is_tainted walk" ~count:100
    (QCheck.make gen_set_clear)
    (fun ops ->
      let t = Taintstate.create Policy.Diffift in
      List.for_all
        (fun (taint, e) ->
          (if taint then Taintstate.set_tainted t e
           else
             (* Under diffIFT an aligned write of clean data clears. *)
             let s = slot [ Eff.Write (e, []) ] in
             Taintstate.apply_pair t (Some s) (Some s));
          Taintstate.is_tainted t e = taint
          && Taintstate.tainted_elems t
             = List.filter (Taintstate.is_tainted t) plane_universe)
        ops)

(* --- element order and the window checkpoint ------------------------------ *)

let elem_ctors =
  [| (fun i -> Elem.Areg i); (fun i -> Elem.Sreg i); (fun i -> Elem.Mem i);
     (fun i -> Elem.Dcache i); (fun i -> Elem.Icache i); (fun i -> Elem.Lfb i);
     (fun i -> Elem.Btb i); (fun i -> Elem.Bht i); (fun i -> Elem.Ras i);
     (fun i -> Elem.Loop i); (fun i -> Elem.Tlb i); (fun i -> Elem.L2tlb i);
     (fun i -> Elem.Rob i); (fun i -> Elem.Ldq i); (fun i -> Elem.Stq i) |]

(* A constructor (15 means [Pc]) and an index: small, negative, at and
   past the dense plane's 512-entry tables, or anywhere. *)
let gen_elem_key =
  let open QCheck.Gen in
  pair (int_bound 15)
    (frequency
       [ (4, int_range (-3) 600);
         (1, oneofl [ min_int; max_int; -1; 0; 511; 512; mem_dwords ]);
         (1, int) ])

let elem_of_key (k, i) = if k = 15 then Elem.Pc else elem_ctors.(k) i

(* Pairs of random elements, and of an element and a near neighbour (the
   same constructor one index away, or itself), so that equal constructors
   and equal elements come up often. *)
let prop_elem_order =
  QCheck.Test.make ~name:"typed Elem.compare is Stdlib.compare" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Elem.to_string a ^ " vs " ^ Elem.to_string b)
       QCheck.Gen.(
         let* ((k, i) as a) = gen_elem_key in
         let* b =
           frequency
             [ (2, gen_elem_key);
               (1, map (fun d -> (k, i + d)) (int_range (-1) 1));
               (1, map (fun k' -> (k', i)) (int_bound 15)) ]
         in
         return (elem_of_key a, elem_of_key b)))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Elem.compare a b) = sign (Stdlib.compare a b)
      && Elem.equal a b = (a = b))

(* [Taintstate]'s window checkpoint as it was before it became a pair of
   bitsets, over a model taint set: the model the property below holds the
   bitsets to. *)
module Checkpoint_model = struct
  type t = { taint : (Elem.t, unit) Hashtbl.t; saved : (Elem.t, bool) Hashtbl.t }

  let create () = { taint = Hashtbl.create 16; saved = Hashtbl.create 64 }
  let is_tainted m e = Hashtbl.mem m.taint e

  let set m e v =
    if v then Hashtbl.replace m.taint e () else Hashtbl.remove m.taint e

  let snapshot m elems =
    Hashtbl.reset m.saved;
    List.iter (fun e -> Hashtbl.replace m.saved e (is_tainted m e)) elems

  let restore m elems =
    List.iter
      (fun e ->
        match Hashtbl.find_opt m.saved e with
        | Some v -> set m e v
        | None -> ())
      elems

  let reset m =
    Hashtbl.reset m.taint;
    Hashtbl.reset m.saved
end

type ck_op =
  | Ck_set of Elem.t * bool
  | Ck_snapshot of Elem.t list
  | Ck_restore of Elem.t list
  | Ck_blit  (** copy into the other instance and carry on there *)
  | Ck_reset

let ck_op_to_string =
  let elems es = String.concat "," (List.map Elem.to_string es) in
  function
  | Ck_set (e, v) -> Printf.sprintf "set %s %b" (Elem.to_string e) v
  | Ck_snapshot es -> Printf.sprintf "snapshot [%s]" (elems es)
  | Ck_restore es -> Printf.sprintf "restore [%s]" (elems es)
  | Ck_blit -> "blit"
  | Ck_reset -> "reset"

(* What a BOOM window checkpoints: [Core]'s [window_elems]. *)
let ck_window =
  List.init 8 (fun i -> Elem.Ras i)
  @ List.init 8 (fun i -> Elem.Stq i)
  @ List.init 8 (fun i -> Elem.Ldq i)

(* Beside it, side-table elements and elements no window names. *)
let ck_pool =
  ck_window
  @ [ Elem.Ras 512; Elem.Stq (-1); Elem.Mem mem_dwords; Elem.Pc; Elem.Areg 3 ]

let gen_ck_ops =
  let open QCheck.Gen in
  let elem = oneofl ck_pool in
  let elems =
    frequency
      [ (2, return ck_window);
        (* B2's partial restore list: the restored top of stack, then both
           queues *)
        ( 2,
          map
            (fun tos ->
              Elem.Ras tos :: List.filteri (fun i _ -> i >= 8) ck_window)
            (int_bound 7) );
        (* random lists, duplicates included *)
        (3, list_size (int_bound 6) elem) ]
  in
  list_size (int_range 1 60)
    (frequency
       [ (6, map2 (fun e v -> Ck_set (e, v)) elem bool);
         (2, map (fun es -> Ck_snapshot es) elems);
         (3, map (fun es -> Ck_restore es) elems);
         (1, return Ck_blit); (1, return Ck_reset) ])

(* Random sequences of taints and clears, snapshots, restores, blits into
   a dirty instance and resets: after every step the count and each pool
   element's taint are the model's.  Snapshots and restores go through
   [apply_pair], as a window's events do; a clear is diffIFT's aligned
   clean write. *)
let prop_checkpoint_matches_model =
  QCheck.Test.make ~name:"bitset checkpoint matches a hash-table model"
    ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map ck_op_to_string ops))
       gen_ck_ops)
    (fun ops ->
      let t = ref (Taintstate.create Policy.Diffift)
      and other = ref (Taintstate.create Policy.Diffift)
      and m = ref (Checkpoint_model.create ()) in
      let apply ev = Taintstate.apply_pair !t (Some (slot [ ev ])) None in
      List.for_all
        (fun op ->
          (match op with
          | Ck_set (e, true) ->
              Taintstate.set_tainted !t e;
              Checkpoint_model.set !m e true
          | Ck_set (e, false) ->
              let s = slot [ Eff.Write (e, []) ] in
              Taintstate.apply_pair !t (Some s) (Some s);
              Checkpoint_model.set !m e false
          | Ck_snapshot es ->
              apply (Eff.Snapshot es);
              Checkpoint_model.snapshot !m es
          | Ck_restore es ->
              apply (Eff.Restore es);
              Checkpoint_model.restore !m es
          | Ck_blit ->
              Taintstate.blit ~src:!t ~dst:!other;
              swap t other
          | Ck_reset ->
              Taintstate.reset !t;
              Checkpoint_model.reset !m);
          Taintstate.tainted_count !t = Hashtbl.length !m.Checkpoint_model.taint
          && List.for_all
               (fun e ->
                 Taintstate.is_tainted !t e = Checkpoint_model.is_tainted !m e)
               ck_pool)
        ops)

(* [Taintstate.committed_nop] against [apply_pair] on the slot [Core.step]
   emits for a committed nop, paired with itself, from every taint of the
   elements the slot reads and writes: the refill and the hit shape, in
   both modes.  The match on the events pins what the summary mirrors. *)
let prop_committed_nop_matches_pair =
  let core =
    Core.create Cfg.boom_small
      (stim_of_insns (List.init 40 (fun _ -> Insn.nop) @ [ Insn.Ebreak ]))
  in
  let nop_slots =
    List.filter
      (fun s -> (not s.Eff.sl_transient) && s.Eff.sl_insn = Insn.nop)
      (Core.run core)
  in
  let summary s =
    match s.Eff.sl_events with
    | [ Eff.Write (Elem.Icache i, []);
        Eff.Ctrl { kind = Eff.C_addr; srcs = [ Elem.Pc; Elem.Icache _ ];
                   touched = [ Elem.Icache _ ]; _ };
        Eff.Write (Elem.Rob r, []) ] -> (i, true, r)
    | [ Eff.Ctrl { kind = Eff.C_addr; srcs = [ Elem.Pc; Elem.Icache i ];
                   touched = [ Elem.Icache _ ]; _ };
        Eff.Write (Elem.Rob r, []) ] -> (i, false, r)
    | _ -> failwith "not a committed nop's events"
  in
  QCheck.Test.make ~name:"committed nop summary matches apply_pair" ~count:300
    QCheck.(triple bool (int_bound (List.length nop_slots - 1)) (int_bound 7))
    (fun (cellift, k, bits) ->
      let mode = if cellift then Policy.Cellift else Policy.Diffift in
      let s = List.nth nop_slots k in
      let line, refill, rob = summary s in
      let init =
        List.filteri
          (fun j _ -> bits land (1 lsl j) <> 0)
          [ Elem.Pc; Elem.Icache line; Elem.Rob rob ]
      in
      let paired = Taintstate.create mode and summed = Taintstate.create mode in
      List.iter (Taintstate.set_tainted paired) init;
      List.iter (Taintstate.set_tainted summed) init;
      Taintstate.apply_pair paired (Some s) (Some s);
      Taintstate.committed_nop summed ~line ~refill ~rob;
      Taintstate.tainted_elems paired = Taintstate.tainted_elems summed
      && Taintstate.tainted_by_module paired
         = Taintstate.tainted_by_module summed)

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
  (* Two to four distinct registers: the head of a Fisher–Yates shuffle
     of the pool. *)
  let regs =
    let k = R.int_in rng 2 4 in
    let arr = Array.of_list pool in
    for i = Array.length arr - 1 downto 1 do
      let j = R.int rng (i + 1) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.sub arr 0 k
  in
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
    (String.length (Dvz_uarch.Trace.render_result r) > 0)

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
          Alcotest.test_case "tlb" `Quick test_tlb;
          QCheck_alcotest.to_alcotest prop_cache_matches_model;
          QCheck_alcotest.to_alcotest prop_tlb_matches_model ] );
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
          Alcotest.test_case "module counts" `Quick test_taint_module_counts;
          Alcotest.test_case "paired sources" `Quick test_taint_paired_sources;
          QCheck_alcotest.to_alcotest
            (prop_taintstate_matches_shadow ~ctrl:false);
          QCheck_alcotest.to_alcotest
            (prop_taintstate_matches_shadow ~ctrl:true);
          Alcotest.test_case "abstraction: CellIFT aligned value change" `Quick
            test_taint_abstraction_cellift_value_change;
          Alcotest.test_case "abstraction: diverged write, same value" `Quick
            test_taint_abstraction_diverged_same_value;
          Alcotest.test_case "abstraction: diverged, equal decisions" `Quick
            test_taint_abstraction_diverged_equal_decisions;
          QCheck_alcotest.to_alcotest prop_dense_side_agree;
          QCheck_alcotest.to_alcotest prop_plane_reads_agree;
          QCheck_alcotest.to_alcotest prop_tainted_elems_walk;
          QCheck_alcotest.to_alcotest prop_elem_order;
          QCheck_alcotest.to_alcotest prop_checkpoint_matches_model;
          QCheck_alcotest.to_alcotest prop_committed_nop_matches_pair ] );
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
