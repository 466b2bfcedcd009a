open Dvz_isa
open Dvz_soc
module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config
module Eff = Dvz_uarch.Effect

(* Size of the dummy window section, in instructions. *)
let window_words = 16

(* Addresses reserved by the fuzzer's memory environment. *)
let forbidden_page = 0xF000 (* Perm.none: access faults *)
let absent_page = 0xE000 (* Perm.absent: page faults *)

let word_addr off = Layout.swap_base + (4 * off)

type shape = {
  sh_prologue : Insn.t list;   (** register setup at the packet start *)
  sh_pre : Insn.t list;        (** instructions immediately before the trigger *)
  sh_trigger : Insn.t;
  sh_tail : Insn.t list;       (** window section + resume, after the trigger *)
  sh_window_off : int;         (** word offset of the window section *)
  sh_data : (int * int) list;
  sh_perms : (int * Perm.t) list;
}

let assemble_transient ~trig_off shape =
  let pre_len = List.length shape.sh_pre in
  let insns =
    Genlib.pad_to shape.sh_prologue (trig_off - pre_len)
    @ shape.sh_pre
    @ [ shape.sh_trigger ]
    @ shape.sh_tail
  in
  Packet.make ~name:"transient" ~role:Packet.Transient insns

let dummy_window = Genlib.nops window_words

(* --- trigger shapes ----------------------------------------------------- *)

let secret_address rng seed =
  let low = Layout.secret_base + (8 * Rng.int rng Layout.secret_dwords) in
  if seed.Seed.mask_high then `High low else `Plain low

(* Two committed calls at the packet start give the transient window a
   realistic call depth: RAS-popping gadgets then corrupt live entries. *)
let call_depth =
  [ Insn.Jal (Reg.ra, 4); Insn.Jal (Reg.ra, 4) ]

let load_secret_ptr rng seed =
  match secret_address rng seed with
  | `Plain a -> (Genlib.li Reg.s1 a, a)
  | `High low ->
      (* An illegal (out-of-physical-range) alias of the secret address:
         the MDS-style masked access of §4.2.1, and B1's vehicle. *)
      (Genlib.li_high Reg.s1 ~tmp:(Reg.x 31) ~low ~shift:40, low + (1 lsl 40))

let branch_shape rng seed ~force_training ~trig_off =
  let conds = [| Insn.Eq; Insn.Ne; Insn.Lt; Insn.Ge; Insn.Ltu; Insn.Geu |] in
  let cond = Rng.choose rng conds in
  let at_target = force_training || Rng.bool rng in
  let secret_setup, _ = load_secret_ptr rng seed in
  let probe_setup = Genlib.li Reg.a3 Layout.probe_base in
  if at_target then begin
    (* Architecturally untaken; training teaches "taken", so the transient
       path runs the window at the branch target. *)
    let v0, v1 = Genlib.random_cond_operands rng cond ~taken:false in
    let prologue =
      call_depth @ secret_setup @ probe_setup @ Genlib.li Reg.t0 v0
      @ Genlib.li Reg.t1 v1
    in
    ( { sh_prologue = prologue; sh_pre = [];
        sh_trigger = Insn.Branch (cond, Reg.t0, Reg.t1, 8);
        sh_tail = (Insn.Ebreak :: dummy_window) @ [ Insn.Ebreak ];
        sh_window_off = trig_off + 2; sh_data = []; sh_perms = [] },
      `Taken cond )
  end
  else begin
    (* Architecturally taken over the window; training teaches "untaken". *)
    let v0, v1 = Genlib.random_cond_operands rng cond ~taken:true in
    let prologue =
      call_depth @ secret_setup @ probe_setup @ Genlib.li Reg.t0 v0
      @ Genlib.li Reg.t1 v1
    in
    ( { sh_prologue = prologue; sh_pre = [];
        sh_trigger = Insn.Branch (cond, Reg.t0, Reg.t1, 4 * (window_words + 1));
        sh_tail = dummy_window @ [ Insn.Ebreak ];
        sh_window_off = trig_off + 1; sh_data = []; sh_perms = [] },
      `Untaken cond )
  end

let return_shape rng seed ~trig_off =
  let secret_setup, _ = load_secret_ptr rng seed in
  let resume = word_addr (trig_off + 1 + window_words) in
  (* No call_depth here: the trained RAS entry must be on top when the
     trigger return pops. *)
  let prologue =
    secret_setup @ Genlib.li Reg.a3 Layout.probe_base
    @ Genlib.li Reg.ra resume
  in
  { sh_prologue = prologue; sh_pre = [];
    sh_trigger = Insn.Jalr (Reg.zero, Reg.ra, 0);
    sh_tail = dummy_window @ [ Insn.Ebreak ];
    sh_window_off = trig_off + 1; sh_data = []; sh_perms = [] }

let jump_shape rng seed ~trig_off =
  let secret_setup, _ = load_secret_ptr rng seed in
  let resume = word_addr (trig_off + 1 + window_words) in
  let prologue =
    call_depth @ secret_setup @ Genlib.li Reg.a3 Layout.probe_base
    @ Genlib.li Reg.t2 resume
  in
  { sh_prologue = prologue; sh_pre = [];
    sh_trigger = Insn.Jalr (Reg.zero, Reg.t2, 0);
    sh_tail = dummy_window @ [ Insn.Ebreak ];
    sh_window_off = trig_off + 1; sh_data = []; sh_perms = [] }

let exception_shape rng seed ~trig_off =
  let secret_setup, secret_addr = load_secret_ptr rng seed in
  let probe_setup = Genlib.li Reg.a3 Layout.probe_base in
  let is_store = (not seed.Seed.tighten) && Rng.chance rng 0.3 in
  (* The fault target: either the (possibly masked) secret address already
     materialised in s1, or a dedicated faulting page. *)
  let base_reg, imm, perms =
    match seed.Seed.kind with
    | Seed.T_access_fault ->
        if seed.Seed.tighten || seed.Seed.mask_high then (Reg.s1, 0, [])
        else (Reg.t0, 0, [ (forbidden_page, Perm.none) ])
    | Seed.T_page_fault -> (Reg.t0, 0, [ (absent_page, Perm.absent) ])
    | Seed.T_misalign ->
        let misalign = 2 * Rng.int_in rng 1 3 in
        if seed.Seed.tighten then (Reg.s1, misalign, [])
        else (Reg.t0, misalign, [])
    | _ -> assert false
  in
  let t0_setup =
    if Reg.equal base_reg Reg.t0 then
      let addr =
        match seed.Seed.kind with
        | Seed.T_access_fault -> forbidden_page + (8 * Rng.int rng 16)
        | Seed.T_page_fault -> absent_page + (8 * Rng.int rng 16)
        | _ -> Layout.dedicated_base + (8 * Rng.int rng 16)
      in
      Genlib.li Reg.t0 addr
    else []
  in
  ignore secret_addr;
  let prologue = call_depth @ secret_setup @ probe_setup @ t0_setup in
  let trigger =
    if is_store then Insn.Store (Insn.D, Reg.a3, base_reg, imm)
    else Insn.Load (Insn.D, false, Reg.s0, base_reg, imm)
  in
  { sh_prologue = prologue; sh_pre = []; sh_trigger = trigger;
    sh_tail = dummy_window @ [ Insn.Ebreak ];
    sh_window_off = trig_off + 1; sh_data = []; sh_perms = perms }

let illegal_shape rng seed ~trig_off =
  let secret_setup, _ = load_secret_ptr rng seed in
  let prologue =
    call_depth @ secret_setup @ Genlib.li Reg.a3 Layout.probe_base
  in
  { sh_prologue = prologue; sh_pre = [];
    sh_trigger = Insn.Illegal (Genlib.illegal_word rng);
    sh_tail = dummy_window @ [ Insn.Ebreak ];
    sh_window_off = trig_off + 1; sh_data = []; sh_perms = [] }

let disamb_shape rng seed ~trig_off =
  ignore seed;
  let x = Layout.dedicated_base + (8 * Rng.int_in rng 16 32) in
  let prologue =
    call_depth @ Genlib.li Reg.t0 x
    @ Genlib.li Reg.t1 Layout.probe_base
    @ Genlib.li Reg.a3 Layout.probe_base
  in
  (* Memory at [x] holds a stale pointer to the secret; the store replaces
     it with a benign pointer, and the mispredicted load transiently reads
     around the unresolved store (Spectre-V4). *)
  { sh_prologue = prologue;
    sh_pre = [ Insn.Store (Insn.D, Reg.t1, Reg.t0, 0) ];
    sh_trigger = Insn.Load (Insn.D, false, Reg.a2, Reg.t0, 0);
    sh_tail = dummy_window @ [ Insn.Ebreak ];
    sh_window_off = trig_off + 1;
    sh_data = [ (x, Layout.secret_base) ];
    sh_perms = [] }

(* --- training derivation ------------------------------------------------ *)

let derived_trainings rng seed ~trig_off ~window_off branch_dir =
  let mk name insns ~eff =
    Packet.make ~name ~role:Packet.Trigger_training
      ~training_total:(List.length insns) ~training_effective:eff insns
  in
  let targeted =
    match seed.Seed.kind with
    | Seed.T_branch -> (
        match branch_dir with
        | Some (`Taken cond) ->
            let v0, v1 = Genlib.random_cond_operands rng cond ~taken:true in
            let setup = Genlib.li Reg.t0 v0 @ Genlib.li Reg.t1 v1 in
            let eff = List.length setup + 1 in
            [ mk "train_branch"
                (Genlib.pad_to setup trig_off
                @ [ Insn.Branch (cond, Reg.t0, Reg.t1, 8) ])
                ~eff ]
        | Some (`Untaken cond) ->
            let v0, v1 = Genlib.random_cond_operands rng cond ~taken:false in
            let setup = Genlib.li Reg.t0 v0 @ Genlib.li Reg.t1 v1 in
            let eff = List.length setup + 1 in
            [ mk "train_branch"
                (Genlib.pad_to setup trig_off
                @ [ Insn.Branch (cond, Reg.t0, Reg.t1, 8) ])
                ~eff ]
        | None -> [])
    | Seed.T_return ->
        (* The caller is placed so the pushed return address equals the
           window start (Figure 5's trigger_train_0). *)
        [ mk "train_return"
            (Genlib.nops (window_off - 1) @ [ Insn.Jal (Reg.ra, 4) ])
            ~eff:1 ]
    | Seed.T_jump ->
        let setup = Genlib.li Reg.t2 (word_addr window_off) in
        let eff = List.length setup + 1 in
        [ mk "train_jump"
            (Genlib.pad_to setup trig_off @ [ Insn.Jalr (Reg.zero, Reg.t2, 0) ])
            ~eff ]
    | Seed.T_access_fault | Seed.T_page_fault | Seed.T_misalign
    | Seed.T_illegal | Seed.T_mem_disamb -> []
  in
  (* A couple of untargeted candidates for the reduction pass to discard,
     as in Figure 5's trigger_train_1/2. *)
  let junk i =
    let n = Rng.int_in rng 3 8 in
    let insns =
      List.init n (fun _ ->
          Genlib.random_arith rng ~dst:(Rng.choose rng Genlib.scratch)
            ~srcs:[ Rng.choose rng Genlib.scratch ])
    in
    mk (Printf.sprintf "train_junk%d" i) insns ~eff:(List.length insns)
  in
  if Seed.is_misprediction seed.Seed.kind then targeted @ [ junk 0; junk 1 ]
  else targeted

let random_trainings rng =
  (* DejaVuzz*: random instruction soup, no alignment, no flow matching.
     Packets are long (random fuzzing does not know where the trigger sits),
     so predictor state is trained by index aliasing if at all. *)
  let packet i =
    let target_words = Rng.int_in rng 40 120 in
    (* Build with explicit word positions so control flow stays linear. *)
    let rec build pos acc =
      if pos >= target_words then List.rev acc
      else
        let r = Rng.float rng 1.0 in
        let insns =
          if r < 0.55 then
            [ Genlib.random_arith rng ~dst:(Rng.choose rng Genlib.scratch)
                ~srcs:[ Rng.choose rng Genlib.scratch ] ]
          else if r < 0.80 then
            (* A taken or untaken branch skipping one word. *)
            let cond = Rng.choose rng [| Insn.Eq; Insn.Ne; Insn.Lt; Insn.Geu |] in
            let v0, v1 =
              Genlib.random_cond_operands rng cond ~taken:(Rng.bool rng)
            in
            [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, v0);
              Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, v1);
              Insn.Branch (cond, Reg.t0, Reg.t1, 8);
              Insn.nop ]
          else if r < 0.92 then [ Insn.Jal (Reg.ra, 4) ]
          else
            (* li is two words for swap-region addresses; the jalr lands on
               the instruction right after itself.  A random register is
               used, as a random generator would. *)
            let reg = Rng.choose rng Genlib.scratch in
            Genlib.li reg (word_addr (pos + 3))
            @ [ Insn.Jalr (Reg.zero, reg, 0) ]
        in
        build (pos + List.length insns) (List.rev_append insns acc)
    in
    let insns = build 0 [] in
    Packet.make ~name:(Printf.sprintf "rand_train%d" i)
      ~role:Packet.Trigger_training
      ~training_total:(List.length insns)
      ~training_effective:(List.length insns)
      insns
  in
  List.init 6 packet

(* --- entry points -------------------------------------------------------- *)

let style_name = function `Derived -> "derived" | `Random -> "random"

let style_of_name s =
  List.find_opt (fun st -> style_name st = s) [ `Derived; `Random ]

let generate ?(style = `Derived) ?(force_training = false) cfg seed =
  ignore cfg;
  let rng = Rng.create seed.Seed.trigger_entropy in
  let trig_off = Rng.int_in rng 20 150 in
  let shape, branch_dir =
    match seed.Seed.kind with
    | Seed.T_branch ->
        let sh, dir = branch_shape rng seed ~force_training ~trig_off in
        (sh, Some dir)
    | Seed.T_return -> (return_shape rng seed ~trig_off, None)
    | Seed.T_jump -> (jump_shape rng seed ~trig_off, None)
    | Seed.T_access_fault | Seed.T_page_fault | Seed.T_misalign ->
        (exception_shape rng seed ~trig_off, None)
    | Seed.T_illegal -> (illegal_shape rng seed ~trig_off, None)
    | Seed.T_mem_disamb -> (disamb_shape rng seed ~trig_off, None)
  in
  let transient = assemble_transient ~trig_off shape in
  let trainings =
    match style with
    | `Derived ->
        derived_trainings rng seed ~trig_off ~window_off:shape.sh_window_off
          branch_dir
    | `Random -> random_trainings rng
  in
  { Packet.seed; transient; trigger_trainings = trainings;
    window_trainings = [];
    trigger_addr = word_addr trig_off;
    window_addr = word_addr shape.sh_window_off;
    window_words;
    data = shape.sh_data;
    perms = shape.sh_perms;
    tighten = seed.Seed.tighten;
    gadget_tags = [] }

let expected_window seed kind =
  match (seed.Seed.kind, kind) with
  | Seed.T_access_fault,
    Eff.W_exception (Trap.Load_access_fault | Trap.Store_access_fault) -> true
  | Seed.T_page_fault,
    Eff.W_exception (Trap.Load_page_fault | Trap.Store_page_fault) -> true
  | Seed.T_misalign,
    Eff.W_exception (Trap.Load_misalign | Trap.Store_misalign) -> true
  | Seed.T_illegal, Eff.W_exception Trap.Illegal_instruction -> true
  | Seed.T_mem_disamb, Eff.W_mem_disamb -> true
  | Seed.T_branch, Eff.W_branch_mispred -> true
  | Seed.T_jump, Eff.W_jump_mispred -> true
  | Seed.T_return, Eff.W_return_mispred -> true
  | _ -> false

let triggered tc records =
  List.exists
    (fun (w : Dvz_uarch.Core.window_record) ->
      w.Dvz_uarch.Core.wr_in_transient_blob
      && w.Dvz_uarch.Core.wr_enqueued > 0
      && w.Dvz_uarch.Core.wr_trigger_pc = tc.Packet.trigger_addr
      && expected_window tc.Packet.seed w.Dvz_uarch.Core.wr_kind)
    records
