open Dvz_isa
open Dvz_soc
module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config

(* Window registers: s0 holds the secret value, s1 the secret address, a2
   the disambiguation pointer, a3 the probe array base.  t4..t6/x31 are
   window scratch. *)
let t4 = Reg.x 28
let t5 = Reg.x 29
let t6 = Reg.x 30

let secret_access_block seed =
  match seed.Seed.kind with
  | Seed.T_mem_disamb ->
      (* Only the stale (speculatively loaded) pointer reaches the secret;
         the architectural pointer is benign. *)
      [ Insn.Load (Insn.D, false, Reg.s0, Reg.a2, 0) ]
  | _ -> [ Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0) ]

(* Each gadget: (tag, instruction list).  All control flow stays inside the
   window or lands on swapMem's ebreak padding. *)
let gadget rng tag =
  match tag with
  | "dcache" ->
      (* Classic flush+reload encoding: secret-indexed probe loads; the
         mask/shift/arity variety spreads taints over varying numbers of
         lines, which is what the position-insensitive coverage counts. *)
      let mask = Rng.choose rng [| 1; 3; 7 |] in
      let shift = Rng.int_in rng 6 8 in
      let second =
        if Rng.chance rng 0.4 then
          [ Insn.Opi (Insn.Xori, t6, t4, 64 * Rng.int_in rng 1 7);
            Insn.Load (Insn.D, false, t5, t6, 0) ]
        else []
      in
      [ Insn.Opi (Insn.Andi, t4, Reg.s0, mask);
        Insn.Opi (Insn.Slli, t4, t4, shift);
        Insn.Op (Insn.Add, t4, t4, Reg.a3);
        Insn.Load (Insn.D, false, t5, t4, 0) ]
      @ second
  | "tlb" ->
      (* Page-granular encoding: the touched TLB entry depends on the
         secret (the "(l2)tlb" component of Table 5). *)
      [ Insn.Opi (Insn.Andi, t4, Reg.s0, Rng.choose rng [| 3; 7 |]);
        Insn.Opi (Insn.Slli, t4, t4, 12);
        Insn.Op (Insn.Add, t4, t4, Reg.a3);
        Insn.Load (Insn.D, false, t5, t4, 8 * Rng.int rng 8) ]
  | "fpu" ->
      (* Spectre-Rewind style: a secret-guarded divide contends on the FPU
         port past the squash. *)
      [ Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
        Insn.Branch (Insn.Eq, t4, Reg.zero, 8);
        Insn.Fdiv (t5, Reg.a3, Reg.s0) ]
  | "lsu" ->
      (* Secret-guarded cache-missing load: LSU/refill port contention and
         a secret-dependent line fill. *)
      let far = Layout.probe_base + Layout.page_size + (64 * Rng.int_in rng 8 24) in
      Insn.Opi (Insn.Andi, t4, Reg.s0, 1)
      :: Insn.Branch (Insn.Eq, t4, Reg.zero, 4 * 4)
      :: Genlib.li t6 far
      @ [ Insn.Load (Insn.D, false, t5, t6, 0) ]
  | "refetch" ->
      (* B4: a secret-dependent branch to a cold instruction line preempts
         the fetch port during transient execution. *)
      [ Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
        Insn.Branch (Insn.Ne, t4, Reg.zero, 4 * Rng.int_in rng 80 160) ]
  | "ras" ->
      (* B2's shape (the paper's Phantom-RSB listing): secret-gated
         transient returns pop the RAS below its checkpointed TOS, then
         calls overwrite the popped (still-live) entries — which BOOM's
         top-only squash recovery never repairs.  When the secret bit is 0,
         ra collapses to 0 and the first jalr stalls the frontend. *)
      [ Insn.Auipc (Reg.ra, 0);           (* A+0:  ra = A *)
        Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
        Insn.Op (Insn.Sub, t4, Reg.zero, t4);
        Insn.Op (Insn.And, Reg.ra, Reg.ra, t4);
        Insn.Jalr (Reg.zero, Reg.ra, 20); (* A+16: ret to A+20, pops *)
        Insn.Jalr (Reg.zero, Reg.ra, 24); (* A+20: ret to A+24, pops *)
        Insn.Jalr (Reg.ra, Reg.ra, 28) ]  (* A+24: call, overwrites below TOS *)
  | "flow" ->
      (* Bare secret-dependent branch: control-flow divergence (and, on
         BOOM, speculative loop-predictor updates). *)
      [ Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
        Insn.Branch (Insn.Eq, t4, Reg.zero, 8);
        Insn.Op (Insn.Add, t5, t5, t4) ]
  | "btb" ->
      (* B3's shape: a jalr whose target depends on the secret, placed so
         its correction can race an exception commit. *)
      [ Insn.Auipc (t5, 0);
        Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
        Insn.Opi (Insn.Slli, t4, t4, 3);
        Insn.Op (Insn.Add, t5, t5, t4);
        Insn.Jalr (Reg.zero, t5, 20) ]
  | "arith" ->
      (* Plain dataflow: the secret spreads through the PRF/RoB — taints
         that die at squash, exercising the liveness oracle. *)
      List.init (Rng.int_in rng 1 3) (fun _ ->
          Genlib.random_arith rng ~dst:(Rng.choose rng [| t4; t5; t6 |])
            ~srcs:[ Reg.s0; Rng.choose rng [| t4; t5 |] ])
  | "stq" ->
      [ Insn.Store (Insn.D, Reg.s0, Reg.a3, 8 * Rng.int rng 8) ]
  | _ -> invalid_arg ("Window_gen.gadget: unknown tag " ^ tag)

let weighted_tags cfg =
  let always =
    [ "dcache"; "dcache"; "tlb"; "fpu"; "lsu"; "flow"; "arith"; "stq";
      "refetch" ]
  in
  let boom = [ "ras"; "btb" ] in
  match cfg.Cfg.preset with
  | Cfg.Boom -> always @ boom
  | Cfg.Xiangshan -> always

let build_window ~encode cfg tc =
  let seed = tc.Packet.seed in
  let rng = Rng.create seed.Seed.window_entropy in
  let access = secret_access_block seed in
  let budget = tc.Packet.window_words - List.length access in
  let tags = Array.of_list (weighted_tags cfg) in
  let rec pick acc acc_tags budget tries =
    if tries = 0 || budget <= 0 then (List.rev acc, List.rev acc_tags)
    else
      let tag = Rng.choose rng tags in
      let insns = gadget rng tag in
      if List.length insns <= budget then
        pick (insns :: acc) (tag :: acc_tags) (budget - List.length insns)
          (tries - 1)
      else pick acc acc_tags budget (tries - 1)
  in
  let gadgets, tags_used = pick [] [] budget 10 in
  let encoding = List.concat gadgets in
  let body =
    if encode then access @ encoding
    else access @ Genlib.nops (List.length encoding)
  in
  (Genlib.pad_to body tc.Packet.window_words, tags_used)

(* [insns] with its elements from index [i] on replaced, in order, by
   [window]'s; the tail after the window is shared. *)
let rec overwrite i insns window =
  match (window, insns) with
  | [], _ -> insns
  | _ :: _, [] ->
      invalid_arg "Window_gen.splice_window: window past the packet"
  | _, insn :: rest when i > 0 -> insn :: overwrite (i - 1) rest window
  | w :: ws, _ :: rest -> w :: overwrite 0 rest ws

let splice_window tc window_insns =
  let idx = (tc.Packet.window_addr - Layout.swap_base) / 4 in
  if idx < 0 then
    invalid_arg "Window_gen.splice_window: window before the packet";
  let transient = tc.Packet.transient in
  { tc with
    Packet.transient =
      { transient with
        Packet.insns = overwrite idx transient.Packet.insns window_insns } }

let window_trainings seed =
  let rng = Rng.create (seed.Seed.window_entropy lxor 0x5eed) in
  let secret_line = Layout.secret_base + (8 * Rng.int rng Layout.secret_dwords) in
  let warm_secret =
    Genlib.li Reg.t0 secret_line @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ]
  in
  let warm_probe =
    Genlib.li Reg.t0 (Layout.probe_base + (64 * Rng.int rng 4))
    @ [ Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ]
  in
  [ Packet.make ~name:"window_train_secret" ~role:Packet.Window_training
      ~training_total:(List.length warm_secret)
      ~training_effective:(List.length warm_secret)
      warm_secret;
    Packet.make ~name:"window_train_probe" ~role:Packet.Window_training
      ~training_total:(List.length warm_probe)
      ~training_effective:(List.length warm_probe)
      warm_probe ]

let complete cfg tc =
  let window, tags = build_window ~encode:true cfg tc in
  let tc = splice_window tc window in
  { tc with
    Packet.window_trainings = window_trainings tc.Packet.seed;
    Packet.gadget_tags = tags }

let sanitize cfg tc =
  let window, _ = build_window ~encode:false cfg tc in
  splice_window tc window

let splice tc insns =
  splice_window tc (Genlib.pad_to insns tc.Packet.window_words)
