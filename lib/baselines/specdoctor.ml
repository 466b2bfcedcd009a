open Dvz_isa
open Dvz_soc
module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet
module Genlib = Dejavuzz.Genlib
module Simpool = Dejavuzz.Simpool
module Profile = Dvz_obs.Profile

type case = {
  sc_testcase : Packet.testcase;
  sc_kind : Seed.trigger_kind;
  sc_training_insns : int;
}

let supported =
  [| Seed.T_page_fault; Seed.T_mem_disamb; Seed.T_branch; Seed.T_jump |]

let absent_page = 0xE000

let t4 = Reg.x 28
let t5 = Reg.x 29

(* A random secret-transmit payload, SpecDoctor-style (unguided). *)
let payload rng =
  let access = [ Insn.Load (Insn.D, false, Reg.s0, Reg.s1, 0) ] in
  let gadget =
    (* Unguided choice: most SpecDoctor payloads park the secret in state
       that dies at squash (plain dataflow), which is what makes most of
       its hash-difference candidates unexploitable. *)
    let r = Rng.float rng 1.0 in
    match (if r < 0.14 then 0 else if r < 0.26 then 1 else 2) with
    | 0 ->
        ( [ "dcache" ],
          [ Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
            Insn.Opi (Insn.Slli, t4, t4, 6);
            Insn.Op (Insn.Add, t4, t4, Reg.a3);
            Insn.Load (Insn.D, false, t5, t4, 0) ] )
    | 1 ->
        ( [ "lsu" ],
          [ Insn.Opi (Insn.Andi, t4, Reg.s0, 1);
            Insn.Branch (Insn.Eq, t4, Reg.zero, 12);
            Insn.Load (Insn.D, false, t5, Reg.a3, 0) ] )
    | _ ->
        ( [ "arith" ],
          [ Genlib.random_arith rng ~dst:t4 ~srcs:[ Reg.s0 ] ] )
  in
  let tags, encode = gadget in
  (tags, access @ encode)

let random_junk rng n =
  List.init n (fun _ ->
      Genlib.random_arith rng ~dst:(Rng.choose rng Genlib.scratch)
        ~srcs:[ Rng.choose rng Genlib.scratch ])

let word_addr off = Layout.swap_base + (4 * off)

let mk_case rng kind ~insns ~trigger_off ~window_off ~window_words ~data
    ~perms ~tighten ~tags ~training =
  let seed =
    { Seed.kind; trigger_entropy = Rng.next rng; window_entropy = Rng.next rng;
      tighten; mask_high = false }
  in
  { sc_testcase =
      { Packet.seed;
        transient = Packet.make ~name:"specdoctor" ~role:Packet.Transient insns;
        trigger_trainings = []; window_trainings = [];
        trigger_addr = word_addr trigger_off;
        window_addr = word_addr window_off;
        window_words; data; perms; tighten; gadget_tags = tags };
    sc_kind = kind;
    sc_training_insns = training }

let generate_of_kind rng cfg kind =
  let tighten = Rng.bool rng in
  let secret_addr = Layout.secret_base + (8 * Rng.int rng Layout.secret_dwords) in
  let prologue =
    Genlib.li Reg.s1 secret_addr @ Genlib.li Reg.a3 Layout.probe_base
  in
  let p = List.length prologue in
  match kind with
  | Seed.T_branch ->
      (* Train a BHT entry taken with a counted loop; the trigger branch
         aliases the same entry one index-stride later. *)
      let iters = Rng.int_in rng 5 9 in
      let counter_setup = Genlib.li Reg.t0 iters in
      let loop_body =
        [ Insn.Opi (Insn.Addi, Reg.t0, Reg.t0, -1);
          Genlib.random_arith rng ~dst:t4 ~srcs:[ t4 ];
          Genlib.random_arith rng ~dst:t5 ~srcs:[ t5 ];
          Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, -12) ]
      in
      let pre = prologue @ counter_setup in
      let loop_branch_off = List.length pre + 3 in
      let trigger_off = loop_branch_off + cfg.Cfg.bht_entries in
      let filler =
        random_junk rng (trigger_off - (List.length pre + List.length loop_body))
      in
      let tags, pay = payload rng in
      let insns =
        pre @ loop_body @ filler
        @ [ Insn.Branch (Insn.Ne, Reg.zero, Reg.zero, 8); Insn.Ebreak ]
        @ pay @ [ Insn.Ebreak ]
      in
      let dynamic =
        List.length pre + (4 * iters) + List.length filler
      in
      mk_case rng kind ~insns ~trigger_off ~window_off:(trigger_off + 2)
        ~window_words:(List.length pay) ~data:[] ~perms:[] ~tighten ~tags
        ~training:dynamic
  | Seed.T_jump ->
      (* Train a BTB entry with a committed jalr, trigger with an aliasing
         jalr one index-stride later. *)
      let junk1 = random_junk rng (Rng.int_in rng 60 90) in
      let pre = prologue @ junk1 in
      let train_target_setup_len = 2 in
      let jalr_off = List.length pre + train_target_setup_len in
      let train_target = word_addr (jalr_off + 1) in
      let train = Genlib.li Reg.t2 train_target @ [ Insn.Jalr (Reg.zero, Reg.t2, 0) ] in
      let trigger_off = jalr_off + cfg.Cfg.btb_entries in
      let actual_target = word_addr (trigger_off + 2) in
      let setup2 = Genlib.li Reg.t2 actual_target in
      let filler =
        random_junk rng
          (trigger_off - (List.length pre + List.length train)
          - List.length setup2)
      in
      let tags, pay = payload rng in
      let insns =
        pre @ train @ filler @ setup2
        @ [ Insn.Jalr (Reg.zero, Reg.t2, 0); Insn.Ebreak ]
        @ pay @ [ Insn.Ebreak ]
      in
      let dynamic = trigger_off in
      mk_case rng kind ~insns ~trigger_off ~window_off:(jalr_off + 1)
        ~window_words:(List.length pay) ~data:[] ~perms:[] ~tighten ~tags
        ~training:dynamic
  | Seed.T_page_fault ->
      let junk = random_junk rng (Rng.int_in rng 100 130) in
      let fault_setup = Genlib.li Reg.t0 (absent_page + (8 * Rng.int rng 8)) in
      let trigger_off = p + List.length junk + List.length fault_setup in
      let tags, pay = payload rng in
      let insns =
        prologue @ junk @ fault_setup
        @ [ Insn.Load (Insn.D, false, t5, Reg.t0, 0) ]
        @ pay @ [ Insn.Ebreak ]
      in
      mk_case rng kind ~insns ~trigger_off ~window_off:(trigger_off + 1)
        ~window_words:(List.length pay)
        ~data:[] ~perms:[ (absent_page, Perm.absent) ] ~tighten ~tags
        ~training:(trigger_off)
  | Seed.T_mem_disamb ->
      let x = Layout.dedicated_base + (8 * Rng.int_in rng 16 32) in
      let junk = random_junk rng (Rng.int_in rng 95 125) in
      let setup = Genlib.li Reg.t0 x @ Genlib.li Reg.t1 Layout.probe_base in
      let pre_off = p + List.length junk + List.length setup in
      let trigger_off = pre_off + 1 in
      let tags, pay0 = payload rng in
      (* The stale pointer flows through a2. *)
      let pay =
        List.map
          (function
            | Insn.Load (w, u, rd, rs1, imm) when Reg.equal rs1 Reg.s1 ->
                Insn.Load (w, u, rd, Reg.a2, imm)
            | i -> i)
          pay0
      in
      let insns =
        prologue @ junk @ setup
        @ [ Insn.Store (Insn.D, Reg.t1, Reg.t0, 0);
            Insn.Load (Insn.D, false, Reg.a2, Reg.t0, 0) ]
        @ pay @ [ Insn.Ebreak ]
      in
      mk_case rng kind ~insns ~trigger_off ~window_off:(trigger_off + 1)
        ~window_words:(List.length pay)
        ~data:[ (x, Layout.secret_base) ] ~perms:[] ~tighten:false ~tags
        ~training:trigger_off
  | Seed.T_access_fault | Seed.T_misalign | Seed.T_illegal | Seed.T_return ->
      invalid_arg "Specdoctor.generate_of_kind: unsupported window type"

(* One stimulus of a random supported kind. *)
let generate rng cfg = generate_of_kind rng cfg (Rng.choose rng supported)

(* Phase 1 is the campaign's own evaluator: a SpecDoctor case is a single
   transient blob, so its windows always sit in the transient packet. *)
let triggered cfg case = Dejavuzz.Trigger_opt.evaluate cfg case.sc_testcase

let run_hash cfg ~secret tc =
  let core = Simpool.acquire_core cfg (Packet.stimulus ~secret tc) in
  Core.finish core;
  Core.state_hash core

let hash_differs cfg ~secret case =
  let flipped = Array.map (fun v -> v lxor 0xFFFFFFFF) secret in
  run_hash cfg ~secret case.sc_testcase
  <> run_hash cfg ~secret:flipped case.sc_testcase

type stats = {
  sd_coverage_curve : int array;
  sd_candidates : case list;
  sd_iterations : int;
}

let campaign ?(rng_seed = 1) ~iterations cfg =
  let rng = Rng.create rng_seed in
  let secret = Array.init Layout.secret_dwords (fun _ -> Rng.int rng 0xFFFF_FFFF) in
  let coverage = Dejavuzz.Coverage.create () in
  let curve = Array.make iterations 0 in
  let candidates = ref [] in
  let iteration it =
    let case = generate rng cfg in
    (* Replay under diffIFT for a comparable coverage measurement. *)
    let result =
      Dualcore.run
        (Simpool.acquire cfg (Packet.stimulus ~secret case.sc_testcase))
    in
    ignore (Dejavuzz.Coverage.observe_result coverage result);
    if triggered cfg case && hash_differs cfg ~secret case then
      candidates := case :: !candidates;
    curve.(it) <- Dejavuzz.Coverage.points coverage
  in
  for it = 0 to iterations - 1 do
    (* Armed-guarded so the disarmed loop allocates nothing for the
       probe. *)
    if Profile.armed () then
      Profile.wrap "specdoctor/iteration" (fun () -> iteration it)
    else iteration it
  done;
  { sd_coverage_curve = curve;
    sd_candidates = List.rev !candidates;
    sd_iterations = iterations }
