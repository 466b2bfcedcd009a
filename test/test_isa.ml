(* Tests for Dvz_isa: registers, instruction classification, encoding and
   decoding, the assembler, ALU semantics and the golden model. *)

open Dvz_isa
module Rng = Dvz_util.Rng

(* --- registers ----------------------------------------------------------- *)

let test_reg_range () =
  Alcotest.(check int) "x0" 0 (Reg.to_int Reg.zero);
  Alcotest.(check int) "ra" 1 (Reg.to_int Reg.ra);
  Alcotest.check_raises "x32 rejected" (Invalid_argument "Reg.x: out of range")
    (fun () -> ignore (Reg.x 32))

let test_reg_names () =
  Alcotest.(check string) "ra name" "ra" (Reg.name Reg.ra);
  Alcotest.(check string) "x29 name" "x29" (Reg.name (Reg.x 29))

(* --- classification ------------------------------------------------------ *)

let test_insn_classify () =
  let ret = Insn.Jalr (Reg.zero, Reg.ra, 0) in
  let call = Insn.Jalr (Reg.ra, Reg.t0, 0) in
  let jump = Insn.Jalr (Reg.zero, Reg.t0, 0) in
  Alcotest.(check bool) "ret is return" true (Insn.is_return ret);
  Alcotest.(check bool) "call is call" true (Insn.is_call call);
  Alcotest.(check bool) "call not return" false (Insn.is_return call);
  Alcotest.(check bool) "jump indirect" true (Insn.is_indirect jump);
  Alcotest.(check bool) "jal is call" true (Insn.is_call (Insn.Jal (Reg.ra, 8)));
  Alcotest.(check bool) "branch is control" true
    (Insn.is_control (Insn.Branch (Insn.Eq, Reg.t0, Reg.t1, 8)))

let test_insn_reads_writes () =
  let load = Insn.Load (Insn.D, false, Reg.a0, Reg.t0, 8) in
  Alcotest.(check bool) "load writes a0" true (Insn.writes load = Some Reg.a0);
  Alcotest.(check int) "load reads t0" 1 (List.length (Insn.reads load));
  let store = Insn.Store (Insn.W, Reg.a1, Reg.t0, 0) in
  Alcotest.(check bool) "store writes nothing" true (Insn.writes store = None);
  Alcotest.(check int) "store reads 2" 2 (List.length (Insn.reads store));
  let zero_dst = Insn.Opi (Insn.Addi, Reg.zero, Reg.t0, 1) in
  Alcotest.(check bool) "x0 destination elided" true (Insn.writes zero_dst = None)

let test_insn_may_fault () =
  Alcotest.(check bool) "load may fault" true
    (Insn.may_fault (Insn.Load (Insn.D, false, Reg.a0, Reg.t0, 0)));
  Alcotest.(check bool) "add may not" false
    (Insn.may_fault (Insn.Op (Insn.Add, Reg.a0, Reg.t0, Reg.t1)))

(* --- encode/decode ------------------------------------------------------- *)

let insn_testable =
  Alcotest.testable
    (fun fmt i -> Format.pp_print_string fmt (Insn.to_string i))
    ( = )

let roundtrip i = Decode.decode (Encode.encode i)

let test_encode_known_values () =
  (* addi x0,x0,0 is the canonical nop 0x00000013 *)
  Alcotest.(check int) "nop" 0x00000013 (Encode.encode Insn.nop);
  Alcotest.(check int) "ecall" 0x00000073 (Encode.encode Insn.Ecall);
  Alcotest.(check int) "ebreak" 0x00100073 (Encode.encode Insn.Ebreak);
  Alcotest.(check int) "mret" 0x30200073 (Encode.encode Insn.Mret);
  (* add x3,x1,x2 = 0x002081b3 *)
  Alcotest.(check int) "add" 0x002081B3
    (Encode.encode (Insn.Op (Insn.Add, Reg.x 3, Reg.x 1, Reg.x 2)));
  (* ld a0, 16(sp) = 0x01013503 *)
  Alcotest.(check int) "ld" 0x01013503
    (Encode.encode (Insn.Load (Insn.D, false, Reg.a0, Reg.sp, 16)))

let test_roundtrip_samples () =
  let samples =
    [ Insn.Lui (Reg.a0, 0x12345);
      Insn.Auipc (Reg.t0, 0xFFFFF);
      Insn.Op (Insn.Sub, Reg.a0, Reg.a1, Reg.a2);
      Insn.Op (Insn.Mul, Reg.t0, Reg.t1, Reg.t2);
      Insn.Opi (Insn.Addi, Reg.s0, Reg.s1, -2048);
      Insn.Opi (Insn.Srai, Reg.s0, Reg.s1, 63);
      Insn.Opi (Insn.Slli, Reg.s0, Reg.s1, 40);
      Insn.Load (Insn.B, true, Reg.a0, Reg.t0, 2047);
      Insn.Load (Insn.W, false, Reg.a0, Reg.t0, -1);
      Insn.Store (Insn.H, Reg.a1, Reg.sp, -32);
      Insn.Branch (Insn.Geu, Reg.t0, Reg.t1, -4096);
      Insn.Jal (Reg.ra, 1048574);
      Insn.Jalr (Reg.zero, Reg.ra, 0);
      Insn.Fdiv (Reg.a0, Reg.a1, Reg.a2);
      Insn.Csr (Insn.Csrrw, Reg.a0, Insn.Mscratch, Reg.a1);
      Insn.Csr (Insn.Csrrs, Reg.a0, Insn.Mepc, Reg.zero);
      Insn.Csr (Insn.Csrrc, Reg.zero, Insn.Mcause, Reg.t0);
      Insn.Fence_i; Insn.Ecall; Insn.Ebreak; Insn.Mret ]
  in
  List.iter
    (fun i -> Alcotest.check insn_testable (Insn.to_string i) i (roundtrip i))
    samples

let test_encode_rejects_bad_imm () =
  Alcotest.check_raises "imm13" (Invalid_argument "Encode: bad imm12")
    (fun () -> ignore (Encode.encode (Insn.Opi (Insn.Addi, Reg.a0, Reg.a0, 4096))))

let test_decode_illegal () =
  match Decode.decode 0xFFFFFFFF with
  | Insn.Illegal _ -> ()
  | i -> Alcotest.failf "expected illegal, got %s" (Insn.to_string i)

let random_insn rng =
  let r n = Reg.x (Rng.int rng n) in
  match Rng.int rng 10 with
  | 0 -> Insn.Lui (r 32, Rng.int rng (1 lsl 20))
  | 1 ->
      let ops = [| Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor; Insn.Sll;
                   Insn.Srl; Insn.Sra; Insn.Slt; Insn.Sltu; Insn.Mul; Insn.Div |] in
      Insn.Op (Rng.choose rng ops, r 32, r 32, r 32)
  | 2 ->
      let ops = [| Insn.Addi; Insn.Andi; Insn.Ori; Insn.Xori; Insn.Slti; Insn.Sltiu |] in
      Insn.Opi (Rng.choose rng ops, r 32, r 32, Rng.int_in rng (-2048) 2047)
  | 3 ->
      let w = Rng.choose rng [| Insn.B; Insn.H; Insn.W; Insn.D |] in
      let u = w <> Insn.D && Rng.bool rng in
      Insn.Load (w, u, r 32, r 32, Rng.int_in rng (-2048) 2047)
  | 4 ->
      let w = Rng.choose rng [| Insn.B; Insn.H; Insn.W; Insn.D |] in
      Insn.Store (w, r 32, r 32, Rng.int_in rng (-2048) 2047)
  | 5 ->
      let c = Rng.choose rng [| Insn.Eq; Insn.Ne; Insn.Lt; Insn.Ge; Insn.Ltu; Insn.Geu |] in
      Insn.Branch (c, r 32, r 32, 2 * Rng.int_in rng (-2048) 2047)
  | 6 -> Insn.Jal (r 32, 2 * Rng.int_in rng (-524288) 524287)
  | 7 -> Insn.Jalr (r 32, r 32, Rng.int_in rng (-2048) 2047)
  | 8 -> Insn.Fdiv (r 32, r 32, r 32)
  | _ -> Insn.Opi (Rng.choose rng [| Insn.Slli; Insn.Srli; Insn.Srai |], r 32, r 32, Rng.int rng 64)

let prop_roundtrip =
  QCheck.Test.make ~name:"decode(encode i) = i" ~count:2000 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let i = random_insn rng in
      roundtrip i = i)

(* --- assembler ----------------------------------------------------------- *)

let test_asm_forward_label () =
  let prog =
    [ Asm.Branch_to (Insn.Eq, Reg.t0, Reg.t1, "skip");
      Asm.I Insn.nop;
      Asm.L "skip";
      Asm.I Insn.Ebreak ]
  in
  let words, labels = Asm.assemble ~base:0x1000 prog in
  Alcotest.(check int) "3 words" 3 (Array.length words);
  Alcotest.(check int) "label addr" 0x1008 (Asm.label_addr labels "skip");
  (match Decode.decode words.(0) with
  | Insn.Branch (Insn.Eq, _, _, off) -> Alcotest.(check int) "offset" 8 off
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i))

let test_asm_backward_jal () =
  let prog =
    [ Asm.L "loop"; Asm.I Insn.nop; Asm.Jal_to (Reg.zero, "loop") ]
  in
  let words, _ = Asm.assemble ~base:0 prog in
  match Decode.decode words.(1) with
  | Insn.Jal (_, off) -> Alcotest.(check int) "backward" (-4) off
  | i -> Alcotest.failf "unexpected %s" (Insn.to_string i)

let test_asm_la () =
  let prog = [ Asm.La (Reg.a0, "data"); Asm.I Insn.Ebreak; Asm.L "data" ] in
  let words, labels = Asm.assemble ~base:0x2000 prog in
  Alcotest.(check int) "3 words" 3 (Array.length words);
  Alcotest.(check int) "data label" 0x200C (Asm.label_addr labels "data");
  (* execute the auipc/addi pair on the golden model to check the value *)
  let mem = Dvz_soc.Phys_mem.create () in
  Dvz_soc.Phys_mem.write_words mem 0x2000 words;
  let g = Golden.create ~pc:0x2000 (Dvz_soc.Phys_mem.golden_memory mem) in
  ignore (Golden.step g);
  ignore (Golden.step g);
  Alcotest.(check int) "a0 holds label address" 0x200C (Golden.reg g Reg.a0)

let test_asm_duplicate_label () =
  Alcotest.check_raises "duplicate" (Failure "Asm: duplicate label x")
    (fun () -> ignore (Asm.assemble ~base:0 [ Asm.L "x"; Asm.L "x" ]))

let test_asm_undefined_label () =
  Alcotest.check_raises "undefined" (Failure "Asm: undefined label nowhere")
    (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.Jal_to (Reg.zero, "nowhere") ]))

let test_asm_size () =
  let prog = [ Asm.I Insn.nop; Asm.L "l"; Asm.La (Reg.a0, "l"); Asm.Raw 0 ] in
  Alcotest.(check int) "size" 16 (Asm.size_bytes prog)

(* --- assembler text parser ------------------------------------------------ *)

let test_parser_program () =
  let src = {|
start:
    addi  t0, zero, 5
    la    a0, data
    ld    t1, 8(a0)       # a load with a memory operand
    beq   t0, t1, done
    jal   ra, start
    fence.i
    .word 0xdeadbeef
done:
    ebreak
data:
|} in
  let prog = Asm_parser.parse_exn src in
  let words, labels = Asm.assemble ~base:0x1000 prog in
  Alcotest.(check int) "nine words (la is two)" 9 (Array.length words);
  Alcotest.(check bool) "labels resolved" true
    (Asm.label_addr labels "done" > Asm.label_addr labels "start");
  Alcotest.(check int) "raw word" 0xdeadbeef words.(7)

let test_parser_pseudo_ops () =
  let prog = Asm_parser.parse_exn "nop
ret
li t0, -7
j 8" in
  Alcotest.(check int) "four items" 4 (List.length prog);
  (match prog with
  | [ Asm.I a; Asm.I b; Asm.I c; Asm.I d ] ->
      Alcotest.(check bool) "nop" true (a = Insn.nop);
      Alcotest.(check bool) "ret" true (Insn.is_return b);
      Alcotest.(check bool) "li" true
        (c = Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, -7));
      Alcotest.(check bool) "j" true (d = Insn.Jal (Reg.zero, 8))
  | _ -> Alcotest.fail "unexpected program shape")

let test_parser_registers () =
  let prog = Asm_parser.parse_exn "add x31, s11, a7" in
  match prog with
  | [ Asm.I (Insn.Op (Insn.Add, rd, rs1, rs2)) ] ->
      Alcotest.(check int) "x31" 31 (Reg.to_int rd);
      Alcotest.(check int) "s11" 27 (Reg.to_int rs1);
      Alcotest.(check int) "a7" 17 (Reg.to_int rs2)
  | _ -> Alcotest.fail "parse failed"

let test_parser_errors () =
  (match Asm_parser.parse "frobnicate t0" with
  | Error m ->
      Alcotest.(check bool) "mentions line" true
        (String.length m > 0 && String.sub m 0 4 = "line")
  | Ok _ -> Alcotest.fail "expected error");
  match Asm_parser.parse "addi t0, zero" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "arity error expected"

let prop_parser_roundtrips_disassembly =
  QCheck.Test.make ~name:"parse (to_string i) = i" ~count:1000
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let i = random_insn rng in
      match Asm_parser.parse (Insn.to_string i) with
      | Ok [ Asm.I j ] -> j = i
      | Ok [ Asm.Raw w ] -> (match i with Insn.Illegal _ -> w = Encode.encode i | _ -> false)
      | _ -> false)

(* --- ALU semantics ------------------------------------------------------- *)

(* t0's value after [Golden.exec] runs [insn] at [pc] on a register file
   holding [a] in a0 and [b] in a1. *)
let exec_rd ?(pc = 0x1000) ?(a = 0) ?(b = 0) insn =
  let regs = Array.make 32 0 in
  regs.(Reg.to_int Reg.a0) <- a;
  regs.(Reg.to_int Reg.a1) <- b;
  ignore (Golden.exec regs ~pc insn);
  regs.(Reg.to_int Reg.t0)

let alu op a b = exec_rd ~a ~b (Insn.Op (op, Reg.t0, Reg.a0, Reg.a1))

let test_alu_basics () =
  Alcotest.(check int) "add" 7 (alu Insn.Add 3 4);
  Alcotest.(check int) "sub" (-1) (alu Insn.Sub 3 4);
  Alcotest.(check int) "sll uses low 6 bits" 6 (alu Insn.Sll 3 65);
  Alcotest.(check int) "sra sign" (-2) (alu Insn.Sra (-4) 1);
  Alcotest.(check int) "slt" 1 (alu Insn.Slt (-1) 0);
  Alcotest.(check int) "sltu unsigned" 0 (alu Insn.Sltu (-1) 0);
  Alcotest.(check int) "div by zero" (-1) (alu Insn.Div 5 0);
  Alcotest.(check int) "lui sign-extends bit 31" (-0x80000000)
    (exec_rd (Insn.Lui (Reg.t0, 0x80000)));
  Alcotest.(check int) "auipc adds pc" 0x3000
    (exec_rd ~pc:0x1000 (Insn.Auipc (Reg.t0, 2)))

let test_cond_holds () =
  Alcotest.(check bool) "ltu treats -1 as big" false
    (Golden.cond_holds Insn.Ltu (-1) 1);
  Alcotest.(check bool) "geu" true (Golden.cond_holds Insn.Geu (-1) 1);
  Alcotest.(check bool) "ge signed" false (Golden.cond_holds Insn.Ge (-1) 1)

let test_sign_extend () =
  Alcotest.(check int) "byte" (-1) (Golden.load_value Insn.B false 0xFF);
  Alcotest.(check int) "positive" 0x7F (Golden.load_value Insn.B false 0x7F);
  Alcotest.(check int) "unsigned" 0xFF (Golden.load_value Insn.B true 0xFF);
  Alcotest.(check int) "word" (-2) (Golden.load_value Insn.W false 0xFFFFFFFE)

(* --- golden model -------------------------------------------------------- *)

let fresh_golden ?(pc = 0x1000) words =
  let mem = Dvz_soc.Phys_mem.create () in
  Dvz_soc.Phys_mem.write_words mem pc (Array.of_list (List.map Encode.encode words));
  (Golden.create ~pc (Dvz_soc.Phys_mem.golden_memory mem), mem)

let test_golden_csr () =
  (* machine mode: csrrw swaps, csrrs reads, user mode traps *)
  let g, _ =
    fresh_golden
      [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 0x55);
        Insn.Csr (Insn.Csrrw, Reg.t1, Insn.Mscratch, Reg.t0);
        Insn.Csr (Insn.Csrrs, Reg.t2, Insn.Mscratch, Reg.zero) ]
  in
  ignore (Golden.step g);
  ignore (Golden.step g);
  Alcotest.(check int) "old value read" 0 (Golden.reg g Reg.t1);
  ignore (Golden.step g);
  Alcotest.(check int) "written value read back" 0x55 (Golden.reg g Reg.t2)

let test_golden_csr_user_traps () =
  let mem = Dvz_soc.Phys_mem.create () in
  Dvz_soc.Phys_mem.write_words mem 0x1000
    [| Encode.encode (Insn.Csr (Insn.Csrrs, Reg.t0, Insn.Mcause, Reg.zero)) |];
  let g =
    Golden.create ~pc:0x1000 ~priv:Golden.User
      (Dvz_soc.Phys_mem.golden_memory mem)
  in
  let s = Golden.step g in
  Alcotest.(check bool) "user csr access is illegal" true
    (s.Golden.s_trap = Some Trap.Illegal_instruction)

let test_parser_csr () =
  match Asm_parser.parse_exn "csrrs t0, mepc, zero" with
  | [ Asm.I (Insn.Csr (Insn.Csrrs, rd, Insn.Mepc, rs)) ] ->
      Alcotest.(check int) "rd" 5 (Reg.to_int rd);
      Alcotest.(check int) "rs" 0 (Reg.to_int rs)
  | _ -> Alcotest.fail "csr parse failed"

let test_golden_arith_sequence () =
  let g, _ =
    fresh_golden
      [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 21);
        Insn.Op (Insn.Add, Reg.t1, Reg.t0, Reg.t0);
        Insn.Op (Insn.Mul, Reg.t2, Reg.t1, Reg.t0) ]
  in
  ignore (Golden.step g);
  ignore (Golden.step g);
  ignore (Golden.step g);
  Alcotest.(check int) "t1 = 42" 42 (Golden.reg g Reg.t1);
  Alcotest.(check int) "t2 = 882" 882 (Golden.reg g Reg.t2)

let test_golden_x0_immutable () =
  let g, _ = fresh_golden [ Insn.Opi (Insn.Addi, Reg.zero, Reg.zero, 5) ] in
  ignore (Golden.step g);
  Alcotest.(check int) "x0 stays 0" 0 (Golden.reg g Reg.zero)

let test_golden_load_sign_extension () =
  let g, mem =
    fresh_golden
      [ Insn.Lui (Reg.t0, 2);  (* t0 = 0x2000 *)
        Insn.Load (Insn.B, false, Reg.t1, Reg.t0, 0);
        Insn.Load (Insn.B, true, Reg.t2, Reg.t0, 0) ]
  in
  Dvz_soc.Phys_mem.write_byte mem 0x2000 0x80;
  ignore (Golden.step g);
  ignore (Golden.step g);
  ignore (Golden.step g);
  Alcotest.(check int) "lb sign extends" (-128) (Golden.reg g Reg.t1);
  Alcotest.(check int) "lbu zero extends" 128 (Golden.reg g Reg.t2)

let test_golden_store_load () =
  let g, mem =
    fresh_golden
      [ Insn.Lui (Reg.t0, 2);  (* t0 = 0x2000 *)
        Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, 0x123);
        Insn.Store (Insn.D, Reg.t1, Reg.t0, 8);
        Insn.Load (Insn.D, false, Reg.t2, Reg.t0, 8) ]
  in
  for _ = 1 to 4 do ignore (Golden.step g) done;
  Alcotest.(check int) "memory value" 0x123
    (Dvz_soc.Phys_mem.read mem ~addr:0x2008 ~size:8);
  Alcotest.(check int) "loaded back" 0x123 (Golden.reg g Reg.t2)

let test_golden_branch () =
  let g, _ =
    fresh_golden
      [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
        Insn.Branch (Insn.Ne, Reg.t0, Reg.zero, 8);
        Insn.Opi (Insn.Addi, Reg.t1, Reg.zero, 99);  (* skipped *)
        Insn.Opi (Insn.Addi, Reg.t2, Reg.zero, 7) ]
  in
  ignore (Golden.step g);
  let s = Golden.step g in
  Alcotest.(check bool) "taken" true (s.Golden.s_taken = Some true);
  ignore (Golden.step g);
  Alcotest.(check int) "skipped insn" 0 (Golden.reg g Reg.t1);
  Alcotest.(check int) "target executed" 7 (Golden.reg g Reg.t2)

let test_golden_jal_jalr () =
  let g, _ =
    fresh_golden
      [ Insn.Jal (Reg.ra, 8);                (* 0x1000 -> 0x1008, ra=0x1004 *)
        Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
        Insn.Jalr (Reg.zero, Reg.ra, 0) ]    (* 0x1008: return to 0x1004 *)
  in
  let s1 = Golden.step g in
  Alcotest.(check bool) "jal target" true (s1.Golden.s_target = Some 0x1008);
  Alcotest.(check int) "link" 0x1004 (Golden.reg g Reg.ra);
  let s2 = Golden.step g in
  Alcotest.(check bool) "ret to 0x1004" true (s2.Golden.s_target = Some 0x1004);
  ignore (Golden.step g);
  Alcotest.(check int) "t0 executed after return" 1 (Golden.reg g Reg.t0)

let test_golden_misalign_trap () =
  let g, _ =
    fresh_golden
      [ Insn.Lui (Reg.t0, 2);  (* t0 = 0x2000 *)
        Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 1) ]
  in
  ignore (Golden.step g);
  let s = Golden.step g in
  Alcotest.(check bool) "misalign trap" true
    (s.Golden.s_trap = Some Trap.Load_misalign);
  Alcotest.(check int) "vectored to mtvec" 0 (Golden.pc g);
  Alcotest.(check int) "mcause" (Trap.code Trap.Load_misalign) (Golden.mcause g);
  Alcotest.(check int) "mepc" 0x1004 (Golden.mepc g)

let test_golden_privilege () =
  (* a user-mode access to a machine-only page faults *)
  let mem = Dvz_soc.Phys_mem.create () in
  let words =
    Array.of_list
      (List.map Encode.encode
         [ Insn.Lui (Reg.t0, 3);  (* t0 = 0x3000 *)
           Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ])
  in
  Dvz_soc.Phys_mem.write_words mem 0x1000 words;
  Dvz_soc.Phys_mem.set_perm mem 0x3000 (Dvz_soc.Perm.priv_only Dvz_soc.Perm.rw);
  let g =
    Golden.create ~pc:0x1000 ~priv:Golden.User
      (Dvz_soc.Phys_mem.golden_memory mem)
  in
  ignore (Golden.step g);
  let s = Golden.step g in
  Alcotest.(check bool) "access fault" true
    (s.Golden.s_trap = Some Trap.Load_access_fault);
  Alcotest.(check bool) "now machine mode" true (Golden.priv g = Golden.Machine)

let test_golden_illegal () =
  let mem = Dvz_soc.Phys_mem.create () in
  Dvz_soc.Phys_mem.write_words mem 0x1000 [| 0xFFFFFFFF |];
  let g = Golden.create ~pc:0x1000 (Dvz_soc.Phys_mem.golden_memory mem) in
  let s = Golden.step g in
  Alcotest.(check bool) "illegal trap" true
    (s.Golden.s_trap = Some Trap.Illegal_instruction)

let test_golden_run_stop () =
  let g, _ =
    fresh_golden
      [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 1);
        Insn.Opi (Insn.Addi, Reg.t0, Reg.t0, 1);
        Insn.Ebreak ]
  in
  let trace = Golden.run g ~stop:(fun g -> Golden.mcause g <> 0) () in
  Alcotest.(check int) "three steps" 3 (List.length trace);
  Alcotest.(check int) "t0" 2 (Golden.reg g Reg.t0)

let test_golden_copy_isolated () =
  let g, _ = fresh_golden [ Insn.Opi (Insn.Addi, Reg.t0, Reg.zero, 5) ] in
  let snap = Golden.copy g in
  ignore (Golden.step g);
  Alcotest.(check int) "original advanced" 5 (Golden.reg g Reg.t0);
  Alcotest.(check int) "copy unchanged" 0 (Golden.reg snap Reg.t0)

let prop_golden_deterministic =
  QCheck.Test.make ~name:"golden model is deterministic" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let insns = List.init 20 (fun _ -> random_insn rng) in
      let run () =
        let mem = Dvz_soc.Phys_mem.create () in
        Dvz_soc.Phys_mem.write_words mem 0x1000
          (Array.of_list (List.map Encode.encode insns));
        let g = Golden.create ~pc:0x1000 (Dvz_soc.Phys_mem.golden_memory mem) in
        let trace =
          Golden.run g ~fuel:50 ~stop:(fun g -> Golden.mcause g <> 0) ()
        in
        List.map (fun s -> (s.Golden.s_pc, s.Golden.s_next_pc)) trace
      in
      run () = run ())

let () =
  Alcotest.run "dvz_isa"
    [ ( "reg",
        [ Alcotest.test_case "range" `Quick test_reg_range;
          Alcotest.test_case "names" `Quick test_reg_names ] );
      ( "insn",
        [ Alcotest.test_case "classification" `Quick test_insn_classify;
          Alcotest.test_case "reads/writes" `Quick test_insn_reads_writes;
          Alcotest.test_case "may_fault" `Quick test_insn_may_fault ] );
      ( "encode/decode",
        [ Alcotest.test_case "known encodings" `Quick test_encode_known_values;
          Alcotest.test_case "roundtrip samples" `Quick test_roundtrip_samples;
          Alcotest.test_case "imm range check" `Quick test_encode_rejects_bad_imm;
          Alcotest.test_case "illegal word" `Quick test_decode_illegal;
          QCheck_alcotest.to_alcotest prop_roundtrip ] );
      ( "asm",
        [ Alcotest.test_case "forward label" `Quick test_asm_forward_label;
          Alcotest.test_case "backward jal" `Quick test_asm_backward_jal;
          Alcotest.test_case "la" `Quick test_asm_la;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "size" `Quick test_asm_size ] );
      ( "asm_parser",
        [ Alcotest.test_case "program" `Quick test_parser_program;
          Alcotest.test_case "pseudo ops" `Quick test_parser_pseudo_ops;
          Alcotest.test_case "registers" `Quick test_parser_registers;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          QCheck_alcotest.to_alcotest prop_parser_roundtrips_disassembly ] );
      ( "alu",
        [ Alcotest.test_case "basics" `Quick test_alu_basics;
          Alcotest.test_case "conditions" `Quick test_cond_holds;
          Alcotest.test_case "sign extension" `Quick test_sign_extend ] );
      ( "golden",
        [ Alcotest.test_case "arithmetic" `Quick test_golden_arith_sequence;
          Alcotest.test_case "x0 immutable" `Quick test_golden_x0_immutable;
          Alcotest.test_case "load sign extension" `Quick
            test_golden_load_sign_extension;
          Alcotest.test_case "store/load" `Quick test_golden_store_load;
          Alcotest.test_case "branch" `Quick test_golden_branch;
          Alcotest.test_case "jal/jalr" `Quick test_golden_jal_jalr;
          Alcotest.test_case "misalign trap" `Quick test_golden_misalign_trap;
          Alcotest.test_case "privilege" `Quick test_golden_privilege;
          Alcotest.test_case "illegal" `Quick test_golden_illegal;
          Alcotest.test_case "run/stop" `Quick test_golden_run_stop;
          Alcotest.test_case "copy isolation" `Quick test_golden_copy_isolated;
          Alcotest.test_case "csr semantics" `Quick test_golden_csr;
          Alcotest.test_case "csr privilege" `Quick test_golden_csr_user_traps;
          Alcotest.test_case "csr parsing" `Quick test_parser_csr;
          QCheck_alcotest.to_alcotest prop_golden_deterministic ] ) ]
