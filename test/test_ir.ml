(* Tests for Dvz_ir: bit utilities, netlist construction, cycle simulation,
   demo circuits, and memory flattening. *)

open Dvz_ir
module N = Netlist

let test_bits_mask () =
  Alcotest.(check int) "mask 1" 1 (Bits.mask 1);
  Alcotest.(check int) "mask 8" 255 (Bits.mask 8);
  Alcotest.check_raises "mask 0" (Invalid_argument "Bits.mask: bad width")
    (fun () -> ignore (Bits.mask 0))

let test_bits_trunc () =
  Alcotest.(check int) "trunc" 0x34 (Bits.trunc 8 0x1234);
  Alcotest.(check int) "trunc negative" 0xFF (Bits.trunc 8 (-1))

let test_bits_bit () =
  Alcotest.(check int) "bit 0" 1 (Bits.bit 0b101 0);
  Alcotest.(check int) "bit 1" 0 (Bits.bit 0b101 1)

let test_bits_popcount () =
  Alcotest.(check int) "popcount" 3 (Bits.popcount 0b1011);
  Alcotest.(check int) "zero" 0 (Bits.popcount 0);
  Alcotest.(check int) "max_width ones" 62 (Bits.popcount (Bits.mask 62));
  (* Negative ints: all 63 two's-complement bits count. *)
  Alcotest.(check int) "minus one" 63 (Bits.popcount (-1));
  Alcotest.(check int) "min_int" 1 (Bits.popcount min_int)

(* Bit-at-a-time reference for the SWAR implementation. *)
let naive_popcount v =
  let c = ref 0 in
  for i = 0 to 62 do
    c := !c + ((v lsr i) land 1)
  done;
  !c

let prop_popcount_matches_naive =
  QCheck.Test.make ~name:"SWAR popcount equals bit-at-a-time reference"
    ~count:500 QCheck.int (fun v -> Bits.popcount v = naive_popcount v)

let test_bits_spread_up () =
  Alcotest.(check int) "spread from bit1" 0b11111110 (Bits.spread_up 8 0b10);
  Alcotest.(check int) "zero" 0 (Bits.spread_up 8 0)

(* A tiny combinational circuit: out = (a & b) | ~c. *)
let test_sim_comb () =
  let nl = N.create () in
  let a = N.input nl 4 and b = N.input nl 4 and c = N.input nl 4 in
  let out = N.or_ nl (N.and_ nl a b) (N.not_ nl c) in
  let sim = Sim.create nl in
  Sim.set_input sim a 0b1100;
  Sim.set_input sim b 0b1010;
  Sim.set_input sim c 0b0110;
  Sim.eval sim;
  Alcotest.(check int) "and-or-not" (0b1000 lor 0b1001) (Sim.peek sim out)

let test_sim_arith () =
  let nl = N.create () in
  let a = N.input nl 8 and b = N.input nl 8 in
  let sum = N.add nl a b in
  let diff = N.sub nl a b in
  let eq = N.eq nl a b in
  let lt = N.lt nl a b in
  let sim = Sim.create nl in
  Sim.set_input sim a 200;
  Sim.set_input sim b 100;
  Sim.eval sim;
  Alcotest.(check int) "add wraps" ((200 + 100) land 255) (Sim.peek sim sum);
  Alcotest.(check int) "sub" 100 (Sim.peek sim diff);
  Alcotest.(check int) "eq" 0 (Sim.peek sim eq);
  Alcotest.(check int) "lt" 0 (Sim.peek sim lt)

let test_sim_mux_select () =
  let nl = N.create () in
  let s = N.input nl 1 and a = N.input nl 8 and b = N.input nl 8 in
  let m = N.mux nl s a b in
  let sim = Sim.create nl in
  Sim.set_input sim a 11;
  Sim.set_input sim b 22;
  Sim.set_input sim s 0;
  Sim.eval sim;
  Alcotest.(check int) "s=0 selects a" 11 (Sim.peek sim m);
  Sim.set_input sim s 1;
  Sim.eval sim;
  Alcotest.(check int) "s=1 selects b" 22 (Sim.peek sim m)

let test_sim_slice_concat () =
  let nl = N.create () in
  let a = N.input nl 8 in
  let hi = N.slice nl a ~lo:4 ~width:4 in
  let lo = N.slice nl a ~lo:0 ~width:4 in
  let swapped = N.concat nl lo hi in
  let sim = Sim.create nl in
  Sim.set_input sim a 0xA5;
  Sim.eval sim;
  Alcotest.(check int) "nibble swap" 0x5A (Sim.peek sim swapped)

let test_sim_register_latch () =
  let c = Circuits.counter ~width:8 in
  let sim = Sim.create c.Circuits.cnt_nl in
  Sim.set_input sim c.Circuits.cnt_en 1;
  for _ = 1 to 5 do Sim.cycle sim done;
  Alcotest.(check int) "counted to 5" 5 (Sim.peek sim c.Circuits.cnt_q);
  Sim.set_input sim c.Circuits.cnt_en 0;
  for _ = 1 to 3 do Sim.cycle sim done;
  Alcotest.(check int) "enable gates" 5 (Sim.peek sim c.Circuits.cnt_q)

let test_sim_memory () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:16 () in
  let wen = N.input nl 1 and waddr = N.input nl 4 and wdata = N.input nl 8 in
  let raddr = N.input nl 4 in
  N.mem_write nl m ~wen ~addr:waddr ~data:wdata;
  let rdata = N.mem_read nl m raddr in
  let sim = Sim.create nl in
  Sim.set_input sim wen 1;
  Sim.set_input sim waddr 3;
  Sim.set_input sim wdata 0x7E;
  Sim.cycle sim;
  Sim.set_input sim wen 0;
  Sim.set_input sim raddr 3;
  Sim.eval sim;
  Alcotest.(check int) "write then read" 0x7E (Sim.peek sim rdata);
  Alcotest.(check int) "backdoor read" 0x7E (Sim.peek_mem sim m 3)

let test_unconnected_register_rejected () =
  let nl = N.create () in
  let _q = N.reg nl 4 in
  Alcotest.check_raises "unconnected"
    (Failure "Sim.create: unconnected register ") (fun () ->
      ignore (Sim.create nl))

(* Each memory has its own store, even when two share a name. *)
let test_same_named_memories_separate () =
  let nl = N.create () in
  let m1 = N.mem nl ~name:"m" ~width:8 ~depth:4 () in
  let m2 = N.mem nl ~name:"m" ~width:8 ~depth:4 () in
  let wen = N.input nl 1 and addr = N.input nl 2 and data = N.input nl 8 in
  N.mem_write nl m1 ~wen ~addr ~data;
  let r2 = N.mem_read nl m2 addr in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine nl in
      Sim.set_input sim wen 1;
      Sim.set_input sim addr 2;
      Sim.set_input sim data 0x5A;
      Sim.cycle sim;
      Sim.eval sim;
      Alcotest.(check int) "written memory" 0x5A (Sim.peek_mem sim m1 2);
      Alcotest.(check int) "same-named memory untouched" 0
        (Sim.peek_mem sim m2 2);
      Alcotest.(check int) "read port of the other memory" 0 (Sim.peek sim r2))
    [ `Compiled; `Interp ]

let test_width_mismatch_rejected () =
  let nl = N.create () in
  let a = N.input nl 4 and b = N.input nl 8 in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Netlist: operand widths differ") (fun () ->
      ignore (N.and_ nl a b))

let string_contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let expect_width_error ~role f =
  match f () with
  | exception N.Width_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the %s: %s" role msg)
        true (string_contains msg role)
  | _ -> Alcotest.fail "expected Netlist.Width_error"

(* Regression: a multi-bit selector holding e.g. 2 would have fallen into
   the engines' old [= 1] truthiness tests and silently picked the wrong
   arm; the builders now reject them by name. *)
let test_multibit_mux_select_rejected () =
  let nl = N.create () in
  let s = N.input nl ~name:"sel2" 2 in
  let a = N.input nl 8 and b = N.input nl 8 in
  expect_width_error ~role:"selector" (fun () -> ignore (N.mux nl s a b))

let test_multibit_reg_enable_rejected () =
  let nl = N.create () in
  let en = N.input nl ~name:"en2" 2 in
  let q = N.reg nl ~name:"q" 8 in
  let d = N.input nl 8 in
  expect_width_error ~role:"enable" (fun () ->
      N.reg_connect nl q ~d ~en ())

let test_multibit_mem_wen_rejected () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:8 () in
  let wen = N.input nl ~name:"wen2" 2 in
  let addr = N.input nl 3 and data = N.input nl 8 in
  expect_width_error ~role:"write enable" (fun () ->
      N.mem_write nl m ~wen ~addr ~data)

let test_validate_accepts_well_formed () =
  let rob = Circuits.rob ~entries:4 ~uopc_width:7 in
  N.validate rob.Circuits.rob_nl

let test_modules_and_scoping () =
  let nl = N.create () in
  N.scoped nl "top" (fun () ->
      ignore (N.input nl 1);
      N.scoped nl "sub" (fun () -> ignore (N.input nl 1)));
  let mods = N.modules nl in
  Alcotest.(check bool) "top present" true (List.mem "top" mods);
  Alcotest.(check bool) "nested tag" true (List.mem "top.sub" mods)

let test_rob_circuit_update () =
  let rob = Circuits.rob ~entries:4 ~uopc_width:7 in
  let sim = Sim.create rob.Circuits.rob_nl in
  let push op =
    Sim.set_input sim rob.Circuits.enq_valid 1;
    Sim.set_input sim rob.Circuits.enq_uopc op;
    Sim.set_input sim rob.Circuits.rollback 0;
    Sim.cycle sim
  in
  (* tail starts at 0: first enqueue writes entry 0 and bumps the tail *)
  push 0x11;
  push 0x22;
  Sim.eval sim;
  Alcotest.(check int) "entry0" 0x11 (Sim.peek sim rob.Circuits.uopc.(0));
  Alcotest.(check int) "entry1" 0x22 (Sim.peek sim rob.Circuits.uopc.(1));
  Alcotest.(check int) "tail at 2" 2 (Sim.peek sim rob.Circuits.tail)

let test_rob_rollback () =
  let rob = Circuits.rob ~entries:4 ~uopc_width:7 in
  let sim = Sim.create rob.Circuits.rob_nl in
  Sim.set_input sim rob.Circuits.enq_valid 1;
  Sim.set_input sim rob.Circuits.enq_uopc 0x1;
  Sim.set_input sim rob.Circuits.rollback 0;
  Sim.cycle sim;
  Sim.cycle sim;
  Sim.set_input sim rob.Circuits.enq_valid 0;
  Sim.set_input sim rob.Circuits.rollback 1;
  Sim.set_input sim rob.Circuits.rollback_idx 0;
  Sim.cycle sim;
  Sim.eval sim;
  Alcotest.(check int) "tail restored" 0 (Sim.peek sim rob.Circuits.tail)

let test_lfb_circuit () =
  let lfb = Circuits.lfb ~entries:4 ~data_width:8 in
  let sim = Sim.create lfb.Circuits.lfb_nl in
  Sim.set_input sim lfb.Circuits.fill_valid 1;
  Sim.set_input sim lfb.Circuits.fill_idx 1;
  Sim.set_input sim lfb.Circuits.fill_data 0x99;
  Sim.set_input sim lfb.Circuits.retire 0;
  Sim.cycle sim;
  Sim.eval sim;
  Alcotest.(check int) "data filled" 0x99 (Sim.peek sim lfb.Circuits.data.(1));
  Alcotest.(check int) "valid set" 1 (Sim.peek sim lfb.Circuits.valid.(1));
  Sim.set_input sim lfb.Circuits.fill_valid 0;
  Sim.set_input sim lfb.Circuits.retire 1;
  Sim.set_input sim lfb.Circuits.retire_idx 1;
  Sim.cycle sim;
  Sim.eval sim;
  Alcotest.(check int) "valid cleared" 0 (Sim.peek sim lfb.Circuits.valid.(1));
  Alcotest.(check int) "stale data remains" 0x99 (Sim.peek sim lfb.Circuits.data.(1))

(* Flattening: the flattened netlist must be cycle-for-cycle equivalent. *)
let test_flatten_equivalent () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:8 () in
  let wen = N.input nl 1 and waddr = N.input nl 3 and wdata = N.input nl 8 in
  let raddr = N.input nl 3 in
  N.mem_write nl m ~wen ~addr:waddr ~data:wdata;
  let rdata = N.mem_read nl m raddr in
  let flat, tr = Flatten.flatten_with_map nl in
  let sim = Sim.create nl and fsim = Sim.create flat in
  let rng = Dvz_util.Rng.create 77 in
  for _ = 1 to 200 do
    let we = Dvz_util.Rng.int rng 2 in
    let wa = Dvz_util.Rng.int rng 8 in
    let wd = Dvz_util.Rng.int rng 256 in
    let ra = Dvz_util.Rng.int rng 8 in
    Sim.set_input sim wen we;
    Sim.set_input sim waddr wa;
    Sim.set_input sim wdata wd;
    Sim.set_input sim raddr ra;
    Sim.set_input fsim (tr wen) we;
    Sim.set_input fsim (tr waddr) wa;
    Sim.set_input fsim (tr wdata) wd;
    Sim.set_input fsim (tr raddr) ra;
    Sim.eval sim;
    Sim.eval fsim;
    Alcotest.(check int) "read ports agree" (Sim.peek sim rdata)
      (Sim.peek fsim (tr rdata));
    Sim.step sim;
    Sim.step fsim
  done

let test_flatten_grows_cells () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:64 () in
  let wen = N.input nl 1 and waddr = N.input nl 6 and wdata = N.input nl 8 in
  N.mem_write nl m ~wen ~addr:waddr ~data:wdata;
  ignore (N.mem_read nl m waddr);
  let flat = Flatten.flatten nl in
  Alcotest.(check bool) "flattening inflates the cell count" true
    (N.num_signals flat > 4 * N.num_signals nl)

(* Random straight-line circuit programs for property testing. *)
let random_netlist seed =
  let rng = Dvz_util.Rng.create seed in
  let nl = N.create () in
  let inputs = Array.init 3 (fun _ -> N.input nl 8) in
  let pool = ref (Array.to_list inputs) in
  let pick () = Dvz_util.Rng.choose_list rng !pool in
  for _ = 1 to 20 do
    let a = pick () and b = pick () in
    let s =
      match Dvz_util.Rng.int rng 6 with
      | 0 -> N.and_ nl a b
      | 1 -> N.or_ nl a b
      | 2 -> N.xor_ nl a b
      | 3 -> N.add nl a b
      | 4 -> N.sub nl a b
      | _ -> N.not_ nl a
    in
    pool := s :: !pool
  done;
  (nl, inputs, List.hd !pool)

let prop_flatten_identity_no_mem =
  QCheck.Test.make ~name:"flatten is identity-equivalent without memories"
    ~count:30 QCheck.small_int (fun seed ->
      let nl, inputs, out = random_netlist seed in
      let flat, tr = Flatten.flatten_with_map nl in
      let sim = Sim.create nl and fsim = Sim.create flat in
      let rng = Dvz_util.Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 20 do
        Array.iter
          (fun i ->
            let v = Dvz_util.Rng.int rng 256 in
            Sim.set_input sim i v;
            Sim.set_input fsim (tr i) v)
          inputs;
        Sim.eval sim;
        Sim.eval fsim;
        if Sim.peek sim out <> Sim.peek fsim (tr out) then ok := false
      done;
      !ok)

let prop_xor_self_zero =
  QCheck.Test.make ~name:"x xor x evaluates to 0" ~count:100 QCheck.small_int
    (fun v ->
      let nl = N.create () in
      let a = N.input nl 8 in
      let z = N.xor_ nl a a in
      let sim = Sim.create nl in
      Sim.set_input sim a v;
      Sim.eval sim;
      Sim.peek sim z = 0)

(* --- compiled vs interpretive engine -------------------------------------- *)

(* The tentpole invariant: the compiled engine is bit-identical to the
   interpreter — every signal, every memory word, every tick. *)
let prop_engines_equivalent =
  QCheck.Test.make ~name:"compiled engine is bit-identical to interpreter"
    ~count:25 QCheck.small_int (fun seed ->
      let nl, inputs8, sel_in, m = Netlist_gen.random_seq_netlist seed in
      let c = Sim.create nl in
      let i = Sim.create ~engine:`Interp nl in
      let rng = Dvz_util.Rng.create (seed + 1000) in
      let ok = ref (Sim.engine c = `Compiled && Sim.engine i = `Interp) in
      for _ = 1 to 30 do
        Array.iter
          (fun s ->
            let v = Dvz_util.Rng.int rng 256 in
            Sim.set_input c s v;
            Sim.set_input i s v)
          inputs8;
        let sv = Dvz_util.Rng.int rng 2 in
        Sim.set_input c sel_in sv;
        Sim.set_input i sel_in sv;
        Sim.cycle c;
        Sim.cycle i;
        for k = 0 to N.num_signals nl - 1 do
          let s = N.signal_of_int nl k in
          if Sim.peek c s <> Sim.peek i s then ok := false
        done;
        for w = 0 to N.mem_depth m - 1 do
          if Sim.peek_mem c m w <> Sim.peek_mem i m w then ok := false
        done
      done;
      !ok && Sim.cycles c = Sim.cycles i)

(* The steady-state compiled cycle must not allocate: Gc.minor_words moves
   only by the float boxes of the probe calls themselves. *)
let test_compiled_cycle_allocation_free () =
  let rob = Circuits.rob ~entries:16 ~uopc_width:8 in
  let sim = Sim.create rob.Circuits.rob_nl in
  Sim.set_input sim rob.Circuits.enq_valid 1;
  Sim.set_input sim rob.Circuits.enq_uopc 0x2A;
  Sim.set_input sim rob.Circuits.rollback 0;
  Sim.set_input sim rob.Circuits.rollback_idx 0;
  for _ = 1 to 100 do Sim.cycle sim done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do Sim.cycle sim done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 compiled cycles allocated %.0f minor words" delta)
    true (delta < 64.0)

let test_hooks_run_in_registration_order () =
  let c = Circuits.counter ~width:8 in
  let sim = Sim.create c.Circuits.cnt_nl in
  Sim.set_input sim c.Circuits.cnt_en 1;
  let calls = ref [] in
  for h = 1 to 5 do
    Sim.on_cycle sim (fun n -> calls := (h, n) :: !calls)
  done;
  Sim.cycle sim;
  Sim.cycle sim;
  Alcotest.(check (list (pair int int)))
    "hooks fire in registration order with the new cycle count"
    [ (1, 1); (2, 1); (3, 1); (4, 1); (5, 1);
      (1, 2); (2, 2); (3, 2); (4, 2); (5, 2) ]
    (List.rev !calls)

(* Regression for the quadratic [hooks <- hooks @ [h]] append: registering
   many hooks and cycling must stay fast and keep order. *)
let test_many_hooks () =
  let c = Circuits.counter ~width:8 in
  let sim = Sim.create c.Circuits.cnt_nl in
  Sim.set_input sim c.Circuits.cnt_en 1;
  let count = ref 0 in
  for _ = 1 to 2_000 do
    Sim.on_cycle sim (fun _ -> incr count)
  done;
  Sim.cycle sim;
  Alcotest.(check int) "all hooks ran once" 2_000 !count

(* --- VCD ------------------------------------------------------------------ *)

let test_vcd_header_and_changes () =
  let c = Circuits.counter ~width:4 in
  let vcd =
    Vcd.dump_simulation c.Circuits.cnt_nl ~cycles:5 ~drive:(fun sim _ ->
        Sim.set_input sim c.Circuits.cnt_en 1)
  in
  let contains sub =
    let n = String.length sub and m = String.length vcd in
    let rec go i = i + n <= m && (String.sub vcd i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions");
  Alcotest.(check bool) "declares q" true (contains " q ");
  Alcotest.(check bool) "scope from module tag" true
    (contains "$scope module counter");
  Alcotest.(check bool) "binary values" true (contains "b0011");
  Alcotest.(check bool) "timestamps" true (contains "#4")

let test_vcd_only_changes_dumped () =
  let c = Circuits.counter ~width:4 in
  let vcd =
    Vcd.dump_simulation c.Circuits.cnt_nl ~cycles:6 ~drive:(fun sim _ ->
        Sim.set_input sim c.Circuits.cnt_en 0)
  in
  (* with the counter disabled, q never changes after time 0: at most the
     initial dump plus the final timestamp *)
  let q_lines =
    List.filter
      (fun l -> String.length l > 0 && l.[0] = 'b')
      (String.split_on_char '\n' vcd)
  in
  Alcotest.(check int) "single value record for q" 1 (List.length q_lines)

let test_vcd_engines_agree () =
  let c = Circuits.counter ~width:4 in
  let drive sim i =
    Sim.set_input sim c.Circuits.cnt_en (if i < 6 then 1 else 0)
  in
  let compiled = Vcd.dump_simulation c.Circuits.cnt_nl ~cycles:8 ~drive in
  let interp =
    Vcd.dump_simulation ~engine:`Interp c.Circuits.cnt_nl ~cycles:8 ~drive
  in
  Alcotest.(check string) "identical waveforms from both engines" compiled
    interp

let () =
  Alcotest.run "dvz_ir"
    [ ( "bits",
        [ Alcotest.test_case "mask" `Quick test_bits_mask;
          Alcotest.test_case "trunc" `Quick test_bits_trunc;
          Alcotest.test_case "bit" `Quick test_bits_bit;
          Alcotest.test_case "popcount" `Quick test_bits_popcount;
          QCheck_alcotest.to_alcotest prop_popcount_matches_naive;
          Alcotest.test_case "spread_up" `Quick test_bits_spread_up ] );
      ( "sim",
        [ Alcotest.test_case "combinational" `Quick test_sim_comb;
          Alcotest.test_case "arithmetic" `Quick test_sim_arith;
          Alcotest.test_case "mux" `Quick test_sim_mux_select;
          Alcotest.test_case "slice/concat" `Quick test_sim_slice_concat;
          Alcotest.test_case "register latch" `Quick test_sim_register_latch;
          Alcotest.test_case "memory" `Quick test_sim_memory;
          Alcotest.test_case "unconnected register" `Quick
            test_unconnected_register_rejected;
          Alcotest.test_case "same-named memories stay separate" `Quick
            test_same_named_memories_separate;
          Alcotest.test_case "width mismatch" `Quick test_width_mismatch_rejected;
          Alcotest.test_case "multi-bit mux select" `Quick
            test_multibit_mux_select_rejected;
          Alcotest.test_case "multi-bit reg enable" `Quick
            test_multibit_reg_enable_rejected;
          Alcotest.test_case "multi-bit mem wen" `Quick
            test_multibit_mem_wen_rejected;
          Alcotest.test_case "validate accepts well-formed" `Quick
            test_validate_accepts_well_formed;
          Alcotest.test_case "module scoping" `Quick test_modules_and_scoping;
          QCheck_alcotest.to_alcotest prop_xor_self_zero ] );
      ( "engine",
        [ QCheck_alcotest.to_alcotest prop_engines_equivalent;
          Alcotest.test_case "compiled cycle allocation-free" `Quick
            test_compiled_cycle_allocation_free;
          Alcotest.test_case "hook order" `Quick
            test_hooks_run_in_registration_order;
          Alcotest.test_case "many hooks" `Quick test_many_hooks ] );
      ( "circuits",
        [ Alcotest.test_case "rob update" `Quick test_rob_circuit_update;
          Alcotest.test_case "rob rollback" `Quick test_rob_rollback;
          Alcotest.test_case "lfb decoy" `Quick test_lfb_circuit ] );
      ( "vcd",
        [ Alcotest.test_case "header and changes" `Quick test_vcd_header_and_changes;
          Alcotest.test_case "change-only dumping" `Quick
            test_vcd_only_changes_dumped;
          Alcotest.test_case "engines agree" `Quick test_vcd_engines_agree ] );
      ( "flatten",
        [ Alcotest.test_case "memory equivalence" `Quick test_flatten_equivalent;
          Alcotest.test_case "cell inflation" `Quick test_flatten_grows_cells;
          QCheck_alcotest.to_alcotest prop_flatten_identity_no_mem ] ) ]
