(* Tests for Dvz_ift: propagation policies, dual-DUT shadow co-simulation,
   the diffIFT/CellIFT distinction, liveness annotations, and taint logs. *)

open Dvz_ir
module N = Netlist
module Policy = Dvz_ift.Policy
module Shadow = Dvz_ift.Shadow
module Liveness = Dvz_ift.Liveness
module Taintlog = Dvz_ift.Taintlog
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Provenance = Dvz_ift.Provenance

(* --- policy unit tests --------------------------------------------------- *)

let test_and_policy () =
  (* Policy 1: O_and_t = (A & Bt) | (B & At) | (At & Bt) *)
  Alcotest.(check int) "zero masks taint" 0
    (Policy.and_taint ~a:0 ~b:1 ~at:0 ~bt:1);
  Alcotest.(check int) "one passes taint" 1
    (Policy.and_taint ~a:1 ~b:1 ~at:0 ~bt:1);
  Alcotest.(check int) "both tainted" 1
    (Policy.and_taint ~a:0 ~b:0 ~at:1 ~bt:1)

let test_or_policy () =
  Alcotest.(check int) "one masks taint" 0
    (Policy.or_taint ~a:1 ~b:0 ~at:0 ~bt:1);
  Alcotest.(check int) "zero passes taint" 1
    (Policy.or_taint ~a:0 ~b:0 ~at:0 ~bt:1)

let test_mux_policy_cellift () =
  (* tainted selector always propagates control taint under CellIFT *)
  let t =
    Policy.mux_taint Policy.Cellift ~width:8 ~s:0 ~s_diff:false ~a:0xAA ~b:0x55
      ~st:1 ~at:0 ~bt:0 ~ab_xor:0xFF
  in
  Alcotest.(check int) "cellift control taint" 0xFF t

let test_mux_policy_diffift_suppressed () =
  let t =
    Policy.mux_taint Policy.Diffift ~width:8 ~s:0 ~s_diff:false ~a:0xAA ~b:0x55
      ~st:1 ~at:0 ~bt:0 ~ab_xor:0xFF
  in
  Alcotest.(check int) "identical selectors suppress control taint" 0 t

let test_mux_policy_diffift_propagates () =
  let t =
    Policy.mux_taint Policy.Diffift ~width:8 ~s:0 ~s_diff:true ~a:0xAA ~b:0x55
      ~st:1 ~at:0 ~bt:0 ~ab_xor:0xFF
  in
  Alcotest.(check int) "differing selectors propagate" 0xFF t

let test_mux_policy_data () =
  let t =
    Policy.mux_taint Policy.Diffift ~width:8 ~s:1 ~s_diff:false ~a:0 ~b:0
      ~st:0 ~at:0x0F ~bt:0xF0 ~ab_xor:0
  in
  Alcotest.(check int) "selects B taint when s=1" 0xF0 t

(* Regression: [s] is a raw selector value; the old [s = 1] truthiness test
   made any other non-zero value (a multi-bit selector holding 2, say) take
   the A-arm taint while the value domain takes the B arm. *)
let test_mux_policy_nonzero_select () =
  let t =
    Policy.mux_taint Policy.Diffift ~width:8 ~s:2 ~s_diff:false ~a:0 ~b:0
      ~st:0 ~at:0x0F ~bt:0xF0 ~ab_xor:0
  in
  Alcotest.(check int) "any non-zero selector takes B taint" 0xF0 t

let test_cmp_policy () =
  Alcotest.(check int) "cellift taints on tainted input" 1
    (Policy.cmp_taint Policy.Cellift ~o_diff:false ~at:1 ~bt:0);
  Alcotest.(check int) "diffift needs output difference" 0
    (Policy.cmp_taint Policy.Diffift ~o_diff:false ~at:1 ~bt:0);
  Alcotest.(check int) "diffift taints on difference" 1
    (Policy.cmp_taint Policy.Diffift ~o_diff:true ~at:1 ~bt:0)

let test_arith_policy () =
  Alcotest.(check int) "carry spreads upward" 0b11111100
    (Policy.arith_taint ~width:8 ~at:0b100 ~bt:0);
  Alcotest.(check int) "clean stays clean" 0
    (Policy.arith_taint ~width:8 ~at:0 ~bt:0)

let test_reg_en_policy () =
  (* enable tainted, instances agree -> diffIFT keeps data-only semantics *)
  let t =
    Policy.reg_en_taint Policy.Diffift ~width:4 ~en:true ~en_diff:false ~ent:1
      ~dt:0 ~qt:0 ~dq_xor:0xF
  in
  Alcotest.(check int) "suppressed" 0 t;
  let t2 =
    Policy.reg_en_taint Policy.Cellift ~width:4 ~en:true ~en_diff:false ~ent:1
      ~dt:0 ~qt:0 ~dq_xor:0xF
  in
  Alcotest.(check int) "cellift propagates" 0xF t2

let test_mem_policies () =
  Alcotest.(check int) "read ctrl diffift gated" 0
    (Policy.mem_read_ctrl Policy.Diffift ~width:8 ~addrt:1 ~addr_diff:false);
  Alcotest.(check int) "read ctrl diffift fires" 0xFF
    (Policy.mem_read_ctrl Policy.Diffift ~width:8 ~addrt:1 ~addr_diff:true);
  Alcotest.(check int) "write ctrl cellift fires" 0xFF
    (Policy.mem_write_ctrl Policy.Cellift ~width:8 ~wen:true ~went:0
       ~wen_diff:false ~addrt:1 ~addr_diff:false)

(* --- shadow co-simulation ------------------------------------------------ *)

(* out = secret & mask: data taint flows through AND. *)
let test_shadow_data_taint () =
  let nl = N.create () in
  let secret = N.input nl 8 and mask = N.input nl 8 in
  let out = N.and_ nl secret mask in
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh secret 0xAB 0x54;
  Shadow.set_input sh mask 0xFF;
  Shadow.eval sh;
  Alcotest.(check int) "instance A value" 0xAB (Shadow.peek_a sh out);
  Alcotest.(check int) "instance B value" 0x54 (Shadow.peek_b sh out);
  Alcotest.(check bool) "output tainted" true (Shadow.taint_of sh out <> 0)

let test_shadow_zero_mask_clears () =
  let nl = N.create () in
  let secret = N.input nl 8 and mask = N.input nl 8 in
  let out = N.and_ nl secret mask in
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh secret 0xAB 0x54;
  Shadow.set_input sh mask 0x00;
  Shadow.eval sh;
  Alcotest.(check int) "zero mask stops taint" 0 (Shadow.taint_of sh out)

let test_shadow_register_taint () =
  let nl = N.create () in
  let d = N.input nl 8 in
  let q = N.reg nl 8 in
  N.reg_connect nl q ~d ();
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh d 1 2;
  Shadow.cycle sh;
  Alcotest.(check bool) "register captured taint" true (Shadow.taint_of sh q <> 0);
  Shadow.set_input sh d 7;
  Shadow.cycle sh;
  Alcotest.(check int) "clean write clears register taint" 0 (Shadow.taint_of sh q)

let test_shadow_untainted_stays_clean () =
  let rob = Circuits.rob ~entries:4 ~uopc_width:7 in
  let sh = Shadow.create Policy.Diffift rob.Circuits.rob_nl in
  Shadow.set_input sh rob.Circuits.enq_valid 1;
  Shadow.set_input sh rob.Circuits.enq_uopc 0x3;
  Shadow.set_input sh rob.Circuits.rollback 0;
  Shadow.set_input sh rob.Circuits.rollback_idx 0;
  for _ = 1 to 8 do Shadow.cycle sh done;
  Alcotest.(check int) "no taint without tainted inputs" 0
    (Shadow.taint_bit_sum sh)

(* The Figure 2 over-tainting scenario. *)
let rollback_taints mode =
  let rob = Circuits.rob ~entries:8 ~uopc_width:7 in
  let sh = Shadow.create mode rob.Circuits.rob_nl in
  for i = 0 to 3 do
    Shadow.set_input sh rob.Circuits.enq_valid 1;
    Shadow.set_input sh rob.Circuits.enq_uopc (0x10 + i);
    Shadow.set_input sh rob.Circuits.rollback 0;
    Shadow.set_input sh rob.Circuits.rollback_idx 0;
    Shadow.cycle sh
  done;
  Shadow.set_input sh rob.Circuits.enq_valid 0;
  Shadow.set_input sh rob.Circuits.rollback 1;
  Shadow.set_input sh rob.Circuits.rollback_idx 1;
  Shadow.set_input_taint sh rob.Circuits.rollback_idx 0x7;
  Shadow.cycle sh;
  Shadow.set_input sh rob.Circuits.rollback 0;
  Shadow.set_input_taint sh rob.Circuits.rollback_idx 0;
  Shadow.set_input sh rob.Circuits.enq_valid 1;
  Shadow.set_input sh rob.Circuits.enq_uopc 0x55;
  Shadow.cycle sh;
  Array.fold_left
    (fun acc q -> if Shadow.taint_of sh q <> 0 then acc + 1 else acc)
    0 rob.Circuits.uopc

let test_cellift_overtaints_rollback () =
  Alcotest.(check int) "all entries tainted" 8 (rollback_taints Policy.Cellift)

let test_diffift_suppresses_rollback () =
  Alcotest.(check int) "no entry tainted" 0 (rollback_taints Policy.Diffift)

let test_diffift_divergent_selection_taints () =
  (* When the two instances genuinely select differently, diffIFT must
     propagate the control taint. *)
  let nl = N.create () in
  let sel = N.input nl 1 and a = N.input nl 8 and b = N.input nl 8 in
  let out = N.mux nl sel a b in
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh sel 0 1;
  Shadow.set_input sh a 0x11;
  Shadow.set_input sh b 0x22;
  Shadow.eval sh;
  Alcotest.(check bool) "divergent mux taints output" true
    (Shadow.taint_of sh out <> 0)

let test_mem_taint_via_address () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:8 () in
  let addr = N.input nl 3 in
  let rdata = N.mem_read nl m addr in
  let sh = Shadow.create Policy.Diffift nl in
  (* secret-dependent address: the two instances read different words *)
  Shadow.set_input_pair sh addr 1 2;
  Shadow.eval sh;
  Alcotest.(check bool) "address-diff read is tainted" true
    (Shadow.taint_of sh rdata <> 0)

let test_mem_write_taint () =
  let nl = N.create () in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:8 () in
  let wen = N.input nl 1 and addr = N.input nl 3 and data = N.input nl 8 in
  N.mem_write nl m ~wen ~addr ~data;
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input sh wen 1;
  Shadow.set_input sh addr 5;
  Shadow.set_input_pair sh data 0xAA 0x55;
  Shadow.cycle sh;
  Alcotest.(check bool) "written word tainted" true (Shadow.mem_taint sh m 5 <> 0);
  Alcotest.(check int) "other word clean" 0 (Shadow.mem_taint sh m 4)

let test_tainted_by_module () =
  let nl = N.create () in
  let q =
    N.scoped nl "alpha" (fun () ->
        let d = N.input nl 4 in
        let q = N.reg nl 4 in
        N.reg_connect nl q ~d ();
        (d, q))
  in
  let d, q = q in
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh d 1 2;
  Shadow.cycle sh;
  ignore q;
  let counts = Shadow.tainted_by_module sh in
  Alcotest.(check bool) "alpha has a tainted register" true
    (List.exists (fun (m, c) -> m = "alpha" && c = 1) counts)

let test_clear_taints () =
  let nl = N.create () in
  let d = N.input nl 4 in
  let q = N.reg nl 4 in
  N.reg_connect nl q ~d ();
  let sh = Shadow.create Policy.Diffift nl in
  Shadow.set_input_pair sh d 1 2;
  Shadow.cycle sh;
  Shadow.clear_taints sh;
  Alcotest.(check int) "all clear" 0 (Shadow.taint_bit_sum sh)

(* --- liveness ------------------------------------------------------------ *)

let test_liveness_lfb () =
  let lfb = Circuits.lfb ~entries:4 ~data_width:8 in
  let sh = Shadow.create Policy.Diffift lfb.Circuits.lfb_nl in
  let lv = Liveness.create sh in
  Liveness.bind_regs lv ~sinks:lfb.Circuits.data ~valid:lfb.Circuits.valid;
  Shadow.set_input sh lfb.Circuits.retire 0;
  Shadow.set_input sh lfb.Circuits.retire_idx 0;
  Shadow.set_input sh lfb.Circuits.fill_valid 1;
  Shadow.set_input sh lfb.Circuits.fill_idx 2;
  Shadow.set_input_pair sh lfb.Circuits.fill_data 0xAA 0x55;
  Shadow.cycle sh;
  Shadow.eval sh;
  Alcotest.(check int) "live while valid" 1 (Liveness.live_tainted lv);
  Shadow.set_input sh lfb.Circuits.fill_valid 0;
  Shadow.set_input sh lfb.Circuits.retire 1;
  Shadow.set_input sh lfb.Circuits.retire_idx 2;
  Shadow.cycle sh;
  Shadow.eval sh;
  Alcotest.(check int) "dead after retire" 1 (Liveness.dead_tainted lv);
  Alcotest.(check int) "not live" 0 (Liveness.live_tainted lv)

let test_liveness_arity_check () =
  let lfb = Circuits.lfb ~entries:4 ~data_width:8 in
  let sh = Shadow.create Policy.Diffift lfb.Circuits.lfb_nl in
  let lv = Liveness.create sh in
  Alcotest.check_raises "arity"
    (Invalid_argument "Liveness.bind_regs: arity mismatch") (fun () ->
      Liveness.bind_regs lv ~sinks:lfb.Circuits.data
        ~valid:(Array.sub lfb.Circuits.valid 0 2))

(* --- provenance ----------------------------------------------------------- *)

let test_provenance_record_and_slice () =
  let p = Provenance.create () in
  Provenance.set_context p ~time:(-1) ~in_window:false;
  Provenance.source p "mem[2560]";
  Provenance.set_context p ~time:5 ~in_window:true;
  Provenance.record p ~dst:"prf[3]" ~srcs:[ "mem[2560]" ] Provenance.Data;
  Provenance.record p ~dst:"dcache[7]" ~srcs:[ "prf[3]" ]
    (Provenance.Ctrl "addr");
  Alcotest.(check int) "edges" 3 (Provenance.num_edges p);
  let slice = Provenance.slice p ~sink:"dcache[7]" in
  Alcotest.(check (list string)) "slice chronological"
    [ "mem[2560]"; "prf[3]"; "dcache[7]" ]
    (List.map (fun e -> e.Provenance.e_dst) slice);
  Alcotest.(check bool) "window flags" true
    (match slice with
    | [ a; b; c ] ->
        (not a.Provenance.e_in_window)
        && b.Provenance.e_in_window && c.Provenance.e_in_window
    | _ -> false);
  Alcotest.(check (list string)) "unknown sink empty" []
    (List.map (fun e -> e.Provenance.e_dst)
       (Provenance.slice p ~sink:"nowhere"))

let test_provenance_epoch_selection () =
  (* A node tainted, cleared and re-tainted has two introduction edges; a
     slice through it must pick the one strictly before the consuming
     edge, not the global latest. *)
  let p = Provenance.create () in
  Provenance.source p "x";                                    (* e0 *)
  Provenance.record p ~dst:"y" ~srcs:[ "x" ] Provenance.Data; (* e1 *)
  Provenance.source p "x";                                    (* e2 *)
  Provenance.record p ~dst:"z" ~srcs:[ "x" ] Provenance.Data; (* e3 *)
  let ids sink =
    List.map (fun e -> e.Provenance.e_id) (Provenance.slice p ~sink)
  in
  Alcotest.(check (list int)) "y uses first epoch" [ 0; 1 ] (ids "y");
  Alcotest.(check (list int)) "z uses second epoch" [ 2; 3 ] (ids "z")

let test_provenance_restore_terminates () =
  (* Restore edges are self-referential (the node re-introduces its own
     pre-squash taint); the slice must not loop on them. *)
  let p = Provenance.create () in
  Provenance.source p "a";
  Provenance.record p ~dst:"a" ~srcs:[ "a" ] Provenance.Restore;
  let slice = Provenance.slice p ~sink:"a" in
  Alcotest.(check (list int)) "both epochs, no loop" [ 0; 1 ]
    (List.map (fun e -> e.Provenance.e_id) slice)

let test_provenance_cap () =
  let p = Provenance.create ~cap:2 () in
  Provenance.source p "a";
  Provenance.source p "b";
  Provenance.source p "c";
  Alcotest.(check int) "capped" 2 (Provenance.num_edges p);
  Alcotest.(check int) "dropped counted" 1 (Provenance.dropped p);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Provenance.create: cap must be positive") (fun () ->
      ignore (Provenance.create ~cap:0 ()))

let test_provenance_kind_names () =
  let kinds =
    [ Provenance.Source; Provenance.Data; Provenance.Ctrl "addr";
      Provenance.Divergence; Provenance.Restore ]
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Provenance.kind_name k)
        true
        (Provenance.kind_of_name (Provenance.kind_name k) = Some k))
    kinds;
  Alcotest.(check bool) "unknown name" true
    (Provenance.kind_of_name "bogus" = None)

(* --- taint log bounds ------------------------------------------------------ *)

(* The taint log is [Dualcore]'s [r_log]: one entry per slot, thinned by
   the bound.  The program loads a secret dword (so the log carries taint)
   and then runs a straight line of dependent adds, long enough for
   [Keep_last 2] to trim several times. *)
let log_stim () =
  let open Dvz_isa in
  let insns =
    [ Insn.Lui (Reg.t0, Dvz_soc.Layout.secret_base lsr 12);
      Insn.Load (Insn.D, false, Reg.t1, Reg.t0, 0) ]
    @ List.init 10 (fun _ -> Insn.Op (Insn.Add, Reg.t1, Reg.t1, Reg.t1))
    @ [ Insn.Ebreak ]
  in
  let blob =
    { Dvz_soc.Swapmem.name = "log";
      words = Array.of_list (List.map Encode.encode insns);
      is_transient = true }
  in
  { Core.st_swapmem = Dvz_soc.Swapmem.create ~blobs:[ blob ] ~schedule:[ 0 ];
    st_tighten_secret = false;
    st_secret = Array.make Dvz_soc.Layout.secret_dwords 0x7E57;
    st_data = []; st_perms = []; st_max_slots = 200 }

let run_log bound =
  Dualcore.run
    (Dualcore.create ~log_bound:bound Dvz_uarch.Config.boom_small (log_stim ()))

let slots_of r = List.map (fun e -> e.Dualcore.le_slot) r.Dualcore.r_log

(* A bounded log keeps the unbounded log's entries at the slots it keeps. *)
let check_subsequence r =
  let full = run_log Taintlog.Unbounded in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d as unbounded" e.Dualcore.le_slot)
        true
        (List.mem e full.Dualcore.r_log))
    r.Dualcore.r_log

let test_taintlog () =
  let r = run_log Taintlog.Unbounded in
  let n = r.Dualcore.r_slots in
  Alcotest.(check (list int)) "one entry per slot" (List.init n Fun.id)
    (slots_of r);
  Alcotest.(check bool) "secret words tainted from slot 0" true
    (List.for_all
       (fun e -> e.Dualcore.le_total >= Dvz_soc.Layout.secret_dwords)
       r.Dualcore.r_log);
  match List.rev r.Dualcore.r_log with
  | last :: _ ->
      Alcotest.(check int) "final entry counts the final taint"
        (List.length r.Dualcore.r_final_tainted)
        last.Dualcore.le_total;
      Alcotest.(check bool) "the load spread taint" true
        (last.Dualcore.le_total > Dvz_soc.Layout.secret_dwords)
  | [] -> Alcotest.fail "empty log"

let test_taintlog_keep_last () =
  let r = run_log (Taintlog.Keep_last 2) in
  let n = r.Dualcore.r_slots in
  Alcotest.(check bool) "trimmed more than once" true (n > 6);
  Alcotest.(check (list int)) "last two" [ n - 2; n - 1 ] (slots_of r);
  check_subsequence r

let test_taintlog_bound_validation () =
  List.iter
    (fun bound ->
      Alcotest.check_raises "non-positive bound"
        (Invalid_argument "Dualcore.create: log_bound must be positive")
        (fun () -> ignore (run_log bound)))
    [ Taintlog.Keep_last 0; Taintlog.Keep_last (-1) ]

(* --- compiled vs interpretive engine -------------------------------------- *)

(* The compiled shadow engine must be bit-identical to the interpreter in
   both policy modes: both value planes, the whole taint plane, the memory
   taints and the aggregate counters.  The RoB circuit plus a memory covers
   every opcode class the engine lowers. *)
let shadow_engine_differential mode () =
  let rob = Circuits.rob ~entries:8 ~uopc_width:7 in
  let nl = rob.Circuits.rob_nl in
  let m, wen, waddr, wdata, raddr =
    N.scoped nl "prf" (fun () ->
        let m = N.mem nl ~name:"regfile" ~width:8 ~depth:8 () in
        let wen = N.input nl ~name:"wen" 1 in
        let waddr = N.input nl ~name:"waddr" 4 in
        let wdata = N.input nl ~name:"wdata" 8 in
        N.mem_write nl m ~wen ~addr:waddr ~data:wdata;
        let raddr = N.input nl ~name:"raddr" 4 in
        ignore (N.mem_read nl m raddr);
        (m, wen, waddr, wdata, raddr))
  in
  let c = Shadow.create mode nl in
  let i = Shadow.create ~engine:`Interp mode nl in
  Alcotest.(check bool) "engines recorded" true
    (Shadow.engine c = `Compiled && Shadow.engine i = `Interp);
  let rng = Dvz_util.Rng.create 4242 in
  for cycle = 1 to 60 do
    let both f = f c; f i in
    let enq = Dvz_util.Rng.int rng 2 in
    let uopc_a = Dvz_util.Rng.int rng 128 in
    let uopc_b = Dvz_util.Rng.int rng 128 in
    let rb = Dvz_util.Rng.int rng 2 in
    let rbi_a = Dvz_util.Rng.int rng 8 in
    let rbi_b = Dvz_util.Rng.int rng 8 in
    let we = Dvz_util.Rng.int rng 2 in
    let wa = Dvz_util.Rng.int rng 16 (* can exceed depth: bounds paths *) in
    let wd_a = Dvz_util.Rng.int rng 256 in
    let wd_b = Dvz_util.Rng.int rng 256 in
    let ra = Dvz_util.Rng.int rng 16 in
    both (fun sh ->
        Shadow.set_input sh rob.Circuits.enq_valid enq;
        Shadow.set_input_pair sh rob.Circuits.enq_uopc uopc_a uopc_b;
        Shadow.set_input sh rob.Circuits.rollback rb;
        Shadow.set_input_pair sh rob.Circuits.rollback_idx rbi_a rbi_b;
        Shadow.set_input sh wen we;
        Shadow.set_input sh waddr wa;
        Shadow.set_input_pair sh wdata wd_a wd_b;
        Shadow.set_input sh raddr ra;
        Shadow.cycle sh);
    for k = 0 to N.num_signals nl - 1 do
      let s = N.signal_of_int nl k in
      if
        Shadow.peek_a c s <> Shadow.peek_a i s
        || Shadow.peek_b c s <> Shadow.peek_b i s
        || Shadow.taint_of c s <> Shadow.taint_of i s
      then
        Alcotest.failf "cycle %d: signal #%d diverges between engines" cycle k
    done;
    for w = 0 to N.mem_depth m - 1 do
      if Shadow.mem_taint c m w <> Shadow.mem_taint i m w then
        Alcotest.failf "cycle %d: memory word %d taint diverges" cycle w
    done;
    Alcotest.(check int) "taint_bit_sum agrees" (Shadow.taint_bit_sum i)
      (Shadow.taint_bit_sum c);
    Alcotest.(check int) "tainted_registers agrees"
      (Shadow.tainted_registers i) (Shadow.tainted_registers c)
  done

(* Shadow runs the program Sim lowers: fed the same inputs, both of
   Shadow's value planes read what Sim reads on every signal, every cycle,
   and nothing is tainted.  Both engines of each, both modes. *)
let prop_shadow_values_match_sim =
  QCheck.Test.make ~name:"shadow value planes equal Sim on equal inputs"
    ~count:100 QCheck.small_int (fun seed ->
      let nl, inputs8, sel_in, m = Netlist_gen.random_seq_netlist seed in
      let engines = [ `Compiled; `Interp ] in
      let sims = List.map (fun engine -> Sim.create ~engine nl) engines in
      let shadows =
        List.concat_map
          (fun engine ->
            List.map
              (fun mode -> Shadow.create ~engine mode nl)
              [ Policy.Cellift; Policy.Diffift ])
          engines
      in
      let rng = Dvz_util.Rng.create (seed + 2000) in
      let drive s v =
        List.iter (fun sim -> Sim.set_input sim s v) sims;
        List.iter (fun sh -> Shadow.set_input sh s v) shadows
      in
      let ok = ref true in
      for _ = 1 to 30 do
        Array.iter (fun s -> drive s (Dvz_util.Rng.int rng 256)) inputs8;
        drive sel_in (Dvz_util.Rng.int rng 2);
        List.iter Sim.cycle sims;
        List.iter Shadow.cycle shadows;
        for k = 0 to N.num_signals nl - 1 do
          let s = N.signal_of_int nl k in
          let v = Sim.peek (List.hd sims) s in
          List.iter (fun sim -> if Sim.peek sim s <> v then ok := false) sims;
          List.iter
            (fun sh ->
              if
                Shadow.peek_a sh s <> v
                || Shadow.peek_b sh s <> v
                || Shadow.taint_of sh s <> 0
              then ok := false)
            shadows
        done;
        for w = 0 to N.mem_depth m - 1 do
          List.iter
            (fun sh -> if Shadow.mem_taint sh m w <> 0 then ok := false)
            shadows
        done
      done;
      !ok)

(* The engine differential on random netlists: with one input driven as a
   differing pair, compiled and interpretive shadows agree on both value
   planes, every taint and every memory word's taint, in both modes. *)
let prop_shadow_engines_equivalent =
  QCheck.Test.make
    ~name:"shadow compiled engine is bit-identical to interpreter"
    ~count:100 QCheck.small_int (fun seed ->
      let nl, inputs8, sel_in, m = Netlist_gen.random_seq_netlist seed in
      let secret = inputs8.(seed mod Array.length inputs8) in
      let rng = Dvz_util.Rng.create (seed + 3000) in
      List.for_all
        (fun mode ->
          let c = Shadow.create mode nl in
          let i = Shadow.create ~engine:`Interp mode nl in
          let both f = f c; f i in
          let ok = ref true in
          for _ = 1 to 30 do
            Array.iter
              (fun s ->
                let va = Dvz_util.Rng.int rng 256 in
                if s = secret then begin
                  let vb = Dvz_util.Rng.int rng 256 in
                  both (fun sh -> Shadow.set_input_pair sh s va vb)
                end
                else both (fun sh -> Shadow.set_input sh s va))
              inputs8;
            let sv = Dvz_util.Rng.int rng 2 in
            both (fun sh -> Shadow.set_input sh sel_in sv);
            both Shadow.cycle;
            for k = 0 to N.num_signals nl - 1 do
              let s = N.signal_of_int nl k in
              if
                Shadow.peek_a c s <> Shadow.peek_a i s
                || Shadow.peek_b c s <> Shadow.peek_b i s
                || Shadow.taint_of c s <> Shadow.taint_of i s
              then ok := false
            done;
            for w = 0 to N.mem_depth m - 1 do
              if Shadow.mem_taint c m w <> Shadow.mem_taint i m w then
                ok := false
            done
          done;
          !ok)
        [ Policy.Cellift; Policy.Diffift ])

(* One lowering, one set of checks: Shadow refuses what Sim refuses. *)
let test_shadow_rejects_unconnected_register () =
  let nl = N.create () in
  let _q = N.reg nl ~name:"r" 4 in
  Alcotest.check_raises "unconnected"
    (Failure "Sim.lower: unconnected register r") (fun () ->
      ignore (Shadow.create Policy.Diffift nl))

(* A register is state, not a testbench input: each Shadow setter refuses
   one by name, in [Sim.set_input]'s words, instead of overwriting its
   value and dropping its taint. *)
let shadow_refuses_register fn drive () =
  let nl = N.create () in
  let d = N.input nl ~name:"d" 4 in
  let q = N.reg nl ~name:"q" 4 in
  N.reg_connect nl q ~d ();
  let msg who =
    Printf.sprintf "%s: signal q is not an input (it is a register)" who
  in
  Alcotest.check_raises "Sim" (Invalid_argument (msg "Sim.set_input"))
    (fun () -> Sim.set_input (Sim.create nl) q 1);
  Alcotest.check_raises "Shadow" (Invalid_argument (msg ("Shadow." ^ fn)))
    (fun () -> drive (Shadow.create Policy.Diffift nl) q)

(* The compiled shadow cycle is allocation-free too: all Policy calls are
   int-in/int-out. *)
let test_shadow_compiled_cycle_allocation_free () =
  let rob = Circuits.rob ~entries:8 ~uopc_width:7 in
  let sh = Shadow.create Policy.Diffift rob.Circuits.rob_nl in
  Shadow.set_input sh rob.Circuits.enq_valid 1;
  Shadow.set_input_pair sh rob.Circuits.enq_uopc 0x11 0x22;
  Shadow.set_input sh rob.Circuits.rollback 0;
  Shadow.set_input sh rob.Circuits.rollback_idx 0;
  for _ = 1 to 100 do Shadow.cycle sh done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do Shadow.cycle sh done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 compiled shadow cycles allocated %.0f minor words"
       delta)
    true (delta < 64.0)

(* --- properties ---------------------------------------------------------- *)

(* diffIFT taints are a subset of CellIFT taints on random circuits. *)
let prop_diffift_subset_cellift =
  QCheck.Test.make ~name:"diffIFT taint set under-approximates CellIFT"
    ~count:40 QCheck.small_int (fun seed ->
      let rng = Dvz_util.Rng.create seed in
      let nl = N.create () in
      let secret = N.input nl 8 in
      let pub = Array.init 2 (fun _ -> N.input nl 8) in
      let pool = ref (secret :: Array.to_list pub) in
      let pick () = Dvz_util.Rng.choose_list rng !pool in
      let sel = N.input nl 1 in
      for _ = 1 to 15 do
        let a = pick () and b = pick () in
        let s =
          match Dvz_util.Rng.int rng 6 with
          | 0 -> N.and_ nl a b
          | 1 -> N.or_ nl a b
          | 2 -> N.xor_ nl a b
          | 3 -> N.add nl a b
          | 4 -> N.mux nl sel a b
          | _ -> N.not_ nl a
        in
        pool := s :: !pool
      done;
      let regs =
        List.map
          (fun d ->
            let q = N.reg nl 8 in
            N.reg_connect nl q ~d ();
            q)
          (List.filteri (fun i _ -> i < 4) !pool)
      in
      let drive sh =
        let r = Dvz_util.Rng.create (seed * 31) in
        for _ = 1 to 10 do
          Shadow.set_input_pair sh secret
            (Dvz_util.Rng.int r 256) (Dvz_util.Rng.int r 256);
          Array.iter
            (fun p -> Shadow.set_input sh p (Dvz_util.Rng.int r 256))
            pub;
          Shadow.set_input sh sel (Dvz_util.Rng.int r 2);
          Shadow.cycle sh
        done
      in
      let cell = Shadow.create Policy.Cellift nl in
      let diff = Shadow.create Policy.Diffift nl in
      drive cell;
      drive diff;
      List.for_all
        (fun q ->
          (* every diffIFT-tainted bit is CellIFT-tainted *)
          Shadow.taint_of diff q land lnot (Shadow.taint_of cell q) = 0)
        regs)

(* No tainted inputs => no taints anywhere, either mode. *)
let prop_no_source_no_taint =
  QCheck.Test.make ~name:"zero secret taint yields zero propagated taint"
    ~count:30 QCheck.small_int (fun seed ->
      let rob = Circuits.rob ~entries:4 ~uopc_width:5 in
      let modes = [ Policy.Cellift; Policy.Diffift ] in
      List.for_all
        (fun mode ->
          let sh = Shadow.create mode rob.Circuits.rob_nl in
          let rng = Dvz_util.Rng.create seed in
          for _ = 1 to 12 do
            Shadow.set_input sh rob.Circuits.enq_valid (Dvz_util.Rng.int rng 2);
            Shadow.set_input sh rob.Circuits.enq_uopc (Dvz_util.Rng.int rng 32);
            Shadow.set_input sh rob.Circuits.rollback (Dvz_util.Rng.int rng 2);
            Shadow.set_input sh rob.Circuits.rollback_idx (Dvz_util.Rng.int rng 4);
            Shadow.cycle sh
          done;
          Shadow.taint_bit_sum sh = 0)
        modes)

let () =
  Alcotest.run "dvz_ift"
    [ ( "policies",
        [ Alcotest.test_case "and" `Quick test_and_policy;
          Alcotest.test_case "or" `Quick test_or_policy;
          Alcotest.test_case "mux cellift" `Quick test_mux_policy_cellift;
          Alcotest.test_case "mux diffift suppressed" `Quick
            test_mux_policy_diffift_suppressed;
          Alcotest.test_case "mux diffift propagates" `Quick
            test_mux_policy_diffift_propagates;
          Alcotest.test_case "mux data" `Quick test_mux_policy_data;
          Alcotest.test_case "mux non-zero select" `Quick
            test_mux_policy_nonzero_select;
          Alcotest.test_case "comparison" `Quick test_cmp_policy;
          Alcotest.test_case "arithmetic" `Quick test_arith_policy;
          Alcotest.test_case "register enable" `Quick test_reg_en_policy;
          Alcotest.test_case "memories" `Quick test_mem_policies ] );
      ( "shadow",
        [ Alcotest.test_case "data taint" `Quick test_shadow_data_taint;
          Alcotest.test_case "zero mask clears" `Quick test_shadow_zero_mask_clears;
          Alcotest.test_case "register taint" `Quick test_shadow_register_taint;
          Alcotest.test_case "clean run stays clean" `Quick
            test_shadow_untainted_stays_clean;
          Alcotest.test_case "cellift rollback over-taint" `Quick
            test_cellift_overtaints_rollback;
          Alcotest.test_case "diffift rollback suppression" `Quick
            test_diffift_suppresses_rollback;
          Alcotest.test_case "divergent mux taints" `Quick
            test_diffift_divergent_selection_taints;
          Alcotest.test_case "memory read taint" `Quick test_mem_taint_via_address;
          Alcotest.test_case "memory write taint" `Quick test_mem_write_taint;
          Alcotest.test_case "per-module counts" `Quick test_tainted_by_module;
          Alcotest.test_case "clear" `Quick test_clear_taints;
          QCheck_alcotest.to_alcotest prop_diffift_subset_cellift;
          QCheck_alcotest.to_alcotest prop_no_source_no_taint ] );
      ( "engine",
        [ Alcotest.test_case "cellift differential" `Quick
            (shadow_engine_differential Policy.Cellift);
          Alcotest.test_case "diffift differential" `Quick
            (shadow_engine_differential Policy.Diffift);
          QCheck_alcotest.to_alcotest prop_shadow_engines_equivalent;
          QCheck_alcotest.to_alcotest prop_shadow_values_match_sim;
          Alcotest.test_case "Shadow.create rejects an unconnected register"
            `Quick test_shadow_rejects_unconnected_register;
          Alcotest.test_case "Shadow.set_input refuses a register" `Quick
            (shadow_refuses_register "set_input" (fun sh q ->
                 Shadow.set_input sh q 1));
          Alcotest.test_case "Shadow.set_input_pair refuses a register" `Quick
            (shadow_refuses_register "set_input_pair" (fun sh q ->
                 Shadow.set_input_pair sh q 1 2));
          Alcotest.test_case "Shadow.set_input_taint refuses a register" `Quick
            (shadow_refuses_register "set_input_taint" (fun sh q ->
                 Shadow.set_input_taint sh q 0xF));
          Alcotest.test_case "compiled cycle allocation-free" `Quick
            test_shadow_compiled_cycle_allocation_free ] );
      ( "liveness",
        [ Alcotest.test_case "lfb decoy" `Quick test_liveness_lfb;
          Alcotest.test_case "arity check" `Quick test_liveness_arity_check ] );
      ( "taintlog",
        [ Alcotest.test_case "record" `Quick test_taintlog;
          Alcotest.test_case "keep-last bound" `Quick test_taintlog_keep_last;
          Alcotest.test_case "bound validation" `Quick
            test_taintlog_bound_validation ] );
      ( "provenance",
        [ Alcotest.test_case "record and slice" `Quick
            test_provenance_record_and_slice;
          Alcotest.test_case "epoch selection" `Quick
            test_provenance_epoch_selection;
          Alcotest.test_case "restore terminates" `Quick
            test_provenance_restore_terminates;
          Alcotest.test_case "capacity" `Quick test_provenance_cap;
          Alcotest.test_case "kind names" `Quick test_provenance_kind_names ] ) ]
