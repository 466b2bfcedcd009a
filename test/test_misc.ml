(* Cross-cutting tests for the smaller public surfaces: effect/element
   naming, trace line content, table-five rendering, VCD multi-signal
   dumps, migration listings, and the bug-check inventory. *)

module Elem = Dvz_uarch.Elem
module Eff = Dvz_uarch.Effect
module Cfg = Dvz_uarch.Config
module E = Dvz_experiments

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- elements -------------------------------------------------------------- *)

let test_elem_modules_stable () =
  (* every constructor maps into the declared module universe, at any
     index: negative and beyond-the-array ones included *)
  let kinds =
    [ (fun i -> Elem.Areg i); (fun i -> Elem.Sreg i); (fun i -> Elem.Mem i);
      (fun i -> Elem.Dcache i); (fun i -> Elem.Icache i);
      (fun i -> Elem.Lfb i); (fun i -> Elem.Btb i); (fun i -> Elem.Bht i);
      (fun i -> Elem.Ras i); (fun i -> Elem.Loop i); (fun i -> Elem.Tlb i);
      (fun i -> Elem.L2tlb i); (fun i -> Elem.Rob i); (fun i -> Elem.Ldq i);
      (fun i -> Elem.Stq i) ]
  in
  let indices =
    [ 0; 1; 2; 3; 5; 7; 9; 255; 8192; -1; -2; -3; -4; -5; max_int; min_int ]
  in
  let samples =
    Elem.Pc :: List.concat_map (fun k -> List.map k indices) kinds
  in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Elem.to_string e ^ " in module universe")
        true
        (List.mem (Elem.module_of e) Elem.all_modules);
      Alcotest.(check string)
        (Elem.to_string e ^ " module index")
        (Elem.module_of e)
        (List.nth Elem.all_modules (Elem.module_index e)))
    samples

let test_elem_banking () =
  Alcotest.(check string) "bank 0" "lsu.dcache.bank0" (Elem.module_of (Elem.Dcache 4));
  Alcotest.(check string) "bank 3" "lsu.dcache.bank3" (Elem.module_of (Elem.Dcache 7));
  Alcotest.(check bool) "banks differ" true
    (Elem.module_of (Elem.Dcache 0) <> Elem.module_of (Elem.Dcache 1))

let test_elem_equality () =
  Alcotest.(check bool) "equal" true (Elem.equal (Elem.Ras 2) (Elem.Ras 2));
  Alcotest.(check bool) "index distinguishes" false
    (Elem.equal (Elem.Ras 2) (Elem.Ras 3));
  Alcotest.(check bool) "constructor distinguishes" false
    (Elem.equal (Elem.Tlb 2) (Elem.L2tlb 2))

(* --- effects ---------------------------------------------------------------- *)

let test_effect_names () =
  Alcotest.(check string) "branch" "branch" (Eff.ctrl_kind_name Eff.C_branch);
  Alcotest.(check string) "squash" "squash" (Eff.ctrl_kind_name Eff.C_squash);
  Alcotest.(check bool) "window kinds distinct" true
    (Eff.window_kind_name Eff.W_branch_mispred
    <> Eff.window_kind_name Eff.W_jump_mispred);
  Alcotest.(check bool) "exception carries cause" true
    (contains
       (Eff.window_kind_name (Eff.W_exception Dvz_isa.Trap.Load_misalign))
       "misalign")

(* --- trace ------------------------------------------------------------------ *)

let test_trace_slot_content () =
  let slot =
    { Eff.sl_pc = 0x1234; sl_insn = Dvz_isa.Insn.Ebreak; sl_transient = true;
      sl_window_opened = Some Eff.W_mem_disamb; sl_window_closed = true;
      sl_events = []; sl_cycles = 42; sl_swapped = false }
  in
  let line = Dvz_uarch.Trace.slot_line slot in
  Alcotest.(check bool) "pc" true (contains line "0x1234");
  Alcotest.(check bool) "disassembly" true (contains line "ebreak");
  Alcotest.(check bool) "window annotation" true (contains line "mem-disamb");
  Alcotest.(check bool) "squash annotation" true (contains line "<squash>");
  Alcotest.(check bool) "transient marker" true (contains line " T ")

(* --- rendering -------------------------------------------------------------- *)

let test_table5_render_content () =
  let finding =
    { Dejavuzz.Campaign.fd_attack = `Meltdown;
      fd_window = Dejavuzz.Seed.T_page_fault;
      fd_components = [ "dcache" ]; fd_kind = `Encode; fd_iteration = 7;
      fd_source = None }
  in
  let t = Dejavuzz.Report.table5 ~core_name:"X" [ finding ] in
  Alcotest.(check bool) "attack row" true (contains t "Meltdown");
  Alcotest.(check bool) "window group" true (contains t "mem-excp");
  Alcotest.(check bool) "component" true (contains t "dcache");
  let line = Dejavuzz.Report.finding_to_string finding in
  Alcotest.(check bool) "iteration" true (contains line "7")

let test_bugcheck_inventory () =
  Alcotest.(check int) "five bugs" 5 (List.length E.Bugcheck.all);
  List.iter
    (fun b ->
      Alcotest.(check bool) "has CVE" true
        (contains (E.Bugcheck.cve b) "CVE-2024");
      let cfg = E.Bugcheck.vulnerable_core b in
      Alcotest.(check bool) "core named" true (String.length cfg.Cfg.name > 0))
    E.Bugcheck.all

let test_migrate_assembly_listing () =
  let rng = Dvz_util.Rng.create 3 in
  let seed = Dejavuzz.Seed.random_of_kind rng Dejavuzz.Seed.T_page_fault in
  let tc = Dejavuzz.Trigger_gen.generate Cfg.boom_small seed in
  let layout = Dejavuzz.Migrate.migrate tc in
  let asm = Dejavuzz.Migrate.render_assembly layout in
  Alcotest.(check bool) "entry comment" true (contains asm "# entry:");
  Alcotest.(check bool) "transient base listed" true (contains asm "transient")

(* --- VCD -------------------------------------------------------------------- *)

let test_vcd_multiple_scopes () =
  let open Dvz_ir in
  let nl = Netlist.create () in
  let a =
    Netlist.scoped nl "alpha" (fun () -> Netlist.input nl ~name:"a" 1)
  in
  let b =
    Netlist.scoped nl "beta" (fun () ->
        let q = Netlist.reg nl ~name:"b" 4 in
        Netlist.reg_connect nl q ~d:(Netlist.const nl 4 9) ();
        q)
  in
  ignore a;
  ignore b;
  let vcd =
    Vcd.dump_simulation nl ~cycles:3 ~drive:(fun sim _ ->
        Sim.set_input sim a 1)
  in
  Alcotest.(check bool) "alpha scope" true (contains vcd "$scope module alpha");
  Alcotest.(check bool) "beta scope" true (contains vcd "$scope module beta");
  Alcotest.(check bool) "register value dumped" true (contains vcd "b1001")

(* --- seed/report misc -------------------------------------------------------- *)

let test_seed_to_string () =
  let rng = Dvz_util.Rng.create 1 in
  let s = Dejavuzz.Seed.random rng in
  Alcotest.(check bool) "mentions kind" true
    (contains (Dejavuzz.Seed.to_string s) (Dejavuzz.Seed.kind_name s.Dejavuzz.Seed.kind))

let test_config_presets_disjoint_bugs () =
  let b = Cfg.boom_small and x = Cfg.xiangshan_minimal in
  Alcotest.(check bool) "B2 only on BOOM" true
    (b.Cfg.ras_restore_below_tos_bug && not x.Cfg.ras_restore_below_tos_bug);
  Alcotest.(check bool) "B3 only on BOOM" true
    (b.Cfg.btb_exception_race_bug && not x.Cfg.btb_exception_race_bug);
  Alcotest.(check bool) "B1 only on XiangShan" true
    (x.Cfg.addr_truncate_bug && not b.Cfg.addr_truncate_bug);
  Alcotest.(check bool) "B5 only on XiangShan" true
    (x.Cfg.load_wb_contention_bug && not b.Cfg.load_wb_contention_bug);
  Alcotest.(check bool) "annotation effort matches Table 2" true
    (Cfg.annotation_loc b = 212 && Cfg.annotation_loc x = 592)

let () =
  Alcotest.run "dvz_misc"
    [ ( "elem",
        [ Alcotest.test_case "module universe" `Quick test_elem_modules_stable;
          Alcotest.test_case "banking" `Quick test_elem_banking;
          Alcotest.test_case "equality" `Quick test_elem_equality ] );
      ( "effect", [ Alcotest.test_case "names" `Quick test_effect_names ] );
      ( "trace", [ Alcotest.test_case "slot line" `Quick test_trace_slot_content ] );
      ( "render",
        [ Alcotest.test_case "table5" `Quick test_table5_render_content;
          Alcotest.test_case "bugcheck inventory" `Quick test_bugcheck_inventory;
          Alcotest.test_case "migrate listing" `Quick test_migrate_assembly_listing ] );
      ( "vcd", [ Alcotest.test_case "scopes" `Quick test_vcd_multiple_scopes ] );
      ( "misc",
        [ Alcotest.test_case "seed printing" `Quick test_seed_to_string;
          Alcotest.test_case "preset bug disjointness" `Quick
            test_config_presets_disjoint_bugs ] ) ]
