(* Tests for the Dejavuzz library itself: seeds, packets, the three fuzzing
   phases (trigger generation/reduction, window completion/coverage,
   oracles) and the campaign manager. *)

open Dvz_soc
module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Elem = Dvz_uarch.Elem
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet
module Genlib = Dejavuzz.Genlib
module Trigger_gen = Dejavuzz.Trigger_gen
module Trigger_opt = Dejavuzz.Trigger_opt
module Window_gen = Dejavuzz.Window_gen
module Coverage = Dejavuzz.Coverage
module Corpus = Dejavuzz.Corpus
module Oracle = Dejavuzz.Oracle
module Campaign = Dejavuzz.Campaign
module Simpool = Dejavuzz.Simpool

let boom = Cfg.boom_small
let xs = Cfg.xiangshan_minimal
let secret = Array.make Layout.secret_dwords 0xFACE

(* --- seeds --------------------------------------------------------------- *)

let test_seed_mutation_preserves_trigger () =
  let rng = Rng.create 1 in
  let s = Seed.random rng in
  let s' = Seed.mutate_window rng s in
  Alcotest.(check bool) "same trigger" true
    (s.Seed.kind = s'.Seed.kind
    && s.Seed.trigger_entropy = s'.Seed.trigger_entropy);
  Alcotest.(check bool) "new window entropy" true
    (s.Seed.window_entropy <> s'.Seed.window_entropy)

let test_seed_kind_classification () =
  Alcotest.(check bool) "exceptions" true (Seed.is_exception Seed.T_page_fault);
  Alcotest.(check bool) "mispredictions" true
    (Seed.is_misprediction Seed.T_return);
  Alcotest.(check int) "eight kinds" 8 (Array.length Seed.all_kinds)

(* --- genlib -------------------------------------------------------------- *)

let test_genlib_li () =
  let check_li v =
    let insns = Genlib.li Dvz_isa.Reg.t0 v in
    let mem = Phys_mem.create () in
    Phys_mem.write_words mem 0x1000
      (Array.of_list (List.map Dvz_isa.Encode.encode insns));
    let g =
      Dvz_isa.Golden.create ~pc:0x1000 (Phys_mem.golden_memory mem)
    in
    List.iter (fun _ -> ignore (Dvz_isa.Golden.step g)) insns;
    Alcotest.(check int)
      (Printf.sprintf "li %d" v)
      v
      (Dvz_isa.Golden.reg g Dvz_isa.Reg.t0)
  in
  List.iter check_li [ 0; 1; -1; 2047; -2048; 0x1000; 0x5008; 0xF000; 123456 ]

let test_genlib_pad_to () =
  let insns = Genlib.pad_to [ Dvz_isa.Insn.Ebreak ] 5 in
  Alcotest.(check int) "padded" 5 (List.length insns);
  Alcotest.check_raises "too long"
    (Invalid_argument "Genlib.pad_to: sequence too long") (fun () ->
      ignore (Genlib.pad_to (Genlib.nops 6) 5))

let test_genlib_cond_operands () =
  let rng = Rng.create 3 in
  List.iter
    (fun cond ->
      List.iter
        (fun taken ->
          let v0, v1 = Genlib.random_cond_operands rng cond ~taken in
          Alcotest.(check bool)
            (Printf.sprintf "cond resolves to %b" taken)
            taken
            (Dvz_isa.Golden.cond_holds cond v0 v1))
        [ true; false ])
    [ Dvz_isa.Insn.Eq; Dvz_isa.Insn.Ne; Dvz_isa.Insn.Lt; Dvz_isa.Insn.Ge;
      Dvz_isa.Insn.Ltu; Dvz_isa.Insn.Geu ]

let test_genlib_illegal_word () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    match Dvz_isa.Decode.decode (Genlib.illegal_word rng) with
    | Dvz_isa.Insn.Illegal _ -> ()
    | i -> Alcotest.failf "decodes: %s" (Dvz_isa.Insn.to_string i)
  done

(* --- packets ------------------------------------------------------------- *)

let test_packet_stimulus_schedule () =
  let rng = Rng.create 5 in
  let seed = Seed.random_of_kind rng Seed.T_return in
  let tc = Trigger_gen.generate boom seed in
  let tc = Window_gen.complete boom tc in
  let stim = Packet.stimulus ~secret tc in
  let blobs = Swapmem.blobs stim.Core.st_swapmem in
  (* window trainings first, then trigger trainings, transient last *)
  let last = List.nth blobs (List.length blobs - 1) in
  Alcotest.(check bool) "transient last" true last.Swapmem.is_transient;
  Alcotest.(check int) "one transient blob" 1
    (List.length (List.filter (fun b -> b.Swapmem.is_transient) blobs))

let test_training_overhead_counts () =
  let p1 =
    Packet.make ~name:"a" ~role:Packet.Trigger_training ~training_total:10
      ~training_effective:2 (Genlib.nops 10)
  in
  let p2 =
    Packet.make ~name:"b" ~role:Packet.Window_training ~training_total:3
      ~training_effective:3 (Genlib.nops 3)
  in
  let tr = Packet.make ~name:"t" ~role:Packet.Transient [ Dvz_isa.Insn.Ebreak ] in
  let tc =
    { Packet.seed = Seed.random (Rng.create 0); transient = tr;
      trigger_trainings = [ p1 ]; window_trainings = [ p2 ];
      trigger_addr = 0; window_addr = 0; window_words = 0; data = [];
      perms = []; tighten = false; gadget_tags = [] }
  in
  let total, eff = Packet.training_overhead tc in
  Alcotest.(check int) "total" 13 total;
  Alcotest.(check int) "effective" 5 eff

(* --- phase 1 ------------------------------------------------------------- *)

let trigger_rate ?(style = `Derived) cfg kind n =
  let rng = Rng.create 1234 in
  let hits = ref 0 in
  for _ = 1 to n do
    let seed = Seed.random_of_kind rng kind in
    let tc = Trigger_gen.generate ~style ~force_training:true cfg seed in
    if Trigger_opt.evaluate cfg tc then incr hits
  done;
  float_of_int !hits /. float_of_int n

let test_all_kinds_trigger_on_xiangshan () =
  Array.iter
    (fun kind ->
      Alcotest.(check bool)
        (Seed.kind_name kind ^ " triggers")
        true
        (trigger_rate xs kind 10 > 0.9))
    Seed.all_kinds

let test_boom_kinds () =
  Array.iter
    (fun kind ->
      let rate = trigger_rate boom kind 10 in
      if kind = Seed.T_illegal then
        Alcotest.(check (float 0.01)) "illegal never triggers on BOOM" 0.0 rate
      else
        Alcotest.(check bool) (Seed.kind_name kind ^ " triggers") true
          (rate > 0.9))
    Seed.all_kinds

let test_random_training_fails_tagged_btb () =
  (* DejaVuzz* cannot train XiangShan's tagged BTB (Table 3's x cell) *)
  Alcotest.(check (float 0.01)) "jump windows untriggerable" 0.0
    (trigger_rate ~style:`Random xs Seed.T_jump 10)

let test_reduction_keeps_triggering () =
  let rng = Rng.create 77 in
  for _ = 1 to 10 do
    let seed = Seed.random_of_kind rng Seed.T_branch in
    let tc = Trigger_gen.generate ~force_training:true boom seed in
    if Trigger_opt.evaluate boom tc then begin
      let reduced, removed = Trigger_opt.reduce boom tc in
      Alcotest.(check bool) "still triggers" true
        (Trigger_opt.evaluate boom reduced);
      Alcotest.(check bool) "junk packets removed" true (removed >= 2);
      Alcotest.(check bool) "shrunk" true
        (List.length reduced.Packet.trigger_trainings
        < List.length tc.Packet.trigger_trainings)
    end
  done

let test_reduction_zero_for_exceptions () =
  let rng = Rng.create 78 in
  let seed = Seed.random_of_kind rng Seed.T_page_fault in
  let tc = Trigger_gen.generate boom seed in
  Alcotest.(check bool) "triggers" true (Trigger_opt.evaluate boom tc);
  let reduced, _ = Trigger_opt.reduce boom tc in
  let total, eff = Packet.training_overhead reduced in
  Alcotest.(check int) "TO 0" 0 total;
  Alcotest.(check int) "ETO 0" 0 eff

let test_reduction_noop_when_untriggered () =
  let rng = Rng.create 79 in
  let seed = Seed.random_of_kind rng Seed.T_illegal in
  let tc = Trigger_gen.generate boom seed in
  let reduced, removed = Trigger_opt.reduce boom tc in
  Alcotest.(check int) "no removal" 0 removed;
  Alcotest.(check bool) "unchanged" true (reduced == tc)

let test_expected_window_matcher () =
  Alcotest.(check bool) "access fault matches" true
    (Trigger_gen.expected_window
       { Seed.kind = Seed.T_access_fault; trigger_entropy = 0;
         window_entropy = 0; tighten = false; mask_high = false }
       (Dvz_uarch.Effect.W_exception Dvz_isa.Trap.Load_access_fault));
  Alcotest.(check bool) "kind mismatch rejected" false
    (Trigger_gen.expected_window
       { Seed.kind = Seed.T_branch; trigger_entropy = 0; window_entropy = 0;
         tighten = false; mask_high = false }
       Dvz_uarch.Effect.W_return_mispred)

(* --- phase 2 ------------------------------------------------------------- *)

let completed_tc ?(kind = Seed.T_page_fault) ?(cfg = boom) entropy =
  let rng = Rng.create entropy in
  let seed = Seed.random_of_kind rng kind in
  let tc = Trigger_gen.generate ~force_training:true cfg seed in
  Alcotest.(check bool) "triggers" true (Trigger_opt.evaluate cfg tc);
  Window_gen.complete cfg tc

let test_window_completion_replaces_nops () =
  let tc0_rng = Rng.create 7 in
  let seed = Seed.random_of_kind tc0_rng Seed.T_page_fault in
  let tc0 = Trigger_gen.generate boom seed in
  let tc = Window_gen.complete boom tc0 in
  let idx = (tc.Packet.window_addr - Layout.swap_base) / 4 in
  let insns = Array.of_list tc.Packet.transient.Packet.insns in
  Alcotest.(check bool) "first window insn is the secret access" true
    (match insns.(idx) with Dvz_isa.Insn.Load _ -> true | _ -> false);
  Alcotest.(check bool) "gadget tags recorded" true (tc.Packet.gadget_tags <> []);
  Alcotest.(check int) "window trainings attached" 2
    (List.length tc.Packet.window_trainings)

let test_window_completion_deterministic () =
  let tc1 = completed_tc 9 and tc2 = completed_tc 9 in
  Alcotest.(check bool) "same window from same entropy" true
    (tc1.Packet.transient.Packet.insns = tc2.Packet.transient.Packet.insns)

let test_sanitize_keeps_access_block () =
  let tc = completed_tc 11 in
  let san = Window_gen.sanitize boom tc in
  let idx = (tc.Packet.window_addr - Layout.swap_base) / 4 in
  let orig = Array.of_list tc.Packet.transient.Packet.insns in
  let sanitized = Array.of_list san.Packet.transient.Packet.insns in
  Alcotest.(check bool) "access block preserved" true
    (orig.(idx) = sanitized.(idx));
  (* everything after the access block is nops *)
  let all_nops = ref true in
  for i = idx + 1 to idx + tc.Packet.window_words - 1 do
    if sanitized.(i) <> Dvz_isa.Insn.nop then all_nops := false
  done;
  Alcotest.(check bool) "encoding block nop'd" true !all_nops

let test_disamb_window_uses_stale_pointer () =
  let tc = completed_tc ~kind:Seed.T_mem_disamb 13 in
  let idx = (tc.Packet.window_addr - Layout.swap_base) / 4 in
  let insns = Array.of_list tc.Packet.transient.Packet.insns in
  match insns.(idx) with
  | Dvz_isa.Insn.Load (_, _, _, rs1, _) ->
      Alcotest.(check bool) "reads via a2" true
        (Dvz_isa.Reg.equal rs1 Dvz_isa.Reg.a2)
  | i -> Alcotest.failf "unexpected %s" (Dvz_isa.Insn.to_string i)

(* --- coverage ------------------------------------------------------------ *)

let test_coverage_accumulates () =
  let cov = Coverage.create () in
  let tc = completed_tc 15 in
  let result = Dualcore.run (Dualcore.create boom (Packet.stimulus ~secret tc)) in
  let fresh1 = Coverage.observe_result cov result in
  Alcotest.(check bool) "first run covers points" true (fresh1 > 0);
  let fresh2 = Coverage.observe_result cov result in
  Alcotest.(check int) "identical run adds nothing" 0 fresh2;
  Alcotest.(check int) "points persist" fresh1 (Coverage.points cov)

let test_coverage_position_insensitive () =
  let cov = Coverage.create () in
  (* two window slots with the same per-module counts are the same point *)
  ignore (Coverage.observe cov [ [ ("lsu.dcache.bank0", 2) ] ]);
  Alcotest.(check int) "one point" 1 (Coverage.points cov);
  ignore (Coverage.observe cov [ [ ("lsu.dcache.bank0", 2) ] ]);
  Alcotest.(check int) "still one" 1 (Coverage.points cov);
  ignore (Coverage.observe cov [ [ ("lsu.dcache.bank0", 3) ] ]);
  Alcotest.(check int) "new count = new point" 2 (Coverage.points cov)

(* A tag no element has is refused by name, not folded into some other
   module's row. *)
let test_coverage_unknown_tag () =
  let refused name f =
    Alcotest.check_raises name
      (Invalid_argument
         (Printf.sprintf "Coverage.%s: unknown module tag \"lsu.dcache\"" name))
      (fun () -> ignore (f ()))
  in
  refused "observe" (fun () ->
      Coverage.observe (Coverage.create ()) [ [ ("lsu.dcache", 2) ] ]);
  refused "of_list" (fun () -> Coverage.of_list [ ("lsu.dcache", 2) ]);
  Alcotest.check_raises "count below 1"
    (Invalid_argument "Coverage.of_list: count 0 of rob is not positive")
    (fun () -> ignore (Coverage.of_list [ ("rob", 0) ]))

let test_coverage_merge_equals_sequential () =
  let result e =
    let tc = completed_tc e in
    Dualcore.run (Dualcore.create boom (Packet.stimulus ~secret tc))
  in
  let r1 = result 15 and r2 = result 23 in
  (* sequential observation into one matrix *)
  let seq = Coverage.create () in
  let f1 = Coverage.observe_result seq r1 in
  let f2 = Coverage.observe_result seq r2 in
  (* the same runs observed into per-shard matrices, then merged *)
  let s1 = Coverage.create () and s2 = Coverage.create () in
  ignore (Coverage.observe_result s1 r1);
  ignore (Coverage.observe_result s2 r2);
  let merged = Coverage.create () in
  Alcotest.(check int) "first shard all fresh" f1 (Coverage.merge merged s1);
  Alcotest.(check int) "second shard overlap discounted" f2
    (Coverage.merge merged s2);
  Alcotest.(check bool) "same point set" true
    (Coverage.to_list seq = Coverage.to_list merged);
  Alcotest.(check int) "re-merge adds nothing" 0 (Coverage.merge merged s1)

let random_tc ?(style = `Derived) cfg e =
  let rng = Rng.create e in
  Window_gen.complete cfg (Trigger_gen.generate ~style cfg (Seed.random rng))

let mode_of diffift =
  if diffift then Dvz_ift.Policy.Diffift else Dvz_ift.Policy.Cellift

(* §4.2.2's point set derived by hand on a pooled testbench, stepped the
   way [Dualcore.step] does it: both cores, then the taint pair, and after
   every slot in which instance A's slot is transient, each non-zero
   per-module count is a point, keyed by its tag. *)
let window_points_by_hand ~mode cfg tc =
  let dc = Simpool.acquire ~mode cfg (Packet.stimulus ~secret tc) in
  let a = Dualcore.core_a dc and b = Dualcore.core_b dc in
  let taint = Dualcore.taint dc in
  let points = ref [] in
  while not (Core.is_done a && Core.is_done b) do
    let sa = Core.step a in
    let sb = Core.step b in
    if sa <> None || sb <> None then begin
      Dvz_uarch.Taintstate.apply_pair taint sa sb;
      match sa with
      | Some s when s.Dvz_uarch.Effect.sl_transient ->
          points := Dvz_uarch.Taintstate.tainted_by_module taint @ !points
      | _ -> ()
    end
  done;
  List.sort_uniq compare !points

(* The packed points of [Coverage] against that (tag, count) definition,
   on two random completed test cases of either preset, mode and training
   style: one run observed alone, both observed in sequence, both as
   merged per-run shards, and the [to_list]/[of_list] roundtrip. *)
let prop_coverage_points_by_hand =
  QCheck.Test.make
    ~name:"observed points equal the window slots' per-module counts"
    ~count:40
    QCheck.(pair (quad small_int bool bool bool) small_int)
    (fun ((e1, xiangshan, diffift, random), e2) ->
      let cfg = if xiangshan then xs else boom in
      let mode = mode_of diffift in
      let style = if random then `Random else `Derived in
      let case e =
        let tc = random_tc ~style cfg e in
        let expected = window_points_by_hand ~mode cfg tc in
        ( expected,
          Dualcore.run (Simpool.acquire ~mode cfg (Packet.stimulus ~secret tc))
        )
      in
      let expected1, r1 = case e1 and expected2, r2 = case e2 in
      let both = List.sort_uniq compare (expected1 @ expected2) in
      let seq = Coverage.create () in
      let fresh1 = Coverage.observe_result seq r1 in
      let fresh2 = Coverage.observe_result seq r2 in
      let shard r =
        let c = Coverage.create () in
        ignore (Coverage.observe_result c r);
        c
      in
      let s1 = shard r1 in
      let merged = Coverage.create () in
      let merged1 = Coverage.merge merged s1 in
      let merged2 = Coverage.merge merged (shard r2) in
      let restored = Coverage.of_list (Coverage.to_list seq) in
      Coverage.to_list s1 = expected1
      && fresh1 = List.length expected1
      && Coverage.to_list seq = both
      && fresh1 + fresh2 = List.length both
      && (merged1, merged2) = (fresh1, fresh2)
      && Coverage.to_list merged = both
      && Coverage.points restored = Coverage.points seq
      && Coverage.merge restored seq = 0
      && Coverage.to_list restored = both)

(* --- corpus -------------------------------------------------------------- *)

let corpus_tc entropy =
  let rng = Rng.create entropy in
  Trigger_gen.generate boom (Seed.random rng)

let corpus_of ~cap specs =
  let c = Corpus.create ~cap in
  List.iter
    (fun (b, r) -> Corpus.admit c ~birth:b ~reward:r (corpus_tc b))
    specs;
  c

let births c = List.map (fun e -> e.Corpus.en_birth) (Corpus.entries c)

let test_corpus_cap_eviction () =
  let c = corpus_of ~cap:3 [ (0, 5); (1, 1); (2, 7); (3, 1); (4, 3) ] in
  Alcotest.(check int) "capped" 3 (Corpus.size c);
  Alcotest.(check (list int)) "highest rewards survive" [ 0; 2; 4 ] (births c);
  (* reward ties break toward the youngest birth *)
  let t = corpus_of ~cap:2 [ (0, 4); (1, 4); (2, 4) ] in
  Alcotest.(check (list int)) "ties keep the young" [ 1; 2 ] (births t);
  (* blind policy: replace_all keeps exactly the latest seed *)
  Corpus.replace_all t ~birth:9 (corpus_tc 9);
  Alcotest.(check (list int)) "replace_all keeps one" [ 9 ] (births t)

let test_corpus_choose_weighted () =
  let c = Corpus.create ~cap:8 in
  let light = corpus_tc 0 and heavy = corpus_tc 1 in
  Corpus.admit c ~birth:0 ~reward:0 light;
  (* weight 1 *)
  Corpus.admit c ~birth:1 ~reward:19 heavy;
  (* weight 20 *)
  let rng = Rng.create 7 in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Corpus.choose c rng == heavy then incr hits
  done;
  (* expectation 20/21 of 1000; anything over 850 is far from uniform *)
  Alcotest.(check bool) "picks follow reward weight" true (!hits > 850);
  Alcotest.check_raises "empty corpus refuses"
    (Invalid_argument "Corpus.choose: corpus is empty") (fun () ->
      ignore (Corpus.choose (Corpus.create ~cap:4) rng))

let test_corpus_entries_roundtrip () =
  let c = corpus_of ~cap:4 [ (3, 2); (7, 9); (11, 1); (12, 0) ] in
  (* of_entries accepts any order and restores the birth sort *)
  let c' = Corpus.of_entries ~cap:4 (List.rev (Corpus.entries c)) in
  Alcotest.(check bool) "roundtrip preserves entries" true
    (Corpus.entries c = Corpus.entries c');
  let snap = Corpus.snapshot c in
  Corpus.admit c ~birth:20 ~reward:50 (corpus_tc 20);
  Alcotest.(check bool) "snapshot frozen" false (List.mem 20 (births snap));
  Alcotest.(check bool) "original grew" true (List.mem 20 (births c))

(* --- phase 3 / oracle ---------------------------------------------------- *)

let test_oracle_detects_dcache_leak () =
  (* find a seed whose window contains the dcache gadget and no timing
     gadget, then the oracle must report an encode leak via dcache *)
  let rng = Rng.create 21 in
  let rec search tries =
    if tries = 0 then Alcotest.fail "no dcache-only window found"
    else begin
      let seed = Seed.random_of_kind rng Seed.T_page_fault in
      let seed = { seed with Seed.tighten = true; mask_high = false } in
      let tc = Trigger_gen.generate boom seed in
      if Trigger_opt.evaluate boom tc then begin
        let tc = Window_gen.complete boom tc in
        let tags = tc.Packet.gadget_tags in
        let timing_tags =
          List.filter (fun t -> List.mem t [ "fpu"; "lsu"; "refetch" ]) tags
        in
        if List.mem "dcache" tags && timing_tags = [] then begin
          let a = Oracle.analyze boom ~secret tc in
          Alcotest.(check bool) "leak found" true (Oracle.is_leak a);
          (* The secret-indexed probe loads may also produce a cache-timing
             difference, which the constant-time check reports first; keep
             searching until a pure encode-leak case appears. *)
          match a.Oracle.a_leaks with
          | [ Oracle.Encode { components; _ } ] ->
              Alcotest.(check bool) "dcache component" true
                (List.mem "dcache" components)
          | _ -> search (tries - 1)
        end
        else search (tries - 1)
      end
      else search (tries - 1)
    end
  in
  search 300

let test_oracle_attack_classification () =
  let rng = Rng.create 23 in
  let rec search tries =
    if tries = 0 then Alcotest.fail "no triggering meltdown seed"
    else begin
      let seed = Seed.random_of_kind rng Seed.T_access_fault in
      let seed = { seed with Seed.tighten = true; mask_high = false } in
      let tc = Trigger_gen.generate boom seed in
      if Trigger_opt.evaluate boom tc then begin
        let tc = Window_gen.complete boom tc in
        let a = Oracle.analyze boom ~secret tc in
        Alcotest.(check bool) "meltdown" true (a.Oracle.a_attack = Some `Meltdown)
      end
      else search (tries - 1)
    end
  in
  search 50

let test_oracle_liveness_filters_prf () =
  (* without liveness, residual speculative-register taints surface *)
  let tc = completed_tc 25 in
  let with_lv = Oracle.analyze boom ~secret tc in
  let without = Oracle.analyze ~use_liveness:false boom ~secret tc in
  Alcotest.(check bool) "all-sinks superset of live sinks" true
    (List.length without.Oracle.a_all_sinks
    >= List.length with_lv.Oracle.a_live_sinks)

let test_component_mapping () =
  Alcotest.(check (option string)) "dcache" (Some "dcache")
    (Oracle.component_of_module "lsu.dcache");
  Alcotest.(check (option string)) "arch excluded" None
    (Oracle.component_of_module "core.arf");
  Alcotest.(check (option string)) "mem excluded" None
    (Oracle.component_of_module "mem")

(* --- extensions (§7) ------------------------------------------------------ *)

let test_oracle_retries_deterministic () =
  let tc = completed_tc 31 in
  let a1 = Oracle.analyze_with_retries ~retries:3 boom ~secret tc in
  let a2 = Oracle.analyze_with_retries ~retries:3 boom ~secret tc in
  Alcotest.(check bool) "same verdict" (Oracle.is_leak a1) (Oracle.is_leak a2)

let test_oracle_retries_finds_at_least_single () =
  (* retries can only help: if a single attempt leaks, so does the retry
     wrapper *)
  let tc = completed_tc 33 in
  let single = Oracle.analyze boom ~secret tc in
  let retried = Oracle.analyze_with_retries ~retries:3 boom ~secret tc in
  if Oracle.is_leak single then
    Alcotest.(check bool) "retry preserves leak" true (Oracle.is_leak retried)

let test_migrate_layout () =
  let tc = completed_tc ~kind:Seed.T_page_fault 35 in
  let layout = Dejavuzz.Migrate.migrate tc in
  Alcotest.(check bool) "one base per packet" true
    (List.length layout.Dejavuzz.Migrate.lo_bases
    = List.length tc.Packet.window_trainings
      + List.length tc.Packet.trigger_trainings
      + 1);
  (* bases are alignment-preserving and inside the flat region *)
  List.iter
    (fun (_, b) ->
      Alcotest.(check int) "aligned" 0 (b mod 0x400);
      Alcotest.(check bool) "in region" true (b >= 0x2000 && b < 0x4000))
    layout.Dejavuzz.Migrate.lo_bases;
  let asm = Dejavuzz.Migrate.render_assembly layout in
  Alcotest.(check bool) "assembly rendered" true (String.length asm > 100)

let test_migrate_exception_windows_still_trigger () =
  let rng = Rng.create 41 in
  let hits = ref 0 and tot = ref 0 in
  for _ = 1 to 8 do
    let seed = Seed.random_of_kind rng Seed.T_page_fault in
    let tc = Trigger_gen.generate boom seed in
    if Trigger_opt.evaluate boom tc then begin
      incr tot;
      if Dejavuzz.Migrate.runs_on_flat_memory boom ~secret tc then incr hits
    end
  done;
  Alcotest.(check int) "all migrated page-fault windows trigger" !tot !hits

let test_migrate_branch_windows_still_trigger () =
  let rng = Rng.create 43 in
  let hits = ref 0 and tot = ref 0 in
  for _ = 1 to 8 do
    let seed = Seed.random_of_kind rng Seed.T_branch in
    let tc = Trigger_gen.generate ~force_training:true boom seed in
    if Trigger_opt.evaluate boom tc then begin
      incr tot;
      let tc, _ = Trigger_opt.reduce boom tc in
      if Dejavuzz.Migrate.runs_on_flat_memory boom ~secret tc then incr hits
    end
  done;
  Alcotest.(check int) "aligned relocation preserves branch training" !tot !hits

(* --- campaign ------------------------------------------------------------ *)

let test_campaign_smoke () =
  let options =
    { Campaign.default_options with Campaign.iterations = 40; rng_seed = 3 }
  in
  let stats = Campaign.run boom options in
  Alcotest.(check int) "curve length" 40
    (Array.length stats.Campaign.s_coverage_curve);
  Alcotest.(check bool) "coverage grew" true (stats.Campaign.s_final_coverage > 0);
  Alcotest.(check bool) "monotone curve" true
    (let ok = ref true in
     for i = 1 to 39 do
       if stats.Campaign.s_coverage_curve.(i)
          < stats.Campaign.s_coverage_curve.(i - 1)
       then ok := false
     done;
     !ok);
  Alcotest.(check bool) "found something" true
    (stats.Campaign.s_findings <> [])

let test_campaign_deterministic () =
  let options =
    { Campaign.default_options with Campaign.iterations = 15; rng_seed = 4 }
  in
  let a = Campaign.run boom options and b = Campaign.run boom options in
  Alcotest.(check bool) "same curve" true
    (a.Campaign.s_coverage_curve = b.Campaign.s_coverage_curve);
  Alcotest.(check int) "same findings"
    (List.length a.Campaign.s_findings)
    (List.length b.Campaign.s_findings)

let run_with_events ?jobs options =
  let buf = Buffer.create 4096 in
  let telemetry =
    { Campaign.quiet with Campaign.t_events = Dvz_obs.Events.to_buffer buf }
  in
  let stats = Campaign.run ~telemetry ?jobs boom options in
  match Dvz_obs.Json.of_lines (Buffer.contents buf) with
  | Ok events -> (stats, events)
  | Error e -> Alcotest.failf "unparseable event log: %s" e

(* Wall-clock fields are the only event payload allowed to vary with the
   execution resources. *)
let strip_timing = function
  | Dvz_obs.Json.Obj fields ->
      Dvz_obs.Json.Obj
        (List.filter
           (fun (k, _) ->
             not
               (List.mem k [ "phase1_s"; "phase2_s"; "phase3_s"; "elapsed_s" ]))
           fields)
  | ev -> ev

let test_campaign_jobs_invariant () =
  let options =
    { Campaign.default_options with
      Campaign.iterations = 24; rng_seed = 9; batch = 4 }
  in
  let a, ea = run_with_events ~jobs:1 options in
  let b, eb = run_with_events ~jobs:3 options in
  Alcotest.(check bool) "stats identical across jobs" true (a = b);
  Alcotest.(check bool) "event streams identical modulo timing" true
    (List.map strip_timing ea = List.map strip_timing eb)

let test_campaign_batch_deterministic () =
  let options =
    { Campaign.default_options with
      Campaign.iterations = 20; rng_seed = 11; batch = 5 }
  in
  let a = Campaign.run boom options and b = Campaign.run boom options in
  Alcotest.(check bool) "batched run deterministic" true (a = b);
  Alcotest.(check int) "curve covers every iteration" 20
    (Array.length a.Campaign.s_coverage_curve)

let test_campaign_tight_corpus_cap () =
  Alcotest.(check int) "default cap" 64
    Campaign.default_options.Campaign.corpus_cap;
  let options =
    { Campaign.default_options with
      Campaign.iterations = 20; rng_seed = 3; corpus_cap = 2 }
  in
  let a = Campaign.run boom options and b = Campaign.run boom options in
  Alcotest.(check bool) "deterministic under a tight cap" true (a = b);
  Alcotest.(check bool) "still covers points" true
    (a.Campaign.s_final_coverage > 0)

let test_campaign_engine_validation () =
  let options = { Campaign.default_options with Campaign.iterations = 1 } in
  Alcotest.check_raises "batch >= 1"
    (Invalid_argument "Campaign.run: options.batch must be at least 1")
    (fun () -> ignore (Campaign.run boom { options with Campaign.batch = 0 }));
  Alcotest.check_raises "corpus_cap >= 1"
    (Invalid_argument "Campaign.run: options.corpus_cap must be at least 1")
    (fun () ->
      ignore (Campaign.run boom { options with Campaign.corpus_cap = 0 }));
  Alcotest.check_raises "jobs >= 1"
    (Invalid_argument "Campaign.run: jobs must be at least 1") (fun () ->
      ignore (Campaign.run ~jobs:0 boom options))

(* A negative count is refused by name; zero iterations is an empty run. *)
let test_campaign_negative_iterations () =
  Alcotest.check_raises "iterations >= 0"
    (Invalid_argument "Campaign.run: options.iterations must not be negative")
    (fun () ->
      ignore
        (Campaign.run boom
           { Campaign.default_options with Campaign.iterations = -1 }));
  let stats =
    Campaign.run boom { Campaign.default_options with Campaign.iterations = 0 }
  in
  Alcotest.(check int) "zero iterations run nothing" 0
    (Array.length stats.Campaign.s_coverage_curve)

let test_campaign_dedup () =
  let options =
    { Campaign.default_options with Campaign.iterations = 60; rng_seed = 5 }
  in
  let stats = Campaign.run boom options in
  let keys = List.map Campaign.dedup_key stats.Campaign.s_findings in
  Alcotest.(check int) "no duplicate findings" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_report_rendering () =
  let options =
    { Campaign.default_options with Campaign.iterations = 30; rng_seed = 6 }
  in
  let stats = Campaign.run boom options in
  let summary = Dejavuzz.Report.summary stats in
  Alcotest.(check bool) "summary nonempty" true (String.length summary > 0);
  let t5 =
    Dejavuzz.Report.table5 ~core_name:"BOOM" stats.Campaign.s_findings
  in
  Alcotest.(check bool) "table rendered" true (String.length t5 > 0)

let test_window_group () =
  Alcotest.(check string) "mem-excp" "mem-excp"
    (Dejavuzz.Report.window_group Seed.T_misalign);
  Alcotest.(check string) "mispred" "mispred"
    (Dejavuzz.Report.window_group Seed.T_jump);
  Alcotest.(check string) "illegal" "illegal"
    (Dejavuzz.Report.window_group Seed.T_illegal)

let test_oracle_deterministic () =
  let tc = completed_tc 51 in
  let a1 = Oracle.analyze boom ~secret tc in
  let a2 = Oracle.analyze boom ~secret tc in
  Alcotest.(check bool) "same verdict" (Oracle.is_leak a1) (Oracle.is_leak a2);
  Alcotest.(check int) "same live sinks"
    (List.length a1.Oracle.a_live_sinks)
    (List.length a2.Oracle.a_live_sinks)

let test_reduce_idempotent () =
  let rng = Rng.create 53 in
  let seed = Seed.random_of_kind rng Seed.T_jump in
  let tc = Trigger_gen.generate ~force_training:true boom seed in
  if Trigger_opt.evaluate boom tc then begin
    let once, _ = Trigger_opt.reduce boom tc in
    let twice, removed = Trigger_opt.reduce boom once in
    Alcotest.(check int) "second pass removes nothing" 0 removed;
    Alcotest.(check int) "same packet count"
      (List.length once.Packet.trigger_trainings)
      (List.length twice.Packet.trigger_trainings)
  end

let test_trainings_order_irrelevant_for_triggering () =
  (* a reduced test case must keep triggering if its (independent) training
     packets are reordered, since each is isolated by swapMem *)
  let rng = Rng.create 57 in
  let rec find tries =
    if tries = 0 then ()
    else begin
      let seed = Seed.random_of_kind rng Seed.T_branch in
      let tc = Trigger_gen.generate ~force_training:true boom seed in
      if Trigger_opt.evaluate boom tc then begin
        let reduced, _ = Trigger_opt.reduce boom tc in
        let reversed =
          Packet.with_trigger_trainings reduced
            (List.rev reduced.Packet.trigger_trainings)
        in
        Alcotest.(check bool) "reordered trainings still trigger" true
          (Trigger_opt.evaluate boom reversed)
      end
      else find (tries - 1)
    end
  in
  find 10

let test_campaign_cellift_mode_runs () =
  let options =
    { Campaign.default_options with
      Campaign.iterations = 20; rng_seed = 8;
      taint_mode = Dvz_ift.Policy.Cellift }
  in
  let stats = Campaign.run boom options in
  Alcotest.(check bool) "coverage measured" true
    (stats.Campaign.s_final_coverage > 0)

let prop_window_fits_budget =
  QCheck.Test.make ~name:"completed windows never exceed the window section"
    ~count:80 QCheck.small_int (fun e ->
      let rng = Rng.create e in
      let seed = Seed.random rng in
      let tc = Trigger_gen.generate boom seed in
      let completed = Window_gen.complete boom tc in
      List.length completed.Packet.transient.Packet.insns
      = List.length tc.Packet.transient.Packet.insns)

(* --- provenance explain (observability) ----------------------------------- *)

module Explain = Dejavuzz.Explain
module Provenance = Dvz_ift.Provenance

(* Search for a testcase whose oracle verdict matches [attack], like the
   campaign loop would. *)
let leaking_tc kind attack =
  let rec search entropy =
    if entropy > 300 then Alcotest.failf "no leaking %s testcase found" attack
    else begin
      let rng = Rng.create entropy in
      let seed = Seed.random_of_kind rng kind in
      let tc = Trigger_gen.generate ~force_training:true boom seed in
      if Trigger_opt.evaluate boom tc then begin
        let tc = Window_gen.complete boom tc in
        let a = Oracle.analyze boom ~secret tc in
        let matches =
          match (attack, a.Oracle.a_attack) with
          | "meltdown", Some `Meltdown -> Oracle.is_leak a
          | "spectre", Some `Spectre -> Oracle.is_leak a
          | _ -> false
        in
        if matches then tc else search (entropy + 1)
      end
      else search (entropy + 1)
    end
  in
  search 1

let secret_source = function
  | Some s ->
      Alcotest.(check bool)
        (Printf.sprintf "source %s is a secret word" s)
        true
        (String.length s > 4 && String.sub s 0 4 = "mem[")
  | None -> Alcotest.fail "no source attributed"

let check_explain attack kind =
  let tc = leaking_tc kind attack in
  let stim = Packet.stimulus ~secret tc in
  let x = Explain.explain ~attack boom stim in
  secret_source (Explain.source x);
  Alcotest.(check bool) "at least one slice" true (x.Explain.x_slices <> []);
  List.iter
    (fun sl ->
      match (sl.Explain.sl_edges, List.rev sl.Explain.sl_edges) with
      | first :: _, last :: _ ->
          Alcotest.(check string) "slice ends at its sink"
            sl.Explain.sl_sink last.Provenance.e_dst;
          Alcotest.(check bool) "slice starts at an origin" true
            (first.Provenance.e_srcs = [])
      | _ -> Alcotest.failf "empty slice for %s" sl.Explain.sl_sink)
    x.Explain.x_slices;
  (* replaying the same stimulus must reproduce the renders byte for byte *)
  let x2 = Explain.explain ~attack boom stim in
  Alcotest.(check string) "text render deterministic"
    (Explain.render_text x) (Explain.render_text x2);
  Alcotest.(check string) "dot render deterministic"
    (Explain.render_dot x) (Explain.render_dot x2)

let test_explain_meltdown () = check_explain "meltdown" Seed.T_page_fault
let test_explain_spectre () = check_explain "spectre" Seed.T_branch

let test_explain_artifact_roundtrip () =
  let tc = leaking_tc Seed.T_page_fault "meltdown" in
  let x = Explain.explain ~attack:"meltdown" boom (Packet.stimulus ~secret tc) in
  match Explain.replay_artifact (Explain.to_json x) with
  | Error e -> Alcotest.fail e
  | Ok x' ->
      Alcotest.(check string) "artifact replay reproduces the explanation"
        (Explain.render_text x) (Explain.render_text x');
      Alcotest.(check (option string)) "same source" (Explain.source x)
        (Explain.source x')

let test_explain_rejects_bad_artifact () =
  let j = Dvz_obs.Json.Obj [ ("schema", Dvz_obs.Json.Str "nope") ] in
  Alcotest.(check bool) "schema mismatch rejected" true
    (match Explain.replay_artifact j with Error _ -> true | Ok _ -> false)

let test_campaign_explain_dir () =
  let dir = Filename.temp_file "dvz_explain" "" in
  Sys.remove dir;
  let tel = { Campaign.quiet with Campaign.t_explain_dir = Some dir } in
  let options = { Campaign.default_options with Campaign.iterations = 12 } in
  let stats = Campaign.run ~telemetry:tel boom options in
  Alcotest.(check bool) "found something" true (stats.Campaign.s_findings <> []);
  List.iter
    (fun f -> secret_source f.Campaign.fd_source)
    stats.Campaign.s_findings;
  let artifacts =
    List.filter
      (fun f ->
        Filename.check_suffix f ".json"
        && String.length f >= 8 && String.sub f 0 8 = "finding-")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "artifacts written" true (artifacts <> []);
  (* every artifact replays, and its source matches a recorded finding *)
  let sources =
    List.filter_map (fun f -> f.Campaign.fd_source) stats.Campaign.s_findings
  in
  List.iter
    (fun a ->
      let text =
        In_channel.with_open_text (Filename.concat dir a) In_channel.input_all
      in
      match Dvz_obs.Json.of_string text with
      | Error e -> Alcotest.fail e
      | Ok j -> (
          match Explain.replay_artifact j with
          | Error e -> Alcotest.fail e
          | Ok x ->
              Alcotest.(check bool)
                (Printf.sprintf "%s source matches a finding" a)
                true
                (match Explain.source x with
                | Some s -> List.mem s sources
                | None -> false)))
    artifacts;
  (* telemetry must stay neutral: same run without explain dir, same stats *)
  let plain = Campaign.run boom options in
  Alcotest.(check bool) "explain replay does not perturb fuzzing" true
    (plain.Campaign.s_coverage_curve = stats.Campaign.s_coverage_curve
    && List.map (fun f -> f.Campaign.fd_iteration) plain.Campaign.s_findings
       = List.map (fun f -> f.Campaign.fd_iteration) stats.Campaign.s_findings);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* properties *)

let prop_generate_never_raises =
  QCheck.Test.make ~name:"trigger generation is total" ~count:100
    QCheck.small_int (fun e ->
      let rng = Rng.create e in
      let seed = Seed.random rng in
      let tc = Trigger_gen.generate boom seed in
      List.length tc.Packet.transient.Packet.insns > 0)

let prop_stimulus_buildable =
  QCheck.Test.make ~name:"every generated testcase builds a stimulus"
    ~count:60 QCheck.small_int (fun e ->
      let rng = Rng.create e in
      let seed = Seed.random rng in
      let tc = Trigger_gen.generate xs seed in
      let tc = Window_gen.complete xs tc in
      let stim = Packet.stimulus ~secret tc in
      stim.Core.st_max_slots > 0)

(* --- instance pool (pooled-vs-fresh bit-identity) ------------------------- *)

(* Structural equality over the whole [Dualcore.result] is the strongest
   cheap check: window records, window points, slot/cycle/commit counts
   and all three sink partitions are plain data.  The final core
   state hashes close the loop on state the result doesn't carry. *)
let run_result dc =
  let r = Dualcore.run dc in
  ( r,
    Core.state_hash (Dualcore.core_a dc),
    Core.state_hash (Dualcore.core_b dc) )

let prop_pooled_reset_equals_fresh =
  QCheck.Test.make
    ~name:"reset instance bit-identical to fresh create (both modes)"
    ~count:15
    QCheck.(pair small_int bool)
    (fun (e, diffift) ->
      let mode =
        if diffift then Dvz_ift.Policy.Diffift else Dvz_ift.Policy.Cellift
      in
      let tc_of k =
        let rng = Rng.create k in
        Window_gen.complete boom (Trigger_gen.generate boom (Seed.random rng))
      in
      let tc_prime = tc_of (e + 1000) and tc = tc_of e in
      let fresh =
        run_result (Dualcore.create ~mode boom (Packet.stimulus ~secret tc))
      in
      (* Dirty an instance with a different stimulus first so the reset
         path has real state to clear, then re-arm it with the target. *)
      let dc =
        Dualcore.create ~mode boom (Packet.stimulus ~secret tc_prime)
      in
      ignore (Dualcore.run dc);
      Dualcore.reset dc (Packet.stimulus ~secret tc);
      run_result dc = fresh)

let prop_pooled_oracle_analysis_stable =
  QCheck.Test.make
    ~name:"oracle analysis identical from cold and warm pools (both modes)"
    ~count:10
    QCheck.(pair small_int bool)
    (fun (e, diffift) ->
      let mode =
        if diffift then Dvz_ift.Policy.Diffift else Dvz_ift.Policy.Cellift
      in
      let rng = Rng.create e in
      let tc =
        Window_gen.complete boom (Trigger_gen.generate boom (Seed.random rng))
      in
      Simpool.clear ();
      let cold = Oracle.analyze ~mode boom ~secret tc in
      let warm = Oracle.analyze ~mode boom ~secret tc in
      (* Prime the pool with a different key so the next analysis goes
         through a create-after-mismatch, then an in-analysis reset. *)
      let other = Oracle.analyze ~mode xs ~secret tc in
      ignore other.Oracle.a_timed_out;
      let recreated = Oracle.analyze ~mode boom ~secret tc in
      cold = warm && cold = recreated)

let test_simpool_identity_and_keys () =
  Simpool.clear ();
  Alcotest.(check bool) "empty after clear" true (Simpool.cached () = None);
  let tc = completed_tc 61 in
  let stim () = Packet.stimulus ~secret tc in
  let d1 = Simpool.acquire boom (stim ()) in
  let d2 = Simpool.acquire boom (stim ()) in
  Alcotest.(check bool) "same key reuses the instance" true (d1 == d2);
  let d3 = Simpool.acquire ~mode:Dvz_ift.Policy.Cellift boom (stim ()) in
  Alcotest.(check bool) "mode is part of the key" true (not (d1 == d3));
  (match Simpool.cached () with
  | Some (cfg, mode) ->
      Alcotest.(check string) "caches latest cfg" boom.Cfg.name cfg.Cfg.name;
      Alcotest.(check bool) "caches latest mode" true
        (mode = Dvz_ift.Policy.Cellift)
  | None -> Alcotest.fail "pool empty after acquire");
  Simpool.clear ()

(* The point of pooling is that re-arming is cheap: a reset must allocate
   orders of magnitude less than a create (which builds a 64 KiB memory,
   predictor/cache/queue arrays and taint tables for both instances).
   The residual allocation is the instance-B swapmem copy plus small
   closures — bounded well under a single create's memory alone. *)
let test_dualcore_reset_alloc_bound () =
  let tc = completed_tc 63 in
  let dc = Dualcore.create boom (Packet.stimulus ~secret tc) in
  ignore (Dualcore.run dc);
  (* Warm up one reset so one-time lazy setup stays out of the measure. *)
  Dualcore.reset dc (Packet.stimulus ~secret tc);
  let stim = Packet.stimulus ~secret tc in
  let before = Gc.minor_words () in
  Dualcore.reset dc stim;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "reset allocates < 4096 words (got %.0f)" delta)
    true (delta < 4096.0)

(* --- phase-1 evaluation: no slot kept, packets encoded once ------------- *)

(* A phase-1 test case as the campaign builds one (no window trainings),
   or completed, which attaches window trainings ahead of the trigger
   trainings in the swap schedule. *)
let phase1_tc ~style ~complete cfg e =
  let rng = Rng.create e in
  let tc = Trigger_gen.generate ~style cfg (Seed.random rng) in
  if complete then Window_gen.complete cfg tc else tc

(* The reduction walk [Trigger_opt.reduce] replaced, kept as its oracle:
   every candidate is a test case of its own, encoded afresh by
   [Packet.stimulus] and run to a slot list on a fresh core. *)
let reference_run cfg tc =
  let core =
    Core.create cfg (Packet.stimulus ~secret:Trigger_opt.eval_secret tc)
  in
  ignore (Core.run core);
  core

let reference_evaluate cfg tc =
  Trigger_gen.triggered tc (Core.windows (reference_run cfg tc))

(* Also returns the core of the last candidate run, if any. *)
let reference_reduce cfg tc =
  let last = ref None in
  let rec go kept removed = function
    | [] -> (List.rev kept, removed)
    | p :: rest ->
        let candidate =
          Packet.with_trigger_trainings tc (List.rev_append kept rest)
        in
        let core = reference_run cfg candidate in
        last := Some core;
        if Trigger_gen.triggered tc (Core.windows core) then
          go kept (removed + 1) rest
        else go (p :: kept) removed rest
  in
  let reduced =
    match go [] 0 tc.Packet.trigger_trainings with
    | _, 0 -> (tc, 0)
    | kept, removed -> (Packet.with_trigger_trainings tc kept, removed)
  in
  (reduced, !last)

(* [reduce]'s result, and whether it equals the reference walk's with the
   pooled core it evaluated on left in the state of the reference's last
   candidate run.  The verdicts alone rarely depend on the order of the
   packets; the final cycle count and state hash do, so this also pins the
   rescheduled swap order (window trainings, kept and remaining trigger
   trainings, transient packet). *)
let reduce_matches_reference cfg tc =
  let pooled =
    Simpool.acquire_core cfg (Packet.stimulus ~secret:Trigger_opt.eval_secret tc)
  in
  let r = Trigger_opt.reduce cfg tc in
  let expected, last = reference_reduce cfg tc in
  ( r,
    r = expected
    &&
    match last with
    | None -> true
    | Some core ->
        Core.state_hash pooled = Core.state_hash core
        && Core.cycles pooled = Core.cycles core
        && Core.windows pooled = Core.windows core )

let prop_reduce_matches_reference =
  QCheck.Test.make
    ~name:"reduce equals a walk that re-encodes every candidate"
    ~count:80
    QCheck.(quad small_int bool bool bool)
    (fun (e, xiangshan, random_style, complete) ->
      let cfg = if xiangshan then xs else boom in
      let style = if random_style then `Random else `Derived in
      let tc = phase1_tc ~style ~complete cfg e in
      (* [reduce]'s precondition: the test case triggers. *)
      (not (reference_evaluate cfg tc))
      || snd (reduce_matches_reference cfg tc))

(* The property above on fixed seeds, checking that its interesting
   cases occur: reductions that drop some packets and keep others, under
   both training styles, with and without window trainings ahead of the
   trigger trainings in the schedule. *)
let test_reduce_matches_reference_exercised () =
  List.iter
    (fun (style, complete) ->
      let mixed = ref 0 in
      for e = 0 to 29 do
        let tc = phase1_tc ~style ~complete boom e in
        if reference_evaluate boom tc then begin
          let (reduced, removed), ok = reduce_matches_reference boom tc in
          Alcotest.(check bool) (Printf.sprintf "seed %d matches" e) true ok;
          if complete then
            Alcotest.(check bool) "window trainings scheduled" true
              (tc.Packet.window_trainings <> []);
          if removed > 0 && reduced.Packet.trigger_trainings <> [] then
            incr mixed
        end
      done;
      Alcotest.(check bool) "some reduction drops and keeps" true (!mixed > 0))
    [ (`Derived, false); (`Derived, true); (`Random, false); (`Random, true) ]

let prop_core_finish_equals_run =
  QCheck.Test.make ~name:"a pooled core after finish matches a run"
    ~count:60
    QCheck.(triple small_int bool bool)
    (fun (e, xiangshan, random_style) ->
      let cfg = if xiangshan then xs else boom in
      let style = if random_style then `Random else `Derived in
      let stim k =
        Packet.stimulus ~secret (phase1_tc ~style ~complete:true cfg k)
      in
      let ran = Core.create cfg (stim e) in
      let slots = Core.run ran in
      (* Dirty the pooled core with another stimulus first. *)
      Core.finish (Simpool.acquire_core cfg (stim (e + 500)));
      let pooled = Simpool.acquire_core cfg (stim e) in
      Core.finish pooled;
      let regs c = List.init 32 (fun i -> Core.arch_reg c (Dvz_isa.Reg.x i)) in
      Core.state_hash pooled = Core.state_hash ran
      && Core.windows pooled = Core.windows ran
      && Core.slot_count pooled = Core.slot_count ran
      && Core.slot_count ran = List.length slots
      && Core.cycles pooled = Core.cycles ran
      && Core.committed pooled = Core.committed ran
      && regs pooled = regs ran)

(* [Core.reset] copies a never-stepped core over every layer, so re-arming
   must not depend on where the run it interrupts stands.  Step a core [k]
   slots into a completed test case, and with [into_window] on to the next
   open window (live RAS and queue checkpoints, busy port timers), then
   re-arm it with a second stimulus and run both it and a fresh core.
   Returns whether the core was re-armed inside a window. *)
let rearmed_matches_fresh cfg ~style ~k ~into_window e =
  let stim k =
    Packet.stimulus ~secret (phase1_tc ~style ~complete:true cfg k)
  in
  let core = Core.create cfg (stim (e + 500)) in
  let in_window () = Core.spec_reg core Dvz_isa.Reg.zero <> None in
  let rec go i =
    if i < k || (into_window && not (in_window ())) then
      match Core.step core with Some _ -> go (i + 1) | None -> ()
  in
  go 0;
  let inside = in_window () in
  Core.reset core (stim e);
  let fresh = Core.create cfg (stim e) in
  let slots = Core.run fresh in
  let regs c = List.init 32 (fun i -> Core.arch_reg c (Dvz_isa.Reg.x i)) in
  ( inside,
    Core.run core = slots
    && Core.state_hash core = Core.state_hash fresh
    && Core.windows core = Core.windows fresh
    && Core.cycles core = Core.cycles fresh
    && Core.committed core = Core.committed fresh
    && Core.slot_count core = Core.slot_count fresh
    && regs core = regs fresh )

let prop_rearm_anywhere_equals_fresh =
  QCheck.Test.make ~name:"a core re-armed at any slot runs like a fresh one"
    ~count:80
    QCheck.(quad small_int bool bool (pair (int_bound 600) bool))
    (fun (e, xiangshan, random_style, (k, into_window)) ->
      let cfg = if xiangshan then xs else boom in
      let style = if random_style then `Random else `Derived in
      snd (rearmed_matches_fresh cfg ~style ~k ~into_window e))

(* The property above on fixed seeds, checking that its interesting case
   occurs on both presets and both training styles: a re-arm inside an
   open window. *)
let test_rearm_inside_window_exercised () =
  List.iter
    (fun (cfg, style) ->
      let inside = ref 0 in
      for e = 0 to 19 do
        let w, ok =
          rearmed_matches_fresh cfg ~style ~k:(7 * e) ~into_window:true e
        in
        Alcotest.(check bool) (Printf.sprintf "seed %d matches" e) true ok;
        if w then incr inside
      done;
      Alcotest.(check bool)
        (Printf.sprintf "%s: some re-arms inside a window" cfg.Cfg.name)
        true (!inside > 0))
    [ (boom, `Derived); (boom, `Random); (xs, `Derived); (xs, `Random) ]

(* The random-training test cases both phase-1 bounds run on. *)
let random_training_cases cfg =
  let rng = Rng.create 7 in
  List.init 200 (fun _ ->
      Trigger_gen.generate ~style:`Random cfg (Seed.random rng))

(* Phase-1 evaluation must keep nothing of a run alive but the core's own
   state: holding the run's slot list until the run ended promoted about
   34,000 words to the major heap per evaluation of these random-training
   test cases (about 150 without it). *)
let test_evaluate_promotion_bound () =
  let cases = random_training_cases boom in
  (* Warm up the pooled core and any one-time setup. *)
  List.iteri
    (fun i tc -> if i < 10 then ignore (Trigger_opt.evaluate boom tc))
    cases;
  let before = (Gc.quick_stat ()).Gc.promoted_words in
  List.iter (fun tc -> ignore (Trigger_opt.evaluate boom tc)) cases;
  let per_call =
    ((Gc.quick_stat ()).Gc.promoted_words -. before)
    /. float_of_int (List.length cases)
  in
  Alcotest.(check bool)
    (Printf.sprintf "evaluate promotes < 5000 words per call (got %.0f)"
       per_call)
    true (per_call < 5000.0)

(* Phase 1 reads only the windows a run leaves, so [Core.finish] builds no
   effect event, element list or slot record (about 30 words per slot are
   left).  Building the events the way [Core.run] does cost about 133
   words per slot on these cases (141 on XiangShan). *)
let test_evaluate_allocation_bound () =
  List.iter
    (fun cfg ->
      let cases = random_training_cases cfg in
      List.iteri
        (fun i tc -> if i < 10 then ignore (Trigger_opt.evaluate cfg tc))
        cases;
      let slots =
        List.fold_left
          (fun n tc ->
            let c =
              Core.create cfg
                (Packet.stimulus ~secret:Trigger_opt.eval_secret tc)
            in
            Core.finish c;
            n + Core.slot_count c)
          0 cases
      in
      let before = Gc.minor_words () in
      List.iter (fun tc -> ignore (Trigger_opt.evaluate cfg tc)) cases;
      let per_slot = (Gc.minor_words () -. before) /. float_of_int slots in
      Alcotest.(check bool)
        (Printf.sprintf "%s: evaluate allocates < 60 words per slot (got %.1f)"
           cfg.Cfg.name per_slot)
        true (per_slot < 60.0))
    [ boom; xs ]

(* The quiet slot itself: a pooled core re-armed and run to the end by
   [Core.finish], on stimuli built beforehand.  What a slot still
   allocates is its decoded [Insn.t], the golden step record and a few
   options: 20.3 words on BOOM and 21.4 on XiangShan.  With variant
   cache results, a polymorphic [Golden.set] and a decoder that computed
   every field it was 27.3 and 28.3. *)
let finish_words_per_slot cfg =
  let stims =
    List.map
      (fun tc -> Packet.stimulus ~secret:Trigger_opt.eval_secret tc)
      (random_training_cases cfg)
  in
  let core = Core.create cfg (List.hd stims) in
  let run () =
    List.fold_left
      (fun n stim ->
        Core.reset core stim;
        Core.finish core;
        n + Core.slot_count core)
      0 stims
  in
  ignore (run ());
  let before = Gc.minor_words () in
  let slots = run () in
  (Gc.minor_words () -. before) /. float_of_int slots

let test_finish_allocation_bound () =
  List.iter
    (fun cfg ->
      let per_slot = finish_words_per_slot cfg in
      Alcotest.(check bool)
        (Printf.sprintf "%s: a quiet slot allocates < 24 words (got %.1f)"
           cfg.Cfg.name per_slot)
        true (per_slot < 24.0))
    [ boom; xs ]

(* --- state copy and the forked sanitize run ---------------------------- *)

let rec drain_core c acc =
  match Core.step c with None -> List.rev acc | Some s -> drain_core c (s :: acc)

(* Step a core k slots, copy it into a dirty instance, then run both to the
   end: every later slot record and the final state must agree. *)
let prop_core_blit_equivalent =
  QCheck.Test.make ~name:"core blit at a random slot steps like the source"
    ~count:60
    QCheck.(triple small_int bool (int_bound 400))
    (fun (e, xiangshan, k) ->
      let cfg = if xiangshan then xs else boom in
      let src = Core.create cfg (Packet.stimulus ~secret (random_tc cfg e)) in
      for _ = 1 to k do ignore (Core.step src) done;
      let dst =
        Core.create cfg (Packet.stimulus ~secret (random_tc cfg (e + 500)))
      in
      ignore (Core.run dst);
      Core.blit ~src ~dst;
      let fresh = Core.copy src in
      let ss = drain_core src [] in
      ss = drain_core dst [] && ss = drain_core fresh []
      && Core.state_hash src = Core.state_hash dst
      && Core.state_hash src = Core.state_hash fresh
      && Core.windows src = Core.windows dst
      && Core.cycles src = Core.cycles dst)

let prop_dualcore_blit_equivalent =
  QCheck.Test.make
    ~name:"dualcore blit at a random slot runs like the source (both modes)"
    ~count:60
    QCheck.(quad small_int bool bool (int_bound 400))
    (fun (e, xiangshan, diffift, k) ->
      let cfg = if xiangshan then xs else boom in
      let mode = mode_of diffift in
      let src =
        Dualcore.create ~mode cfg
          (Packet.stimulus ~secret (random_tc cfg e))
      in
      let rec go i = i < k && Dualcore.step src && go (i + 1) in
      ignore (go 0);
      let dst =
        Dualcore.create ~mode cfg
          (Packet.stimulus ~secret (random_tc cfg (e + 500)))
      in
      ignore (Dualcore.run dst);
      Dualcore.blit ~src ~dst;
      let fresh = Dualcore.copy src in
      (* [run_result] covers the windows, the window points and the
         tainted set. *)
      let a = run_result src in
      a = run_result dst && a = run_result fresh)

let scratch_run ?budget ~mode cfg tc =
  let dc = Dualcore.create ~mode cfg (Packet.stimulus ~secret tc) in
  let r = Dualcore.run ?budget dc in
  (r, Core.state_hash (Dualcore.core_a dc), Core.state_hash (Dualcore.core_b dc))

(* [Oracle.simulate]'s sanitize run against a from-scratch one: full result
   equality on every path, and both final state hashes where the run ended
   in a testbench of its own (a reused run leaves the main run's memory in
   place, whose unread changed words a state hash may still see). *)
let sanitize_matches ?budget ~mode cfg tc =
  let main, sanitized = Oracle.simulate ?budget ~mode cfg ~secret tc in
  let s = sanitized () in
  let r, ha, hb = scratch_run ?budget ~mode cfg (Window_gen.sanitize cfg tc) in
  let main_ref, _, _ = scratch_run ?budget ~mode cfg tc in
  let hashes_ok =
    match s.Oracle.s_dut with
    | None -> true
    | Some d ->
        Core.state_hash (Dualcore.core_a d) = ha
        && Core.state_hash (Dualcore.core_b d) = hb
  in
  (s.Oracle.s_path, main = main_ref && s.Oracle.s_result = r && hashes_ok)

let prop_sanitize_paths_equal_scratch =
  QCheck.Test.make
    ~name:"resumed and reused sanitize runs equal a from-scratch replay"
    ~count:40
    QCheck.(quad small_int bool bool (int_bound 3))
    (fun (e, random_style, diffift, b) ->
      let style = if random_style then `Random else `Derived in
      let cfg = if e mod 3 = 0 then xs else boom in
      let budget =
        match b with
        | 0 -> None
        | 1 -> Some (Dualcore.budget ~max_slots:50_000 ())
        | _ -> Some (Dualcore.budget ~max_slots:(40 + (e * 7 mod 300)) ())
      in
      snd (sanitize_matches ?budget ~mode:(mode_of diffift) cfg
             (random_tc ~style cfg e)))

let test_sanitize_paths_exercised () =
  let seen = Hashtbl.create 3 in
  List.iter
    (fun style ->
      for e = 0 to 39 do
        let path, ok =
          sanitize_matches ~mode:Dvz_ift.Policy.Diffift boom
            (random_tc ~style boom e)
        in
        Alcotest.(check bool) (Printf.sprintf "seed %d matches" e) true ok;
        Hashtbl.replace seen path ()
      done)
    [ `Derived; `Random ];
  Alcotest.(check bool) "some run resumed" true (Hashtbl.mem seen Oracle.Resumed);
  Alcotest.(check bool) "some run reused" true (Hashtbl.mem seen Oracle.Reused)

(* The differing words of a test case and its sanitized twin. *)
let differing_words tc =
  let clean = Window_gen.sanitize boom tc in
  List.concat
    (List.mapi
       (fun i (a, b) ->
         if Dvz_isa.Encode.encode a <> Dvz_isa.Encode.encode b then [ i ] else [])
       (List.combine tc.Packet.transient.Packet.insns
          clean.Packet.transient.Packet.insns))

let test_sanitize_read_before_fetch_replays () =
  let tc = completed_tc 61 in
  let d = List.hd (differing_words tc) in
  (* Overwrite the transient packet's first instructions (outside the
     window, so its twin gets them too) with a load of the dword holding
     a differing word: the main run reads it long before it could fetch
     it, so no copy of the run may stand in for the sanitized one. *)
  let probe =
    Genlib.li Dvz_isa.Reg.t0 ((Layout.swap_base + (4 * d)) land lnot 7)
    @ [ Dvz_isa.Insn.Load (Dvz_isa.Insn.D, false, Dvz_isa.Reg.t1,
                           Dvz_isa.Reg.t0, 0) ]
  in
  let n = List.length probe in
  Alcotest.(check bool) "probe stays before the window" true
    ((tc.Packet.window_addr - Layout.swap_base) / 4 > n);
  let insns =
    probe @ List.filteri (fun i _ -> i >= n) tc.Packet.transient.Packet.insns
  in
  let tc =
    { tc with Packet.transient = { tc.Packet.transient with Packet.insns } }
  in
  Alcotest.(check bool) "still differs" true (List.mem d (differing_words tc));
  let path, ok = sanitize_matches ~mode:Dvz_ift.Policy.Diffift boom tc in
  Alcotest.(check bool) "replayed" true (path = Oracle.Replayed);
  Alcotest.(check bool) "matches scratch" true ok

let test_sanitize_fault_plan_replays () =
  let tc = completed_tc 61 in
  (* Armed but never firing: the run is unaffected, the path is not. *)
  Dvz_resilience.Fault.arm ~iteration:0
    [ { Dvz_resilience.Fault.f_iteration = 0; f_cycle = max_int;
        f_action = Dvz_resilience.Fault.Corrupt } ];
  let path, ok =
    Fun.protect ~finally:Dvz_resilience.Fault.disarm (fun () ->
        sanitize_matches ~mode:Dvz_ift.Policy.Diffift boom tc)
  in
  Alcotest.(check bool) "replayed" true (path = Oracle.Replayed);
  Alcotest.(check bool) "matches scratch" true ok

(* --- committed nop runs: fast-forwarded = slot by slot ------------------- *)

module Fault = Dvz_resilience.Fault

let nops_skipped () =
  Dvz_obs.Metrics.counter_value
    (Dvz_obs.Metrics.counter Dvz_obs.Metrics.default
       "dvz_core_nop_slots_skipped_total")

(* Armed but never firing: [Dualcore.run] then steps every slot
   ([Fault.tick] must see each one), which makes it the slot-by-slot
   reference, and the run is otherwise unaffected. *)
let slot_by_slot f =
  Fault.arm ~iteration:0
    [ { Fault.f_iteration = 0; f_cycle = max_int; f_action = Fault.Corrupt } ];
  Fun.protect ~finally:Fault.disarm f

let core_view c =
  ( (Core.state_hash c, Core.windows c, Core.cycles c),
    (Core.committed c, Core.slot_count c),
    List.init 32 (fun i -> Core.arch_reg c (Dvz_isa.Reg.x i)) )

let core_finished cfg stim =
  let c = Core.create cfg stim in
  Core.finish c;
  core_view c

let core_stepped cfg stim =
  let c = Core.create cfg stim in
  while Option.is_some (Core.step c) do () done;
  core_view c

let dual_view dc r =
  (r, Core.state_hash (Dualcore.core_a dc), Core.state_hash (Dualcore.core_b dc))

let dual_run ?max_slots ~mode cfg stim =
  let dc = Dualcore.create ~mode cfg stim in
  let budget = Option.map (fun m -> Dualcore.budget ~max_slots:m ()) max_slots in
  dual_view dc (Dualcore.run ?budget dc)

(* The one-slot loop [Dualcore.run] is measured against: [Dualcore.step]
   until both instances finish or [max_slots] is reached, then
   [Dualcore.run] on the stepped testbench, which only collects (or times
   out at once). *)
let dual_stepped ?max_slots ~mode cfg stim =
  let dc = Dualcore.create ~mode cfg stim in
  let rec go () =
    match max_slots with
    | Some m when Dualcore.slots dc >= m -> Some (Dualcore.budget ~max_slots:m ())
    | _ -> if Dualcore.step dc then go () else None
  in
  let budget = go () in
  dual_view dc (Dualcore.run ?budget dc)

(* [Dualcore.run ~fork] watching [words]: the run, whether a watched word
   was read, and at a fork its slot, the latch then, and the forked copy
   run to its end. *)
let fork_run ~mode cfg stim words =
  let dc = Dualcore.create ~mode cfg stim in
  let forked = ref None in
  let on_fork t =
    forked := Some (Dualcore.slots t, Dualcore.watch_hit t, Dualcore.copy t)
  in
  let r = Dualcore.run ~fork:(words, on_fork) dc in
  ( dual_view dc r,
    Dualcore.watch_hit dc,
    Option.map
      (fun (slot, hit, copy) -> (slot, hit, dual_view copy (Dualcore.run copy)))
      !forked )

let prop_nop_runs_equal_stepping =
  QCheck.Test.make ~name:"fast-forwarded nop runs equal slot-by-slot stepping"
    ~count:60
    QCheck.(quad small_int (triple bool bool bool) (int_range 1 600) small_nat)
    (fun (e, (xiangshan, diffift, random_style), m, w) ->
      let cfg = if xiangshan then xs else boom in
      let mode = mode_of diffift in
      let style = if random_style then `Random else `Derived in
      let tc = random_tc ~style cfg e in
      let stim () = Packet.stimulus ~secret tc in
      let words = [ w mod List.length tc.Packet.transient.Packet.insns ] in
      core_finished cfg (stim ()) = core_stepped cfg (stim ())
      && dual_run ~mode cfg (stim ()) = dual_stepped ~mode cfg (stim ())
      && dual_run ~max_slots:m ~mode cfg (stim ())
         = dual_stepped ~max_slots:m ~mode cfg (stim ())
      && fork_run ~mode cfg (stim ()) words
         = slot_by_slot (fun () -> fork_run ~mode cfg (stim ()) words))

(* Hand-written blobs at the swap entry, the last one transient. *)
let asm_stim ?(data = []) ?(perms = []) ?(max_slots = 3000) srcs =
  let n = List.length srcs in
  let blobs =
    List.mapi
      (fun i src ->
        let words, _ =
          Dvz_isa.Asm_parser.assemble_string ~base:Layout.swap_base src
        in
        { Swapmem.name = Printf.sprintf "blob%d" i; words;
          is_transient = i = n - 1 })
      srcs
  in
  { Core.st_swapmem = Swapmem.create ~blobs ~schedule:(List.init n Fun.id);
    st_tighten_secret = false; st_secret = Array.make Layout.secret_dwords 0;
    st_data = data; st_perms = perms; st_max_slots = max_slots }

let nops k = String.concat "\n" (List.init k (fun _ -> "nop"))

let check_same_as_stepping ?max_slots stim =
  Alcotest.(check bool) "finish = stepping" true
    (core_finished boom (stim ()) = core_stepped boom (stim ()));
  List.iter
    (fun mode ->
      Alcotest.(check bool) "dual run = stepping" true
        (dual_run ?max_slots ~mode boom (stim ())
        = dual_stepped ?max_slots ~mode boom (stim ())))
    [ Dvz_ift.Policy.Diffift; Dvz_ift.Policy.Cellift ]

let test_nop_run_slot_cap () =
  let stim () = asm_stim ~max_slots:40 [ nops 100 ^ "\nebreak" ] in
  let c = Core.create boom (stim ()) in
  Alcotest.(check int) "the run stops at the slot cap" 40
    (Core.nop_run_pair c c max_int);
  check_same_as_stepping stim;
  (* a budget inside the run, too *)
  check_same_as_stepping ~max_slots:25 (fun () ->
      asm_stim [ nops 100 ^ "\nebreak" ])

let test_nop_run_watched_word () =
  let stim () = asm_stim [ nops 64 ^ "\nebreak" ] in
  let c = Core.create boom (stim ()) in
  Core.watch c (Phys_mem.watch_bitmap [ 20 ]);
  Alcotest.(check int) "the run stops before the watched word" 20
    (Core.nop_run_pair c c max_int);
  Alcotest.(check bool) "the scan reads no watched word" false
    (Core.watch_hit c);
  Core.finish c;
  Alcotest.(check bool) "the slot that fetches it does" true (Core.watch_hit c);
  let fast = fork_run ~mode:Dvz_ift.Policy.Diffift boom (stim ()) [ 20 ] in
  Alcotest.(check bool) "fork = slot by slot" true
    (fast
    = slot_by_slot (fun () ->
          fork_run ~mode:Dvz_ift.Policy.Diffift boom (stim ()) [ 20 ]));
  match fast with
  | _, _, Some (slot, hit, _) ->
      Alcotest.(check int) "forks just before the fetch" 20 slot;
      Alcotest.(check bool) "with the latch clear" false hit
  | _, _, None -> Alcotest.fail "no fork"

(* Spectre-V1 shaped, twice.  In the first window the transient path
   jumps, by the secret's low bit, into one of two icache lines deep inside
   the nop sled the committed path runs at the end: instance A (secret 0)
   prefetches [far]'s line, instance B (the complement) the line two
   further on.  That window diverges, which taints the pc; the second
   window's wrong path is the same in both instances, and its squash
   writes the pc clean again, so the pair may fast-forward the sled. *)
let sled_program ~index ~train =
  Printf.sprintf
    {|
    addi t0, zero, %d
    addi t1, zero, 8
    lui  s1, 0x5
    la   t2, far
    bgeu t0, t1, second
    %s
    ld   s0, 0(s1)
    andi t3, s0, 1
    slli t3, t3, 7
    add  t2, t2, t3
    jalr zero, 0(t2)
second:
    bgeu t0, t1, sled
    %s
%s
sled:
%s
far:
%s
    ebreak
|}
    index
    (if train then "j second" else "nop")
    (if train then "ebreak" else "nop")
    (nops 30) (nops 64) (nops 192)

let sled_stim () =
  asm_stim
    [ sled_program ~index:2 ~train:true; sled_program ~index:3 ~train:true;
      sled_program ~index:9 ~train:false ]

let test_nop_run_icache_disagreement () =
  let _, labels =
    Dvz_isa.Asm_parser.assemble_string ~base:Layout.swap_base
      (sled_program ~index:9 ~train:false)
  in
  let sled = List.assoc "sled" labels and far = List.assoc "far" labels in
  let line = boom.Cfg.line_bytes in
  let dc = Dualcore.create boom (sled_stim ()) in
  let a = Dualcore.core_a dc and b = Dualcore.core_b dc in
  (* Step to the transient blob's second squash: both instances then sit
     at [sled]. *)
  while
    List.length
      (List.filter (fun w -> w.Core.wr_in_transient_blob) (Core.windows a))
    < 2
  do
    ignore (Dualcore.step dc)
  done;
  let taint = Dualcore.taint dc in
  Alcotest.(check bool) "the pc is clean" false
    (Dvz_uarch.Taintstate.is_tainted taint Elem.Pc);
  Alcotest.(check int) "one instance alone runs the whole sled" 256
    (Core.nop_run_pair a a max_int);
  Alcotest.(check int) "the pair stops at the first line they disagree on"
    (((far / line * line) - sled) / 4)
    (Core.nop_run_pair a b max_int);
  Alcotest.(check bool) "that line is tainted, so a wrong summary shows" true
    (Dvz_uarch.Taintstate.is_tainted taint
       (Elem.Icache (far / line mod boom.Cfg.icache_lines)));
  let before = nops_skipped () in
  ignore (Dualcore.run dc);
  Alcotest.(check bool) "the pair fast-forwards" true (nops_skipped () > before);
  check_same_as_stepping sled_stim

let nop_dword = (0x13 lsl 32) lor 0x13

(* The blob jumps to 0x8000; the three pages from there hold nops. *)
let far_nops_stim perms =
  asm_stim ~max_slots:5000 ~perms
    ~data:(List.init 1536 (fun i -> (0x8000 + (8 * i), nop_dword)))
    [ "lui t0, 0x8\njalr zero, 0(t0)" ]

let run_at_far_nops perms =
  let c = Core.create boom (far_nops_stim perms) in
  ignore (Core.step c);
  ignore (Core.step c);
  Core.nop_run_pair c c max_int

let test_nop_run_fetch_permission () =
  let no_exec = [ (0x9000, Perm.rw) ] in
  Alcotest.(check int) "the run stops at a page without fetch permission"
    1024 (run_at_far_nops no_exec);
  Alcotest.(check int) "and touches at most the icache's lines"
    (boom.Cfg.icache_lines * boom.Cfg.line_bytes / 4)
    (run_at_far_nops []);
  check_same_as_stepping (fun () -> far_nops_stim no_exec);
  check_same_as_stepping (fun () -> far_nops_stim [])

(* B4: the window's transient fetches miss the icache and hold the fetch
   port past the squash, and a committed nop run follows.  The squash
   itself already waits for [fetch_busy_until] (so a committed slot never
   finds it ahead of the cycle count); the run's closed-form cycles must
   still be what stepping counts. *)
let test_nop_run_after_b4_stall () =
  Alcotest.(check bool) "boom has B4" true boom.Cfg.fetch_contention_bug;
  let before = nops_skipped () in
  check_same_as_stepping sled_stim;
  Alcotest.(check bool) "runs were fast-forwarded" true
    (nops_skipped () > before)

let test_nop_run_wall_budget () =
  let run around =
    let clock = Dvz_obs.Clock.fake () in
    let budget = Dualcore.budget ~max_wall_s:3.5 ~clock () in
    let dc = Dualcore.create boom (asm_stim [ nops 600 ^ "\nebreak" ]) in
    let r = around (fun () -> Dualcore.run ~budget dc) in
    (* A fake clock ticks once per reading: this one counts the polls. *)
    (dual_view dc r, Dvz_obs.Clock.now clock)
  in
  let before = nops_skipped () in
  let ((r, _, _), polls) as fast = run (fun f -> f ()) in
  Alcotest.(check bool) "fast-forwarded" true (nops_skipped () > before);
  Alcotest.(check bool) "= slot by slot" true (fast = run slot_by_slot);
  (* the start, then slots 0, 64, 128 and 192: the fifth poll reads 4 s *)
  Alcotest.(check bool) "timed out" true r.Dualcore.r_timed_out;
  Alcotest.(check int) "at the fourth 64-slot poll" 192 r.Dualcore.r_slots;
  Alcotest.(check (float 0.)) "polled five times" 5.0 polls

let test_nop_counter () =
  let tc = completed_tc 61 in
  let stim () = Packet.stimulus ~secret tc in
  let c0 = nops_skipped () in
  Core.finish (Core.create boom (stim ()));
  let c1 = nops_skipped () in
  Alcotest.(check bool) "moves on a derived-training finish" true (c1 > c0);
  ignore (Dualcore.run (Dualcore.create boom (stim ())));
  let c2 = nops_skipped () in
  Alcotest.(check bool) "moves on a derived-training dual run" true (c2 > c1);
  let dc = Dualcore.create boom (stim ()) in
  slot_by_slot (fun () -> ignore (Dualcore.run dc));
  Alcotest.(check int) "still while a fault plan is armed" c2 (nops_skipped ())

let () =
  Alcotest.run "dejavuzz"
    [ ( "seed",
        [ Alcotest.test_case "window mutation" `Quick
            test_seed_mutation_preserves_trigger;
          Alcotest.test_case "classification" `Quick test_seed_kind_classification ] );
      ( "genlib",
        [ Alcotest.test_case "li materialisation" `Quick test_genlib_li;
          Alcotest.test_case "pad_to" `Quick test_genlib_pad_to;
          Alcotest.test_case "cond operands" `Quick test_genlib_cond_operands;
          Alcotest.test_case "illegal words" `Quick test_genlib_illegal_word ] );
      ( "packet",
        [ Alcotest.test_case "schedule order" `Quick test_packet_stimulus_schedule;
          Alcotest.test_case "overhead counts" `Quick test_training_overhead_counts ] );
      ( "phase1",
        [ Alcotest.test_case "all kinds on XiangShan" `Quick
            test_all_kinds_trigger_on_xiangshan;
          Alcotest.test_case "BOOM kinds" `Quick test_boom_kinds;
          Alcotest.test_case "random training vs tagged BTB" `Quick
            test_random_training_fails_tagged_btb;
          Alcotest.test_case "reduction preserves trigger" `Quick
            test_reduction_keeps_triggering;
          Alcotest.test_case "reduction zero for exceptions" `Quick
            test_reduction_zero_for_exceptions;
          Alcotest.test_case "reduction noop untriggered" `Quick
            test_reduction_noop_when_untriggered;
          Alcotest.test_case "window matcher" `Quick test_expected_window_matcher;
          QCheck_alcotest.to_alcotest prop_generate_never_raises;
          QCheck_alcotest.to_alcotest prop_reduce_matches_reference;
          Alcotest.test_case "reduction cases exercised" `Quick
            test_reduce_matches_reference_exercised;
          QCheck_alcotest.to_alcotest prop_core_finish_equals_run;
          Alcotest.test_case "evaluate promotion bound" `Quick
            test_evaluate_promotion_bound;
          Alcotest.test_case "evaluate allocation bound" `Quick
            test_evaluate_allocation_bound;
          Alcotest.test_case "finish allocation bound" `Quick
            test_finish_allocation_bound ] );
      ( "phase2",
        [ Alcotest.test_case "completion replaces nops" `Quick
            test_window_completion_replaces_nops;
          Alcotest.test_case "completion deterministic" `Quick
            test_window_completion_deterministic;
          Alcotest.test_case "sanitize" `Quick test_sanitize_keeps_access_block;
          Alcotest.test_case "disamb stale pointer" `Quick
            test_disamb_window_uses_stale_pointer;
          QCheck_alcotest.to_alcotest prop_stimulus_buildable ] );
      ( "coverage",
        [ Alcotest.test_case "accumulates" `Quick test_coverage_accumulates;
          Alcotest.test_case "position insensitive" `Quick
            test_coverage_position_insensitive;
          Alcotest.test_case "unknown tag refused" `Quick
            test_coverage_unknown_tag;
          Alcotest.test_case "shard merge = sequential" `Quick
            test_coverage_merge_equals_sequential;
          QCheck_alcotest.to_alcotest prop_coverage_points_by_hand ] );
      ( "corpus",
        [ Alcotest.test_case "cap eviction" `Quick test_corpus_cap_eviction;
          Alcotest.test_case "weighted choose" `Quick test_corpus_choose_weighted;
          Alcotest.test_case "entries roundtrip" `Quick
            test_corpus_entries_roundtrip ] );
      ( "oracle",
        [ Alcotest.test_case "dcache leak" `Quick test_oracle_detects_dcache_leak;
          Alcotest.test_case "attack classification" `Quick
            test_oracle_attack_classification;
          Alcotest.test_case "liveness filtering" `Quick
            test_oracle_liveness_filters_prf;
          Alcotest.test_case "component mapping" `Quick test_component_mapping ] );
      ( "robustness",
        [ Alcotest.test_case "oracle deterministic" `Quick
            test_oracle_deterministic;
          Alcotest.test_case "reduction idempotent" `Quick test_reduce_idempotent;
          Alcotest.test_case "training order irrelevant" `Quick
            test_trainings_order_irrelevant_for_triggering;
          Alcotest.test_case "cellift campaign" `Quick
            test_campaign_cellift_mode_runs;
          QCheck_alcotest.to_alcotest prop_window_fits_budget ] );
      ( "extensions",
        [ Alcotest.test_case "retry determinism" `Quick
            test_oracle_retries_deterministic;
          Alcotest.test_case "retry preserves leaks" `Quick
            test_oracle_retries_finds_at_least_single;
          Alcotest.test_case "migrate layout" `Quick test_migrate_layout;
          Alcotest.test_case "migrate exception windows" `Quick
            test_migrate_exception_windows_still_trigger;
          Alcotest.test_case "migrate branch windows" `Quick
            test_migrate_branch_windows_still_trigger ] );
      ( "campaign",
        [ Alcotest.test_case "smoke" `Quick test_campaign_smoke;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "jobs invariant" `Quick test_campaign_jobs_invariant;
          Alcotest.test_case "batch deterministic" `Quick
            test_campaign_batch_deterministic;
          Alcotest.test_case "tight corpus cap" `Quick
            test_campaign_tight_corpus_cap;
          Alcotest.test_case "engine validation" `Quick
            test_campaign_engine_validation;
          Alcotest.test_case "negative iterations refused" `Quick
            test_campaign_negative_iterations;
          Alcotest.test_case "dedup" `Quick test_campaign_dedup;
          Alcotest.test_case "report" `Quick test_report_rendering;
          Alcotest.test_case "window groups" `Quick test_window_group ] );
      ( "simpool",
        [ Alcotest.test_case "identity and keys" `Quick
            test_simpool_identity_and_keys;
          Alcotest.test_case "reset allocation bound" `Quick
            test_dualcore_reset_alloc_bound;
          QCheck_alcotest.to_alcotest prop_pooled_reset_equals_fresh;
          QCheck_alcotest.to_alcotest prop_rearm_anywhere_equals_fresh;
          Alcotest.test_case "re-arm inside a window" `Quick
            test_rearm_inside_window_exercised;
          QCheck_alcotest.to_alcotest prop_pooled_oracle_analysis_stable ] );
      ( "fork",
        [ QCheck_alcotest.to_alcotest prop_core_blit_equivalent;
          QCheck_alcotest.to_alcotest prop_dualcore_blit_equivalent;
          QCheck_alcotest.to_alcotest prop_sanitize_paths_equal_scratch;
          Alcotest.test_case "every path exercised" `Quick
            test_sanitize_paths_exercised;
          Alcotest.test_case "read before fetch replays" `Quick
            test_sanitize_read_before_fetch_replays;
          Alcotest.test_case "fault plan replays" `Quick
            test_sanitize_fault_plan_replays ] );
      ( "nop runs",
        [ QCheck_alcotest.to_alcotest prop_nop_runs_equal_stepping;
          Alcotest.test_case "slot cap inside a run" `Quick
            test_nop_run_slot_cap;
          Alcotest.test_case "watched word inside a run" `Quick
            test_nop_run_watched_word;
          Alcotest.test_case "icaches disagree mid-run" `Quick
            test_nop_run_icache_disagreement;
          Alcotest.test_case "page without fetch permission" `Quick
            test_nop_run_fetch_permission;
          Alcotest.test_case "run after a B4 stall" `Quick
            test_nop_run_after_b4_stall;
          Alcotest.test_case "fake-clock wall budget" `Quick
            test_nop_run_wall_budget;
          Alcotest.test_case "skipped-slot counter" `Quick test_nop_counter ] );
      ( "explain",
        [ Alcotest.test_case "meltdown slice" `Quick test_explain_meltdown;
          Alcotest.test_case "spectre slice" `Quick test_explain_spectre;
          Alcotest.test_case "artifact roundtrip" `Quick
            test_explain_artifact_roundtrip;
          Alcotest.test_case "bad artifact rejected" `Quick
            test_explain_rejects_bad_artifact;
          Alcotest.test_case "campaign explain dir" `Quick
            test_campaign_explain_dir ] ) ]
