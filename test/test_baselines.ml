(* Tests for Dvz_baselines: the SpecDoctor re-implementation and the
   ablation option sets. *)

module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config
module Seed = Dejavuzz.Seed
module Sd = Dvz_baselines.Specdoctor
module Variants = Dvz_baselines.Variants
module Campaign = Dejavuzz.Campaign

let boom = Cfg.boom_small

let test_supported_kinds () =
  Alcotest.(check int) "four window types" 4 (Array.length Sd.supported);
  Alcotest.(check bool) "no return support" false
    (Array.exists (( = ) Seed.T_return) Sd.supported)

let test_unsupported_rejected () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "return unsupported"
    (Invalid_argument "Specdoctor.generate_of_kind: unsupported window type")
    (fun () -> ignore (Sd.generate_of_kind rng boom Seed.T_return))

let test_kinds_trigger_on_boom () =
  let rng = Rng.create 2 in
  Array.iter
    (fun kind ->
      let hits = ref 0 in
      for _ = 1 to 10 do
        let c = Sd.generate_of_kind rng boom kind in
        if Sd.triggered boom c then incr hits
      done;
      Alcotest.(check bool)
        (Seed.kind_name kind ^ " mostly triggers")
        true (!hits >= 8))
    Sd.supported

let test_training_overhead_magnitude () =
  (* SpecDoctor pays ~a hundred instructions of training for every window
     type, including the exception types that need none (Table 3). *)
  let rng = Rng.create 3 in
  let c = Sd.generate_of_kind rng boom Seed.T_page_fault in
  Alcotest.(check bool) "around a hundred instructions" true
    (c.Sd.sc_training_insns > 80 && c.Sd.sc_training_insns < 200)

let test_hash_oracle_flags_secret () =
  let rng = Rng.create 4 in
  let secret = Array.make Dvz_soc.Layout.secret_dwords 0x1357 in
  (* with high probability a triggering page-fault case warms/samples the
     secret into hashed state; search a few *)
  let rec search tries =
    if tries = 0 then Alcotest.fail "no hash-differing case found"
    else begin
      let c = Sd.generate_of_kind rng boom Seed.T_page_fault in
      if Sd.triggered boom c && Sd.hash_differs boom ~secret c then ()
      else search (tries - 1)
    end
  in
  search 20

let test_campaign_smoke () =
  let st = Sd.campaign ~rng_seed:5 ~iterations:25 boom in
  Alcotest.(check int) "iterations recorded" 25 st.Sd.sd_iterations;
  Alcotest.(check bool) "coverage measured" true (st.Sd.sd_coverage_curve.(24) > 0);
  Alcotest.(check bool) "some candidates" true (st.Sd.sd_candidates <> [])

let test_campaign_deterministic () =
  let a = Sd.campaign ~rng_seed:6 ~iterations:10 boom in
  let b = Sd.campaign ~rng_seed:6 ~iterations:10 boom in
  Alcotest.(check bool) "same curve" true
    (a.Sd.sd_coverage_curve = b.Sd.sd_coverage_curve);
  Alcotest.(check int) "same candidates"
    (List.length a.Sd.sd_candidates)
    (List.length b.Sd.sd_candidates)

let test_variant_options () =
  let minus = Variants.minus_options ~iterations:10 ~rng_seed:1 in
  Alcotest.(check bool) "minus drops coverage" false
    minus.Campaign.coverage_guided;
  Alcotest.(check bool) "minus keeps derivation" true
    (minus.Campaign.style = `Derived);
  let full = Variants.full_options ~iterations:10 ~rng_seed:1 in
  Alcotest.(check int) "iterations plumbed" 10 full.Campaign.iterations

let () =
  Alcotest.run "dvz_baselines"
    [ ( "specdoctor",
        [ Alcotest.test_case "supported kinds" `Quick test_supported_kinds;
          Alcotest.test_case "unsupported rejected" `Quick
            test_unsupported_rejected;
          Alcotest.test_case "kinds trigger" `Quick test_kinds_trigger_on_boom;
          Alcotest.test_case "training magnitude" `Quick
            test_training_overhead_magnitude;
          Alcotest.test_case "hash oracle" `Quick test_hash_oracle_flags_secret;
          Alcotest.test_case "campaign smoke" `Quick test_campaign_smoke;
          Alcotest.test_case "campaign deterministic" `Quick
            test_campaign_deterministic ] );
      ( "variants",
        [ Alcotest.test_case "option sets" `Quick test_variant_options ] ) ]
