(* Tests for the Dvz_obs telemetry subsystem and its campaign wiring:
   histogram bucket boundaries, JSONL event streams, the profiler,
   exporters, replay, and the no-telemetry-influence regression. *)

module Clock = Dvz_obs.Clock
module Metrics = Dvz_obs.Metrics
module Events = Dvz_obs.Events
module Json = Dvz_obs.Json
module Exporters = Dvz_obs.Exporters
module Profile = Dvz_obs.Profile
module Server = Dvz_obs.Server
module Trace_event = Dvz_obs.Trace_event
module Campaign = Dejavuzz.Campaign
module Cfg = Dvz_uarch.Config

let boom = Cfg.boom_small

let prometheus r = Exporters.prometheus_groups [ ([], Metrics.snapshot r) ]

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- metrics: counters and gauges ---------------------------------------- *)

let test_counter_gauge_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  Alcotest.(check int) "registration idempotent" 5
    (Metrics.counter_value (Metrics.counter r "c"));
  let g = Metrics.gauge r "g" in
  Metrics.set g 2.5;
  Metrics.record_max g 1.0;
  Alcotest.(check (float 0.0)) "max keeps high-water" 2.5 (Metrics.gauge_value g);
  Metrics.record_max g 7.0;
  Alcotest.(check (float 0.0)) "max raises" 7.0 (Metrics.gauge_value g);
  Metrics.reset r;
  Alcotest.(check int) "reset counter" 0 (Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "reset gauge" 0.0 (Metrics.gauge_value g)

(* --- metrics: log2 histogram bucket boundaries ---------------------------- *)

let test_histogram_buckets () =
  (* le semantics: exact powers of two land on their own bound *)
  Alcotest.(check (float 0.0)) "1.0 -> le 1" 1.0 (Metrics.bucket_upper 1.0);
  Alcotest.(check (float 0.0)) "2.0 -> le 2" 2.0 (Metrics.bucket_upper 2.0);
  Alcotest.(check (float 0.0)) "1.5 -> le 2" 2.0 (Metrics.bucket_upper 1.5);
  Alcotest.(check (float 0.0)) "just above 1 -> le 2" 2.0
    (Metrics.bucket_upper 1.0000001);
  Alcotest.(check (float 0.0)) "0.3 -> le 0.5" 0.5 (Metrics.bucket_upper 0.3);
  Alcotest.(check (float 0.0)) "0.125 -> le 0.125" 0.125
    (Metrics.bucket_upper 0.125);
  Alcotest.(check (float 0.0)) "3.9 -> le 4" 4.0 (Metrics.bucket_upper 3.9);
  Alcotest.(check bool) "overflow bucket is +inf" true
    (Metrics.bucket_upper 1e40 = infinity);
  (* non-positive values land in the smallest bucket *)
  Alcotest.(check bool) "0 lands in the smallest bucket" true
    (Metrics.bucket_upper 0.0 < 1e-8);
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 2.0; 0.3; 100.0 ];
  Alcotest.(check int) "count" 5 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 104.8 (Metrics.histogram_sum h);
  let snap = Metrics.snapshot r in
  let _, _, hs = List.hd snap.Metrics.sn_histograms in
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets (0.5,1) (1,1) (2,2) (128,1)"
    [ (0.5, 1); (1.0, 1); (2.0, 2); (128.0, 1) ]
    hs.Metrics.hs_buckets

(* --- json ----------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\nd\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.Arr [ Json.Int 1; Json.Str "x"; Json.Obj [] ]) ]
  in
  (match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.fail e);
  (match Json.of_string "{\"u\":\"\\u0041\\u00e9\"}" with
  | Ok (Json.Obj [ ("u", Json.Str s) ]) ->
      Alcotest.(check string) "unicode escapes decode to UTF-8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "unicode parse");
  Alcotest.(check bool) "trailing garbage rejected" true
    (match Json.of_string "1 2" with Error _ -> true | Ok _ -> false);
  (match Json.of_lines "{\"a\":1}\n\n{\"a\":2}\n" with
  | Ok [ _; _ ] -> ()
  | _ -> Alcotest.fail "of_lines");
  Alcotest.(check (option int)) "member/to_int" (Some 7)
    (Option.bind (Json.member "k" (Json.Obj [ ("k", Json.Int 7) ])) Json.to_int)

(* --- events --------------------------------------------------------------- *)

let test_events_sink_and_context () =
  let buf = Buffer.create 64 in
  let sink = Events.to_buffer buf in
  Alcotest.(check bool) "null is null" true (Events.is_null Events.null);
  Alcotest.(check bool) "buffer sink is not null" false (Events.is_null sink);
  let labelled = Events.with_context sink [ ("trial", Json.Int 3) ] in
  Events.emit labelled [ ("type", Json.Str "x") ];
  Alcotest.(check string) "context appended"
    "{\"type\":\"x\",\"trial\":3}\n" (Buffer.contents buf);
  Events.emit Events.null [ ("type", Json.Str "dropped") ];
  Alcotest.(check string) "null sink drops"
    "{\"type\":\"x\",\"trial\":3}\n" (Buffer.contents buf)

(* --- exporters ------------------------------------------------------------ *)

let test_prometheus_render_escaping () =
  let r = Metrics.create () in
  let c =
    Metrics.counter r ~help:"line1\nline2 with back\\slash" "weird name-1"
  in
  Metrics.incr c;
  let text = prometheus r in
  Alcotest.(check bool) "name sanitized" true
    (String.length text > 0 && contains text "weird_name_1 1\n");
  Alcotest.(check bool) "help newline escaped" true
    (contains text "line1\\nline2 with back\\\\slash")

let test_prometheus_histogram_cumulative () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5 ];
  let text = prometheus r in
  Alcotest.(check bool) "cumulative buckets" true
    (contains text "lat_bucket{le=\"1\"} 2"
    && contains text "lat_bucket{le=\"2\"} 3"
    && contains text "lat_bucket{le=\"+Inf\"} 3"
    && contains text "lat_count 3")

let test_json_exporter_parses () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "c");
  Metrics.set (Metrics.gauge r "g") 1.25;
  Metrics.observe (Metrics.histogram r "h") 3.0;
  match Json.of_string (Exporters.render_json r) with
  | Ok j ->
      Alcotest.(check (option int)) "counter value" (Some 1)
        (Option.bind
           (Option.bind (Json.member "counters" j) (Json.member "c"))
           Json.to_int)
  | Error e -> Alcotest.fail e

let test_prometheus_collision_disambiguated () =
  (* "a.b" and "a:b" sanitize to the same series name; the exposition must
     keep them distinct, deterministically. *)
  let render () =
    let r = Metrics.create () in
    Metrics.incr (Metrics.counter r "a.b");
    Metrics.incr ~by:2 (Metrics.counter r "a_b");
    Metrics.set (Metrics.gauge r "a b") 3.0;
    prometheus r
  in
  let text = render () in
  Alcotest.(check string) "deterministic" text (render ());
  let series =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else
          match String.index_opt line ' ' with
          | Some i -> Some (String.sub line 0 i)
          | None -> None)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "three distinct series" 3
    (List.length (List.sort_uniq compare series));
  Alcotest.(check bool) "dup suffix used" true
    (List.exists (fun s -> contains s "_dup") series)

let test_snapshot_json_duplicate_keys () =
  let snap =
    { Metrics.sn_counters = [ ("k", "", 1); ("k", "", 2) ];
      sn_gauges = [];
      sn_histograms = [] }
  in
  match Exporters.snapshot_json snap with
  | Json.Obj fields -> (
      match List.assoc "counters" fields with
      | Json.Obj cs ->
          Alcotest.(check (list string)) "second key suffixed" [ "k"; "k_dup2" ]
            (List.map fst cs)
      | _ -> Alcotest.fail "counters not an object")
  | _ -> Alcotest.fail "snapshot not an object"

(* A registry with adversarial names/values always renders a well-formed
   Prometheus exposition: every sample line is NAME[{le="..."}] VALUE with
   a charset-clean name, HELP text is newline-free, histogram buckets are
   cumulative (monotone), and the +Inf bucket equals the _count sample. *)
let prop_prometheus_well_formed =
  let name_pool =
    [| "a.b"; "a:b"; "1st"; "sp ace"; "ok_name"; "läks"; "x-y"; "_u" |]
  in
  QCheck.Test.make ~name:"prometheus exposition is well-formed" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Dvz_util.Rng.create (seed + 1) in
      let r = Metrics.create () in
      let pick () = name_pool.(Dvz_util.Rng.int rng (Array.length name_pool)) in
      for _ = 1 to 1 + Dvz_util.Rng.int rng 4 do
        Metrics.incr ~by:(Dvz_util.Rng.int rng 100)
          (Metrics.counter r ~help:"multi\nline \\help" (pick ()))
      done;
      for _ = 1 to Dvz_util.Rng.int rng 3 do
        (* distinct suffix per kind: a name may not be re-registered as
           another metric kind *)
        Metrics.set
          (Metrics.gauge r (pick () ^ "!g"))
          (float (Dvz_util.Rng.int rng 50))
      done;
      for _ = 1 to 1 + Dvz_util.Rng.int rng 3 do
        let h = Metrics.histogram r (pick () ^ "_h") in
        for _ = 1 to Dvz_util.Rng.int rng 20 do
          Metrics.observe h (float (1 + Dvz_util.Rng.int rng 1000) /. 10.)
        done
      done;
      let text = prometheus r in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      let name_ok n =
        n <> ""
        && (not ('0' <= n.[0] && n.[0] <= '9'))
        && String.for_all
             (fun c ->
               ('a' <= c && c <= 'z')
               || ('A' <= c && c <= 'Z')
               || ('0' <= c && c <= '9')
               || c = '_' || c = ':')
             n
      in
      (* collect histogram series: name -> (le, count) list in order *)
      let buckets = Hashtbl.create 8 and counts = Hashtbl.create 8 in
      let sample_ok line =
        match String.index_opt line ' ' with
        | None -> false
        | Some i -> (
            let series = String.sub line 0 i in
            match String.index_opt series '{' with
            | None ->
                (if Filename.check_suffix series "_count" then
                   let base =
                     String.sub series 0 (String.length series - 6)
                   in
                   Hashtbl.replace counts base
                     (int_of_string
                        (String.sub line (i + 1)
                           (String.length line - i - 1))));
                name_ok series
            | Some b ->
                let base = String.sub series 0 b in
                (if Filename.check_suffix base "_bucket" then
                   let bname = String.sub base 0 (String.length base - 7) in
                   let le =
                     (* {le="..."} *)
                     let inner =
                       String.sub series (b + 5)
                         (String.length series - b - 7)
                     in
                     inner
                   in
                   let v =
                     int_of_string
                       (String.sub line (i + 1) (String.length line - i - 1))
                   in
                   Hashtbl.replace buckets bname
                     ((le, v)
                     :: (try Hashtbl.find buckets bname
                         with Not_found -> [])));
                name_ok base)
      in
      let all_lines_ok =
        List.for_all
          (fun line ->
            if String.length line >= 1 && line.[0] = '#' then
              (* comment lines are single-line by construction; raw
                 newlines in help would have split them *)
              String.length line > 2
            else sample_ok line)
          lines
      in
      let histograms_ok =
        Hashtbl.fold
          (fun bname rev_bs ok ->
            let bs = List.rev rev_bs in
            let monotone =
              let rec go = function
                | (_, a) :: ((_, b) :: _ as rest) -> a <= b && go rest
                | _ -> true
              in
              go bs
            in
            let inf_matches =
              match List.rev bs with
              | ("+Inf", v) :: _ -> (
                  match Hashtbl.find_opt counts bname with
                  | Some c -> v = c
                  | None -> false)
              | _ -> false
            in
            ok && monotone && inf_matches)
          buckets true
      in
      all_lines_ok && histograms_ok)

(* The JSON exporter's output must parse back with our own parser and
   preserve every value. *)
let prop_json_exporter_roundtrip =
  QCheck.Test.make ~name:"json exporter round-trips" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Dvz_util.Rng.create (seed + 7) in
      let r = Metrics.create () in
      let counters =
        List.init
          (1 + Dvz_util.Rng.int rng 4)
          (fun i ->
            let n = Printf.sprintf "c%d" i in
            let v = Dvz_util.Rng.int rng 1000 in
            Metrics.incr ~by:v (Metrics.counter r n);
            (n, v))
      in
      let h = Metrics.histogram r "h" in
      let obs = 1 + Dvz_util.Rng.int rng 20 in
      for _ = 1 to obs do
        Metrics.observe h (float (Dvz_util.Rng.int rng 100))
      done;
      match Json.of_string (Exporters.render_json r) with
      | Error _ -> false
      | Ok j ->
          let counter_ok (n, v) =
            Option.bind
              (Option.bind (Json.member "counters" j) (Json.member n))
              Json.to_int
            = Some v
          in
          let count_ok =
            Option.bind
              (Option.bind
                 (Option.bind (Json.member "histograms" j) (Json.member "h"))
                 (Json.member "count"))
              Json.to_int
            = Some obs
          in
          List.for_all counter_ok counters && count_ok)

(* Labelled exposition (the fleet /metrics shape): adversarial label
   values must always escape into well-formed [name{k="v",...} value]
   lines, and a metric shared across groups gets one header and one
   sample line per group. *)
let prop_prometheus_labelled_well_formed =
  let label_pool =
    [| "w"; "sp ace"; "q\"uote"; "back\\slash"; "new\nline"; "läks"; "" |]
  in
  QCheck.Test.make ~name:"labelled exposition is well-formed" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Dvz_util.Rng.create (seed + 31) in
      let group i =
        let r = Metrics.create () in
        Metrics.incr
          ~by:(1 + Dvz_util.Rng.int rng 9)
          (Metrics.counter r "shared_total");
        Metrics.incr (Metrics.counter r (Printf.sprintf "only_%d" i));
        let h = Metrics.histogram r "lat_h" in
        for _ = 1 to 1 + Dvz_util.Rng.int rng 5 do
          Metrics.observe h (float_of_int (1 + Dvz_util.Rng.int rng 16))
        done;
        let lbls =
          if i = 0 then []
          else
            [ ("worker", string_of_int (i - 1));
              ( "host name",
                label_pool.(Dvz_util.Rng.int rng (Array.length label_pool))
              ) ]
        in
        (lbls, Metrics.snapshot r)
      in
      let n_groups = 1 + Dvz_util.Rng.int rng 3 in
      let groups = List.init n_groups group in
      let text = Exporters.prometheus_groups groups in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      let name_ok n =
        n <> ""
        && (not ('0' <= n.[0] && n.[0] <= '9'))
        && String.for_all
             (fun c ->
               ('a' <= c && c <= 'z')
               || ('A' <= c && c <= 'Z')
               || ('0' <= c && c <= '9')
               || c = '_' || c = ':')
             n
      in
      (* [k="v",...]: label names charset-clean, values with every
         backslash/quote escaped; a raw newline would have split the
         line and failed the scan. *)
      let label_block_ok s =
        let len = String.length s in
        let rec name i =
          match String.index_from_opt s i '=' with
          | None -> false
          | Some eq ->
              let n = String.sub s i (eq - i) in
              n <> ""
              && String.for_all
                   (fun c ->
                     ('a' <= c && c <= 'z')
                     || ('A' <= c && c <= 'Z')
                     || ('0' <= c && c <= '9')
                     || c = '_')
                   n
              && eq + 1 < len && s.[eq + 1] = '"'
              && value (eq + 2)
        and value i =
          if i >= len then false
          else
            match s.[i] with
            | '\\' ->
                i + 1 < len
                && (match s.[i + 1] with
                   | '\\' | '"' | 'n' -> true
                   | _ -> false)
                && value (i + 2)
            | '"' -> after (i + 1)
            | '\n' -> false
            | _ -> value (i + 1)
        and after i =
          if i = len then true else s.[i] = ',' && name (i + 1)
        in
        name 0
      in
      let sample_ok line =
        let len = String.length line in
        match String.index_opt line '{' with
        | None -> (
            match String.index_opt line ' ' with
            | None -> false
            | Some i ->
                name_ok (String.sub line 0 i)
                && float_of_string_opt
                     (String.sub line (i + 1) (len - i - 1))
                   <> None)
        | Some b -> (
            match String.rindex_opt line '}' with
            | None -> false
            | Some e ->
                e > b
                && name_ok (String.sub line 0 b)
                && label_block_ok (String.sub line (b + 1) (e - b - 1))
                && e + 2 < len
                && line.[e + 1] = ' '
                && float_of_string_opt
                     (String.sub line (e + 2) (len - e - 2))
                   <> None)
      in
      let all_ok =
        List.for_all
          (fun line ->
            if line.[0] = '#' then String.length line > 2 else sample_ok line)
          lines
      in
      let starts_with p l =
        String.length l >= String.length p
        && String.sub l 0 (String.length p) = p
      in
      let headers =
        List.length (List.filter (starts_with "# TYPE shared_total ") lines)
      in
      let samples =
        List.length
          (List.filter
             (fun l ->
               starts_with "shared_total " l || starts_with "shared_total{" l)
             lines)
      in
      all_ok && headers = 1 && samples = n_groups)

(* --- merge semantics (fleet telemetry aggregation) ------------------------ *)

let gen_snapshot seed =
  let rng = Dvz_util.Rng.create (seed + 11) in
  let r = Metrics.create ~clock:(Clock.fake ()) () in
  for _ = 1 to 1 + Dvz_util.Rng.int rng 3 do
    Metrics.incr
      ~by:(Dvz_util.Rng.int rng 100)
      (Metrics.counter r (Printf.sprintf "c%d" (Dvz_util.Rng.int rng 4)));
    Metrics.set
      (Metrics.gauge r (Printf.sprintf "g%d" (Dvz_util.Rng.int rng 3)))
      (float_of_int (Dvz_util.Rng.int rng 50));
    let h =
      Metrics.histogram r (Printf.sprintf "h%d" (Dvz_util.Rng.int rng 2))
    in
    for _ = 1 to Dvz_util.Rng.int rng 8 do
      Metrics.observe h (float_of_int (1 + Dvz_util.Rng.int rng 64))
    done
  done;
  Metrics.snapshot r

let prop_metrics_merge_commutative =
  QCheck.Test.make ~name:"Metrics.merge is commutative" ~count:60
    QCheck.(pair small_int small_int)
    (fun (sa, sb) ->
      let a = gen_snapshot sa and b = gen_snapshot sb in
      Metrics.merge a b = Metrics.merge b a
      && Metrics.merge a Metrics.empty_snapshot = a
      && Metrics.merge Metrics.empty_snapshot a = a)

let test_metrics_merge_semantics () =
  let reg obs =
    let r = Metrics.create () in
    Metrics.incr ~by:(fst obs) (Metrics.counter r "c");
    Metrics.set (Metrics.gauge r "g") (snd obs);
    List.iteri
      (fun _ v -> Metrics.observe (Metrics.histogram r "h") v)
      [ snd obs ];
    Metrics.snapshot r
  in
  let m = Metrics.merge (reg (2, 1.5)) (reg (3, 0.5)) in
  (match List.find_opt (fun (n, _, _) -> n = "c") m.Metrics.sn_counters with
  | Some (_, _, v) -> Alcotest.(check int) "counters add" 5 v
  | None -> Alcotest.fail "merged counter missing");
  (match List.find_opt (fun (n, _, _) -> n = "g") m.Metrics.sn_gauges with
  | Some (_, _, v) -> Alcotest.(check (float 0.0)) "gauges max" 1.5 v
  | None -> Alcotest.fail "merged gauge missing");
  match List.find_opt (fun (n, _, _) -> n = "h") m.Metrics.sn_histograms with
  | Some (_, _, h) ->
      Alcotest.(check int) "histogram counts add" 2 h.Metrics.hs_count;
      Alcotest.(check (float 1e-9)) "histogram sums add" 2.0 h.Metrics.hs_sum
  | None -> Alcotest.fail "merged histogram missing"

(* Dyadic durations (sixteenths) keep float addition exact, so the
   property is equality, not approximation. *)
let gen_entries seed =
  let rng = Dvz_util.Rng.create (seed + 23) in
  let paths = [| "a"; "a/b"; "a/c"; "d"; "d/e" |] in
  List.init
    (1 + Dvz_util.Rng.int rng 5)
    (fun _ ->
      let p = paths.(Dvz_util.Rng.int rng (Array.length paths)) in
      let depth =
        String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 p
      in
      let name =
        match String.rindex_opt p '/' with
        | Some i -> String.sub p (i + 1) (String.length p - i - 1)
        | None -> p
      in
      let six () = float_of_int (Dvz_util.Rng.int rng 64) /. 16.0 in
      { Profile.pf_path = p;
        pf_name = name;
        pf_depth = depth;
        pf_count = 1 + Dvz_util.Rng.int rng 9;
        pf_total_s = six ();
        pf_self_s = six ();
        pf_max_s = six () })

let prop_profile_merge_commutative =
  QCheck.Test.make ~name:"Profile.merge is commutative" ~count:60
    QCheck.(pair small_int small_int)
    (fun (sa, sb) ->
      let a = gen_entries sa and b = gen_entries sb in
      Profile.merge a b = Profile.merge b a
      && Profile.merge a [] = Profile.merge [] a)

(* --- campaign telemetry --------------------------------------------------- *)

let buffer_telemetry ?(progress_every = 0) () =
  let buf = Buffer.create 4096 in
  let lines = ref [] in
  let tel =
    { Campaign.t_events = Events.to_buffer buf;
      t_metrics = Metrics.create ~clock:(Clock.fake ~step:0.001 ()) ();
      t_progress_every = progress_every;
      t_progress = (fun l -> lines := l :: !lines);
      t_explain_dir = None;
      t_board = None }
  in
  (tel, buf, lines)

let small_options iterations rng_seed =
  { Campaign.default_options with Campaign.iterations; rng_seed }

let test_jsonl_golden_3_iterations () =
  let run () =
    let tel, buf, _ = buffer_telemetry () in
    ignore (Campaign.run ~telemetry:tel boom (small_options 3 2));
    Buffer.contents buf
  in
  let log = run () in
  (* fake clock + fixed seed: the whole stream is deterministic *)
  Alcotest.(check string) "byte-identical across runs" log (run ());
  match Json.of_lines log with
  | Error e -> Alcotest.fail e
  | Ok events ->
      let typ ev = Option.bind (Json.member "type" ev) Json.to_str in
      Alcotest.(check (option string)) "starts with campaign_start"
        (Some "campaign_start")
        (typ (List.hd events));
      Alcotest.(check (option string)) "ends with campaign_end"
        (Some "campaign_end")
        (typ (List.nth events (List.length events - 1)));
      let iters = List.filter (fun e -> typ e = Some "iteration") events in
      Alcotest.(check int) "one record per iteration" 3 (List.length iters);
      List.iter
        (fun ev ->
          List.iter
            (fun key ->
              if Json.member key ev = None then
                Alcotest.failf "iteration record missing %s" key)
            [ "iteration"; "seed_kind"; "phase1_triggered"; "coverage_delta";
              "new_findings"; "cycles"; "phase1_s"; "phase2_s"; "phase3_s" ])
        iters

let test_progress_lines () =
  let tel, _, lines = buffer_telemetry ~progress_every:5 () in
  ignore (Campaign.run ~telemetry:tel boom (small_options 10 2));
  Alcotest.(check int) "every 5 of 10 iterations" 2 (List.length !lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "line mentions coverage" true
        (contains l "coverage="))
    !lines

let test_phase_spans_recorded () =
  let tel, _, _ = buffer_telemetry () in
  ignore (Campaign.run ~telemetry:tel boom (small_options 8 3));
  let h1 = Metrics.histogram tel.Campaign.t_metrics "dvz_phase1_seconds" in
  Alcotest.(check int) "phase1 span per iteration" 8 (Metrics.histogram_count h1);
  let iters =
    Metrics.counter tel.Campaign.t_metrics "dvz_campaign_iterations_total"
  in
  Alcotest.(check int) "iteration counter" 8 (Metrics.counter_value iters)

let stats_equal (a : Campaign.stats) (b : Campaign.stats) =
  a.Campaign.s_coverage_curve = b.Campaign.s_coverage_curve
  && a.Campaign.s_findings = b.Campaign.s_findings
  && a.Campaign.s_first_bug = b.Campaign.s_first_bug
  && a.Campaign.s_final_coverage = b.Campaign.s_final_coverage
  && a.Campaign.s_triggered = b.Campaign.s_triggered

let test_telemetry_does_not_change_results () =
  let options = small_options 25 4 in
  let plain = Campaign.run boom options in
  let tel, _, _ = buffer_telemetry ~progress_every:3 () in
  let instrumented = Campaign.run ~telemetry:tel boom options in
  Alcotest.(check bool) "bit-identical stats" true
    (stats_equal plain instrumented)

(* --- replay --------------------------------------------------------------- *)

let test_replay_roundtrip () =
  let tel, buf, _ = buffer_telemetry () in
  let stats = Campaign.run ~telemetry:tel boom (small_options 40 3) in
  Alcotest.(check bool) "campaign found something" true
    (stats.Campaign.s_findings <> []);
  match Dejavuzz.Replay.of_string (Buffer.contents buf) with
  | Ok summary ->
      Alcotest.(check string) "summary reconstructed from the log alone"
        (Dejavuzz.Report.summary stats
        ^ Dejavuzz.Report.table5 ~core_name:boom.Cfg.name
            stats.Campaign.s_findings)
        summary
  | Error e -> Alcotest.fail e

let test_replay_errors () =
  Alcotest.(check bool) "empty log rejected" true
    (match Dejavuzz.Replay.of_string "" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "bad json rejected" true
    (match Dejavuzz.Replay.of_string "{oops\n" with
    | Error _ -> true
    | Ok _ -> false)

(* --- events: ring and tee -------------------------------------------------- *)

let test_ring_and_tee () =
  let ring = Events.ring ~cap:4 () in
  Alcotest.(check bool) "ring is not null" false (Events.is_null ring);
  for i = 1 to 6 do
    Events.emit ring [ ("i", Json.Int i) ]
  done;
  Alcotest.(check (list string)) "tail is oldest-first"
    [ "{\"i\":5}"; "{\"i\":6}" ]
    (Events.recent ring 2);
  Alcotest.(check int) "tail capped at ring size" 4
    (List.length (Events.recent ring 99));
  Alcotest.(check (list string)) "non-ring sinks hold no tail" []
    (Events.recent Events.null 5);
  let buf = Buffer.create 64 in
  let t = Events.tee (Events.to_buffer buf) ring in
  Events.emit
    (Events.with_context t [ ("ctx", Json.Int 1) ])
    [ ("x", Json.Int 0) ];
  Alcotest.(check string) "tee reaches the buffer branch"
    "{\"x\":0,\"ctx\":1}\n" (Buffer.contents buf);
  Alcotest.(check (list string)) "tee reaches the ring branch"
    [ "{\"x\":0,\"ctx\":1}" ]
    (Events.recent t 1);
  Alcotest.(check bool) "tee of nulls is null" true
    (Events.is_null (Events.tee Events.null Events.null));
  Alcotest.(check bool) "tee with one live branch is live" false
    (Events.is_null (Events.tee Events.null ring))

(* --- events: batch sink (fleet worker flushes) ----------------------------- *)

let test_events_batch_drain () =
  let b = Events.batch ~cap:2 () in
  Alcotest.(check bool) "batch is not null" false (Events.is_null b);
  List.iter
    (fun n -> Events.emit b [ ("type", Json.Str n) ])
    [ "one"; "two"; "three" ];
  let lines, dropped = Events.drain b in
  Alcotest.(check (list string)) "cap kept, oldest first"
    [ "{\"type\":\"one\"}"; "{\"type\":\"two\"}" ]
    lines;
  Alcotest.(check int) "overflow counted" 1 dropped;
  Alcotest.(check (pair (list string) int)) "drain empties" ([], 0)
    (Events.drain b);
  Events.emit b [ ("type", Json.Str "four") ];
  Alcotest.(check (pair (list string) int)) "refills, dropped reset"
    ([ "{\"type\":\"four\"}" ], 0)
    (Events.drain b);
  Alcotest.(check (pair (list string) int)) "non-batch sinks drain empty"
    ([], 0)
    (Events.drain Events.null)

let test_events_emit_rendered_context () =
  let buf = Buffer.create 256 in
  let sink =
    Events.with_context (Events.to_buffer buf) [ ("wslot", Json.Int 3) ]
  in
  Events.emit_rendered sink {|{"type":"assign","epoch":1}|};
  Events.emit_rendered sink "{}";
  Events.emit_rendered sink "not json";
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check string) "context spliced into the object"
    {|{"type":"assign","epoch":1,"wslot":3}|}
    (List.nth lines 0);
  Alcotest.(check string) "empty object gains context" {|{"wslot":3}|}
    (List.nth lines 1);
  match Json.of_string (List.nth lines 2) with
  | Ok j ->
      Alcotest.(check (option string)) "non-object wrapped" (Some "not json")
        (Option.bind (Json.member "line" j) Json.to_str);
      Alcotest.(check (option int)) "wrapped line keeps context" (Some 3)
        (Option.bind (Json.member "wslot" j) Json.to_int)
  | Error e -> Alcotest.failf "wrapped line not JSON: %s" e

(* --- metrics: multi-domain safety ------------------------------------------ *)

let test_metrics_domain_safety () =
  (* Counters and high-water gauges take concurrent updates from worker
     domains (--jobs N); no increment may be lost, and record_max must
     keep the exact maximum across all domains. *)
  let r = Metrics.create () in
  let c = Metrics.counter r "stress_c" in
  let g = Metrics.gauge r "stress_g" in
  let doms = 4 and per = 20_000 in
  let worker d () =
    for i = 1 to per do
      Metrics.incr c;
      Metrics.record_max g (float_of_int ((d * per) + i))
    done
  in
  let spawned = List.init doms (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost increments" (doms * per)
    (Metrics.counter_value c);
  Alcotest.(check (float 0.0)) "high-water exact" (float_of_int (doms * per))
    (Metrics.gauge_value g)

(* --- profiler --------------------------------------------------------------- *)

let with_profiler ?(trace = false) f =
  Profile.arm ~clock:(Clock.fake ()) ~trace ();
  Profile.reset ();
  Fun.protect ~finally:(fun () -> Profile.disarm ()) f

(* Self-time arithmetic: on the fake clock every region costs exactly two
   ticks of its own, so for every aggregate entry
   total = self + Σ (direct children totals), exactly. *)
let prop_profile_self_time =
  QCheck.Test.make ~name:"profiler self-times sum to parent totals" ~count:25
    QCheck.small_int (fun seed ->
      with_profiler (fun () ->
          let rng = Dvz_util.Rng.create (seed + 3) in
          let names = [| "a"; "b"; "c" |] in
          let rec build depth =
            Profile.wrap names.(Dvz_util.Rng.int rng 3) (fun () ->
                let kids = if depth >= 3 then 0 else Dvz_util.Rng.int rng 3 in
                for _ = 1 to kids do
                  build (depth + 1)
                done)
          in
          for _ = 1 to 1 + Dvz_util.Rng.int rng 4 do
            build 0
          done;
          let entries = Profile.snapshot () in
          let direct_child e c =
            let prefix = e.Profile.pf_path ^ "/" in
            c.Profile.pf_depth = e.Profile.pf_depth + 1
            && String.length c.Profile.pf_path > String.length prefix
            && String.sub c.Profile.pf_path 0 (String.length prefix) = prefix
          in
          entries <> []
          && List.for_all
               (fun e ->
                 let child_total =
                   List.fold_left
                     (fun acc c ->
                       if direct_child e c then acc +. c.Profile.pf_total_s
                       else acc)
                     0.0 entries
                 in
                 Float.abs
                   (e.Profile.pf_total_s -. (e.Profile.pf_self_s +. child_total))
                 < 1e-9
                 && e.Profile.pf_self_s >= 0.0
                 && e.Profile.pf_max_s <= e.Profile.pf_total_s +. 1e-9)
               entries))

let test_profile_aggregation_counts () =
  with_profiler (fun () ->
      Profile.wrap "outer" (fun () ->
          Profile.wrap "inner" (fun () -> ());
          Profile.wrap "inner" (fun () -> ()));
      let entries = Profile.snapshot () in
      let find path =
        match
          List.find_opt (fun e -> e.Profile.pf_path = path) entries
        with
        | Some e -> e
        | None -> Alcotest.failf "no entry for %s" path
      in
      let outer = find "outer" and inner = find "outer/inner" in
      Alcotest.(check int) "outer once" 1 outer.Profile.pf_count;
      Alcotest.(check int) "inner twice" 2 inner.Profile.pf_count;
      Alcotest.(check int) "inner nested one deep" 1 inner.Profile.pf_depth;
      (* tick clock: every read advances by one, so outer reads t=0 and
         t=5 (duration 5) around two inner regions of duration 1 each *)
      Alcotest.(check (float 0.0)) "outer total" 5.0 outer.Profile.pf_total_s;
      Alcotest.(check (float 0.0)) "inner total" 2.0 inner.Profile.pf_total_s;
      Alcotest.(check (float 0.0)) "outer self" 3.0 outer.Profile.pf_self_s;
      (* the table and JSON artifact carry every region *)
      let table = Profile.render_table entries in
      Alcotest.(check bool) "table mentions inner" true
        (contains table "inner");
      match Profile.to_json entries with
      | Json.Obj fields ->
          Alcotest.(check (option string)) "artifact schema"
            (Some "dvz-profile/1")
            (Option.bind (List.assoc_opt "schema" fields) Json.to_str)
      | _ -> Alcotest.fail "profile artifact not an object")

let test_profile_disarmed_probe_allocation_free () =
  (* The recommended hot-path pattern must not allocate while disarmed:
     the closure sits on the armed branch only.  A small budget absorbs
     the Gc.minor_words float boxes themselves. *)
  Profile.disarm ();
  let sink = ref 0 in
  let f () = incr sink in
  let probe () = if Profile.armed () then Profile.wrap "x" f else f () in
  for _ = 1 to 100 do probe () done;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    probe ()
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "disarmed probes allocation-free (%.0f words)" dw)
    true (dw < 256.0)

let test_trace_event_export_valid () =
  with_profiler ~trace:true (fun () ->
      Profile.set_tid 0;
      Profile.wrap "outer" (fun () -> Profile.wrap "inner" (fun () -> ()));
      Profile.set_tid 2;
      Profile.wrap "worker-work" (fun () -> ());
      Profile.set_tid 0;
      let evs = Profile.events () in
      Alcotest.(check int) "three regions recorded" 3 (List.length evs);
      Alcotest.(check int) "nothing dropped" 0 (Profile.events_dropped ());
      match
        Json.of_string (Trace_event.render_multi [ (1, "dejavuzz", evs) ])
      with
      | Error e -> Alcotest.failf "trace not valid JSON: %s" e
      | Ok j -> (
          match Json.member "traceEvents" j with
          | Some (Json.Arr items) ->
              (* 1 process-name + 2 thread-name metadata records + 3
                 complete events *)
              Alcotest.(check int) "metas + events" 6 (List.length items);
              Alcotest.(check bool) "process_name metadata present" true
                (List.exists
                   (fun it ->
                     Option.bind (Json.member "name" it) Json.to_str
                     = Some "process_name")
                   items);
              let ph it =
                Option.bind (Json.member "ph" it) Json.to_str
              in
              Alcotest.(check bool) "only X and M phases" true
                (List.for_all
                   (fun it -> ph it = Some "X" || ph it = Some "M")
                   items);
              let xs = List.filter (fun it -> ph it = Some "X") items in
              Alcotest.(check bool) "X events carry ts/dur/pid/tid" true
                (List.for_all
                   (fun it ->
                     let geti k =
                       Option.bind (Json.member k it) Json.to_int
                     in
                     (match geti "ts" with Some t -> t >= 0 | None -> false)
                     && (match geti "dur" with
                        | Some d -> d >= 1
                        | None -> false)
                     && geti "pid" = Some 1
                     && match geti "tid" with
                        | Some t -> t = 0 || t = 2
                        | None -> false)
                   xs)
          | _ -> Alcotest.fail "traceEvents missing"))

(* Incremental cursor reads: the fleet worker ships only the delta since
   its previous flush. *)
let test_profile_events_from () =
  with_profiler ~trace:true (fun () ->
      Profile.wrap "a" (fun () -> ());
      let first, c1 = Profile.events_from 0 in
      Alcotest.(check int) "one event so far" 1 (List.length first);
      Profile.wrap "b" (fun () -> ());
      Profile.wrap "c" (fun () -> ());
      let next, c2 = Profile.events_from c1 in
      Alcotest.(check (list string)) "delta only, in order" [ "b"; "c" ]
        (List.map (fun e -> e.Profile.ev_name) next);
      let empty, c3 = Profile.events_from c2 in
      Alcotest.(check int) "drained" 0 (List.length empty);
      Alcotest.(check int) "cursor stable" c2 c3;
      Alcotest.(check (list string)) "full read still sees everything"
        [ "a"; "b"; "c" ]
        (List.map (fun e -> e.Profile.ev_name) (fst (Profile.events_from 0))))

(* The campaign's profile tree: each batch is a [campaign/batch] region
   with the executor phases beneath it, region paths carry no metric
   names, and the batch histogram counts one observation per batch. *)
let test_campaign_profile_tree () =
  let tel, _, _ = buffer_telemetry () in
  let paths =
    with_profiler (fun () ->
        ignore (Campaign.run ~telemetry:tel boom (small_options 3 2));
        List.map (fun e -> e.Profile.pf_path) (Profile.snapshot ()))
  in
  List.iter
    (fun p ->
      if not (List.mem p paths) then
        Alcotest.failf "no %s region in [%s]" p (String.concat "; " paths))
    [ "campaign/batch"; "campaign/batch/executor/phase1";
      "campaign/batch/executor/phase2"; "campaign/batch/executor/phase3";
      "campaign/batch/executor/phase3/dualcore/fast_forward" ];
  List.iter
    (fun p ->
      if contains p "dvz_" then Alcotest.failf "metric name in region %s" p)
    paths;
  Alcotest.(check int) "one batch observation per iteration" 3
    (Metrics.histogram_count
       (Metrics.histogram tel.Campaign.t_metrics "dvz_campaign_batch_seconds"))

(* SpecDoctor's coverage replay steps [Dualcore] inside its own region:
   no [dualcore/step] may surface as a root of the profile. *)
let test_specdoctor_profile_region () =
  let paths =
    with_profiler (fun () ->
        ignore (Dvz_baselines.Specdoctor.campaign ~iterations:2 boom);
        List.map (fun e -> e.Profile.pf_path) (Profile.snapshot ()))
  in
  Alcotest.(check bool)
    (Printf.sprintf "specdoctor/iteration/dualcore/step in [%s]"
       (String.concat "; " paths))
    true
    (List.mem "specdoctor/iteration/dualcore/step" paths);
  Alcotest.(check bool) "no root-level dualcore/step" false
    (List.mem "dualcore/step" paths)

let test_render_table_percent_and_sort () =
  let entry path self =
    { Profile.pf_path = path;
      pf_name = path;
      pf_depth = 0;
      pf_count = 1;
      pf_total_s = self;
      pf_self_s = self;
      pf_max_s = self }
  in
  let table =
    Profile.render_table
      [ entry "small" 1.0; entry "big" 3.0; entry "mid" 1.0 ]
  in
  Alcotest.(check bool) "has a self % column" true (contains table "self %");
  Alcotest.(check bool) "percentages of total self" true
    (contains table "60.0" && contains table "20.0");
  let index needle =
    let rec go i =
      if i + String.length needle > String.length table then
        Alcotest.failf "table lacks %s" needle
      else if String.sub table i (String.length needle) = needle then i
      else go (i + 1)
    in
    go 0
  in
  (* self-time desc, then path asc on ties: big, mid, small *)
  Alcotest.(check bool) "sorted by self desc then path" true
    (index "big" < index "mid" && index "mid" < index "small")

let test_trace_multi_group_export () =
  let ev name tid start =
    { Profile.ev_path = name;
      ev_name = name;
      ev_tid = tid;
      ev_start = start;
      ev_dur = 0.5 }
  in
  let groups =
    [ (1, "dejavuzz coordinator", [ ev "a" 0 10.0 ]);
      (3, "dejavuzz worker 1", [ ev "b" 0 10.5; ev "c" 1 11.0 ]) ]
  in
  match Json.of_string (Trace_event.render_multi groups) with
  | Error e -> Alcotest.failf "multi trace not JSON: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.Arr items) ->
          (* 2 process metas + 3 thread metas + 3 X events *)
          Alcotest.(check int) "metas + events" 8 (List.length items);
          let str k it = Option.bind (Json.member k it) Json.to_str in
          let int k it = Option.bind (Json.member k it) Json.to_int in
          let pnames =
            List.filter_map
              (fun it ->
                if str "name" it = Some "process_name" then
                  match (int "pid" it, Json.member "args" it) with
                  | Some pid, Some args ->
                      Option.map (fun n -> (pid, n)) (str "name" args)
                  | _ -> None
                else None)
              items
          in
          Alcotest.(check (list (pair int string)))
            "one named process group per pid"
            [ (1, "dejavuzz coordinator"); (3, "dejavuzz worker 1") ]
            (List.sort compare pnames);
          (* shared base: earliest region anywhere is ts 0 *)
          let ts_of name =
            match
              List.find_opt (fun it -> str "name" it = Some name) items
            with
            | Some it -> int "ts" it
            | None -> None
          in
          Alcotest.(check (option int)) "earliest event at ts 0" (Some 0)
            (ts_of "a");
          Alcotest.(check (option int)) "worker event on the shared axis"
            (Some 500_000) (ts_of "b");
          Alcotest.(check (option int)) "second worker track" (Some 1_000_000)
            (ts_of "c")
      | _ -> Alcotest.fail "traceEvents missing")

(* --- live status server ----------------------------------------------------- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path
      in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
      let rec drain () =
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n > 0 then (
          Buffer.add_subbytes buf chunk 0 n;
          drain ())
      in
      (try drain () with End_of_file -> ());
      Buffer.contents buf)

let split_response raw =
  let len = String.length raw in
  let rec find i =
    if i + 4 > len then Alcotest.fail "no header/body separator"
    else if String.sub raw i 4 = "\r\n\r\n" then i
    else find (i + 1)
  in
  let i = find 0 in
  (String.sub raw 0 i, String.sub raw (i + 4) (len - i - 4))

let test_live_server_endpoints () =
  (* Run a short campaign that publishes to a board and a ring, then
     serve the exact routes the CLI wires up and check every endpoint
     over a real loopback socket on an ephemeral port. *)
  let board = Campaign.new_board () in
  let ring = Events.ring ~cap:64 () in
  let registry = Metrics.create ~clock:(Clock.fake ~step:0.001 ()) () in
  let tel =
    { Campaign.quiet with
      Campaign.t_events = ring;
      t_metrics = registry;
      t_board = Some board }
  in
  ignore (Campaign.run ~telemetry:tel boom (small_options 5 2));
  let routes =
    [ ( "/healthz",
        fun _ ->
          Server.json
            (Json.Obj
               [ ("version", Json.Str "test");
                 ("uptime_s", Json.Float 0.0);
                 ("pid", Json.Int (Unix.getpid ()));
                 ("mode", Json.Str "local") ]) );
      ( "/status",
        fun _ ->
          match Campaign.board_read board with
          | Some p -> Server.json (Campaign.progress_json p)
          | None -> Server.json (Json.Obj [ ("phase", Json.Str "starting") ])
      );
      ( "/metrics",
        fun _ ->
          { Server.status = 200;
            content_type = "text/plain; version=0.0.4";
            body = prometheus registry } );
      ( "/events",
        fun query ->
          match Server.int_param ~default:5 "n" query with
          | Error resp -> resp
          | Ok n ->
              let keep =
                match List.assoc_opt "kind" query with
                | None -> fun _ -> true
                | Some kind -> (
                    fun line ->
                      match Json.of_string line with
                      | Ok j ->
                          Option.bind (Json.member "type" j) Json.to_str
                          = Some kind
                      | Error _ -> false)
              in
              Server.text
                (String.concat "\n" (List.filter keep (Events.recent ring n))
                ^ "\n") ) ]
  in
  match Server.start ~port:0 ~routes () with
  | Error e -> Alcotest.failf "server did not start: %s" e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          let headers, body = split_response (http_get port "/healthz") in
          Alcotest.(check bool) "healthz 200" true (contains headers " 200 ");
          (match Json.of_string body with
          | Error e -> Alcotest.failf "/healthz not JSON: %s" e
          | Ok j ->
              Alcotest.(check (option string)) "healthz mode" (Some "local")
                (Option.bind (Json.member "mode" j) Json.to_str);
              Alcotest.(check (option int)) "healthz pid"
                (Some (Unix.getpid ()))
                (Option.bind (Json.member "pid" j) Json.to_int);
              Alcotest.(check bool) "healthz version" true
                (Json.member "version" j <> None
                && Json.member "uptime_s" j <> None));
          let sheaders, sbody = split_response (http_get port "/status") in
          Alcotest.(check bool) "status 200" true (contains sheaders " 200 ");
          Alcotest.(check bool) "status is json" true
            (contains sheaders "application/json");
          (match Json.of_string sbody with
          | Error e -> Alcotest.failf "/status not JSON: %s" e
          | Ok j ->
              let stri k = Option.bind (Json.member k j) Json.to_str in
              let inti k = Option.bind (Json.member k j) Json.to_int in
              Alcotest.(check (option string)) "phase" (Some "finished")
                (stri "phase");
              Alcotest.(check (option int)) "iteration" (Some 5)
                (inti "iteration");
              Alcotest.(check (option int)) "total" (Some 5) (inti "total");
              List.iter
                (fun key ->
                  if Json.member key j = None then
                    Alcotest.failf "/status missing %s" key)
                [ "core"; "findings"; "triggered"; "coverage"; "corpus_size";
                  "top_rewards"; "harness_crashes"; "watchdog_timeouts";
                  "sim_cycles"; "batches"; "jobs"; "domain_iterations";
                  "elapsed_s"; "eta_s" ];
              match Json.member "domain_iterations" j with
              | Some (Json.Arr (_ :: _)) -> ()
              | _ -> Alcotest.fail "domain_iterations not a non-empty array");
          let mheaders, mbody = split_response (http_get port "/metrics") in
          Alcotest.(check bool) "metrics 200" true (contains mheaders " 200 ");
          Alcotest.(check bool) "metrics exposition format" true
            (contains mheaders "text/plain; version=0.0.4");
          Alcotest.(check bool) "metrics has TYPE comments" true
            (contains mbody "# TYPE");
          Alcotest.(check bool) "campaign counters exported" true
            (contains mbody "dvz_campaign_iterations_total 5");
          let _, ebody = split_response (http_get port "/events?n=2") in
          (match Json.of_lines ebody with
          | Ok evs ->
              Alcotest.(check int) "two tail events" 2 (List.length evs);
              Alcotest.(check (option string)) "tail ends with campaign_end"
                (Some "campaign_end")
                (Option.bind
                   (Json.member "type" (List.nth evs 1))
                   Json.to_str)
          | Error e -> Alcotest.failf "/events tail not JSONL: %s" e);
          let _, kbody =
            split_response (http_get port "/events?kind=campaign_end&n=5")
          in
          (match Json.of_lines kbody with
          | Ok evs ->
              Alcotest.(check bool) "kind filter keeps only matches" true
                (evs <> []
                && List.for_all
                     (fun ev ->
                       Option.bind (Json.member "type" ev) Json.to_str
                       = Some "campaign_end")
                     evs)
          | Error e -> Alcotest.failf "filtered /events not JSONL: %s" e);
          (* Query-string hardening: junk values, duplicate keys and
             overlong queries are a client error, never an exception. *)
          List.iter
            (fun path ->
              let h, _ = split_response (http_get port path) in
              Alcotest.(check bool)
                (Printf.sprintf "%s is 400" path)
                true (contains h " 400 "))
            [ "/events?n=abc";
              "/events?n=2&n=3";
              "/events?" ^ String.make 2000 'q' ];
          let nheaders, _ = split_response (http_get port "/nope") in
          Alcotest.(check bool) "unknown path is 404" true
            (contains nheaders " 404 "))

let test_server_drops_slow_clients () =
  (* A client that connects and never sends a request line must not
     wedge the accept loop: the server hangs up at the deadline and
     later requests are served. *)
  let routes = [ ("/healthz", fun _ -> Server.text "ok\n") ] in
  match Server.start ~port:0 ~client_timeout_s:0.3 ~routes () with
  | Error e -> Alcotest.failf "server did not start: %s" e
  | Ok srv ->
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let port = Server.port srv in
          let silent = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close silent with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect silent
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              (* Trickle a partial request line, then go quiet. *)
              ignore (Unix.write_substring silent "GE" 0 2);
              let t0 = Unix.gettimeofday () in
              let headers, body = split_response (http_get port "/healthz") in
              Alcotest.(check bool) "request served despite slow client" true
                (contains headers " 200 ");
              Alcotest.(check string) "body intact" "ok\n" body;
              Alcotest.(check bool) "served within a few deadlines" true
                (Unix.gettimeofday () -. t0 < 3.0);
              (* The server answers the timed-out client with a 400 and
                 hangs up; drain to EOF to observe both. *)
              let buf = Bytes.create 256 in
              let got = Buffer.create 64 in
              let rec drain () =
                match Unix.read silent buf 0 256 with
                | 0 -> ()
                | n ->
                    Buffer.add_subbytes got buf 0 n;
                    drain ()
                | exception
                    Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                    ()
              in
              drain ();
              Alcotest.(check bool) "silent client got a 400 then EOF" true
                (contains (Buffer.contents got) " 400 ")));
      (match Server.start ~port:0 ~client_timeout_s:0.0 ~routes () with
      | Ok srv ->
          Server.stop srv;
          Alcotest.fail "non-positive timeout accepted"
      | Error e ->
          Alcotest.(check bool) "non-positive timeout rejected" true
            (contains e "must be positive"))

(* --- parallel map counters ------------------------------------------------ *)

let test_parallel_task_counters () =
  let before =
    Metrics.counter_value
      (Metrics.counter Metrics.default "dvz_parallel_tasks_total")
  in
  let r = Dvz_util.Parallel.map ~domains:2 (fun x -> x * x) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list int)) "results ordered" [ 1; 4; 9; 16 ] r;
  let after =
    Metrics.counter_value
      (Metrics.counter Metrics.default "dvz_parallel_tasks_total")
  in
  Alcotest.(check int) "4 tasks counted" 4 (after - before)

let () =
  Alcotest.run "dvz_obs"
    [ ( "metrics",
        [ Alcotest.test_case "counters and gauges" `Quick
            test_counter_gauge_basics;
          Alcotest.test_case "log2 bucket boundaries" `Quick
            test_histogram_buckets ] );
      ( "json",
        [ Alcotest.test_case "roundtrip and escapes" `Quick test_json_roundtrip ] );
      ( "events",
        [ Alcotest.test_case "sinks and context" `Quick
            test_events_sink_and_context;
          Alcotest.test_case "ring tails and tee fan-out" `Quick
            test_ring_and_tee;
          Alcotest.test_case "batch sink drains with overflow count" `Quick
            test_events_batch_drain;
          Alcotest.test_case "rendered lines gain context" `Quick
            test_events_emit_rendered_context ] );
      ( "profile",
        [ QCheck_alcotest.to_alcotest prop_profile_self_time;
          Alcotest.test_case "aggregation counts and artifact" `Quick
            test_profile_aggregation_counts;
          Alcotest.test_case "disarmed probes allocation-free" `Quick
            test_profile_disarmed_probe_allocation_free;
          Alcotest.test_case "trace-event export is valid" `Quick
            test_trace_event_export_valid;
          Alcotest.test_case "incremental event cursor" `Quick
            test_profile_events_from;
          Alcotest.test_case "campaign region tree" `Quick
            test_campaign_profile_tree;
          Alcotest.test_case "specdoctor region tree" `Quick
            test_specdoctor_profile_region;
          Alcotest.test_case "table percent column and sort" `Quick
            test_render_table_percent_and_sort;
          Alcotest.test_case "multi-process trace export" `Quick
            test_trace_multi_group_export;
          QCheck_alcotest.to_alcotest prop_profile_merge_commutative ] );
      ( "server",
        [ Alcotest.test_case "slow clients dropped at deadline" `Quick
            test_server_drops_slow_clients;
          Alcotest.test_case "live endpoints on an ephemeral port" `Quick
            test_live_server_endpoints ] );
      ( "exporters",
        [ Alcotest.test_case "prometheus escaping" `Quick
            test_prometheus_render_escaping;
          Alcotest.test_case "prometheus cumulative buckets" `Quick
            test_prometheus_histogram_cumulative;
          Alcotest.test_case "json snapshot parses" `Quick
            test_json_exporter_parses;
          Alcotest.test_case "collision disambiguation" `Quick
            test_prometheus_collision_disambiguated;
          Alcotest.test_case "duplicate snapshot keys" `Quick
            test_snapshot_json_duplicate_keys;
          QCheck_alcotest.to_alcotest prop_prometheus_well_formed;
          QCheck_alcotest.to_alcotest prop_prometheus_labelled_well_formed;
          QCheck_alcotest.to_alcotest prop_json_exporter_roundtrip;
          Alcotest.test_case "merge semantics" `Quick
            test_metrics_merge_semantics;
          QCheck_alcotest.to_alcotest prop_metrics_merge_commutative ] );
      ( "campaign",
        [ Alcotest.test_case "jsonl golden, 3 iterations" `Quick
            test_jsonl_golden_3_iterations;
          Alcotest.test_case "progress lines" `Quick test_progress_lines;
          Alcotest.test_case "phase spans recorded" `Quick
            test_phase_spans_recorded;
          Alcotest.test_case "telemetry neutral (regression)" `Quick
            test_telemetry_does_not_change_results ] );
      ( "replay",
        [ Alcotest.test_case "roundtrip" `Quick test_replay_roundtrip;
          Alcotest.test_case "errors" `Quick test_replay_errors ] );
      ( "parallel",
        [ Alcotest.test_case "task counters" `Quick test_parallel_task_counters;
          Alcotest.test_case "metrics domain safety" `Quick
            test_metrics_domain_safety ] ) ]
