(* End-to-end campaign benchmark.

     e2e.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]

   Plain mode (--trace 0) times whole campaigns: set-up in cold child
   processes, then repeats of the workload's campaign suite for about T
   seconds, and prints the end-to-end metrics.  Trace mode (--trace 1)
   alternates plain and traced runs of the suite, replays the traced
   run's simulations layer by layer, and prints the per-layer metrics,
   a self-time table and a Chrome trace.  Either way the last stdout line
   is one JSON object {correct, attempted, failed, metrics}; the exit
   code is 1 when any output check failed. *)

let t_main = Mono.now ()

open Dejavuzz
module Json = Dvz_obs.Json
module Metrics = Dvz_obs.Metrics
module Stats = Dvz_util.Stats

let workload = ref ""
let seed = ref 11
let seconds = ref 25.0
let trace = ref 0
let iterations = ref 0
let campaigns = ref 0
let repeats = ref 0
let setup_samples = ref 8
let out_dir = ref "."
let setup_probe = ref false

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME workload to run");
    ("--seed", Arg.Set_int seed, "S seed the campaign suite is derived from (default 11)");
    ("--seconds", Arg.Set_float seconds, "T measure for about T seconds (default 25)");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--iterations", Arg.Set_int iterations, "N override iterations per campaign");
    ("--campaigns", Arg.Set_int campaigns, "K override campaigns per suite");
    ("--repeats", Arg.Set_int repeats, "R fixed repeat count (default: fill --seconds)");
    ( "--setup-samples",
      Arg.Set_int setup_samples,
      "S set-up samples, each the fastest of 3 cold processes (default 8)" );
    ("--out", Arg.Set_string out_dir, "DIR where --trace 1 writes its files (default .)");
    ("--setup-probe", Arg.Set setup_probe, " internal: time one cold set-up and exit") ]

let usage = "e2e.exe --workload NAME [--seed S] [--seconds T] [--trace 0|1]"

(* --- output -------------------------------------------------------------- *)

let failures = ref []
let fail what = failures := what :: !failures

let check what ok =
  Printf.printf "check %-40s %s\n" what (if ok then "ok" else "FAILED");
  if not ok then fail what

let print_metrics ms =
  List.iter (fun (n, v, u) -> Printf.printf "metric %-36s %14.6g %s\n" n v u) ms

let result ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, v, u) ->
                  (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
                ms) ) ])

(* --- host facts ---------------------------------------------------------- *)

let nproc () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | s ->
      List.length
        (List.filter
           (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
           (String.split_on_char '\n' s))
  | exception Sys_error _ -> Domain.recommended_domain_count ()

let vm_hwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | s ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | n :: _ -> Option.value ~default:acc (int_of_string_opt n)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)
  | exception Sys_error _ -> 0

(* --- campaign suites ------------------------------------------------------ *)

(* One iteration of each of the suite's first eight campaigns: enough
   for the testbench pools to be built and every phase to have run. *)
let warm_up (w : Workload.t) suite =
  List.iteri
    (fun k o ->
      if k < 8 then
        ignore (Workload.run ~jobs:w.Workload.jobs { o with Campaign.iterations = 1 }))
    suite

(* Set-up time of one cold process: from this program's first
   instruction to the end of the warm-up. *)
let probe w suite =
  warm_up w suite;
  Printf.printf "setup_ns %d\n" (Mono.now () - t_main)

let probe_seconds w =
  let prog = Sys.executable_name in
  let args =
    [| prog; "--setup-probe"; "--workload"; w.Workload.name; "--seed"; string_of_int !seed;
       "--iterations"; string_of_int w.Workload.iterations;
       "--campaigns"; string_of_int w.Workload.campaigns |]
  in
  let ic = Unix.open_process_args_in prog args in
  let line = In_channel.input_all ic in
  match (Unix.close_process_in ic, Scanf.sscanf_opt line "setup_ns %d" Fun.id) with
  | Unix.WEXITED 0, Some ns -> float_of_int ns *. 1e-9
  | _ ->
      fail "setup probe";
      nan

(* One set-up sample: the fastest of three cold probes run back to
   back, so a single probe's hiccup does not reach the median. *)
let setup_sample w =
  List.fold_left Float.min infinity (List.init 3 (fun _ -> probe_seconds w))

(* Repeats the suite until [--seconds] is used up (at least twice), or
   exactly [--repeats] times; [f] runs one repeat. *)
let repeat f =
  let t0 = Mono.now () in
  let rec go r acc =
    let finished =
      if !repeats > 0 then r >= !repeats
      else r >= 2 && Mono.seconds_since t0 >= !seconds
    in
    if finished then List.rev acc else go (r + 1) (f r :: acc)
  in
  go 0 []

type one = { digest : string; cycles : int; secs : float; stats : Campaign.stats }

(* [between] runs after each campaign, outside its timing. *)
let run_suite ?dispatch ?(between = ignore) ~jobs suite =
  List.map
    (fun o ->
      let stats, digest, cycles, secs = Workload.timed_run ?dispatch ~jobs o in
      between ();
      { digest; cycles; secs; stats })
    suite

(* Per-campaign minimum over the repeats, summed over the suite: a noise
   burst during one campaign of one repeat does not reach the result. *)
let best_suite_seconds (reps : one list list) =
  match reps with
  | [] -> nan
  | first :: _ ->
      List.fold_left ( +. ) 0.0
        (List.mapi
           (fun k _ ->
             List.fold_left (fun a rep -> Float.min a (List.nth rep k).secs) infinity reps)
           first)

let suite_seconds rep = List.fold_left (fun a o -> a +. o.secs) 0.0 rep

let digests rep = List.map (fun o -> o.digest) rep

let check_repeats name (reps : one list list) =
  match reps with
  | [] -> ()
  | first :: rest ->
      check (name ^ ": repeat digests identical")
        (List.for_all (fun rep -> digests rep = digests first) rest)

let print_digest name (rep : one list) =
  let d = Digest.to_hex (Digest.string (String.concat "," (digests rep))) in
  Printf.printf "stats_digest %s %s\n" name d

let campaign_failures (rep : one list) =
  List.fold_left (fun a o -> a + Workload.failures o.stats) 0 rep

let print_quality (w : Workload.t) (rep : one list) ~attempted ~failed =
  let sum f = List.fold_left (fun a o -> a + f o.stats) 0 rep in
  let firsts =
    List.map
      (fun o ->
        match o.stats.Campaign.s_first_bug with Some i -> string_of_int i | None -> "-")
      rep
  in
  Printf.printf
    "quality %s: coverage_points=%d findings=%d first_finding_iter=[%s] failed_ratio=%g\n"
    w.Workload.name
    (sum (fun s -> s.Campaign.s_final_coverage))
    (sum (fun s -> List.length s.Campaign.s_findings))
    (String.concat "," firsts)
    (float_of_int failed /. float_of_int (max 1 attempted))

let print_repeats reps = Printf.printf "repeats R=%d\n" (List.length reps)

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method), the statistic the benchmark's spread is judged
   by. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let m = Array.length a in
  if m < 2 then (Stats.median xs, Stats.median xs, Stats.median xs)
  else
    let q i =
      let j = max 1 (min (m - 1) (i * (m + 1) / 4)) in
      let delta = (i * (m + 1)) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let print_spread what xs =
  let q1, med, q3 = quartiles xs in
  Printf.printf "diagnostic %s: median=%.6g q1=%.6g q3=%.6g [%s] (not gated)\n" what med
    q1 q3
    (String.concat " " (List.map (Printf.sprintf "%.4g") xs))

(* --- plain mode ----------------------------------------------------------- *)

let plain (w : Workload.t) suite =
  (* The set-up samples are spread evenly over the timed window, between
     campaigns, so their median does not hinge on the host's state at
     one moment; any left over when the window closes run at the end. *)
  let procs = max 1 !setup_samples in
  let setups = ref [] in
  let t0 = Mono.now () in
  let between () =
    let due = float_of_int (List.length !setups) *. !seconds /. float_of_int procs in
    if List.length !setups < procs && Mono.seconds_since t0 >= due then
      setups := setup_sample w :: !setups
  in
  warm_up w suite;
  (* The high-water mark after the first repeat, so it does not depend
     on how many repeats fit in the time budget. *)
  let hwm = ref 0 in
  let reps =
    repeat (fun r ->
        let rep = run_suite ~between ~jobs:w.Workload.jobs suite in
        if r = 0 then hwm := vm_hwm_kb ();
        rep)
  in
  while List.length !setups < procs do
    setups := setup_sample w :: !setups
  done;
  let setups = List.rev !setups in
  print_repeats reps;
  check_repeats w.Workload.name reps;
  let first = List.hd reps in
  print_digest w.Workload.name first;
  if w.Workload.jobs > 1 then begin
    let seq = run_suite ~jobs:1 suite in
    check (w.Workload.name ^ ": jobs=1 run identical")
      (digests seq = digests first)
  end;
  let iters = List.fold_left (fun a o -> a + o.Campaign.iterations) 0 suite in
  let cycles = List.fold_left (fun a o -> a + o.cycles) 0 first in
  let best = best_suite_seconds reps in
  print_spread "suite seconds per repeat" (List.map suite_seconds reps);
  print_spread "setup_s per sample" setups;
  let attempted = iters * List.length reps in
  let failed =
    List.fold_left (fun a rep -> a + campaign_failures rep) 0 reps + List.length !failures
  in
  print_quality w first ~attempted ~failed;
  let ms =
    [ ("iter_per_s", float_of_int iters /. best, "1/s");
      ("sim_mcycles_per_s", float_of_int cycles /. 1e6 /. best, "Mcycles/s");
      ("setup_s", Stats.median setups, "s");
      ("peak_rss_mb", float_of_int !hwm /. 1024.0, "MB") ]
  in
  (ms, attempted, failed)

(* --- trace mode ----------------------------------------------------------- *)

let pool_counters () =
  let c name = Metrics.counter_value (Metrics.counter Metrics.default name) in
  ( c "dvz_simpool_hits_total" + c "dvz_simpool_core_hits_total",
    c "dvz_simpool_misses_total" + c "dvz_simpool_core_misses_total" )

let traced (w : Workload.t) suite =
  let lanes = Dvz_util.Parallel.effective_lanes w.Workload.jobs in
  let jobs = w.Workload.jobs in
  warm_up w suite;
  (* Alternate plain and traced suites so both see the same machine
     state.  GC and pool counters come from the first plain suite (the
     pool counters since process start, so the cold misses show); the
     layer records from the fastest traced suite. *)
  let gc_pool = ref None and best_traced = ref None in
  let reps =
    repeat (fun r ->
        let g0 = Gc.quick_stat () in
        let plain = run_suite ~jobs suite in
        let g1 = Gc.quick_stat () in
        if r = 0 then gc_pool := Some (g0, g1, pool_counters ());
        let runs =
          List.map
            (fun o ->
              let log = Traced.new_log () in
              let dispatch = Traced.dispatcher ~lanes log in
              let stats, digest, cycles, secs = Workload.timed_run ~dispatch ~jobs o in
              ( { Layers.r_options = o; r_log = log;
                  r_wall = int_of_float (secs *. 1e9); r_stats = stats },
                { digest; cycles; secs; stats } ))
            suite
        in
        let secs = suite_seconds (List.map snd runs) in
        (match !best_traced with
        | Some (s, _) when s <= secs -> ()
        | _ -> best_traced := Some (secs, List.map fst runs));
        (plain, List.map snd runs))
  in
  print_repeats reps;
  let plains = List.map fst reps and traceds = List.map snd reps in
  check_repeats (w.Workload.name ^ " plain") plains;
  check_repeats (w.Workload.name ^ " traced") traceds;
  let first = List.hd plains in
  print_digest w.Workload.name first;
  check (w.Workload.name ^ ": replica stats = plain stats")
    (digests (List.hd traceds) = digests first);
  let runs = snd (Option.get !best_traced) in
  let plain_facts =
    let g0, g1, (hits, misses) = Option.get !gc_pool in
    { Layers.p_wall = best_suite_seconds plains;
      p_minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      p_major = g1.Gc.major_collections - g0.Gc.major_collections;
      p_pool_hits = hits;
      p_pool_misses = misses }
  in
  let traced_wall = best_suite_seconds traceds in
  let rp = Resim.create () in
  List.iter
    (fun (r : Layers.run) ->
      let secret = r.Layers.r_log.Traced.secret in
      let mode = r.Layers.r_options.Campaign.taint_mode in
      List.iter (Resim.replay_iter rp ~mode ~secret) (Layers.iters [ r ]))
    runs;
  List.iter (Printf.printf "replay mismatch: %s\n") (List.rev rp.Resim.mismatches);
  check
    (Printf.sprintf "%s: %d resim checks match" w.Workload.name rp.Resim.checked)
    (rp.Resim.mismatches = []);
  let top = Layers.top runs in
  let table = Layers.table rp top in
  print_string table;
  let ms = Layers.metrics runs top rp plain_facts ~lanes ~traced_wall in
  let coverage = Layers.layer_coverage top in
  check (Printf.sprintf "%s: trace.layer_coverage %.3f >= 0.95" w.Workload.name coverage)
    (coverage >= 0.95);
  let base = Filename.concat !out_dir (Printf.sprintf "%s-seed%d" w.Workload.name !seed) in
  Layers.write_trace (base ^ ".trace.json") runs;
  Out_channel.with_open_text (base ^ ".layers.txt") (fun oc -> output_string oc table);
  Printf.printf "wrote %s.trace.json and %s.layers.txt\n" base base;
  let iters = List.fold_left (fun a o -> a + o.Campaign.iterations) 0 suite in
  let attempted = 2 * iters * List.length reps in
  let failed =
    List.fold_left (fun a rep -> a + campaign_failures rep) 0 (plains @ traceds)
    + List.length !failures
  in
  print_quality w first ~attempted ~failed;
  (ms, attempted, failed)

(* --- main ----------------------------------------------------------------- *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2e: --trace must be 0 or 1";
    exit 2
  end;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None ->
        Printf.eprintf "e2e: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all));
        exit 2
  in
  let override r default = if !r > 0 then !r else default in
  let w =
    { w with
      Workload.iterations = override iterations w.Workload.iterations;
      campaigns = override campaigns w.Workload.campaigns }
  in
  let suite = Workload.suite w ~seed:!seed in
  if !setup_probe then probe w suite
  else begin
    Printf.printf
      "host nproc=%d parallel_available=%d lanes=%d ocaml=%s repeats=%s \
       estimator=sum-of-per-campaign-minima-over-repeats\n"
      (nproc ()) (Dvz_util.Parallel.available ())
      (Dvz_util.Parallel.effective_lanes w.Workload.jobs)
      Sys.ocaml_version
      (if !repeats > 0 then string_of_int !repeats else Printf.sprintf "fill-%gs" !seconds);
    Printf.printf "workload %s: %d campaigns x %d iterations, jobs=%d, batch=%d, seed=%d\n"
      w.Workload.name w.Workload.campaigns w.Workload.iterations w.Workload.jobs
      w.Workload.options.Campaign.batch !seed;
    let ms, attempted, failed = if !trace = 1 then traced w suite else plain w suite in
    print_metrics ms;
    print_endline (result ~attempted ~failed ms);
    exit (if failed = 0 then 0 else 1)
  end
