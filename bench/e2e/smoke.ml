(* Smoke test of the end-to-end benchmark, run by [dune runtest]:

     smoke.exe E2E_EXE BENCHMARK_JSON

   Runs every single-lane workload e2e.exe defines at a tiny size (two
   campaigns of 16 iterations, one repeat), in plain and in trace mode,
   and checks that the result line reports every metric BENCHMARK.json
   declares for that mode, with its unit, and that every output check
   passed.  Every workload BENCHMARK.json names must be one of them.
   Multi-lane workloads are left out: on a 2-CPU host their second
   domain, running beside the other test executables, made the
   wall-clock ratios of test_experiments' table4 test fail in 3 of 6
   runs (0 of 10 without). *)

module Json = Dvz_obs.Json

let errors = ref 0

let error fmt =
  Printf.ksprintf
    (fun s ->
      incr errors;
      prerr_endline ("smoke: " ^ s))
    fmt

let field k j = Option.value ~default:Json.Null (Json.member k j)

let names_units section spec =
  List.map
    (fun m ->
      ( Option.get (Json.to_str (field "name" m)),
        Option.value ~default:"" (Json.to_str (field "unit" m)) ))
    (Json.to_list (field section spec))

let last_line s =
  match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

let run_one exe out workload trace expected =
  let args =
    [| exe; "--workload"; workload; "--seed"; "11"; "--trace"; string_of_int trace;
       "--iterations"; "16"; "--campaigns"; "2"; "--repeats"; "1"; "--setup-samples"; "1";
       "--out"; out |]
  in
  let ic = Unix.open_process_args_in exe args in
  let output = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let what = Printf.sprintf "%s --trace %d" workload trace in
  if status <> Unix.WEXITED 0 then error "%s: exit status is not 0" what;
  match Json.of_string (last_line output) with
  | Error e -> error "%s: last line is not JSON (%s)" what e
  | Ok r ->
      if Json.to_bool (field "correct" r) <> Some true then
        error "%s: correct is not true" what;
      if Json.to_int (field "failed" r) <> Some 0 then error "%s: failed is not 0" what;
      (match Json.to_int (field "attempted" r) with
      | Some n when n >= 1 -> ()
      | _ -> error "%s: attempted is not a positive integer" what);
      let metrics = field "metrics" r in
      List.iter
        (fun (name, unit) ->
          match Json.member name metrics with
          | None -> error "%s: metric %s missing" what name
          | Some m ->
              if Json.to_float (field "value" m) = None then
                error "%s: metric %s has no numeric value" what name;
              if Json.to_str (field "unit" m) <> Some unit then
                error "%s: metric %s unit is not %s" what name unit)
        expected;
      Printf.printf "%s: %d metrics ok\n%!" what (List.length expected)

let () =
  let exe, bench =
    match Sys.argv with
    | [| _; exe; bench |] -> (exe, bench)
    | _ ->
        prerr_endline "usage: smoke.exe E2E_EXE BENCHMARK_JSON";
        exit 2
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let spec =
    match Json.of_string (In_channel.with_open_text bench In_channel.input_all) with
    | Ok j -> j
    | Error e ->
        prerr_endline ("smoke: " ^ bench ^ ": " ^ e);
        exit 2
  in
  let out = Filename.temp_dir "e2e-smoke" "" in
  List.iter
    (fun w ->
      let name = Option.get (Json.to_str (field "name" w)) in
      if Workload.find name = None then error "workload %s is not defined" name)
    (Json.to_list (field "workloads" spec));
  List.iter
    (fun (w : Workload.t) ->
      if w.Workload.jobs = 1 then begin
        run_one exe out w.Workload.name 0 (names_units "end_to_end" spec);
        run_one exe out w.Workload.name 1 (names_units "per_layer" spec)
      end)
    Workload.all;
  Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
  Sys.rmdir out;
  if !errors > 0 then exit 1
