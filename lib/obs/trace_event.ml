(* Chrome trace_event ("Trace Event Format") export of recorded
   profiler regions: complete ("X") events with microsecond timestamps
   relative to the earliest region, one track (tid) per worker domain,
   named via "M"/thread_name metadata so Perfetto and chrome://tracing
   label the rows.  The multi-process form gives each fleet process its
   own pid group with "M"/process_name metadata, so a merged fleet
   trace renders as one named row group per worker process. *)

let us_of_s s = int_of_float (Float.round (s *. 1e6))

let complete_event ~pid ~base (ev : Profile.event) =
  Json.Obj
    [ ("name", Json.Str ev.Profile.ev_name);
      ("cat", Json.Str "dvz");
      ("ph", Json.Str "X");
      ("ts", Json.Int (us_of_s (ev.Profile.ev_start -. base)));
      ("dur", Json.Int (max 1 (us_of_s ev.Profile.ev_dur)));
      ("pid", Json.Int pid);
      ("tid", Json.Int ev.Profile.ev_tid);
      ("args", Json.Obj [ ("path", Json.Str ev.Profile.ev_path) ]) ]

let process_meta ~pid name =
  Json.Obj
    [ ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str name) ]) ]

let thread_meta ~pid tid =
  let name =
    if tid = 0 then "worker-0 (orchestrator)"
    else Printf.sprintf "worker-%d" tid
  in
  Json.Obj
    [ ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]) ]

(* One shared time base across every group: the earliest region
   anywhere becomes ts 0, so coordinator and (offset-aligned) worker
   tracks line up on one axis. *)
let to_json_multi groups =
  let base =
    List.fold_left
      (fun acc (_, _, events) ->
        List.fold_left
          (fun acc ev -> Float.min acc ev.Profile.ev_start)
          acc events)
      infinity groups
  in
  let base = if Float.is_finite base then base else 0.0 in
  let group_events (pid, pname, events) =
    let tids =
      List.sort_uniq compare (List.map (fun ev -> ev.Profile.ev_tid) events)
    in
    (process_meta ~pid pname :: List.map (thread_meta ~pid) tids)
    @ List.map (complete_event ~pid ~base) events
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (List.concat_map group_events groups));
      ("displayTimeUnit", Json.Str "ms") ]

let render_multi groups = Json.to_string (to_json_multi groups)

let write_string path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n')

let write_file_multi path groups = write_string path (render_multi groups)
