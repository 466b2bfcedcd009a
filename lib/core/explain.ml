module Provenance = Dvz_ift.Provenance
module Policy = Dvz_ift.Policy
module Dualcore = Dvz_uarch.Dualcore
module Core = Dvz_uarch.Core
module Elem = Dvz_uarch.Elem
module Config = Dvz_uarch.Config
module Metrics = Dvz_obs.Metrics
module Json = Dvz_obs.Json
module Swapmem = Dvz_soc.Swapmem
module Perm = Dvz_soc.Perm

let m_traces =
  Metrics.counter Metrics.default
    ~help:"Findings replayed with the taint-provenance recorder armed"
    "dvz_provenance_traces_total"

let m_edges =
  Metrics.counter Metrics.default
    ~help:"Taint-introduction edges recorded across all provenance replays"
    "dvz_provenance_edges_total"

type slice = { sl_sink : string; sl_edges : Provenance.edge list }

type t = {
  x_core : string;
  x_mode : Policy.mode;
  x_attack : string option;
  x_secret : int array;
  x_stimulus : Core.stimulus;
  x_live_sinks : string list;
  x_source : string option;
  x_slices : slice list;
  x_edges_total : int;
  x_dropped : int;
  x_timed_out : bool;
  x_prov : Provenance.t;
}

let explain ?budget ?attack ?(mode = Policy.Diffift) cfg stim =
  let prov = Provenance.create () in
  let dc = Dualcore.create ~provenance:prov ~mode cfg stim in
  let result = Dualcore.run ?budget dc in
  let live =
    List.filter Oracle.microarch_sink result.Dualcore.r_live_tainted
  in
  (* A timing-only finding can leave no live tainted sink; slicing the
     dead microarchitectural sinks still explains where the secret went. *)
  let sinks =
    match live with
    | [] -> List.filter Oracle.microarch_sink result.Dualcore.r_final_tainted
    | l -> l
  in
  let sink_labels = List.map Elem.to_string sinks in
  let slices =
    List.map
      (fun sink -> { sl_sink = sink; sl_edges = Provenance.slice prov ~sink })
      sink_labels
  in
  let source =
    List.fold_left
      (fun acc sl ->
        match acc with
        | Some _ -> acc
        | None ->
            List.find_map
              (fun (e : Provenance.edge) ->
                if e.Provenance.e_kind = Provenance.Source then
                  Some e.Provenance.e_dst
                else None)
              sl.sl_edges)
      None slices
  in
  Metrics.incr m_traces;
  Metrics.incr ~by:(Provenance.num_edges prov) m_edges;
  { x_core = cfg.Config.name;
    x_mode = mode;
    x_attack = attack;
    x_secret = stim.Core.st_secret;
    x_stimulus = stim;
    x_live_sinks = List.map Elem.to_string live;
    x_source = source;
    x_slices = slices;
    x_edges_total = Provenance.num_edges prov;
    x_dropped = Provenance.dropped prov;
    x_timed_out = result.Dualcore.r_timed_out;
    x_prov = prov }

let source t = t.x_source

(* --- renderers ---------------------------------------------------------- *)

let render_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "core:   %s\nmode:   %s\n" t.x_core
       (Policy.mode_name t.x_mode));
  (match t.x_attack with
  | Some a -> Buffer.add_string buf (Printf.sprintf "attack: %s\n" a)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "source: %s\n"
       (Option.value ~default:"(none attributed)" t.x_source));
  Buffer.add_string buf
    (Printf.sprintf "sinks:  %s\n"
       (match t.x_live_sinks with
       | [] -> "(no live tainted sinks)"
       | l -> String.concat " " l));
  Buffer.add_string buf
    (Printf.sprintf "edges:  %d recorded%s\n" t.x_edges_total
       (if t.x_dropped > 0 then
          Printf.sprintf " (%d dropped at capacity)" t.x_dropped
        else ""));
  if t.x_timed_out then
    Buffer.add_string buf "warning: replay hit the watchdog budget\n";
  List.iter
    (fun sl ->
      Buffer.add_string buf
        (Printf.sprintf "\nslice for sink %s (%d edges):\n" sl.sl_sink
           (List.length sl.sl_edges));
      List.iter
        (fun e -> Buffer.add_string buf (Provenance.render_edge e ^ "\n"))
        sl.sl_edges)
    t.x_slices;
  Buffer.contents buf

let render_dot t =
  Provenance.dot_of_slices t.x_prov
    ~sinks:(List.map (fun sl -> sl.sl_sink) t.x_slices)

(* --- JSON artifact ------------------------------------------------------ *)

let schema = "dvz-explain/1"

let perm_bits (p : Perm.t) =
  (if p.Perm.read then 1 else 0)
  lor (if p.Perm.write then 2 else 0)
  lor (if p.Perm.exec then 4 else 0)
  lor (if p.Perm.user then 8 else 0)
  lor if p.Perm.present then 16 else 0

let perm_of_bits b =
  { Perm.read = b land 1 <> 0;
    write = b land 2 <> 0;
    exec = b land 4 <> 0;
    user = b land 8 <> 0;
    present = b land 16 <> 0 }

let edge_json (e : Provenance.edge) =
  Json.Obj
    [ ("id", Json.Int e.Provenance.e_id);
      ("time", Json.Int e.Provenance.e_time);
      ("in_window", Json.Bool e.Provenance.e_in_window);
      ("kind", Json.Str (Provenance.kind_name e.Provenance.e_kind));
      ("dst", Json.Str e.Provenance.e_dst);
      ("srcs", Json.Arr (List.map (fun s -> Json.Str s) e.Provenance.e_srcs))
    ]

let stimulus_json (stim : Core.stimulus) =
  Json.Obj
    [ ("max_slots", Json.Int stim.Core.st_max_slots);
      ("tighten", Json.Bool stim.Core.st_tighten_secret);
      ( "blobs",
        Json.Arr
          (List.map
             (fun (b : Swapmem.blob) ->
               Json.Obj
                 [ ("name", Json.Str b.Swapmem.name);
                   ( "words",
                     Json.Arr
                       (Array.to_list
                          (Array.map (fun w -> Json.Int w) b.Swapmem.words))
                   );
                   ("is_transient", Json.Bool b.Swapmem.is_transient) ])
             (Swapmem.blobs stim.Core.st_swapmem)) );
      ( "schedule",
        Json.Arr
          (List.map
             (fun i -> Json.Int i)
             (Swapmem.schedule stim.Core.st_swapmem)) );
      ( "data",
        Json.Arr
          (List.map
             (fun (a, v) -> Json.Arr [ Json.Int a; Json.Int v ])
             stim.Core.st_data) );
      ( "perms",
        Json.Arr
          (List.map
             (fun (a, p) -> Json.Arr [ Json.Int a; Json.Int (perm_bits p) ])
             stim.Core.st_perms) ) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("core", Json.Str t.x_core);
      ("mode", Json.Str (Policy.mode_name t.x_mode));
      ( "attack",
        match t.x_attack with None -> Json.Null | Some a -> Json.Str a );
      ( "secret",
        Json.Arr (Array.to_list (Array.map (fun v -> Json.Int v) t.x_secret))
      );
      ("stimulus", stimulus_json t.x_stimulus);
      ( "source",
        match t.x_source with None -> Json.Null | Some s -> Json.Str s );
      ("sinks", Json.Arr (List.map (fun s -> Json.Str s) t.x_live_sinks));
      ( "slices",
        Json.Arr
          (List.map
             (fun sl ->
               Json.Obj
                 [ ("sink", Json.Str sl.sl_sink);
                   ("edges", Json.Arr (List.map edge_json sl.sl_edges)) ])
             t.x_slices) );
      ("edges_total", Json.Int t.x_edges_total);
      ("timed_out", Json.Bool t.x_timed_out) ]

(* --- artifact replay ---------------------------------------------------- *)

let config_of_name name =
  let known = [ Config.boom_small; Config.xiangshan_minimal ] in
  List.find_opt (fun c -> c.Config.name = name) known

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let int_list j = List.filter_map Json.to_int (Json.to_list j)

let int_pairs j =
  List.filter_map
    (fun pair ->
      match List.filter_map Json.to_int (Json.to_list pair) with
      | [ a; b ] -> Some (a, b)
      | _ -> None)
    (Json.to_list j)

let stimulus_of_json ~secret j =
  let* max_slots = field "max_slots" Json.to_int j in
  let* tighten = field "tighten" Json.to_bool j in
  let* blobs_j = field "blobs" (fun x -> Some (Json.to_list x)) j in
  let* blobs =
    List.fold_left
      (fun acc bj ->
        let* acc = acc in
        let* name = field "name" Json.to_str bj in
        let* words = field "words" (fun x -> Some (int_list x)) bj in
        let* is_transient = field "is_transient" Json.to_bool bj in
        Ok
          ({ Swapmem.name; words = Array.of_list words; is_transient } :: acc))
      (Ok []) blobs_j
  in
  let blobs = List.rev blobs in
  let* schedule = field "schedule" (fun x -> Some (int_list x)) j in
  let* data = field "data" (fun x -> Some (int_pairs x)) j in
  let* perms = field "perms" (fun x -> Some (int_pairs x)) j in
  match Swapmem.create ~blobs ~schedule with
  | swap ->
      Ok
        { Core.st_swapmem = swap;
          st_tighten_secret = tighten;
          st_secret = secret;
          st_data = data;
          st_perms = List.map (fun (a, b) -> (a, perm_of_bits b)) perms;
          st_max_slots = max_slots }
  | exception Invalid_argument e -> Error e

let replay_artifact ?budget j =
  let* s = field "schema" Json.to_str j in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "unsupported artifact schema %S" s)
  in
  let* core = field "core" Json.to_str j in
  let* cfg =
    match config_of_name core with
    | Some c -> Ok c
    | None -> Error (Printf.sprintf "unknown core config %S" core)
  in
  let* mode_s = field "mode" Json.to_str j in
  let* mode =
    match Policy.mode_of_name mode_s with
    | Some m -> Ok m
    | None -> Error (Printf.sprintf "unknown taint mode %S" mode_s)
  in
  let attack = Option.bind (Json.member "attack" j) Json.to_str in
  let* secret =
    field "secret" (fun x -> Some (Array.of_list (int_list x))) j
  in
  let* stim_j = field "stimulus" Option.some j in
  let* stim = stimulus_of_json ~secret stim_j in
  Ok (explain ?budget ?attack ~mode cfg stim)

let explain_crash ?budget ?core j =
  let* cfg =
    match Option.bind (Json.member "core" j) Json.to_str with
    | Some name -> (
        match config_of_name name with
        | Some c -> Ok c
        | None -> Error (Printf.sprintf "unknown core config %S" name))
    | None -> (
        match core with
        | Some c -> Ok c
        | None ->
            Error "crash artifact names no core; pass one with --core")
  in
  let* spec = field "seed_spec" Option.some j in
  let* kind_name = field "kind" Json.to_str spec in
  let* kind =
    match Seed.kind_of_name kind_name with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown trigger kind %S" kind_name)
  in
  let* trigger_entropy = field "trigger_entropy" Json.to_int spec in
  let* window_entropy = field "window_entropy" Json.to_int spec in
  let* tighten = field "tighten" Json.to_bool spec in
  let* mask_high = field "mask_high" Json.to_bool spec in
  let seed =
    { Seed.kind; trigger_entropy; window_entropy; tighten; mask_high }
  in
  let named key of_name ~default =
    Option.value ~default
      (Option.bind (Option.bind (Json.member key j) Json.to_str) of_name)
  in
  let style = named "style" Trigger_gen.style_of_name ~default:`Derived in
  let mode = named "taint_mode" Policy.mode_of_name ~default:Policy.Diffift in
  let* secret =
    match Json.member "secret" j with
    | Some arr -> Ok (Array.of_list (int_list arr))
    | None -> Error "crash artifact carries no secret"
  in
  (* Best-effort reproduction of the crashed iteration's fresh-seed path:
     generate → evaluate → reduce → complete, as the campaign loop would
     have.  Corpus-mutation iterations are not reproducible from the seed
     alone. *)
  let tc = Trigger_gen.generate ~style cfg seed in
  let tc =
    if Trigger_opt.evaluate cfg tc then fst (Trigger_opt.reduce cfg tc)
    else tc
  in
  let completed = Window_gen.complete cfg tc in
  Ok (explain ?budget ~mode cfg (Packet.stimulus ~secret completed))
