let hist_json (h : Metrics.hist_snapshot) =
  Json.Obj
    [ ( "buckets",
        Json.Obj
          (List.map
             (fun (bound, count) ->
               let key =
                 if bound = infinity then "+Inf"
                 else Json.to_string (Json.Float bound)
               in
               (key, Json.Int count))
             h.Metrics.hs_buckets) );
      ("count", Json.Int h.Metrics.hs_count);
      ("sum", Json.Float h.Metrics.hs_sum) ]

(* JSON keeps raw metric names (the registry already guarantees their
   uniqueness), but guard hand-built snapshots against exact duplicates:
   a repeated key in a JSON object silently shadows on parse. *)
let uniq_keys entries =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (n, v) ->
      match Hashtbl.find_opt seen n with
      | None ->
          Hashtbl.replace seen n 1;
          (n, v)
      | Some count ->
          Hashtbl.replace seen n (count + 1);
          (Printf.sprintf "%s_dup%d" n (count + 1), v))
    entries

let snapshot_json (s : Metrics.snapshot) =
  Json.Obj
    [ ( "counters",
        Json.Obj
          (uniq_keys
             (List.map (fun (n, _, v) -> (n, Json.Int v)) s.Metrics.sn_counters))
      );
      ( "gauges",
        Json.Obj
          (uniq_keys
             (List.map (fun (n, _, v) -> (n, Json.Float v)) s.Metrics.sn_gauges))
      );
      ( "histograms",
        Json.Obj
          (uniq_keys
             (List.map (fun (n, _, h) -> (n, hist_json h))
                s.Metrics.sn_histograms)) ) ]

let render_json t = Json.to_string (snapshot_json (Metrics.snapshot t))

(* Maps a metric name into the Prometheus charset [a-zA-Z0-9_:]: other
   bytes become '_', and a leading digit gains one. *)
let sanitize_name name =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

let escape_with specials s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      if c = '\n' then Buffer.add_string buf "\\n"
      else begin
        if List.mem c specials then Buffer.add_char buf '\\';
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

(* HELP comments escape backslash and newline; label values also escape
   the double quote. *)
let escape_help = escape_with [ '\\' ]
let escape_label = escape_with [ '\\'; '"' ]

let float_str f =
  if f = infinity then "+Inf"
  else if f = neg_infinity then "-Inf"
  else if Float.is_nan f then "NaN"
  else if Float.is_integer f && Float.abs f < 1e15 then
    string_of_int (int_of_float f)
  else Printf.sprintf "%.12g" f

let header buf name help kind =
  if help <> "" then
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

(* [sanitize_name] is many-to-one ("a.b" and "a:b"... map to the same
   series), so distinct registered metrics could silently collide in the
   exposition.  Resolve every raw name through one shared table: within a
   group of raw names sharing a sanitized form, the first in sorted order
   keeps it and the rest get a deterministic "_dupN" suffix (kept unique
   against the whole namespace). *)
let disambiguate raw_names =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun raw ->
      let s = sanitize_name raw in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups s) in
      Hashtbl.replace groups s (raw :: prev))
    (List.sort_uniq compare raw_names);
  let used = Hashtbl.create 16 in
  Hashtbl.iter (fun s _ -> Hashtbl.replace used s ()) groups;
  let resolved = Hashtbl.create 16 in
  List.iter
    (fun (s, raws) ->
      List.iteri
        (fun i raw ->
          if i = 0 then Hashtbl.replace resolved raw s
          else begin
            let candidate = ref (Printf.sprintf "%s_dup%d" s (i + 1)) in
            while Hashtbl.mem used !candidate do
              candidate := !candidate ^ "_"
            done;
            Hashtbl.replace used !candidate ();
            Hashtbl.replace resolved raw !candidate
          end)
        (List.sort compare raws))
    (List.sort compare
       (Hashtbl.fold (fun s raws acc -> (s, raws) :: acc) groups []));
  fun raw -> try Hashtbl.find resolved raw with Not_found -> sanitize_name raw

(* Label names have a stricter charset than metric names: no colon. *)
let sanitize_label_name name =
  let ok c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_'
  in
  let s = String.map (fun c -> if ok c then c else '_') name in
  if s = "" then "_"
  else if s.[0] >= '0' && s.[0] <= '9' then "_" ^ s
  else s

let labels_str lbls =
  match lbls with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" (sanitize_label_name k)
                 (escape_label v))
             lbls)
      ^ "}"

(* Labelled exposition over label groups: one (HELP/TYPE) header per
   metric name across all groups, one sample line per group carrying
   that name, the group's labels rendered on every line.  The fleet
   /metrics endpoint feeds this the coordinator's snapshot unlabelled
   plus one [worker="N"] group per slot. *)
let prometheus_groups groups =
  let resolve =
    (* Counters, gauges and histograms — across every group — share one
       Prometheus namespace. *)
    disambiguate
      (List.concat_map
         (fun (_, s) ->
           List.map (fun (n, _, _) -> n) s.Metrics.sn_counters
           @ List.map (fun (n, _, _) -> n) s.Metrics.sn_gauges
           @ List.map (fun (n, _, _) -> n) s.Metrics.sn_histograms)
         groups)
  in
  (* Per kind: name -> (help, samples in group order), names sorted. *)
  let collect proj =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun (lbls, s) ->
        List.iter
          (fun (n, help, v) ->
            match Hashtbl.find_opt tbl n with
            | None -> Hashtbl.replace tbl n (help, [ (lbls, v) ])
            | Some (help', vs) ->
                let help = if help' = "" then help else help' in
                Hashtbl.replace tbl n (help, (lbls, v) :: vs))
          (proj s))
      groups;
    Hashtbl.fold (fun n (help, vs) acc -> (n, help, List.rev vs) :: acc) tbl []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, help, samples) ->
      let name = resolve name in
      header buf name help "counter";
      List.iter
        (fun (lbls, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (labels_str lbls) v))
        samples)
    (collect (fun s -> s.Metrics.sn_counters));
  List.iter
    (fun (name, help, samples) ->
      let name = resolve name in
      header buf name help "gauge";
      List.iter
        (fun (lbls, v) ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" name (labels_str lbls) (float_str v)))
        samples)
    (collect (fun s -> s.Metrics.sn_gauges));
  List.iter
    (fun (name, help, samples) ->
      let name = resolve name in
      header buf name help "histogram";
      List.iter
        (fun (lbls, h) ->
          let cum = ref 0 in
          List.iter
            (fun (bound, count) ->
              if bound < infinity then begin
                cum := !cum + count;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (labels_str (lbls @ [ ("le", float_str bound) ]))
                     !cum)
              end)
            h.Metrics.hs_buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name
               (labels_str (lbls @ [ ("le", "+Inf") ]))
               h.Metrics.hs_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (labels_str lbls)
               (float_str h.Metrics.hs_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (labels_str lbls)
               h.Metrics.hs_count))
        samples)
    (collect (fun s -> s.Metrics.sn_histograms));
  Buffer.contents buf

let fleet_json ~coordinator ~workers =
  Json.Obj
    [ ("coordinator", snapshot_json coordinator);
      ( "workers",
        Json.Obj
          (List.map
             (fun (slot, s) -> (string_of_int slot, snapshot_json s))
             (List.sort (fun (a, _) (b, _) -> compare a b) workers)) ) ]
