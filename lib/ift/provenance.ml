(* Taint provenance recorder: a time-stamped log of taint-introduction
   edges between microarchitectural elements, named by their
   [Elem.to_string] strings.  Recording is append-only and deterministic;
   the DAG and backward slices are derived on demand. *)

type kind =
  | Source
  | Data
  | Ctrl of string
  | Divergence
  | Restore

type edge = {
  e_id : int;
  e_time : int;
  e_in_window : bool;
  e_kind : kind;
  e_dst : string;
  e_srcs : string list;
}

type t = {
  cap : int;
  mutable time : int;
  mutable in_window : bool;
  mutable rev_edges : edge list;
  mutable n_edges : int;
  mutable dropped : int;
}

let create ?(cap = 1_000_000) () =
  if cap <= 0 then invalid_arg "Provenance.create: cap must be positive";
  { cap; time = 0; in_window = false; rev_edges = []; n_edges = 0;
    dropped = 0 }

let set_context t ~time ~in_window =
  t.time <- time;
  t.in_window <- in_window

let record t ~dst ~srcs kind =
  if t.n_edges >= t.cap then t.dropped <- t.dropped + 1
  else begin
    t.rev_edges <-
      { e_id = t.n_edges; e_time = t.time; e_in_window = t.in_window;
        e_kind = kind; e_dst = dst; e_srcs = srcs }
      :: t.rev_edges;
    t.n_edges <- t.n_edges + 1
  end

let source t dst = record t ~dst ~srcs:[] Source

let num_edges t = t.n_edges
let dropped t = t.dropped

let kind_name = function
  | Source -> "source"
  | Data -> "data"
  | Ctrl label -> "ctrl:" ^ label
  | Divergence -> "divergence"
  | Restore -> "restore"

let kind_of_name s =
  let prefixed p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let suffix p = String.sub s (String.length p) (String.length s - String.length p) in
  match s with
  | "source" -> Some Source
  | "data" -> Some Data
  | "divergence" -> Some Divergence
  | "restore" -> Some Restore
  | _ ->
      if prefixed "ctrl:" then Some (Ctrl (suffix "ctrl:")) else None

(* Backward slice: from the sink, follow the most recent taint-introduction
   edge of each node backwards in recording order.  The per-node bound
   (strictly earlier than the edge that consumed it) makes self-edges — a
   squash [Restore] re-establishing a node from its own checkpointed
   history — resolve to the node's previous introduction instead of
   looping; a visited set over edge ids bounds the walk outright. *)
let slice t ~sink =
  let by_dst = Hashtbl.create 64 in
  (* [rev_edges] is newest-first, so consing builds oldest-first lists. *)
  List.iter
    (fun e ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_dst e.e_dst) in
      Hashtbl.replace by_dst e.e_dst (e :: prev))
    t.rev_edges;
  let last_intro node ~before =
    match Hashtbl.find_opt by_dst node with
    | None -> None
    | Some es ->
        List.fold_left
          (fun acc e -> if e.e_id < before then Some e else acc)
          None es
  in
  let visited = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go node before =
    match last_intro node ~before with
    | None -> ()
    | Some e ->
        if not (Hashtbl.mem visited e.e_id) then begin
          Hashtbl.replace visited e.e_id ();
          acc := e :: !acc;
          if e.e_kind <> Source then
            List.iter (fun s -> go s e.e_id) e.e_srcs
        end
  in
  go sink max_int;
  List.sort (fun a b -> compare a.e_id b.e_id) !acc

let render_edge e =
  Printf.sprintf "%6d %s %-26s <= %-12s %s" e.e_time
    (if e.e_in_window then "W" else " ")
    e.e_dst (kind_name e.e_kind)
    (match e.e_srcs with [] -> "(origin)" | l -> String.concat " " l)

let dot_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char buf '\\';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dot_of_slices t ~sinks =
  let union = Hashtbl.create 64 in
  List.iter
    (fun sink ->
      List.iter
        (fun e ->
          if not (Hashtbl.mem union e.e_id) then Hashtbl.replace union e.e_id e)
        (slice t ~sink))
    sinks;
  let es =
    List.sort
      (fun a b -> compare a.e_id b.e_id)
      (Hashtbl.fold (fun _ e acc -> e :: acc) union [])
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph provenance {\n  rankdir=LR;\n";
  let declared = Hashtbl.create 64 in
  let declare n shape =
    if not (Hashtbl.mem declared n) then begin
      Hashtbl.replace declared n ();
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [shape=%s];\n" (dot_escape n) shape)
    end
  in
  List.iter
    (fun e ->
      declare e.e_dst (if e.e_kind = Source then "box" else "ellipse"))
    es;
  List.iter (fun sink -> declare sink "doubleoctagon") sinks;
  List.iter
    (fun e ->
      List.iter
        (fun src ->
          declare src "ellipse";
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"t=%d %s\"];\n"
               (dot_escape src) (dot_escape e.e_dst) e.e_time
               (dot_escape (kind_name e.e_kind))))
        e.e_srcs)
    es;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
