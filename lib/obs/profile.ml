(* Hierarchical self-profiler.  One process-wide instance (like
   {!Metrics.default}): instrumentation sites all over the tree —
   executor phases, Dualcore.step, the compiled Sim/Shadow eval loops,
   corpus scheduling, checkpoint writes, Parallel.map dispatch — are
   compiled in permanently and guarded by a single [Atomic.get] so a
   disarmed profiler costs nothing and allocates nothing on the hot
   path.  Armed, every region exit folds into a path-keyed aggregate
   (count / total / self / max) under one mutex, with a per-domain memo
   so steady-state exits skip the lock for the node lookup. *)

type agg = {
  mutable a_count : int;
  mutable a_total : float;
  mutable a_self : float;
  mutable a_max : float;
}

type node = {
  n_path : string;
  n_name : string;
  n_depth : int;
  n_agg : agg;
}

type frame = {
  f_node : node;
  f_start : float;
  mutable f_child : float;  (* summed durations of directly nested regions *)
}

type event = {
  ev_path : string;
  ev_name : string;
  ev_tid : int;
  ev_start : float;
  ev_dur : float;
}

let armed_flag = Atomic.make false
let armed () = Atomic.get armed_flag

let clock_ref = ref Clock.real
let mutex = Mutex.create ()
let nodes : (string, node) Hashtbl.t = Hashtbl.create 64

(* Bumped by [reset] so per-domain memo tables and stacks from a
   previous profiling session are discarded lazily, without reaching
   into other domains' local state. *)
let epoch = Atomic.make 0

(* Trace-event recording: a fixed-capacity slot array indexed by an
   atomic cursor, so concurrent domains never contend on a lock to
   record an event; overflow drops (counted) rather than grows. *)
let trace_on = Atomic.make false
let trace_slots : event option array ref = ref [||]
let trace_next = Atomic.make 0
let trace_dropped = Atomic.make 0

type dstate = {
  mutable d_epoch : int;
  mutable d_stack : frame list;
  d_memo : (string, node) Hashtbl.t;
  mutable d_tid : int;
}

let dls =
  Domain.DLS.new_key (fun () ->
      { d_epoch = Atomic.get epoch; d_stack = []; d_memo = Hashtbl.create 32;
        d_tid = 0 })

let dstate () =
  let d = Domain.DLS.get dls in
  let e = Atomic.get epoch in
  if d.d_epoch <> e then begin
    d.d_epoch <- e;
    d.d_stack <- [];
    Hashtbl.reset d.d_memo
  end;
  d

let set_tid tid = (dstate ()).d_tid <- tid
let tid () = (dstate ()).d_tid

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Trace events a process retains; allocated on the first traced arm. *)
let trace_cap = 262_144

let arm ?(clock = Clock.real) ?(trace = false) () =
  locked (fun () ->
      clock_ref := clock;
      if trace then begin
        if Array.length !trace_slots = 0 then
          trace_slots := Array.make trace_cap None;
        Atomic.set trace_next 0;
        Atomic.set trace_dropped 0;
        Atomic.set trace_on true
      end
      else Atomic.set trace_on false;
      Atomic.set armed_flag true)

let disarm () =
  Atomic.set armed_flag false;
  Atomic.set trace_on false

let reset () =
  locked (fun () ->
      Hashtbl.reset nodes;
      Atomic.set trace_next 0;
      Atomic.set trace_dropped 0;
      Atomic.incr epoch)

let enter name =
  let d = dstate () in
  let parent = match d.d_stack with [] -> None | f :: _ -> Some f in
  let path =
    match parent with
    | None -> name
    | Some f -> f.f_node.n_path ^ "/" ^ name
  in
  let node =
    match Hashtbl.find_opt d.d_memo path with
    | Some n -> n
    | None ->
        let n =
          locked (fun () ->
              match Hashtbl.find_opt nodes path with
              | Some n -> n
              | None ->
                  let n =
                    { n_path = path;
                      n_name = name;
                      n_depth =
                        (match parent with
                        | None -> 0
                        | Some f -> f.f_node.n_depth + 1);
                      n_agg =
                        { a_count = 0; a_total = 0.0; a_self = 0.0;
                          a_max = 0.0 } }
                  in
                  Hashtbl.replace nodes path n;
                  n)
        in
        Hashtbl.replace d.d_memo path n;
        n
  in
  let fr = { f_node = node; f_start = Clock.now !clock_ref; f_child = 0.0 } in
  d.d_stack <- fr :: d.d_stack;
  fr

let push_event ev =
  let slots = !trace_slots in
  let cap = Array.length slots in
  let i = Atomic.fetch_and_add trace_next 1 in
  if i < cap then slots.(i) <- Some ev else Atomic.incr trace_dropped

let leave fr =
  let d = dstate () in
  let dur = Clock.now !clock_ref -. fr.f_start in
  (* Pop the stack down to (and including) [fr]; an intervening raise
     that skipped a [leave] just folds the skipped frames' time into
     this one. *)
  let rec pop = function
    | f :: rest when f == fr -> rest
    | _ :: rest -> pop rest
    | [] -> []
  in
  d.d_stack <- pop d.d_stack;
  (match d.d_stack with
  | parent :: _ -> parent.f_child <- parent.f_child +. dur
  | [] -> ());
  locked (fun () ->
      let a = fr.f_node.n_agg in
      a.a_count <- a.a_count + 1;
      a.a_total <- a.a_total +. dur;
      a.a_self <- a.a_self +. (dur -. fr.f_child);
      if dur > a.a_max then a.a_max <- dur);
  if Atomic.get trace_on then
    push_event
      { ev_path = fr.f_node.n_path;
        ev_name = fr.f_node.n_name;
        ev_tid = d.d_tid;
        ev_start = fr.f_start;
        ev_dur = dur }

(* Callers on hot paths must guard the closure allocation themselves:
     if Profile.armed () then Profile.wrap "x" (fun () -> f t) else f t
   so the disarmed cost is one atomic load and a branch. *)
let wrap name f =
  if not (armed ()) then f ()
  else begin
    let fr = enter name in
    Fun.protect ~finally:(fun () -> leave fr) f
  end

type entry = {
  pf_path : string;
  pf_name : string;
  pf_depth : int;
  pf_count : int;
  pf_total_s : float;
  pf_self_s : float;
  pf_max_s : float;
}

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ n acc ->
          { pf_path = n.n_path;
            pf_name = n.n_name;
            pf_depth = n.n_depth;
            pf_count = n.n_agg.a_count;
            pf_total_s = n.n_agg.a_total;
            pf_self_s = n.n_agg.a_self;
            pf_max_s = n.n_agg.a_max }
          :: acc)
        nodes [])
  |> List.sort (fun a b -> compare a.pf_path b.pf_path)

let events () =
  let slots = !trace_slots in
  let n = min (Atomic.get trace_next) (Array.length slots) in
  let rec collect i acc =
    if i < 0 then acc
    else
      match slots.(i) with
      | Some ev -> collect (i - 1) (ev :: acc)
      | None -> collect (i - 1) acc
  in
  List.sort
    (fun a b -> compare (a.ev_start, a.ev_tid) (b.ev_start, b.ev_tid))
    (collect (n - 1) [])

let events_dropped () = Atomic.get trace_dropped

(* Insertion-order suffix read: the slice of recorded events whose slot
   index is >= [from], plus the cursor to resume from.  This is how a
   fleet worker ships trace *deltas* on each telemetry flush without
   re-sending the whole buffer.  Slots a racing domain has claimed but
   not yet filled read as [None] and are skipped; they will surface in
   a later delta. *)
let events_from from =
  let slots = !trace_slots in
  let upto = min (Atomic.get trace_next) (Array.length slots) in
  let from = max 0 (min from upto) in
  let acc = ref [] in
  for i = upto - 1 downto from do
    match slots.(i) with Some ev -> acc := ev :: !acc | None -> ()
  done;
  (!acc, upto)

(* Path-keyed combination of two aggregate lists.  Counts and times
   add, maxima take the max; same-path entries agree on name/depth by
   construction, so the operation is commutative (pinned by QCheck in
   the fleet tests) — worker profiles can be folded in any order. *)
let merge a b =
  let tbl = Hashtbl.create 64 in
  let add e =
    match Hashtbl.find_opt tbl e.pf_path with
    | None -> Hashtbl.replace tbl e.pf_path e
    | Some e' ->
        Hashtbl.replace tbl e.pf_path
          { e' with
            pf_count = e'.pf_count + e.pf_count;
            pf_total_s = e'.pf_total_s +. e.pf_total_s;
            pf_self_s = e'.pf_self_s +. e.pf_self_s;
            pf_max_s = Float.max e'.pf_max_s e.pf_max_s }
  in
  List.iter add a;
  List.iter add b;
  Hashtbl.fold (fun _ e acc -> e :: acc) tbl []
  |> List.sort (fun x y -> compare x.pf_path y.pf_path)

(* The table is a flat hot-spot profile: one row per path, hottest
   self-time first with the path as tiebreak, so two runs over the same
   workload render byte-comparable tables. *)
let render_table entries =
  let entries =
    List.sort
      (fun a b ->
        match compare b.pf_self_s a.pf_self_s with
        | 0 -> compare a.pf_path b.pf_path
        | c -> c)
      entries
  in
  let total_self =
    List.fold_left (fun acc e -> acc +. e.pf_self_s) 0.0 entries
  in
  let pct self =
    if total_self <= 0.0 then 0.0 else 100.0 *. self /. total_self
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %10s %12s %12s %12s %7s\n" "region" "count"
       "total ms" "self ms" "max ms" "self %");
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-44s %10d %12.3f %12.3f %12.3f %7.1f\n" e.pf_path
           e.pf_count (e.pf_total_s *. 1e3) (e.pf_self_s *. 1e3)
           (e.pf_max_s *. 1e3) (pct e.pf_self_s)))
    entries;
  Buffer.contents buf

let entry_json e =
  Json.Obj
    [ ("path", Json.Str e.pf_path);
      ("name", Json.Str e.pf_name);
      ("depth", Json.Int e.pf_depth);
      ("count", Json.Int e.pf_count);
      ("total_s", Json.Float e.pf_total_s);
      ("self_s", Json.Float e.pf_self_s);
      ("max_s", Json.Float e.pf_max_s) ]

let to_json entries =
  Json.Obj
    [ ("schema", Json.Str "dvz-profile/1");
      ("regions", Json.Arr (List.map entry_json entries)) ]
