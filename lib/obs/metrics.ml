let min_exp = -30 (* smallest bucket bound: 2^-30 s ≈ 1 ns *)
let max_exp = 32 (* largest finite bound: 2^32 (cycles, bytes, ...) *)
let n_finite = max_exp - min_exp + 1
let overflow_index = n_finite

type counter = { c_value : int Atomic.t }

(* Gauges are a boxed float behind an Atomic so multi-domain writers
   ([--jobs N] workers updating high-water marks) never lose updates
   and readers never take a lock. *)
type gauge = { g_value : float Atomic.t }

type histogram = {
  h_mutex : Mutex.t;
  h_counts : int array; (* one cell per exponent, plus overflow *)
  mutable h_sum : float;
  mutable h_count : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = {
  r_clock : Clock.t;
  r_mutex : Mutex.t;
  r_metrics : (string, string * metric) Hashtbl.t;
}

let create ?(clock = Clock.real) () =
  { r_clock = clock; r_mutex = Mutex.create (); r_metrics = Hashtbl.create 32 }

let default = create ()

let clock t = t.r_clock

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Registration: first caller wins, the help string included; a name
   re-registered with a different metric kind is a programming error. *)
let register t name help make cast kind =
  locked t.r_mutex (fun () ->
      match Hashtbl.find_opt t.r_metrics name with
      | Some (_, m) -> (
          match cast m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as another kind"
                   name))
      | None ->
          let v = make () in
          Hashtbl.replace t.r_metrics name (help, kind v);
          v)

let counter t ?(help = "") name =
  register t name help
    (fun () -> { c_value = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)
    (fun c -> Counter c)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.c_value by)
let counter_value c = Atomic.get c.c_value

let gauge t ?(help = "") name =
  register t name help
    (fun () -> { g_value = Atomic.make 0.0 })
    (function Gauge g -> Some g | _ -> None)
    (fun g -> Gauge g)

let set g v = Atomic.set g.g_value v

let rec record_max g v =
  let cur = Atomic.get g.g_value in
  if v > cur && not (Atomic.compare_and_set g.g_value cur v) then
    record_max g v

let gauge_value g = Atomic.get g.g_value

let histogram t ?(help = "") name =
  register t name help
    (fun () ->
      { h_mutex = Mutex.create ();
        h_counts = Array.make (n_finite + 1) 0;
        h_sum = 0.0;
        h_count = 0 })
    (function Histogram h -> Some h | _ -> None)
    (fun h -> Histogram h)

let bucket_index v =
  if v <= 0.0 then 0
  else
    let e = int_of_float (Float.ceil (Float.log2 v)) in
    if e <= min_exp then 0
    else if e > max_exp then overflow_index
    else e - min_exp

let bucket_upper v =
  let i = bucket_index v in
  if i = overflow_index then infinity else Float.pow 2.0 (float_of_int (min_exp + i))

let observe h v =
  locked h.h_mutex (fun () ->
      h.h_counts.(bucket_index v) <- h.h_counts.(bucket_index v) + 1;
      h.h_sum <- h.h_sum +. v;
      h.h_count <- h.h_count + 1)

let histogram_count h = locked h.h_mutex (fun () -> h.h_count)
let histogram_sum h = locked h.h_mutex (fun () -> h.h_sum)

let reset t =
  locked t.r_mutex (fun () ->
      Hashtbl.iter
        (fun _ (_, m) ->
          match m with
          | Counter c -> Atomic.set c.c_value 0
          | Gauge g -> Atomic.set g.g_value 0.0
          | Histogram h ->
              locked h.h_mutex (fun () ->
                  Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
                  h.h_sum <- 0.0;
                  h.h_count <- 0))
        t.r_metrics)

type hist_snapshot = {
  hs_buckets : (float * int) list;
  hs_count : int;
  hs_sum : float;
}

type snapshot = {
  sn_counters : (string * string * int) list;
  sn_gauges : (string * string * float) list;
  sn_histograms : (string * string * hist_snapshot) list;
}

let hist_snapshot h =
  locked h.h_mutex (fun () ->
      let buckets = ref [] in
      for i = Array.length h.h_counts - 1 downto 0 do
        if h.h_counts.(i) > 0 then begin
          let bound =
            if i = overflow_index then infinity
            else Float.pow 2.0 (float_of_int (min_exp + i))
          in
          buckets := (bound, h.h_counts.(i)) :: !buckets
        end
      done;
      { hs_buckets = !buckets; hs_count = h.h_count; hs_sum = h.h_sum })

(* Merging favours the interpretation that makes cross-process
   aggregation meaningful: counters add, gauges keep the high-water
   mark, histograms add bucket-wise.  Both the bucket union and the
   help-string choice are symmetric, so [merge] is commutative — the
   property the fleet tests pin, since telemetry frames arrive in
   arbitrary worker order. *)
let merge_help a b = if a = "" then b else if b = "" then a else min a b

let merge_assoc combine xs ys =
  let tbl = Hashtbl.create 32 in
  let add (name, help, v) =
    match Hashtbl.find_opt tbl name with
    | None -> Hashtbl.replace tbl name (help, v)
    | Some (help', v') ->
        Hashtbl.replace tbl name (merge_help help help', combine v v')
  in
  List.iter add xs;
  List.iter add ys;
  let out = Hashtbl.fold (fun name (help, v) acc -> (name, help, v) :: acc) tbl [] in
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) out

let merge_hist a b =
  let tbl = Hashtbl.create 16 in
  let add (bound, count) =
    let prev = Option.value ~default:0 (Hashtbl.find_opt tbl bound) in
    Hashtbl.replace tbl bound (prev + count)
  in
  List.iter add a.hs_buckets;
  List.iter add b.hs_buckets;
  let buckets = Hashtbl.fold (fun bound count acc -> (bound, count) :: acc) tbl [] in
  { hs_buckets = List.sort (fun (x, _) (y, _) -> compare x y) buckets;
    hs_count = a.hs_count + b.hs_count;
    hs_sum = a.hs_sum +. b.hs_sum }

let merge a b =
  { sn_counters = merge_assoc ( + ) a.sn_counters b.sn_counters;
    sn_gauges = merge_assoc Float.max a.sn_gauges b.sn_gauges;
    sn_histograms = merge_assoc merge_hist a.sn_histograms b.sn_histograms }

let empty_snapshot = { sn_counters = []; sn_gauges = []; sn_histograms = [] }

let snapshot t =
  locked t.r_mutex (fun () ->
      let counters = ref [] and gauges = ref [] and hists = ref [] in
      Hashtbl.iter
        (fun name (help, m) ->
          match m with
          | Counter c -> counters := (name, help, counter_value c) :: !counters
          | Gauge g -> gauges := (name, help, gauge_value g) :: !gauges
          | Histogram h -> hists := (name, help, hist_snapshot h) :: !hists)
        t.r_metrics;
      let by_name (a, _, _) (b, _, _) = compare a b in
      { sn_counters = List.sort by_name !counters;
        sn_gauges = List.sort by_name !gauges;
        sn_histograms = List.sort by_name !hists })
