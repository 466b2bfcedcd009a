open Dvz_soc
module Metrics = Dvz_obs.Metrics
module Profile = Dvz_obs.Profile

let m_runs =
  Metrics.counter Metrics.default ~help:"Dual-DUT simulations completed"
    "dvz_sim_runs_total"

let m_cycles =
  Metrics.counter Metrics.default
    ~help:"Simulated cycles summed over both DUT instances"
    "dvz_sim_cycles_total"

let g_taint_hwm =
  Metrics.gauge Metrics.default
    ~help:"High-water mark of the tainted state-element population in any \
           single simulation"
    "dvz_taint_population_hwm"

let m_timeouts =
  Metrics.counter Metrics.default
    ~help:"Simulations aborted by a watchdog budget"
    "dvz_watchdog_timeouts_total"

type log_entry = {
  le_slot : int;
  le_total : int;
  le_in_window : bool;
}

type result = {
  r_windows_a : Core.window_record list;
  r_windows_b : Core.window_record list;
  r_log : log_entry list;
  r_window_counts : int list list;
  r_slots : int;
  r_cycles_a : int;
  r_cycles_b : int;
  r_committed_a : int;
  r_final_tainted : Elem.t list;
  r_live_tainted : Elem.t list;
  r_dead_tainted : Elem.t list;
  r_timed_out : bool;
}

type budget = {
  b_max_slots : int option;
  b_max_wall_s : float option;
  b_clock : Dvz_obs.Clock.t;
}

let budget ?max_slots ?max_wall_s ?(clock = Dvz_obs.Clock.real) () =
  (match max_slots with
  | Some n when n <= 0 -> invalid_arg "Dualcore.budget: max_slots must be positive"
  | _ -> ());
  (match max_wall_s with
  | Some s when not (s > 0.0 && Float.is_finite s) ->
      invalid_arg "Dualcore.budget: max_wall_s must be positive and finite"
  | _ -> ());
  { b_max_slots = max_slots; b_max_wall_s = max_wall_s; b_clock = clock }

let budget_limits b = (b.b_max_slots, b.b_max_wall_s)

type t = {
  core_a : Core.t;
  core_b : Core.t;
  taint : Taintstate.t;
  prov : Dvz_ift.Provenance.t option;
  log_bound : Dvz_ift.Taintlog.bound;
  mutable log : log_entry list;
  mutable log_len : int;
  mutable window_counts : int list list;  (** newest first *)
  mutable slots : int;
  mutable taint_hwm : int;
  mutable hung : bool;
  mutable corrupted : bool;
  mutable timed_out : bool;
}

let default_secret_b secret =
  (* §3.3: generate the variant's secret by flipping each bit of the
     original to minimise identical-value false negatives. *)
  Array.map (fun v -> v lxor 0xFFFFFFFF) secret

(* Instance B's stimulus: [secret_b] (default: the bit-flipped variant) on
   a schedule-preserving copy of the swappable memory. *)
let make_stim_b ?secret_b stim =
  let secret_b =
    match secret_b with
    | Some s -> s
    | None -> default_secret_b stim.Core.st_secret
  in
  let swap_b =
    Swapmem.with_schedule stim.Core.st_swapmem
      (Swapmem.schedule stim.Core.st_swapmem)
  in
  { stim with Core.st_secret = secret_b; Core.st_swapmem = swap_b }

(* The planted secret words are the taint origins; stamp them before slot 0
   so replayed slices bottom out at the secret access. *)
let stamp_secret_origins taint prov stim =
  (match prov with
  | Some p -> Dvz_ift.Provenance.set_context p ~time:(-1) ~in_window:false
  | None -> ());
  Array.iteri
    (fun i _ ->
      let e = Elem.Mem ((Layout.secret_base / 8) + i) in
      (match prov with
      | Some p -> Dvz_ift.Provenance.source p (Elem.to_string e)
      | None -> ());
      Taintstate.set_tainted taint e)
    stim.Core.st_secret

let create ?provenance ?(log_bound = Dvz_ift.Taintlog.Unbounded)
    ?(mode = Dvz_ift.Policy.Diffift) ?secret_b cfg stim =
  (match log_bound with
  | Dvz_ift.Taintlog.Unbounded -> ()
  | Keep_last n ->
      if n <= 0 then invalid_arg "Dualcore.create: log_bound must be positive");
  (match secret_b with
  | Some s when Array.length s <> Array.length stim.Core.st_secret ->
      invalid_arg
        (Printf.sprintf
           "Dualcore.create: secret arity mismatch: secret_b has %d dwords \
            but the stimulus secret has %d"
           (Array.length s)
           (Array.length stim.Core.st_secret))
  | _ -> ());
  let stim_b = make_stim_b ?secret_b stim in
  let core_a = Core.create cfg stim in
  let core_b = Core.create cfg stim_b in
  let taint = Taintstate.create ?provenance mode in
  stamp_secret_origins taint provenance stim;
  { core_a; core_b; taint; prov = provenance; log_bound; log = [];
    log_len = 0; window_counts = []; slots = 0; taint_hwm = 0;
    hung = false; corrupted = false; timed_out = false }

(* Re-arm a built instance with a new stimulus: [create]'s setup, but
   reusing both cores' state (via [Core.reset]) and the taint tables, so no
   netlist-sized allocation happens.  [mode] and [log_bound] stay what they
   were at [create]; the pool keys on them. *)
let reset t stim =
  let stim_b = make_stim_b stim in
  Core.reset t.core_a stim;
  Core.reset t.core_b stim_b;
  Taintstate.reset t.taint;
  stamp_secret_origins t.taint t.prov stim;
  t.log <- [];
  t.log_len <- 0;
  t.window_counts <- [];
  t.slots <- 0;
  t.taint_hwm <- 0;
  t.hung <- false;
  t.corrupted <- false;
  t.timed_out <- false

let blit ~src ~dst =
  if src.prov <> None || dst.prov <> None then
    invalid_arg "Dualcore.blit: provenance-armed testbenches are not copied";
  if src.log_bound <> dst.log_bound then
    invalid_arg "Dualcore.blit: log bound mismatch";
  Core.blit ~src:src.core_a ~dst:dst.core_a;
  Core.blit ~src:src.core_b ~dst:dst.core_b;
  Taintstate.blit ~src:src.taint ~dst:dst.taint;
  dst.log <- src.log;
  dst.log_len <- src.log_len;
  dst.window_counts <- src.window_counts;
  dst.slots <- src.slots;
  dst.taint_hwm <- src.taint_hwm;
  dst.hung <- src.hung;
  dst.corrupted <- src.corrupted;
  dst.timed_out <- src.timed_out

let copy t =
  if t.prov <> None then
    invalid_arg "Dualcore.copy: provenance-armed testbenches are not copied";
  let taint = Taintstate.create (Taintstate.mode t.taint) in
  Taintstate.blit ~src:t.taint ~dst:taint;
  { t with core_a = Core.copy t.core_a; core_b = Core.copy t.core_b; taint }

let rebase t swap =
  Core.rebase t.core_a swap;
  Core.rebase t.core_b swap

let core_a t = t.core_a
let core_b t = t.core_b
let taint t = t.taint
let slots t = t.slots

let watch t words =
  let bitmap = Phys_mem.watch_bitmap words in
  Core.watch t.core_a bitmap;
  Core.watch t.core_b bitmap

let unwatch t =
  Core.unwatch t.core_a;
  Core.unwatch t.core_b

let watch_hit t = Core.watch_hit t.core_a || Core.watch_hit t.core_b

(* Per-slot log push under the configured bound.  [t.log] is newest-first;
   [Keep_last] trims amortised (only once the list doubles) so the hot
   path stays O(1) per slot. *)
let push_log t e =
  t.log <- e :: t.log;
  t.log_len <- t.log_len + 1;
  match t.log_bound with
  | Dvz_ift.Taintlog.Keep_last n when t.log_len >= 2 * n ->
      t.log <- List.filteri (fun i _ -> i < n) t.log;
      t.log_len <- n
  | _ -> ()

(* Coverage's input (§4.2.2), after a transient-window slot.  The memoised
   list stays the same until a taint transition, so a repeat is one
   pointer compare.  Not log-bounded: at most one vector per slot. *)
let record_window_counts t =
  match Taintstate.tainted_points t.taint with
  | [] -> ()
  | v -> (
      match t.window_counts with
      | last :: _ when last == v -> ()
      | _ -> t.window_counts <- v :: t.window_counts)

let step_impl t =
  (match Dvz_resilience.Fault.tick ~cycle:t.slots with
  | `Ok -> ()
  | `Hang -> t.hung <- true
  | `Corrupt -> t.corrupted <- true);
  if t.hung then begin
    (* Wedged: slots keep counting so a budget can notice, but neither
       core makes progress and the loop never terminates on its own. *)
    t.slots <- t.slots + 1;
    true
  end
  else if Core.is_done t.core_a && Core.is_done t.core_b then false
  else begin
    let sa = Core.step t.core_a in
    let sb = Core.step t.core_b in
    (match (sa, sb) with
    | None, None -> ()
    | _ ->
        let in_window =
          match sa with Some s -> s.Effect.sl_transient | None -> false
        in
        (match t.prov with
        | Some p ->
            Dvz_ift.Provenance.set_context p ~time:t.slots ~in_window
        | None -> ());
        Taintstate.apply_pair t.taint sa sb;
        let total = Taintstate.tainted_count t.taint in
        if total > t.taint_hwm then t.taint_hwm <- total;
        if in_window then record_window_counts t;
        push_log t
          { le_slot = t.slots; le_total = total; le_in_window = in_window });
    t.slots <- t.slots + 1;
    not (Core.is_done t.core_a && Core.is_done t.core_b)
  end

(* Armed-guarded so the disarmed simulation loop allocates nothing for
   the probe. *)
let step t =
  if Profile.armed () then Profile.wrap "dualcore/step" (fun () -> step_impl t)
  else step_impl t

(* --- committed nop runs ------------------------------------------------- *)

(* One slot of a fast-forward: [step_impl]'s taint decisions, high-water
   mark, log entry and slot count for a slot in which both instances
   commit the canonical nop alike. *)
let nop_slot t ~line ~refill ~rob =
  Taintstate.committed_nop t.taint ~line ~refill ~rob;
  let total = Taintstate.tainted_count t.taint in
  if total > t.taint_hwm then t.taint_hwm <- total;
  push_log t { le_slot = t.slots; le_total = total; le_in_window = false };
  t.slots <- t.slots + 1

let skip_nops t n each =
  Core.skip_nops t.core_b n;
  Core.skip_nops ~each t.core_a n

(* [run]'s fast path: advance both instances over the run of committed
   canonical nops ahead, at most [limit] slots, if the run emits the same
   events in both.  Never with a fault plan armed ([Fault.tick] must see
   every slot), on a wedged testbench, under a provenance recorder (it
   stamps every slot) or with a tainted pc.  [each] is [nop_slot t]. *)
let fast_forward t limit each =
  (not (Dvz_resilience.Fault.armed ()))
  && (not t.hung)
  && Option.is_none t.prov
  && (not (Taintstate.is_tainted t.taint Elem.Pc))
  &&
  let n = Core.nop_run_pair t.core_a t.core_b limit in
  n > 0
  && begin
    if Profile.armed () then
      Profile.wrap "dualcore/fast_forward" (fun () -> skip_nops t n each)
    else skip_nops t n each;
    true
  end

let collect t =
  let final = Taintstate.tainted_elems t.taint in
  let live, dead = List.partition (Core.live t.core_a) final in
  Metrics.incr m_runs;
  Metrics.incr ~by:(Core.cycles t.core_a + Core.cycles t.core_b) m_cycles;
  Metrics.record_max g_taint_hwm (float_of_int t.taint_hwm);
  let windows_b = Core.windows t.core_b in
  let windows_b, cycles_b =
    (* An armed Corrupt fault deterministically skews instance B's timing
       so the differential oracle sees a spurious divergence. *)
    if t.corrupted then
      ( (match windows_b with
        | w :: rest -> { w with Core.wr_cycles = w.Core.wr_cycles + 7 } :: rest
        | [] -> []),
        Core.cycles t.core_b + 7 )
    else (windows_b, Core.cycles t.core_b)
  in
  let rev_log =
    match t.log_bound with
    | Dvz_ift.Taintlog.Keep_last n when t.log_len > n ->
        List.filteri (fun i _ -> i < n) t.log
    | _ -> t.log
  in
  { r_windows_a = Core.windows t.core_a;
    r_windows_b = windows_b;
    r_log = List.rev rev_log;
    r_window_counts = List.rev t.window_counts;
    r_slots = t.slots;
    r_cycles_a = Core.cycles t.core_a;
    r_cycles_b = cycles_b;
    r_committed_a = Core.committed t.core_a;
    r_final_tainted = final;
    r_live_tainted = live;
    r_dead_tainted = dead;
    r_timed_out = t.timed_out }

let over_budget b t start =
  (match b.b_max_slots with Some m -> t.slots >= m | None -> false)
  || (match b.b_max_wall_s with
     | Some m when t.slots land 63 = 0 ->
         (* Poll the wall clock only every 64 slots to keep it off the
            hot path. *)
         Dvz_obs.Clock.now b.b_clock -. start > m
     | _ -> false)

(* The longest fast-forward after which [over_budget] is due again: up to
   the slot limit, and under a wall-clock limit up to the next slot count
   at which the clock is polled. *)
let skip_limit budget t =
  match budget with
  | None -> max_int
  | Some b -> (
      let n = match b.b_max_slots with Some m -> m - t.slots | None -> max_int in
      match b.b_max_wall_s with
      | Some _ -> min n (64 - (t.slots land 63))
      | None -> n)

let run ?budget ?fork t =
  let start =
    match budget with
    | Some { b_max_wall_s = Some _; b_clock; _ } -> Dvz_obs.Clock.now b_clock
    | _ -> 0.0
  in
  let each = nop_slot t in
  let advance () =
    match budget with
    | Some b when over_budget b t start ->
        t.timed_out <- true;
        Metrics.incr m_timeouts;
        false
    | _ -> fast_forward t (skip_limit budget t) each || step t
  in
  let live =
    match fork with
    | None -> true
    | Some (words, on_fork) ->
        watch t words;
        (* Watched prefix: stop looking once a watched word has been read
           (no fork is sound any more; the latch stays set for the caller)
           or just before the first fetch of one. *)
        let rec prefix () =
          if watch_hit t then true
          else if Core.fetch_watched t.core_a || Core.fetch_watched t.core_b
          then begin
            on_fork t;
            unwatch t;
            true
          end
          else advance () && prefix ()
        in
        prefix ()
  in
  if live then
    while advance () do
      ()
    done;
  collect t

let count_run r =
  Metrics.incr m_runs;
  Metrics.incr ~by:(r.r_cycles_a + r.r_cycles_b) m_cycles

let window_timing_diffs result =
  let rec go i wa wb acc =
    match (wa, wb) with
    | a :: ra, b :: rb ->
        let acc =
          if a.Core.wr_cycles <> b.Core.wr_cycles then
            (i, a.Core.wr_cycles, b.Core.wr_cycles) :: acc
          else acc
        in
        go (i + 1) ra rb acc
    | (a :: ra), [] -> go (i + 1) ra [] ((i, a.Core.wr_cycles, 0) :: acc)
    | [], (b :: rb) -> go (i + 1) [] rb ((i, 0, b.Core.wr_cycles) :: acc)
    | [], [] -> List.rev acc
  in
  go 0 result.r_windows_a result.r_windows_b []

let taints_in_windows result =
  let rec go prev growth = function
    | [] -> growth
    | e :: rest ->
        let growth =
          if e.le_in_window && e.le_total > prev then
            growth + (e.le_total - prev)
          else growth
        in
        go e.le_total growth rest
  in
  go 0 0 result.r_log
