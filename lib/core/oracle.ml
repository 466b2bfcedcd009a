module Dualcore = Dvz_uarch.Dualcore
module Core = Dvz_uarch.Core
module Elem = Dvz_uarch.Elem
module Metrics = Dvz_obs.Metrics

let m_analyses =
  Metrics.counter Metrics.default ~help:"Oracle analyses performed"
    "dvz_oracle_analyses_total"

let m_timing_leaks =
  Metrics.counter Metrics.default
    ~help:"Constant-time oracle violations (timing leaks) reported"
    "dvz_oracle_timing_leaks_total"

let m_encode_leaks =
  Metrics.counter Metrics.default
    ~help:"Taint-encoding oracle violations (encode leaks) reported"
    "dvz_oracle_encode_leaks_total"

let m_resumed =
  Metrics.counter Metrics.default
    ~help:"Sanitize runs resumed from a copy of the main run at its first \
           differing fetch"
    "dvz_oracle_sanitize_resumed_total"

let m_reused =
  Metrics.counter Metrics.default
    ~help:"Sanitize runs that reused the main run's result (no differing \
           word was ever read)"
    "dvz_oracle_sanitize_reused_total"

let m_replayed =
  Metrics.counter Metrics.default
    ~help:"Sanitize runs simulated from scratch (a differing word was read \
           before its fetch, or a fault plan was armed)"
    "dvz_oracle_sanitize_replayed_total"

let m_shared_slots =
  Metrics.counter Metrics.default
    ~help:"Sanitize-run slots taken over from the main run instead of \
           simulated"
    "dvz_oracle_sanitize_shared_slots_total"

type component = string

type leak =
  | Timing of { pairs : (int * int * int) list; components : component list }
  | Encode of { sinks : Elem.t list; components : component list }

type analysis = {
  a_result : Dualcore.result;
  a_leaks : leak list;
  a_attack : [ `Meltdown | `Spectre ] option;
  a_live_sinks : Elem.t list;
  a_all_sinks : Elem.t list;
  a_timed_out : bool;
}

let component_of_module m =
  let starts_with prefix = String.starts_with ~prefix m in
  if starts_with "lsu.dcache" then Some "dcache"
  else if starts_with "frontend.icache" then Some "icache"
  else if starts_with "lsu.tlb" || m = "lsu.l2tlb" then Some "(l2)tlb"
  else
    match m with
    | "frontend.btb" -> Some "(fau)btb"
    | "frontend.ras" -> Some "ras"
    | "frontend.loop" -> Some "loop"
    | "frontend.bht" -> Some "bht"
    | "lsu.lfb" -> Some "lfb"
    | "lsu.ldq" | "lsu.stq" -> Some "lsu"
    | "core.prf" -> Some "prf"
    | "rob" -> Some "rob"
    | _ -> None

(* [component_of_module] of every module, by {!Elem.module_index}. *)
let components = Array.of_list (List.map component_of_module Elem.all_modules)

let sink_components sinks =
  List.sort_uniq compare
    (List.filter_map (fun e -> components.(Elem.module_index e)) sinks)

(* Timing-leak attribution: which contended unit the window payload used. *)
let timing_components tc =
  let tags = tc.Packet.gadget_tags in
  let comps =
    List.filter_map
      (function
        | "fpu" -> Some "fpu"
        | "lsu" -> Some "lsu"
        | "refetch" -> Some "icache"
        | _ -> None)
      tags
  in
  match List.sort_uniq compare comps with [] -> [ "lsu" ] | l -> l

let microarch_sink = function
  | Elem.Areg _ | Elem.Mem _ | Elem.Pc -> false
  | _ -> true

(* [xs] without the elements of [ys]; both sorted by {!Elem.compare}
   without duplicates, as [Taintstate.tainted_elems] and its filters
   are. *)
let rec sorted_diff xs ys =
  match (xs, ys) with
  | [], _ -> []
  | _, [] -> xs
  | x :: xs', y :: ys' ->
      let c = Elem.compare x y in
      if c < 0 then x :: sorted_diff xs' ys
      else if c > 0 then sorted_diff xs ys'
      else sorted_diff xs' ys'

let attack_of_result result =
  let windows =
    List.filter
      (fun w -> w.Core.wr_in_transient_blob && w.Core.wr_secret_accessed)
      result.Dualcore.r_windows_a
  in
  match windows with
  | [] -> None
  | ws ->
      if List.exists (fun w -> w.Core.wr_secret_fault) ws then Some `Meltdown
      else Some `Spectre

type replay_path = Resumed | Reused | Replayed

type sanitized = {
  s_result : Dualcore.result;
  s_path : replay_path;
  s_dut : Dualcore.t option;
}

(* Indices of the transient-blob words the two stimuli disagree on, or
   [None] when the blobs differ in length. *)
let differing_words a b =
  let wa = Packet.transient_words a and wb = Packet.transient_words b in
  if Array.length wa <> Array.length wb then None
  else begin
    let acc = ref [] in
    for i = Array.length wa - 1 downto 0 do
      if wa.(i) <> wb.(i) then acc := i :: !acc
    done;
    Some !acc
  end

let simulate ?log_bound ?(mode = Dvz_ift.Policy.Diffift) ?budget cfg ~secret
    tc =
  (* Both testbenches come from the per-domain pool: construction costs a
     fifth to a third of a run and leaves major-heap garbage, and
     collected results never alias pooled state.  The sanitized test case
     differs from [tc] only in some words of the transient packet, so its
     stimulus re-encodes that packet alone, and the main run is watched
     for those words. *)
  let stim = Packet.stimulus ~secret tc in
  let clean =
    Packet.with_transient stim (Window_gen.sanitize cfg tc).Packet.transient
  in
  let main = Simpool.acquire ?log_bound ~mode cfg stim in
  let words =
    (* [Fault.tick] must see every slot of both runs. *)
    if Dvz_resilience.Fault.armed () then None else differing_words stim clean
  in
  let forked = ref None in
  let result =
    match words with
    | Some (_ :: _ as ws) ->
        let on_fork t = forked := Some (Simpool.fork ?log_bound ~mode cfg t) in
        Dualcore.run ?budget ~fork:(ws, on_fork) main
    | Some [] | None -> Dualcore.run ?budget main
  in
  let reused = words <> None && not (Dualcore.watch_hit main) in
  let sanitized () =
    match !forked with
    | Some copy ->
        (* Resumed: both instances switch to the sanitized blobs where
           each stands in its schedule. *)
        Metrics.incr m_resumed;
        Metrics.incr ~by:(Dualcore.slots copy) m_shared_slots;
        Dualcore.rebase copy clean.Core.st_swapmem;
        { s_result = Dualcore.run ?budget copy; s_path = Resumed;
          s_dut = Some copy }
    | None when reused ->
        (* No instance ever read a differing word: the sanitized run is
           the main run. *)
        Metrics.incr m_reused;
        Metrics.incr ~by:result.Dualcore.r_slots m_shared_slots;
        Dualcore.count_run result;
        { s_result = result; s_path = Reused; s_dut = None }
    | None ->
        Metrics.incr m_replayed;
        let t = Simpool.acquire ?log_bound ~mode cfg clean in
        { s_result = Dualcore.run ?budget t; s_path = Replayed; s_dut = Some t }
  in
  (result, sanitized)

let analyze ?(use_liveness = true) ?(mode = Dvz_ift.Policy.Diffift) ?log_bound
    ?budget cfg ~secret tc =
  let result, sanitized_run = simulate ?log_bound ~mode ?budget cfg ~secret tc in
  if result.Dualcore.r_timed_out then begin
    (* Watchdog verdict: the run was aborted mid-flight, so none of the
       partial evidence is trustworthy — report a clean timeout. *)
    Metrics.incr m_analyses;
    { a_result = result;
      a_leaks = [];
      a_attack = None;
      a_live_sinks = [];
      a_all_sinks = [];
      a_timed_out = true }
  end
  else begin
    let all_sinks = List.filter microarch_sink result.Dualcore.r_final_tainted in
    let live_sinks = List.filter microarch_sink result.Dualcore.r_live_tainted in
    let timing = Dualcore.window_timing_diffs result in
    let leaks = ref [] in
    if timing <> [] then
      leaks := [ Timing { pairs = timing; components = timing_components tc } ];
    (* Encode sanitization: replay with the encoding block nop'd and keep
       only sinks the encoding block produced.  The paper runs this only when
       the constant-time check passes; we additionally run it on timing leaks
       so the encoded components are attributed too (one extra simulation).
       With no candidate sinks the replay cannot change the verdict (the
       encoded set is the candidates minus the baseline), so it is skipped —
       except under a watchdog budget, where its timeout bit is part of the
       reported analysis and must keep being observed. *)
    let candidates = if use_liveness then live_sinks else all_sinks in
    let sanitized_timed_out = ref false in
    (if candidates <> [] || budget <> None then begin
       let sanitized = (sanitized_run ()).s_result in
       sanitized_timed_out := sanitized.Dualcore.r_timed_out;
       if not sanitized.Dualcore.r_timed_out then begin
         let baseline =
           if use_liveness then
             List.filter microarch_sink sanitized.Dualcore.r_live_tainted
           else List.filter microarch_sink sanitized.Dualcore.r_final_tainted
         in
         let encoded = sorted_diff candidates baseline in
         if encoded <> [] then
           leaks :=
             !leaks
             @ [ Encode
                   { sinks = encoded; components = sink_components encoded } ]
       end
     end);
    Metrics.incr m_analyses;
    List.iter
      (function
        | Timing _ -> Metrics.incr m_timing_leaks
        | Encode _ -> Metrics.incr m_encode_leaks)
      !leaks;
    { a_result = result;
      a_leaks = !leaks;
      a_attack = attack_of_result result;
      a_live_sinks = live_sinks;
      a_all_sinks = all_sinks;
      a_timed_out = !sanitized_timed_out }
  end

let is_leak a = a.a_leaks <> []

let analyze_with_retries ?use_liveness ?(retries = 3) ?log_bound ?budget cfg
    ~secret tc =
  (* Deterministic secret-pair variations: rotate and perturb the original
     so consecutive attempts disagree on different bit positions. *)
  let variant k =
    Array.mapi (fun i v -> v lxor (0x9E3779B9 * (k + 1)) lxor (i * 0x85EB)) secret
  in
  let rec go k =
    let s = if k = 0 then secret else variant k in
    let a = analyze ?use_liveness ?log_bound ?budget cfg ~secret:s tc in
    if is_leak a || a.a_timed_out || k + 1 >= max 1 retries then a
    else go (k + 1)
  in
  go 0
