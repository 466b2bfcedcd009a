module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Taintstate = Dvz_uarch.Taintstate
module Packet = Dejavuzz.Packet

type series = {
  s_case : string;
  s_mode : string;
  s_totals : int array;
  s_window : (int * int) option;
}

let population dc =
  let a = Dualcore.core_a dc and taint = Dualcore.taint dc in
  let rec go acc =
    let slot = Dualcore.slots dc and in_window = Core.in_window a in
    let more = Dualcore.step dc in
    let acc =
      if Dualcore.slots dc > slot then
        (Taintstate.tainted_count taint, in_window) :: acc
      else acc
    in
    if more then go acc else Array.of_list (List.rev acc)
  in
  go []

let window_range slots =
  let first = ref None and last = ref None in
  Array.iteri
    (fun i (_, in_window) ->
      if in_window then begin
        if !first = None then first := Some i;
        last := Some i
      end)
    slots;
  match (!first, !last) with Some a, Some b -> Some (a, b) | _ -> None

let one_series cfg name mode ~fn =
  let tc = Attacks.build cfg name in
  let stim = Packet.stimulus ~secret:Attacks.secret tc in
  let secret_b = if fn then Some Attacks.secret else None in
  let slots = population (Dualcore.create ~mode ?secret_b cfg stim) in
  { s_case = Attacks.to_string name;
    s_mode = Dvz_ift.Policy.mode_name mode ^ (if fn then "-FN" else "");
    s_totals = Array.map fst slots;
    s_window = window_range slots }

let run () =
  let cfg = Cfg.boom_small in
  List.concat_map
    (fun name ->
      [ one_series cfg name Dvz_ift.Policy.Cellift ~fn:false;
        one_series cfg name Dvz_ift.Policy.Diffift ~fn:false;
        one_series cfg name Dvz_ift.Policy.Diffift ~fn:true ])
    Attacks.all

let sample totals buckets =
  let n = Array.length totals in
  if n = 0 then []
  else
    List.init buckets (fun i ->
        let idx = min (n - 1) (i * n / buckets) in
        totals.(idx))

let render series =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 6: taint population during each attack test case (per-slot)\n";
  List.iter
    (fun s ->
      let peak = Array.fold_left max 0 s.s_totals in
      let final =
        if Array.length s.s_totals = 0 then 0
        else s.s_totals.(Array.length s.s_totals - 1)
      in
      let pts = sample s.s_totals 16 in
      Buffer.add_string buf
        (Printf.sprintf "%-12s %-10s window=%-12s peak=%4d final=%4d  series: %s\n"
           s.s_case s.s_mode
           (match s.s_window with
           | None -> "-"
           | Some (a, b) -> Printf.sprintf "[%d,%d]" a b)
           peak final
           (String.concat " " (List.map string_of_int pts))))
    series;
  Buffer.contents buf
