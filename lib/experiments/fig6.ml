module Cfg = Dvz_uarch.Config
module Dualcore = Dvz_uarch.Dualcore
module Packet = Dejavuzz.Packet

type series = {
  s_case : string;
  s_mode : string;
  s_totals : int array;
  s_window : (int * int) option;
}

let window_range log =
  let first = ref None and last = ref None in
  List.iter
    (fun e ->
      if e.Dualcore.le_in_window then begin
        if !first = None then first := Some e.Dualcore.le_slot;
        last := Some e.Dualcore.le_slot
      end)
    log;
  match (!first, !last) with Some a, Some b -> Some (a, b) | _ -> None

let one_series cfg name mode mode_name ~fn =
  let tc = Attacks.build cfg name in
  let stim = Packet.stimulus ~secret:Attacks.secret tc in
  let secret_b = if fn then Some Attacks.secret else None in
  let dc = Dualcore.create ~mode ?secret_b cfg stim in
  let result = Dualcore.run dc in
  { s_case = Attacks.to_string name;
    s_mode = mode_name;
    s_totals =
      Array.of_list (List.map (fun e -> e.Dualcore.le_total) result.Dualcore.r_log);
    s_window = window_range result.Dualcore.r_log }

let run () =
  let cfg = Cfg.boom_small in
  List.concat_map
    (fun name ->
      [ one_series cfg name Dvz_ift.Policy.Cellift "CellIFT" ~fn:false;
        one_series cfg name Dvz_ift.Policy.Diffift "diffIFT" ~fn:false;
        one_series cfg name Dvz_ift.Policy.Diffift "diffIFT-FN" ~fn:true ])
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
