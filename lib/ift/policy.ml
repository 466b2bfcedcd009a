open Dvz_ir

type mode = Cellift | Diffift

let mode_name = function Cellift -> "CellIFT" | Diffift -> "diffIFT"

let mode_of_name s =
  List.find_opt (fun m -> mode_name m = s) [ Cellift; Diffift ]

let and_taint ~a ~b ~at ~bt = (a land bt) lor (b land at) lor (at land bt)

let or_taint ~a ~b ~at ~bt =
  (lnot a land bt) lor (lnot b land at) lor (at land bt)

let mux_taint mode ~width ~s ~s_diff ~a:_ ~b:_ ~st ~at ~bt ~ab_xor =
  (* [s <> 0], not [= 1]: the selector is a raw value here, and a multi-bit
     caller value like 2 selects the B arm in the value domain, so the data
     taint must follow the same arm or the shadow silently diverges. *)
  let data = if s <> 0 then bt else at in
  let control_enabled =
    st <> 0 && (match mode with Cellift -> true | Diffift -> s_diff)
  in
  let control = if control_enabled then ab_xor lor at lor bt else 0 in
  Bits.trunc width (data lor control)

let cmp_taint mode ~o_diff ~at ~bt =
  let tainted = at lor bt <> 0 in
  match mode with
  | Cellift -> if tainted then 1 else 0
  | Diffift -> if tainted && o_diff then 1 else 0

let arith_taint ~width ~at ~bt = Bits.spread_up width (at lor bt)

let reg_en_taint mode ~width ~en ~en_diff ~ent ~dt ~qt ~dq_xor =
  let data = if en then dt else qt in
  let control_enabled =
    ent <> 0 && (match mode with Cellift -> true | Diffift -> en_diff)
  in
  let control = if control_enabled then dq_xor lor dt lor qt else 0 in
  Bits.trunc width (data lor control)

let mem_read_ctrl mode ~width ~addrt ~addr_diff =
  let enabled =
    addrt <> 0 && (match mode with Cellift -> true | Diffift -> addr_diff)
  in
  if enabled then Bits.mask width else 0

let mem_write_ctrl mode ~width ~wen ~went ~wen_diff ~addrt ~addr_diff =
  let wen_part =
    went <> 0 && (match mode with Cellift -> true | Diffift -> wen_diff)
  in
  let addr_part =
    addrt <> 0 && wen
    && (match mode with Cellift -> true | Diffift -> addr_diff)
  in
  if wen_part || addr_part then Bits.mask width else 0
