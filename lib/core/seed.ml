module Rng = Dvz_util.Rng

type trigger_kind =
  | T_access_fault
  | T_page_fault
  | T_misalign
  | T_illegal
  | T_mem_disamb
  | T_branch
  | T_jump
  | T_return

let all_kinds =
  [| T_access_fault; T_page_fault; T_misalign; T_illegal; T_mem_disamb;
     T_branch; T_jump; T_return |]

let kind_name = function
  | T_access_fault -> "ld/st-access-fault"
  | T_page_fault -> "ld/st-page-fault"
  | T_misalign -> "ld/st-misalign"
  | T_illegal -> "illegal-insn"
  | T_mem_disamb -> "mem-disamb"
  | T_branch -> "branch-mispred"
  | T_jump -> "indirect-jump-mispred"
  | T_return -> "return-mispred"

let kind_of_name s = Array.find_opt (fun k -> kind_name k = s) all_kinds

let is_exception = function
  | T_access_fault | T_page_fault | T_misalign | T_illegal -> true
  | T_mem_disamb | T_branch | T_jump | T_return -> false

let is_misprediction k = not (is_exception k)

type t = {
  kind : trigger_kind;
  trigger_entropy : int;
  window_entropy : int;
  tighten : bool;
  mask_high : bool;
}

let random_of_kind rng kind =
  { kind;
    trigger_entropy = Rng.next rng;
    window_entropy = Rng.next rng;
    tighten = Rng.bool rng;
    mask_high = Rng.chance rng 0.25 }

let random rng = random_of_kind rng (Rng.choose rng all_kinds)

let mutate_window rng t = { t with window_entropy = Rng.next rng }

let to_string t =
  Printf.sprintf "{%s tighten=%b mask_high=%b te=%x we=%x}" (kind_name t.kind)
    t.tighten t.mask_high
    (t.trigger_entropy land 0xFFFF)
    (t.window_entropy land 0xFFFF)
