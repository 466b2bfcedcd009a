let max_width = 62

let mask w =
  if w <= 0 || w > max_width then invalid_arg "Bits.mask: bad width";
  if w = max_width then -1 lsr (Sys.int_size - max_width) else (1 lsl w) - 1

let trunc w v = v land mask w

let bit v i = (v lsr i) land 1

(* SWAR popcount.  This sits under {!Shadow.taint_bit_sum}, which the taint
   log recomputes over every register and memory word each logged cycle, so
   the naive bit-at-a-time loop was a measurable fraction of IFT simulation
   time.  OCaml ints are 63-bit: the classic 64-bit masks don't all fit in a
   literal, so the sign bit is counted separately and the masks below cover
   the 62 value bits (every system value is at most {!max_width} wide). *)
let m1 = 0x1555555555555555 (* even bits 0,2,..,60 *)
let m2 = 0x3333333333333333
let m4 = 0x0F0F0F0F0F0F0F0F
let h01 = 0x0101010101010101

let popcount v =
  let sign = v lsr 62 land 1 in
  let x = v land max_int in
  let x = x - (x lsr 1 land m1) in
  let x = (x land m2) + (x lsr 2 land m2) in
  let x = (x + (x lsr 4)) land m4 in
  ((x * h01) lsr 56) + sign

let spread_up w m =
  if m = 0 then 0
  else
    let lowest = m land -m in
    (* All bits at or above [lowest], within width [w]. *)
    mask w land lnot (lowest - 1)
