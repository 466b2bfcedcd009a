(* One int per entry: the virtual page number it maps, or [invalid], which
   no page number (an address divided by a page of two bytes or more)
   equals.  Copied by a typed loop, like {!Cache}'s lines. *)
let invalid = min_int

type t = { vpns : int array; page_bytes : int; shift : int }

let create ~entries ~page_bytes =
  if page_bytes < 2 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page_bytes not a power of two above 1";
  let rec bits k = if 1 lsl k = page_bytes then k else bits (k + 1) in
  { vpns = Array.make entries invalid; page_bytes; shift = bits 1 }

let enabled t = Array.length t.vpns > 0

(* No index is [max_int], so no miss is [lnot max_int]. *)
let disabled = min_int

(* [addr / page_bytes]: a shift unless [addr] is negative, as in
   {!Cache}. *)
let access t ~addr =
  if not (enabled t) then disabled
  else begin
    let vpn =
      if addr >= 0 then addr lsr t.shift else addr / t.page_bytes
    in
    let i = vpn land (Array.length t.vpns - 1) in
    if t.vpns.(i) = vpn then i
    else begin
      t.vpns.(i) <- vpn;
      lnot i
    end
  end

let valid t i = t.vpns.(i) <> invalid

let blit ~src ~dst =
  let s = src.vpns and d = dst.vpns in
  if Array.length s <> Array.length d then invalid_arg "Tlb.blit: geometry";
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get s i)
  done
