(* One int per entry: the virtual page number it maps, or [invalid], which
   no page number (an address divided by a page of two bytes or more)
   equals.  Copied by a typed loop, like {!Cache}'s lines. *)
let invalid = min_int

type t = { vpns : int array; page_bytes : int }

let create ~entries ~page_bytes =
  if page_bytes < 2 then invalid_arg "Tlb.create: page_bytes below 2";
  { vpns = Array.make entries invalid; page_bytes }

let enabled t = Array.length t.vpns > 0

let access t ~addr =
  if not (enabled t) then `Disabled
  else begin
    let vpn = addr / t.page_bytes in
    let i = vpn land (Array.length t.vpns - 1) in
    if t.vpns.(i) = vpn then `Hit i
    else begin
      t.vpns.(i) <- vpn;
      `Miss i
    end
  end

let valid t i = t.vpns.(i) <> invalid

let blit ~src ~dst =
  let s = src.vpns and d = dst.vpns in
  if Array.length s <> Array.length d then invalid_arg "Tlb.blit: geometry";
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get s i)
  done
