type entry = { mutable valid : bool; mutable tag : int }

type t = { entries : entry array; page_bytes : int }

let create ~entries ~page_bytes =
  { entries = Array.init entries (fun _ -> { valid = false; tag = 0 });
    page_bytes }

let enabled t = Array.length t.entries > 0

let access t ~addr =
  if not (enabled t) then `Disabled
  else begin
    let vpn = addr / t.page_bytes in
    let i = vpn land (Array.length t.entries - 1) in
    let e = t.entries.(i) in
    if e.valid && e.tag = vpn then `Hit i
    else begin
      e.valid <- true;
      e.tag <- vpn;
      `Miss i
    end
  end

let valid t i = t.entries.(i).valid

let blit ~src ~dst =
  for i = 0 to Array.length dst.entries - 1 do
    let s = src.entries.(i) and d = dst.entries.(i) in
    d.valid <- s.valid;
    d.tag <- s.tag
  done
