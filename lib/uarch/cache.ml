type line = { mutable valid : bool; mutable tag : int }

type t = { lines : line array; line_bytes : int }

let create ~lines ~line_bytes =
  { lines = Array.init lines (fun _ -> { valid = false; tag = 0 });
    line_bytes }

let line_index t ~addr = addr / t.line_bytes land (Array.length t.lines - 1)

let tag_of t addr = addr / t.line_bytes

let holds t l addr = l.valid && l.tag = tag_of t addr

let access t ~addr =
  let i = line_index t ~addr in
  let l = t.lines.(i) in
  if holds t l addr then `Hit i
  else begin
    l.valid <- true;
    l.tag <- tag_of t addr;
    `Miss i
  end

let hits t ~addr = holds t t.lines.(line_index t ~addr) addr

let fill t ~addr =
  let l = t.lines.(line_index t ~addr) in
  (not (holds t l addr))
  && begin
    l.valid <- true;
    l.tag <- tag_of t addr;
    true
  end

let invalidate_all t = Array.iter (fun l -> l.valid <- false) t.lines

let blit ~src ~dst =
  for i = 0 to Array.length dst.lines - 1 do
    let s = src.lines.(i) and d = dst.lines.(i) in
    d.valid <- s.valid;
    d.tag <- s.tag
  done

let valid t i = t.lines.(i).valid

let line_addr t i = t.lines.(i).tag * t.line_bytes

module Lfb = struct
  type slot = { mutable data : int; mutable mshr_valid : bool }

  type t = { slots : slot array; mutable next : int }

  let create ~entries =
    { slots = Array.init entries (fun _ -> { data = 0; mshr_valid = false });
      next = 0 }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.slots - 1 do
      let s = src.slots.(i) and d = dst.slots.(i) in
      d.data <- s.data;
      d.mshr_valid <- s.mshr_valid
    done;
    dst.next <- src.next

  let refill t ~data =
    let i = t.next in
    t.next <- (t.next + 1) mod Array.length t.slots;
    let s = t.slots.(i) in
    s.data <- data;
    (* The refill has completed by the time anyone can look: the MSHR has
       already invalidated the slot, leaving the stale data behind. *)
    s.mshr_valid <- false;
    i

  let data t i = t.slots.(i).data
  let valid t i = t.slots.(i).mshr_valid
end
