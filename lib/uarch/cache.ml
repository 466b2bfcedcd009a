(* One int per line: the tag of the block the line holds, or [invalid].
   A tag is an address divided by the line size, so for lines of two bytes
   or more it is never [min_int].  (-1 would not do: a transient fetch or
   store may reach a negative address, whose tag can be -1.)  A flat int
   array is copied and flushed by typed loops, with no write barrier and
   no closure. *)
let invalid = min_int

type t = { tags : int array; line_bytes : int; shift : int }

let create ~lines ~line_bytes =
  if line_bytes < 2 || line_bytes land (line_bytes - 1) <> 0 then
    invalid_arg "Cache.create: line_bytes not a power of two above 1";
  let rec bits k = if 1 lsl k = line_bytes then k else bits (k + 1) in
  { tags = Array.make lines invalid; line_bytes; shift = bits 1 }

(* [addr / line_bytes], a shift on the non-negative addresses every
   committed access uses.  The division stays for negative ones, which
   transient fetches and stores reach: [asr] rounds them down, [/] toward
   zero. *)
let tag t addr = if addr >= 0 then addr lsr t.shift else addr / t.line_bytes

(* The line a block of tag [tag] maps to. *)
let index t tag = tag land (Array.length t.tags - 1)

let line_index t ~addr = index t (tag t addr)

let access t ~addr =
  let tag = tag t addr in
  let i = index t tag in
  if t.tags.(i) = tag then i
  else begin
    t.tags.(i) <- tag;
    lnot i
  end

let hits t ~addr =
  let tag = tag t addr in
  t.tags.(index t tag) = tag

let fill t ~addr = access t ~addr < 0

let invalidate_all t =
  let d = t.tags in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i invalid
  done

(* Re-arms and forks copy every line of both caches: the arrays are read
   into locals and indexed without bounds checks, the lengths checked
   once. *)
let blit ~src ~dst =
  let s = src.tags and d = dst.tags in
  if Array.length s <> Array.length d then invalid_arg "Cache.blit: geometry";
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (Array.unsafe_get s i)
  done

let valid t i = t.tags.(i) <> invalid

let line_addr t i = t.tags.(i) * t.line_bytes

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
    t.next <- (if i + 1 = Array.length t.slots then 0 else i + 1);
    let s = t.slots.(i) in
    s.data <- data;
    (* The refill has completed by the time anyone can look: the MSHR has
       already invalidated the slot, leaving the stale data behind. *)
    s.mshr_valid <- false;
    i

  let data t i = t.slots.(i).data
  let valid t i = t.slots.(i).mshr_valid
end
