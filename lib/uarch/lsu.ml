let overlaps a1 s1 a2 s2 = a1 < a2 + s2 && a2 < a1 + s1

module Stq = struct
  type entry = {
    mutable valid : bool;
    mutable addr : int;
    mutable size : int;
    mutable data : int;
    mutable old_data : int;  (** memory content the store overwrote *)
    mutable resolve_at : int;
    mutable seq : int;  (** allocation order, for youngest-wins scans *)
  }

  type t = { slots : entry array; mutable next : int; mutable seq : int }

  let mk_entry () =
    { valid = false; addr = 0; size = 0; data = 0; old_data = 0;
      resolve_at = 0; seq = 0 }

  let create ~entries =
    { slots = Array.init entries (fun _ -> mk_entry ()); next = 0; seq = 0 }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.slots - 1 do
      let s = src.slots.(i) and d = dst.slots.(i) in
      d.valid <- s.valid;
      d.addr <- s.addr;
      d.size <- s.size;
      d.data <- s.data;
      d.old_data <- s.old_data;
      d.resolve_at <- s.resolve_at;
      d.seq <- s.seq
    done;
    dst.next <- src.next;
    dst.seq <- src.seq

  let alloc t ~addr ~size ~data ?(old_data = 0) ~resolve_at () =
    let i = t.next in
    t.next <- (if i + 1 = Array.length t.slots then 0 else i + 1);
    t.seq <- t.seq + 1;
    let e = t.slots.(i) in
    e.valid <- true;
    e.addr <- addr;
    e.size <- size;
    e.data <- (if size >= 8 then data else data land ((1 lsl (8 * size)) - 1));
    e.old_data <- old_data;
    e.resolve_at <- resolve_at;
    e.seq <- t.seq;
    i

  (* The slot of the youngest valid entry that matches (the first on a
     tie), or -1: a resolved store covering [addr,size) exactly when
     [resolved], else an unresolved one overlapping it.  A loop over ints:
     a predicate closure and an option per probe would allocate on every
     load. *)
  let youngest t ~resolved ~now ~addr ~size =
    let best = ref (-1) and best_seq = ref 0 in
    for i = 0 to Array.length t.slots - 1 do
      let e = t.slots.(i) in
      if e.valid
         && (if resolved then
               e.resolve_at <= now && e.addr = addr && e.size = size
             else e.resolve_at > now && overlaps e.addr e.size addr size)
         && (!best < 0 || e.seq > !best_seq)
      then begin
        best := i;
        best_seq := e.seq
      end
    done;
    !best

  let pending_alias t ~now ~addr ~size =
    let i = youngest t ~resolved:false ~now ~addr ~size in
    if i < 0 then None else Some (i, t.slots.(i).old_data)

  let forward t ~now ~addr ~size =
    let i = youngest t ~resolved:true ~now ~addr ~size in
    if i < 0 then None else Some (i, t.slots.(i).data)
end

module Ldq = struct
  type entry = { mutable valid : bool; mutable addr : int }

  type t = { slots : entry array; mutable next : int }

  let create ~entries =
    { slots = Array.init entries (fun _ -> { valid = false; addr = 0 });
      next = 0 }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.slots - 1 do
      let s = src.slots.(i) and d = dst.slots.(i) in
      d.valid <- s.valid;
      d.addr <- s.addr
    done;
    dst.next <- src.next

  let alloc t ~addr =
    let i = t.next in
    t.next <- (if i + 1 = Array.length t.slots then 0 else i + 1);
    let e = t.slots.(i) in
    e.valid <- true;
    e.addr <- addr;
    i

  let valid t i = t.slots.(i).valid
end
