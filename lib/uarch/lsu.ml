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

  type snapshot = { s_slots : entry array; s_next : int; s_seq : int }

  let mk_entry () =
    { valid = false; addr = 0; size = 0; data = 0; old_data = 0;
      resolve_at = 0; seq = 0 }

  let create ~entries =
    { slots = Array.init entries (fun _ -> mk_entry ()); next = 0; seq = 0 }

  let reset t =
    Array.iter
      (fun e ->
        e.valid <- false;
        e.addr <- 0;
        e.size <- 0;
        e.data <- 0;
        e.old_data <- 0;
        e.resolve_at <- 0;
        e.seq <- 0)
      t.slots;
    t.next <- 0;
    t.seq <- 0

  let blit ~src ~dst =
    Array.iteri
      (fun i e ->
        let s = src.slots.(i) in
        e.valid <- s.valid;
        e.addr <- s.addr;
        e.size <- s.size;
        e.data <- s.data;
        e.old_data <- s.old_data;
        e.resolve_at <- s.resolve_at;
        e.seq <- s.seq)
      dst.slots;
    dst.next <- src.next;
    dst.seq <- src.seq

  let alloc t ~addr ~size ~data ?(old_data = 0) ~resolve_at () =
    let i = t.next in
    t.next <- (t.next + 1) mod Array.length t.slots;
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

  let scan t pred =
    let best = ref None in
    Array.iteri
      (fun i e ->
        if e.valid && pred e then
          match !best with
          | Some (_, seq) when seq >= e.seq -> ()
          | _ -> best := Some (i, e.seq))
      t.slots;
    Option.map (fun (i, _) -> (i, t.slots.(i).data)) !best

  let pending_alias t ~now ~addr ~size =
    match
      scan t (fun e -> e.resolve_at > now && overlaps e.addr e.size addr size)
    with
    | Some (i, _) -> Some (i, t.slots.(i).old_data)
    | None -> None

  let forward t ~now ~addr ~size =
    scan t (fun e -> e.resolve_at <= now && e.addr = addr && e.size = size)

  let valid t i = t.slots.(i).valid
  let entries t = Array.length t.slots

  let snapshot t =
    { s_slots = Array.map (fun e -> { e with valid = e.valid }) t.slots;
      s_next = t.next; s_seq = t.seq }

  let restore t s =
    Array.iteri
      (fun i e ->
        let src = s.s_slots.(i) in
        e.valid <- src.valid;
        e.addr <- src.addr;
        e.size <- src.size;
        e.data <- src.data;
        e.old_data <- src.old_data;
        e.resolve_at <- src.resolve_at;
        e.seq <- src.seq)
      t.slots;
    t.next <- s.s_next;
    t.seq <- s.s_seq
end

module Ldq = struct
  type entry = { mutable valid : bool; mutable addr : int }

  type t = { slots : entry array; mutable next : int }

  type snapshot = { s_slots : (bool * int) array; s_next : int }

  let create ~entries =
    { slots = Array.init entries (fun _ -> { valid = false; addr = 0 });
      next = 0 }

  let reset t =
    Array.iter
      (fun e ->
        e.valid <- false;
        e.addr <- 0)
      t.slots;
    t.next <- 0

  let blit ~src ~dst =
    Array.iteri
      (fun i e ->
        let s = src.slots.(i) in
        e.valid <- s.valid;
        e.addr <- s.addr)
      dst.slots;
    dst.next <- src.next

  let alloc t ~addr =
    let i = t.next in
    t.next <- (t.next + 1) mod Array.length t.slots;
    let e = t.slots.(i) in
    e.valid <- true;
    e.addr <- addr;
    i

  let valid t i = t.slots.(i).valid
  let entries t = Array.length t.slots

  let snapshot t =
    { s_slots = Array.map (fun e -> (e.valid, e.addr)) t.slots; s_next = t.next }

  let restore t s =
    Array.iteri
      (fun i (v, a) ->
        t.slots.(i).valid <- v;
        t.slots.(i).addr <- a)
      s.s_slots;
    t.next <- s.s_next
end
