module Bht = struct
  type t = { counters : int array }

  let create ~entries = { counters = Array.make entries 1 }

  (* The int and bool tables below are copied by typed loops: on a pooled
     (major-heap) core [Array.blit] runs the write barrier on every
     element.  The two largest, these counters and the MDP's bits, are
     read into locals and indexed without bounds checks, the lengths
     checked once. *)
  let blit ~src ~dst =
    let s = src.counters and d = dst.counters in
    if Array.length s <> Array.length d then invalid_arg "Bht.blit: geometry";
    for i = 0 to Array.length d - 1 do
      Array.unsafe_set d i (Array.unsafe_get s i)
    done

  let index t ~pc = (pc lsr 2) land (Array.length t.counters - 1)

  let predict_taken t ~pc = t.counters.(index t ~pc) >= 2

  let update t ~pc ~taken =
    let i = index t ~pc in
    let c = t.counters.(i) in
    t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
    i

  let counter t i = t.counters.(i)
end

module Btb = struct
  type entry = {
    mutable valid : bool;
    mutable tag : int;
    mutable word : int;  (** encoding of the installing instruction *)
    mutable target : int;
  }

  type t = { entries : entry array; tagged : bool }

  let create ?(tagged = true) ~entries () =
    { entries =
        Array.init entries (fun _ ->
            { valid = false; tag = 0; word = 0; target = 0 });
      tagged }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.entries - 1 do
      let s = src.entries.(i) and d = dst.entries.(i) in
      d.valid <- s.valid;
      d.tag <- s.tag;
      d.word <- s.word;
      d.target <- s.target
    done

  let index t ~pc = (pc lsr 2) land (Array.length t.entries - 1)

  let lookup ?(word = 0) t ~pc =
    let e = t.entries.(index t ~pc) in
    (* A tagged BTB (XiangShan) only serves predictions to the exact static
       instruction that installed the entry; an untagged one (BOOM) predicts
       on index aliasing alone. *)
    if e.valid && ((not t.tagged) || (e.tag = pc && e.word = word)) then
      Some e.target
    else None

  let update ?(word = 0) t ~pc ~target =
    let i = index t ~pc in
    let e = t.entries.(i) in
    e.valid <- true;
    e.tag <- pc;
    e.word <- word;
    e.target <- target;
    i

  let valid t i = t.entries.(i).valid
  let target_of t i = t.entries.(i).target
end

module Ras = struct
  type t = { stack : int array; mutable tos : int; mutable depth : int }

  let create ~entries = { stack = Array.make entries 0; tos = 0; depth = 0 }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.stack - 1 do
      dst.stack.(i) <- src.stack.(i)
    done;
    dst.tos <- src.tos;
    dst.depth <- src.depth

  let size t = Array.length t.stack

  let push t addr =
    t.tos <- (t.tos + 1) mod size t;
    t.stack.(t.tos) <- addr;
    t.depth <- Int.min (size t) (t.depth + 1);
    t.tos

  let pop t =
    if t.depth = 0 then None
    else begin
      let slot = t.tos in
      let addr = t.stack.(slot) in
      t.tos <- (t.tos + size t - 1) mod size t;
      t.depth <- t.depth - 1;
      Some (addr, slot)
    end

  let peek t = if t.depth = 0 then None else Some t.stack.(t.tos)

  let depth t = t.depth
  let tos t = t.tos
  let entry t i = t.stack.(i)

  let restore_top_only ~src ~dst =
    dst.tos <- src.tos;
    dst.depth <- src.depth;
    (* Only the entry at the restored TOS is repaired (BOOM's mitigation);
       entries below keep transiently written values — bug B2. *)
    dst.stack.(src.tos) <- src.stack.(src.tos)

  let live t i =
    if t.depth = 0 then false
    else
      let n = size t in
      let dist = (t.tos - i + n) mod n in
      dist < t.depth
end

module Loop = struct
  type entry = { mutable valid : bool; mutable tag : int; mutable streak : int }

  type t = { entries : entry array }

  let create ~entries =
    { entries = Array.init entries (fun _ -> { valid = false; tag = 0; streak = 0 }) }

  let blit ~src ~dst =
    for i = 0 to Array.length dst.entries - 1 do
      let s = src.entries.(i) and d = dst.entries.(i) in
      d.valid <- s.valid;
      d.tag <- s.tag;
      d.streak <- s.streak
    done

  let enabled t = Array.length t.entries > 0

  let index t ~pc =
    if enabled t then Some ((pc lsr 2) land (Array.length t.entries - 1))
    else None

  let update t ~pc ~taken =
    match index t ~pc with
    | None -> None
    | Some i ->
        let e = t.entries.(i) in
        if e.valid && e.tag = pc then
          if taken then e.streak <- e.streak + 1 else e.streak <- 0
        else begin
          e.valid <- true;
          e.tag <- pc;
          e.streak <- (if taken then 1 else 0)
        end;
        Some i

  let valid t i = t.entries.(i).valid
  let streak t i = t.entries.(i).streak
end

module Mdp = struct
  type t = { alias : bool array }

  let create ~entries = { alias = Array.make entries false }

  let blit ~src ~dst =
    let s = src.alias and d = dst.alias in
    if Array.length s <> Array.length d then invalid_arg "Mdp.blit: geometry";
    for i = 0 to Array.length d - 1 do
      Array.unsafe_set d i (Array.unsafe_get s i)
    done

  let index t ~pc = (pc lsr 2) land (Array.length t.alias - 1)

  let predicts_alias t ~pc = t.alias.(index t ~pc)

  let train_alias t ~pc =
    let i = index t ~pc in
    t.alias.(i) <- true;
    i
end
