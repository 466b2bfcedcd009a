open Dvz_isa

(* [dirty] has bit [p] set for every page [p] a writer may have touched
   since [create]; a clean page holds only zero bytes, so [blit] copies
   the dirty pages alone.  Every writer of [data] marks the pages it
   touches before it returns.

   The read watch: a bitmap over the swappable region's words (bit [i]
   is the word at [Layout.swap_base + 4 * i]).  While [watching], any
   read overlapping a set word latches [watch_hit]. *)
type t = {
  data : Bytes.t;
  perms : Perm.t array;
  mutable dirty : int;
  mutable watch : Bytes.t;
  mutable watching : bool;
  mutable watch_hit : bool;
}

let no_watch = Bytes.empty

let pages = Layout.mem_size / Layout.page_size

let page_of addr = addr / Layout.page_size

(* Mark the pages of the in-range part of [[addr, addr + size)]. *)
let mark t ~addr ~size =
  let lo = Int.max addr 0 and hi = Int.min (addr + size) Layout.mem_size in
  if lo < hi then
    t.dirty <- t.dirty lor ((1 lsl (page_of (hi - 1) + 1)) - (1 lsl page_of lo))

let create () =
  { data = Bytes.make Layout.mem_size '\000';
    perms = Array.make pages Perm.rwx; dirty = 0;
    watch = no_watch; watching = false; watch_hit = false }

let unwatch t =
  t.watch <- no_watch;
  t.watching <- false;
  t.watch_hit <- false

let copy t =
  { data = Bytes.copy t.data; perms = Array.copy t.perms; dirty = t.dirty;
    watch = no_watch; watching = false; watch_hit = false }

(* A page clean on both sides is zero on both; one dirty on either side
   is copied (zeros, when it is [src] that is clean). *)
let blit ~src ~dst =
  let copied = src.dirty lor dst.dirty in
  for p = 0 to pages - 1 do
    if copied land (1 lsl p) <> 0 then
      Bytes.blit src.data (p * Layout.page_size) dst.data
        (p * Layout.page_size) Layout.page_size
  done;
  dst.dirty <- src.dirty;
  Array.blit src.perms 0 dst.perms 0 pages;
  unwatch dst

let watch_words = Layout.swap_size / 4

let watch_bitmap words =
  let b = Bytes.make (watch_words / 8) '\000' in
  List.iter
    (fun i ->
      if i < 0 || i >= watch_words then
        invalid_arg "Phys_mem.watch_bitmap: word index out of range";
      let byte = Char.code (Bytes.get b (i lsr 3)) in
      Bytes.set b (i lsr 3) (Char.unsafe_chr (byte lor (1 lsl (i land 7)))))
    words;
  b

let set_watch t bitmap =
  if Bytes.length bitmap <> watch_words / 8 then
    invalid_arg "Phys_mem.set_watch: not a swap-region bitmap";
  t.watch <- bitmap;
  t.watching <- false;
  t.watch_hit <- false

let arm_watch t = if t.watch != no_watch then t.watching <- true

let watch_hit t = t.watch_hit

let rec any_watched t w last =
  w <= last
  && (Char.code (Bytes.get t.watch (w lsr 3)) land (1 lsl (w land 7)) <> 0
     || any_watched t (w + 1) last)

let overlaps_watch t ~addr ~size =
  let lo = max addr Layout.swap_base
  and hi = min (addr + size) (Layout.swap_base + Layout.swap_size) in
  lo < hi
  && any_watched t ((lo - Layout.swap_base) / 4) ((hi - 1 - Layout.swap_base) / 4)

let watched t ~addr ~size = t.watching && overlaps_watch t ~addr ~size

let in_range t addr = addr >= 0 && addr < Bytes.length t.data

let set_perm t addr p =
  if not (in_range t addr) then invalid_arg "Phys_mem.set_perm: out of range";
  t.perms.(page_of addr) <- p

let read_byte t addr =
  if in_range t addr then Char.code (Bytes.get t.data addr) else 0

let write_byte t addr v =
  if in_range t addr then begin
    t.dirty <- t.dirty lor (1 lsl page_of addr);
    Bytes.set t.data addr (Char.chr (v land 0xFF))
  end

(* The byte loops below are the semantic reference: out-of-range bytes
   read as zero / drop silently, and int values are (de)composed through
   their low [8*size] bits — for [size = 8] that means the 63-bit native
   int pattern with bit 63 masked off.  The word-sized fast paths must
   reproduce those bit patterns exactly (simulated memory feeds
   [Core.state_hash] and the checkpoint stream, both byte-identity
   sensitive), hence the [land] masks around the [Bytes] primitives. *)

let read_slow t ~addr ~size =
  let rec go i acc =
    if i = size then acc else go (i + 1) (acc lor (read_byte t (addr + i) lsl (8 * i)))
  in
  go 0 0

let read t ~addr ~size =
  if watched t ~addr ~size then t.watch_hit <- true;
  if addr >= 0 && size > 0 && addr + size <= Bytes.length t.data then
    match size with
    | 8 -> Int64.to_int (Bytes.get_int64_le t.data addr)
    | 4 -> Int32.to_int (Bytes.get_int32_le t.data addr) land 0xFFFFFFFF
    | 2 -> Bytes.get_uint16_le t.data addr
    | 1 -> Bytes.get_uint8 t.data addr
    | _ -> read_slow t ~addr ~size
  else read_slow t ~addr ~size

let write_slow t ~addr ~size v =
  for i = 0 to size - 1 do
    write_byte t (addr + i) ((v lsr (8 * i)) land 0xFF)
  done

let write t ~addr ~size v =
  if addr >= 0 && size > 0 && addr + size <= Bytes.length t.data then begin
    (* the first and last byte's pages: all of them for sizes up to a
       page, and [write_slow]'s bytes mark their own *)
    t.dirty <-
      t.dirty lor (1 lsl page_of addr) lor (1 lsl page_of (addr + size - 1));
    match size with
    | 8 ->
        (* byte 7's top bit is always written as 0: [v lsr 56] of a 63-bit
           int has no bit 7 *)
        Bytes.set_int64_le t.data addr
          (Int64.logand (Int64.of_int v) Int64.max_int)
    | 4 -> Bytes.set_int32_le t.data addr (Int32.of_int v)
    | 2 -> Bytes.set_uint16_le t.data addr (v land 0xFFFF)
    | 1 -> Bytes.set_uint8 t.data addr (v land 0xFF)
    | _ -> write_slow t ~addr ~size v
  end
  else write_slow t ~addr ~size v

let write_words t addr ws =
  mark t ~addr ~size:(4 * Array.length ws);
  for i = 0 to Array.length ws - 1 do
    let a = addr + (4 * i) in
    if a >= 0 && a + 4 <= Bytes.length t.data then
      Bytes.set_int32_le t.data a (Int32.of_int ws.(i))
    else write_slow t ~addr:a ~size:4 ws.(i)
  done

let blit_bytes t ~addr src ~off ~len =
  Bytes.blit src off t.data addr len;
  mark t ~addr ~size:len

let check t ~priv ~addr ~size ~(kind : [ `Load | `Store | `Fetch ]) =
  let fault =
    match kind with
    | `Load -> Trap.Load_access_fault
    | `Store -> Trap.Store_access_fault
    | `Fetch -> Trap.Fetch_access_fault
  in
  let page_fault =
    match kind with
    | `Load -> Trap.Load_page_fault
    | `Store -> Trap.Store_page_fault
    | `Fetch -> Trap.Fetch_access_fault
  in
  if not (in_range t addr && in_range t (addr + size - 1)) then Error fault
  else
    let p = t.perms.(page_of addr) in
    if not p.Perm.present then Error page_fault
    else if priv = Golden.User && not p.Perm.user then
      (* Non-present pages fault above; a privilege violation is a fault of
         the access kind, as with PMP on the modelled cores. *)
      Error fault
    else
      let allowed =
        match kind with
        | `Load -> p.Perm.read
        | `Store -> p.Perm.write
        | `Fetch -> p.Perm.exec
      in
      if allowed then Ok () else Error fault

let checked_load t ~priv ~addr ~size =
  match check t ~priv ~addr ~size ~kind:`Load with
  | Error e -> Error e
  | Ok () -> Ok (read t ~addr ~size)

let checked_store t ~priv ~addr ~size ~value =
  match check t ~priv ~addr ~size ~kind:`Store with
  | Error e -> Error e
  | Ok () ->
      write t ~addr ~size value;
      Ok ()

let fetchable t ~priv ~addr =
  match check t ~priv ~addr ~size:4 ~kind:`Fetch with
  | Ok () -> true
  | Error _ -> false

let checked_fetch t ~priv ~addr =
  match check t ~priv ~addr ~size:4 ~kind:`Fetch with
  | Error e -> Error e
  | Ok () -> Ok (read t ~addr ~size:4)

let golden_memory t =
  { Golden.load = (fun ~priv ~addr ~size -> checked_load t ~priv ~addr ~size);
    Golden.store =
      (fun ~priv ~addr ~size ~value -> checked_store t ~priv ~addr ~size ~value);
    Golden.fetch = (fun ~priv ~addr -> checked_fetch t ~priv ~addr) }
