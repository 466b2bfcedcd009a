type blob = { name : string; words : int array; is_transient : bool }

type t = {
  all : blob array;
  sched : int array;
  mutable pos : int;  (** index into [sched] of the next blob to load *)
}

(* ebreak padding: any runaway execution inside the swappable region traps
   back into the scheduler instead of running stale bytes. *)
let ebreak_word = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak

let max_words = Layout.swap_size / 4

(* A whole region of ebreak words: a blob's padding is one blit of its
   tail, not a write per word. *)
let padding =
  let b = Bytes.create Layout.swap_size in
  for i = 0 to max_words - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int ebreak_word)
  done;
  b

let create ~blobs ~schedule =
  let all = Array.of_list blobs in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length all then
        invalid_arg "Swapmem.create: schedule index out of range")
    schedule;
  Array.iter
    (fun b ->
      if Array.length b.words > max_words then
        invalid_arg ("Swapmem.create: blob too large: " ^ b.name))
    all;
  { all; sched = Array.of_list schedule; pos = 0 }

let blobs t = Array.to_list t.all
let schedule t = Array.to_list t.sched

let reset t = t.pos <- 0

let current t =
  if t.pos = 0 then None else Some t.all.(t.sched.(t.pos - 1))

let load_next t mem =
  if t.pos >= Array.length t.sched then None
  else begin
    let b = t.all.(t.sched.(t.pos)) in
    t.pos <- t.pos + 1;
    let n = 4 * Array.length b.words in
    Phys_mem.write_words mem Layout.swap_base b.words;
    Phys_mem.blit_bytes mem ~addr:(Layout.swap_base + n) padding ~off:n
      ~len:(Layout.swap_size - n);
    Some b
  end

let remaining t = Array.length t.sched - t.pos

let copy ?pos t = { t with pos = Option.value pos ~default:t.pos }

let position t = t.pos

let with_schedule t schedule =
  create ~blobs:(Array.to_list t.all) ~schedule
