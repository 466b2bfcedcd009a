module Rng = Dvz_util.Rng
module Profile = Dvz_obs.Profile

type entry = {
  en_birth : int;
  en_reward : int;
  en_testcase : Packet.testcase;
}

(* [items] is kept sorted by [en_birth] ascending — the canonical order
   used by [entries] (checkpoint bytes) and by index-based alias tables,
   so every derived structure is a pure function of the entry set. *)
type t = {
  cap : int;
  mutable items : entry array;
  mutable alias : (float array * int array) option;
}

let create ~cap =
  if cap < 1 then invalid_arg "Corpus.create: cap must be at least 1";
  { cap; items = [||]; alias = None }

let size t = Array.length t.items
let is_empty t = Array.length t.items = 0
let entries t = Array.to_list t.items

let weight e = 1 + max 0 e.en_reward

let by_birth a b = compare a.en_birth b.en_birth

(* Eviction keeps the [cap] entries with the highest reward, breaking
   ties toward the youngest.  Births are unique, so the priority order is
   total and the surviving set does not depend on sort stability or on
   the order entries were admitted. *)
let by_priority a b =
  match compare b.en_reward a.en_reward with
  | 0 -> compare b.en_birth a.en_birth
  | c -> c

let keep_best cap arr =
  if Array.length arr <= cap then arr
  else begin
    let pr = Array.copy arr in
    Array.sort by_priority pr;
    let kept = Array.sub pr 0 cap in
    Array.sort by_birth kept;
    kept
  end

let admit t ~birth ~reward tc =
  let e = { en_birth = birth; en_reward = reward; en_testcase = tc } in
  let arr = Array.append t.items [| e |] in
  Array.sort by_birth arr;
  t.items <- keep_best t.cap arr;
  t.alias <- None

let replace_all t ~birth tc =
  t.items <- [| { en_birth = birth; en_reward = 0; en_testcase = tc } |];
  t.alias <- None

let snapshot t = { cap = t.cap; items = Array.copy t.items; alias = None }

let of_entries ~cap es =
  if cap < 1 then invalid_arg "Corpus.of_entries: cap must be at least 1";
  let arr = Array.of_list es in
  Array.sort by_birth arr;
  { cap; items = keep_best cap arr; alias = None }

(* Vose's alias method: O(n) table build (cached until the next
   mutation), O(1) per draw.  The build walks the small/large worklists
   in ascending index order, so the table — and thus every RNG-driven
   choice — is a deterministic function of the entry set. *)
let alias_table t =
  match t.alias with
  | Some tab -> tab
  | None ->
      let items = t.items in
      let n = Array.length items in
      let total = Array.fold_left (fun acc e -> acc + weight e) 0 items in
      let scaled =
        Array.map
          (fun e -> float_of_int (weight e * n) /. float_of_int total)
          items
      in
      let prob = Array.make n 1.0 in
      let alias = Array.init n (fun i -> i) in
      let small = ref [] and large = ref [] in
      for i = n - 1 downto 0 do
        if scaled.(i) < 1.0 then small := i :: !small
        else large := i :: !large
      done;
      let rec go sm lg =
        match (sm, lg) with
        | s :: sm', l :: lg' ->
            prob.(s) <- scaled.(s);
            alias.(s) <- l;
            let r = scaled.(l) -. (1.0 -. scaled.(s)) in
            scaled.(l) <- r;
            if r < 1.0 then go (l :: sm') lg' else go sm' (l :: lg')
        | s :: sm', [] ->
            prob.(s) <- 1.0;
            go sm' []
        | [], l :: lg' ->
            prob.(l) <- 1.0;
            go [] lg'
        | [], [] -> ()
      in
      go !small !large;
      let tab = (prob, alias) in
      t.alias <- Some tab;
      tab

let choose_impl t rng =
  let n = Array.length t.items in
  if n = 0 then invalid_arg "Corpus.choose: corpus is empty";
  let prob, alias = alias_table t in
  (* Always two draws — a column pick plus a coin — so the child RNG
     stream consumed per choice is independent of the weight profile. *)
  let i = Rng.int rng n in
  let j = if Rng.float rng 1.0 < prob.(i) then i else alias.(i) in
  t.items.(j).en_testcase

let choose t rng =
  if Profile.armed () then
    Profile.wrap "corpus/choose" (fun () -> choose_impl t rng)
  else choose_impl t rng
