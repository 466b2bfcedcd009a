type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let state t = t.state
let of_state s = { state = s }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = next64 t in
  { state = s }

(* Mask to 62 bits so the result is a non-negative OCaml [int]. *)
let next t = Int64.to_int (Int64.logand (next64 t) 0x3FFFFFFFFFFFFFFFL)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  next t mod n

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let float t x =
  let u = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  x *. (u /. 9007199254740992.0)

let chance t p = float t 1.0 < p

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ -> List.nth l (int t (List.length l))
