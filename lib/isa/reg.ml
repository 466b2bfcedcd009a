type t = int

let x n =
  if n < 0 || n > 31 then invalid_arg "Reg.x: out of range";
  n

let to_int r = r

let zero = 0
let ra = 1
let sp = 2
let t0 = 5
let t1 = 6
let t2 = 7
let s0 = 8
let s1 = 9
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13

let abi_names =
  [| "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0";
     "a1"; "a2"; "a3"; "a4"; "a5"; "a6"; "a7" |]

let name r = if r < Array.length abi_names then abi_names.(r) else "x" ^ string_of_int r

let equal = Int.equal
