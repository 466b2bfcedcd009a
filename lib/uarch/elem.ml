type t =
  | Areg of int
  | Sreg of int
  | Mem of int
  | Dcache of int
  | Icache of int
  | Lfb of int
  | Btb of int
  | Bht of int
  | Ras of int
  | Loop of int
  | Tlb of int
  | L2tlb of int
  | Rob of int
  | Ldq of int
  | Stq of int
  | Pc

(* Caches and TLBs are banked, mirroring the RTL module hierarchy (BOOM's
   data arrays are physically split into banks/ways, each its own module);
   the coverage matrix is keyed per bank.  Bank counts are powers of two:
   an index's bank is [i land (banks - 1)], which is total (negative and
   out-of-array indices included) and equals [i mod banks] on every index
   the core produces. *)
let dcache_banks = 4
let icache_banks = 2
let tlb_banks = 2

(* Module tag and bank count of each constructor, in declaration order. *)
let kinds =
  [| ("core.arf", 1); ("core.prf", 1); ("mem", 1);
     ("lsu.dcache", dcache_banks); ("frontend.icache", icache_banks);
     ("lsu.lfb", 1); ("frontend.btb", 1); ("frontend.bht", 1);
     ("frontend.ras", 1); ("frontend.loop", 1); ("lsu.tlb", tlb_banks);
     ("lsu.l2tlb", 1); ("rob", 1); ("lsu.ldq", 1); ("lsu.stq", 1);
     ("frontend.pc", 1) |]

let kind = function
  | Areg _ -> 0
  | Sreg _ -> 1
  | Mem _ -> 2
  | Dcache _ -> 3
  | Icache _ -> 4
  | Lfb _ -> 5
  | Btb _ -> 6
  | Bht _ -> 7
  | Ras _ -> 8
  | Loop _ -> 9
  | Tlb _ -> 10
  | L2tlb _ -> 11
  | Rob _ -> 12
  | Ldq _ -> 13
  | Stq _ -> 14
  | Pc -> 15

let index = function
  | Areg i | Sreg i | Mem i | Dcache i | Icache i | Lfb i | Btb i | Bht i
  | Ras i | Loop i | Tlb i | L2tlb i | Rob i | Ldq i | Stq i -> i
  | Pc -> 0

let tags (tag, banks) =
  if banks = 1 then [ tag ]
  else List.init banks (Printf.sprintf "%s.bank%d" tag)

let names =
  Array.of_list
    (List.sort compare (List.concat_map tags (Array.to_list kinds)))

let all_modules = Array.to_list names

(* Per constructor, the position in [names] of each bank's tag. *)
let positions =
  let position tag =
    let rec go i = if names.(i) = tag then i else go (i + 1) in
    go 0
  in
  Array.map (fun k -> Array.of_list (List.map position (tags k))) kinds

let module_index e =
  let banks = positions.(kind e) in
  banks.(index e land (Array.length banks - 1))

let module_of e = names.(module_index e)

let to_string e = Printf.sprintf "%s[%d]" (module_of e) (index e)

let compare = Stdlib.compare
let equal a b = compare a b = 0
