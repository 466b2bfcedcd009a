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
   the coverage matrix is keyed per bank. *)
let dcache_banks = 4
let icache_banks = 2
let tlb_banks = 2

let module_of = function
  | Areg _ -> "core.arf"
  | Sreg _ -> "core.prf"
  | Mem _ -> "mem"
  | Dcache i -> Printf.sprintf "lsu.dcache.bank%d" (i mod dcache_banks)
  | Icache i -> Printf.sprintf "frontend.icache.bank%d" (i mod icache_banks)
  | Lfb _ -> "lsu.lfb"
  | Btb _ -> "frontend.btb"
  | Bht _ -> "frontend.bht"
  | Ras _ -> "frontend.ras"
  | Loop _ -> "frontend.loop"
  | Tlb i -> Printf.sprintf "lsu.tlb.bank%d" (i mod tlb_banks)
  | L2tlb _ -> "lsu.l2tlb"
  | Rob _ -> "rob"
  | Ldq _ -> "lsu.ldq"
  | Stq _ -> "lsu.stq"
  | Pc -> "frontend.pc"

let index = function
  | Areg i | Sreg i | Mem i | Dcache i | Icache i | Lfb i | Btb i | Bht i
  | Ras i | Loop i | Tlb i | L2tlb i | Rob i | Ldq i | Stq i -> i
  | Pc -> 0

let to_string e = Printf.sprintf "%s[%d]" (module_of e) (index e)

let compare = Stdlib.compare
let equal a b = compare a b = 0

let all_modules =
  List.sort compare
    ([ "core.arf"; "core.prf"; "frontend.bht"; "frontend.btb";
       "frontend.loop"; "frontend.pc"; "frontend.ras"; "lsu.l2tlb";
       "lsu.ldq"; "lsu.lfb"; "lsu.stq"; "mem"; "rob" ]
    @ List.init dcache_banks (Printf.sprintf "lsu.dcache.bank%d")
    @ List.init icache_banks (Printf.sprintf "frontend.icache.bank%d")
    @ List.init tlb_banks (Printf.sprintf "lsu.tlb.bank%d"))
