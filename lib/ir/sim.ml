module N = Netlist

type engine = [ `Interp | `Compiled ]

(* --- compiled evaluation program -----------------------------------------

   The interpretive walker re-dispatched on [Netlist.cell_of], re-looked-up
   widths, and hit a memory Hashtbl on every cell of every cycle.  The
   compiled engine lowers the topo order once, at [create], into parallel
   int arrays: an opcode stream with pre-resolved operand indices and a
   precomputed result mask per cell.  The steady-state cycle then touches
   only int arrays — no variant dispatch, no width lookups, no allocation.

   Opcode encoding (kept in sync with [exec_prog]'s match):
     0 Not    a                      7 Lt     a b
     1 And    a b                    8 Shl    a, b = shift amount
     2 Or     a b                    9 Shr    a, b = shift amount (and Slice)
     3 Xor    a b                   10 Concat a = hi, c = lo, b = lo width
     4 Add    a b                   11 Mux    a = sel, b = sel=0 arm, c = other
     5 Sub    a b                   12 Mem_read a = addr, arr = backing store
     6 Eq     a b *)

type prog = {
  p_op : int array;
  p_dst : int array;
  p_a : int array;
  p_b : int array;
  p_c : int array;
  p_mask : int array;
  p_arr : int array array;  (* Mem_read backing store; shared [||] elsewhere *)
}

(* Register-latch plan: parallel arrays of q/d/en indices resolved once.
   [l_next] stages the new values so register-to-register feedback (e.g. a
   swap) latches atomically, exactly like the interpretive two-phase step.

   Staging is only needed for registers whose D or enable is itself another
   register's Q: combinational values never change during [step], so a
   register fed purely by combinational signals can be written in place.
   [compile_latch] orders such "direct" registers first and records the
   split point in [l_direct]; [step_compiled] stages only the [l_direct ..]
   tail (reading old Q values before anything is overwritten), then write
   the direct prefix in place, then write the staged tail back. *)
type latch_plan = {
  l_q : int array;
  l_d : int array;
  l_en : int array;   (* enable signal index, or -1 for always-enabled *)
  l_direct : int;     (* first l_direct entries have no reg-to-reg feedback *)
  l_next : int array;
}

(* Memory-commit plan: one entry per write port, in declaration order
   (later-declared ports win on address conflicts, as before), with the
   backing [int array] resolved once instead of a Hashtbl find per cycle. *)
type commit_plan = {
  c_wen : int array;
  c_addr : int array;
  c_data : int array;
  c_mask : int array;
  c_arr : int array array;
}

type t = {
  nl : N.t;
  engine : engine;
  values : int array;
  mem_data : (string, int array) Hashtbl.t;
  order : N.signal array;
  prog : prog;
  latch : latch_plan;
  commit : commit_plan;
  mutable ticks : int;
  mutable hooks_rev : (int -> unit) list;
  mutable hook_arr : (int -> unit) array;
}

let mem_key m = N.mem_name m

let no_arr : int array = [||]

let compile_prog nl (order : N.signal array) mem_arr =
  let n = Array.length order in
  let p =
    { p_op = Array.make n 0;
      p_dst = Array.make n 0;
      p_a = Array.make n 0;
      p_b = Array.make n 0;
      p_c = Array.make n 0;
      p_mask = Array.make n 0;
      p_arr = Array.make n no_arr }
  in
  Array.iteri
    (fun i (s : N.signal) ->
      let set op a b c =
        p.p_op.(i) <- op;
        p.p_a.(i) <- a;
        p.p_b.(i) <- b;
        p.p_c.(i) <- c
      in
      p.p_dst.(i) <- (s :> int);
      p.p_mask.(i) <- Bits.mask (N.width_of nl s);
      match N.cell_of nl s with
      | N.Input | N.Const _ | N.Reg _ ->
          (* never in the combinational topo order *)
          assert false
      | N.Not a -> set 0 (a :> int) 0 0
      | N.And (a, b) -> set 1 (a :> int) (b :> int) 0
      | N.Or (a, b) -> set 2 (a :> int) (b :> int) 0
      | N.Xor (a, b) -> set 3 (a :> int) (b :> int) 0
      | N.Add (a, b) -> set 4 (a :> int) (b :> int) 0
      | N.Sub (a, b) -> set 5 (a :> int) (b :> int) 0
      | N.Eq (a, b) -> set 6 (a :> int) (b :> int) 0
      | N.Lt (a, b) -> set 7 (a :> int) (b :> int) 0
      | N.Shl (a, k) -> set 8 (a :> int) k 0
      | N.Shr (a, k) | N.Slice (a, k) -> set 9 (a :> int) k 0
      | N.Concat (hi, lo) ->
          set 10 (hi :> int) (N.width_of nl lo) (lo :> int)
      | N.Mux (sel, a, b) -> set 11 (sel :> int) (a :> int) (b :> int)
      | N.Mem_read (m, addr) ->
          set 12 (addr :> int) 0 0;
          p.p_arr.(i) <- mem_arr m)
    order;
  p

let compile_latch nl =
  let regs =
    List.filter_map
      (fun q ->
        match N.cell_of nl q with
        | N.Reg { N.d = Some d; en; _ } ->
            Some
              ( (q :> int),
                (d :> int),
                match en with None -> -1 | Some e -> (e :> int) )
        | _ -> None)
      (N.registers nl)
  in
  let is_reg i =
    match N.cell_of nl (N.signal_of_int nl i) with
    | N.Reg _ -> true
    | _ -> false
  in
  let direct, staged =
    List.partition
      (fun (_, d, en) -> not (is_reg d || (en >= 0 && is_reg en)))
      regs
  in
  let regs = direct @ staged in
  let n = List.length regs in
  let l =
    { l_q = Array.make n 0;
      l_d = Array.make n 0;
      l_en = Array.make n (-1);
      l_direct = List.length direct;
      l_next = Array.make n 0 }
  in
  List.iteri
    (fun i (q, d, en) ->
      l.l_q.(i) <- q;
      l.l_d.(i) <- d;
      l.l_en.(i) <- en)
    regs;
  l

let compile_commit nl mem_arr =
  let ports =
    List.concat_map
      (fun m ->
        List.map
          (fun ((wen : N.signal), (addr : N.signal), (data : N.signal)) ->
            ((wen :> int), (addr :> int), (data :> int),
             Bits.mask (N.mem_width m), mem_arr m))
          (N.mem_writes m))
      (N.mems nl)
  in
  let n = List.length ports in
  let c =
    { c_wen = Array.make n 0;
      c_addr = Array.make n 0;
      c_data = Array.make n 0;
      c_mask = Array.make n 0;
      c_arr = Array.make n no_arr }
  in
  List.iteri
    (fun i (wen, addr, data, mask, arr) ->
      c.c_wen.(i) <- wen;
      c.c_addr.(i) <- addr;
      c.c_data.(i) <- data;
      c.c_mask.(i) <- mask;
      c.c_arr.(i) <- arr)
    ports;
  c

let create ?(engine : engine = `Compiled) nl =
  N.validate nl;
  let order = N.topo_order nl in
  List.iter
    (fun q ->
      match N.cell_of nl q with
      | N.Reg { d = None; _ } ->
          failwith ("Sim.create: unconnected register " ^ N.name_of nl q)
      | _ -> ())
    (N.registers nl);
  let values = Array.make (N.num_signals nl) 0 in
  (* Registers start at their init value; constants are fixed. *)
  for i = 0 to N.num_signals nl - 1 do
    let s = N.signal_of_int nl i in
    match N.cell_of nl s with
    | N.Reg r -> values.(i) <- r.N.init
    | N.Const v -> values.(i) <- v
    | _ -> ()
  done;
  let mem_data = Hashtbl.create 8 in
  List.iter
    (fun m -> Hashtbl.replace mem_data (mem_key m) (Array.make (N.mem_depth m) 0))
    (N.mems nl);
  let mem_arr m = Hashtbl.find mem_data (mem_key m) in
  { nl; engine; values; mem_data; order;
    prog = compile_prog nl order mem_arr;
    latch = compile_latch nl;
    commit = compile_commit nl mem_arr;
    ticks = 0; hooks_rev = []; hook_arr = [||] }

let engine t = t.engine

(* A coarse classification used only to make misuse errors self-explaining. *)
let cell_kind = function
  | N.Input -> "an input"
  | N.Const _ -> "a constant"
  | N.Reg _ -> "a register"
  | N.Mem_read _ -> "a memory read port"
  | _ -> "a combinational cell"

let set_input t s v =
  match N.cell_of t.nl s with
  | N.Input -> t.values.((s :> int)) <- Bits.trunc (N.width_of t.nl s) v
  | c ->
      invalid_arg
        (Printf.sprintf "Sim.set_input: signal %s is not an input (it is %s)"
           (N.name_of t.nl s) (cell_kind c))

let peek t (s : N.signal) = t.values.((s :> int))

let mem_array t m = Hashtbl.find t.mem_data (mem_key m)

let peek_mem t m i = (mem_array t m).(i)

let poke_reg t s v =
  match N.cell_of t.nl s with
  | N.Reg _ -> t.values.((s :> int)) <- Bits.trunc (N.width_of t.nl s) v
  | c ->
      invalid_arg
        (Printf.sprintf "Sim.poke_reg: signal %s is not a register (it is %s)"
           (N.name_of t.nl s) (cell_kind c))

(* --- interpretive engine (reference semantics) ------------------------- *)

let eval_cell t s =
  let v = t.values in
  let w = N.width_of t.nl s in
  let r =
    match N.cell_of t.nl s with
    | N.Input | N.Const _ | N.Reg _ -> v.((s :> int))
    | N.Not a -> lnot v.((a :> int))
    | N.And (a, b) -> v.((a :> int)) land v.((b :> int))
    | N.Or (a, b) -> v.((a :> int)) lor v.((b :> int))
    | N.Xor (a, b) -> v.((a :> int)) lxor v.((b :> int))
    | N.Mux (s', a, b) ->
        (* Selector truthiness is [<> 0], not [= 1]: a (rejected) multi-bit
           selector holding 2 must not silently pick the sel=0 arm. *)
        if v.((s' :> int)) <> 0 then v.((b :> int)) else v.((a :> int))
    | N.Eq (a, b) -> if v.((a :> int)) = v.((b :> int)) then 1 else 0
    | N.Lt (a, b) -> if v.((a :> int)) < v.((b :> int)) then 1 else 0
    | N.Add (a, b) -> v.((a :> int)) + v.((b :> int))
    | N.Sub (a, b) -> v.((a :> int)) - v.((b :> int))
    | N.Shl (a, n) -> v.((a :> int)) lsl n
    | N.Shr (a, n) -> v.((a :> int)) lsr n
    | N.Slice (a, lo) -> v.((a :> int)) lsr lo
    | N.Concat (hi, lo) ->
        let wlo = N.width_of t.nl lo in
        (v.((hi :> int)) lsl wlo) lor v.((lo :> int))
    | N.Mem_read (m, addr) ->
        let arr = mem_array t m in
        let a = v.((addr :> int)) in
        if a < Array.length arr then arr.(a) else 0
  in
  v.((s :> int)) <- Bits.trunc w r

let eval_interp t = Array.iter (fun s -> eval_cell t s) t.order

let step_interp t =
  (* Latch all registers from their (already evaluated) D inputs. *)
  let next =
    List.filter_map
      (fun q ->
        match N.cell_of t.nl q with
        | N.Reg { d = Some d; en; _ } ->
            let enabled =
              match en with None -> true | Some e -> t.values.((e :> int)) <> 0
            in
            if enabled then Some (q, t.values.((d :> int))) else None
        | _ -> None)
      (N.registers t.nl)
  in
  List.iter (fun ((q : N.signal), v) -> t.values.((q :> int)) <- v) next;
  (* Commit memory writes; later-declared ports win on address conflicts. *)
  List.iter
    (fun m ->
      let arr = mem_array t m in
      List.iter
        (fun ((wen : N.signal), (addr : N.signal), (data : N.signal)) ->
          if t.values.((wen :> int)) <> 0 then begin
            let a = t.values.((addr :> int)) in
            if a < Array.length arr then
              arr.(a) <- Bits.trunc (N.mem_width m) t.values.((data :> int))
          end)
        (N.mem_writes m))
    (N.mems t.nl)

(* --- compiled engine ---------------------------------------------------- *)

let exec_prog p v =
  let n = Array.length p.p_op in
  for i = 0 to n - 1 do
    let a = Array.unsafe_get p.p_a i in
    let b = Array.unsafe_get p.p_b i in
    let r =
      match Array.unsafe_get p.p_op i with
      | 0 -> lnot (Array.unsafe_get v a)
      | 1 -> Array.unsafe_get v a land Array.unsafe_get v b
      | 2 -> Array.unsafe_get v a lor Array.unsafe_get v b
      | 3 -> Array.unsafe_get v a lxor Array.unsafe_get v b
      | 4 -> Array.unsafe_get v a + Array.unsafe_get v b
      | 5 -> Array.unsafe_get v a - Array.unsafe_get v b
      | 6 -> if Array.unsafe_get v a = Array.unsafe_get v b then 1 else 0
      | 7 -> if Array.unsafe_get v a < Array.unsafe_get v b then 1 else 0
      | 8 -> Array.unsafe_get v a lsl b
      | 9 -> Array.unsafe_get v a lsr b
      | 10 ->
          (Array.unsafe_get v a lsl b)
          lor Array.unsafe_get v (Array.unsafe_get p.p_c i)
      | 11 ->
          if Array.unsafe_get v a <> 0 then
            Array.unsafe_get v (Array.unsafe_get p.p_c i)
          else Array.unsafe_get v b
      | _ ->
          let arr = Array.unsafe_get p.p_arr i in
          let ad = Array.unsafe_get v a in
          if ad < Array.length arr then Array.unsafe_get arr ad else 0
    in
    Array.unsafe_set v
      (Array.unsafe_get p.p_dst i)
      (r land Array.unsafe_get p.p_mask i)
  done

let step_compiled t =
  let v = t.values in
  let l = t.latch in
  let n = Array.length l.l_q in
  (* stage the reg-to-reg tail first, while every Q is still old *)
  for i = l.l_direct to n - 1 do
    let en = Array.unsafe_get l.l_en i in
    let src =
      if en < 0 || Array.unsafe_get v en <> 0 then Array.unsafe_get l.l_d i
      else Array.unsafe_get l.l_q i
    in
    Array.unsafe_set l.l_next i (Array.unsafe_get v src)
  done;
  (* direct registers read only combinational signals: write in place *)
  for i = 0 to l.l_direct - 1 do
    let en = Array.unsafe_get l.l_en i in
    if en < 0 || Array.unsafe_get v en <> 0 then
      Array.unsafe_set v
        (Array.unsafe_get l.l_q i)
        (Array.unsafe_get v (Array.unsafe_get l.l_d i))
  done;
  for i = l.l_direct to n - 1 do
    Array.unsafe_set v (Array.unsafe_get l.l_q i) (Array.unsafe_get l.l_next i)
  done;
  let c = t.commit in
  let m = Array.length c.c_wen in
  for i = 0 to m - 1 do
    if Array.unsafe_get v (Array.unsafe_get c.c_wen i) <> 0 then begin
      let arr = Array.unsafe_get c.c_arr i in
      let a = Array.unsafe_get v (Array.unsafe_get c.c_addr i) in
      if a < Array.length arr then
        Array.unsafe_set arr a
          (Array.unsafe_get v (Array.unsafe_get c.c_data i)
          land Array.unsafe_get c.c_mask i)
    end
  done

let eval_impl t =
  match t.engine with
  | `Compiled -> exec_prog t.prog t.values
  | `Interp -> eval_interp t

(* Armed-guarded: the disarmed compiled cycle must stay allocation-free
   (Gc.minor_words gate in test_ir), so the closure only exists on the
   armed branch. *)
let eval t =
  if Dvz_obs.Profile.armed () then
    Dvz_obs.Profile.wrap "sim/eval" (fun () -> eval_impl t)
  else eval_impl t

let step t =
  match t.engine with `Compiled -> step_compiled t | `Interp -> step_interp t

let cycle t =
  eval t;
  step t;
  t.ticks <- t.ticks + 1;
  let hooks = t.hook_arr in
  for i = 0 to Array.length hooks - 1 do
    (Array.unsafe_get hooks i) t.ticks
  done

let cycles t = t.ticks

let on_cycle t h =
  (* Hooks are stored newest-first and mirrored into an array once per
     registration, so [cycle] iterates a flat array in registration order
     instead of rebuilding a list (the old [hooks @ [h]] append was
     quadratic in hook count and allocated on every registration). *)
  t.hooks_rev <- h :: t.hooks_rev;
  t.hook_arr <- Array.of_list (List.rev t.hooks_rev)
