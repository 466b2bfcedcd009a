module N = Netlist

type engine = [ `Interp | `Compiled ]

(* --- the lowering ---------------------------------------------------------

   The interpretive walker re-dispatches on [Netlist.cell_of], re-looks-up
   widths and finds memories on every cell of every cycle.  [lower] does
   that work once: it flattens the topo order into parallel int arrays (the
   opcode table is in sim.mli), resolves the register-latch and write-port
   plans, and leaves memory storage to the executor, which attaches one
   store per memory and value plane.  A compiled cycle then touches only
   int arrays — no variant dispatch, no width lookups, no allocation.
   [Shadow] runs the same program over its A, B and taint planes. *)

type program = {
  order : N.signal array;
  mems : N.mem array;
  p_op : int array;
  p_dst : int array;
  p_a : int array;
  p_b : int array;
  p_c : int array;
  p_w : int array;
  p_mask : int array;
  p_mem : int array;
  l_q : int array;
  l_d : int array;
  l_en : int array;
  l_w : int array;
  l_direct : int;
  c_wen : int array;
  c_addr : int array;
  c_data : int array;
  c_w : int array;
  c_mask : int array;
  c_mem : int array;
  init : int array;
}

let find_mem mems m =
  let rec go k = if mems.(k) == m then k else go (k + 1) in
  go 0

let mem_index p m = find_mem p.mems m

(* [who] names the entry point in the unconnected-register failure.  Every
   column is a typed int array filled in place, not mapped from tuples:
   [Array.map]'s generic stores pay a write barrier per element, and an
   array of young tuples longer than a minor-heap block forces a minor
   collection, either of which makes [create] markedly slower. *)
let lower_as who nl =
  N.validate nl;
  let order = N.topo_order nl in
  let mems = Array.of_list (N.mems nl) in
  let ix (s : N.signal) = (s :> int) in
  let n = Array.length order in
  let op = Array.make n 0 and a = Array.make n 0 and b = Array.make n 0 in
  let c = Array.make n 0 and dst = Array.make n 0 and w = Array.make n 0 in
  let mask = Array.make n 0 and mem = Array.make n (-1) in
  Array.iteri
    (fun i s ->
      let set o x y z =
        op.(i) <- o;
        a.(i) <- x;
        b.(i) <- y;
        c.(i) <- z
      in
      dst.(i) <- ix s;
      w.(i) <- N.width_of nl s;
      mask.(i) <- Bits.mask w.(i);
      match N.cell_of nl s with
      | N.Input | N.Const _ | N.Reg _ ->
          (* never in the combinational topo order *)
          assert false
      | N.Not x -> set 0 (ix x) 0 0
      | N.And (x, y) -> set 1 (ix x) (ix y) 0
      | N.Or (x, y) -> set 2 (ix x) (ix y) 0
      | N.Xor (x, y) -> set 3 (ix x) (ix y) 0
      | N.Add (x, y) -> set 4 (ix x) (ix y) 0
      | N.Sub (x, y) -> set 5 (ix x) (ix y) 0
      | N.Eq (x, y) -> set 6 (ix x) (ix y) 0
      | N.Lt (x, y) -> set 7 (ix x) (ix y) 0
      | N.Shl (x, k) -> set 8 (ix x) k 0
      | N.Shr (x, k) | N.Slice (x, k) -> set 9 (ix x) k 0
      | N.Concat (hi, lo) -> set 10 (ix hi) (N.width_of nl lo) (ix lo)
      | N.Mux (sel, x, y) -> set 11 (ix sel) (ix x) (ix y)
      | N.Mem_read (m, addr) ->
          set 12 (ix addr) 0 0;
          mem.(i) <- find_mem mems m)
    order;
  let regs =
    List.map
      (fun q ->
        match N.cell_of nl q with
        | N.Reg { N.d = Some d; en; _ } ->
            ( ix q, ix d,
              (match en with None -> -1 | Some e -> ix e),
              N.width_of nl q )
        | _ -> failwith (who ^ ": unconnected register " ^ N.name_of nl q))
      (N.registers nl)
  in
  (* Registers whose D and enable are combinational go first: those
     signals are frozen during [step], so such a register may latch in
     place; only the tail must be staged. *)
  let is_reg i =
    i >= 0
    && match N.cell_of nl (N.signal_of_int nl i) with
       | N.Reg _ -> true
       | _ -> false
  in
  let direct, staged =
    List.partition (fun (_, d, en, _) -> not (is_reg d || is_reg en)) regs
  in
  let latch = direct @ staged in
  let ports =
    List.concat
      (List.mapi
         (fun k m ->
           List.map
             (fun (wen, addr, data) -> (ix wen, ix addr, ix data, k))
             (N.mem_writes m))
         (N.mems nl))
  in
  let col f l =
    let r = Array.make (List.length l) 0 in
    List.iteri (fun i x -> r.(i) <- f x) l;
    r
  in
  let port_w (_, _, _, k) = N.mem_width mems.(k) in
  let init = Array.make (N.num_signals nl) 0 in
  for i = 0 to N.num_signals nl - 1 do
    match N.cell_of nl (N.signal_of_int nl i) with
    | N.Reg r -> init.(i) <- r.N.init
    | N.Const v -> init.(i) <- v
    | _ -> ()
  done;
  { order; mems;
    p_op = op; p_dst = dst; p_a = a; p_b = b; p_c = c; p_w = w;
    p_mask = mask; p_mem = mem;
    l_q = col (fun (q, _, _, _) -> q) latch;
    l_d = col (fun (_, d, _, _) -> d) latch;
    l_en = col (fun (_, _, en, _) -> en) latch;
    l_w = col (fun (_, _, _, w) -> w) latch;
    l_direct = List.length direct;
    c_wen = col (fun (wen, _, _, _) -> wen) ports;
    c_addr = col (fun (_, addr, _, _) -> addr) ports;
    c_data = col (fun (_, _, data, _) -> data) ports;
    c_w = col port_w ports;
    c_mask = col (fun p -> Bits.mask (port_w p)) ports;
    c_mem = col (fun (_, _, _, k) -> k) ports;
    init }

let lower nl = lower_as "Sim.lower" nl

let attach p stores =
  let rd = Array.make (Array.length p.p_mem) [||] in
  Array.iteri (fun i k -> if k >= 0 then rd.(i) <- stores.(k)) p.p_mem;
  (rd, Array.map (fun k -> stores.(k)) p.c_mem)

(* --- the simulator -------------------------------------------------------- *)

type t = {
  nl : N.t;
  engine : engine;
  prog : program;
  values : int array;
  mem : int array array;     (* one store per memory, indexed like [prog.mems] *)
  rd_mem : int array array;  (* per cell: the store a Mem_read reads *)
  wr_mem : int array array;  (* per write port: the store it writes *)
  l_next : int array;        (* staging for the latch plan's reg-to-reg tail *)
  mutable ticks : int;
  mutable hooks_rev : (int -> unit) list;
  mutable hook_arr : (int -> unit) array;
}

let create ?(engine : engine = `Compiled) nl =
  let prog = lower_as "Sim.create" nl in
  (* Registers start at their init value, memories zero-filled. *)
  let mem = Array.map (fun m -> Array.make (N.mem_depth m) 0) prog.mems in
  let rd_mem, wr_mem = attach prog mem in
  { nl; engine; prog; values = Array.copy prog.init; mem; rd_mem; wr_mem;
    l_next = Array.make (Array.length prog.l_q) 0;
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

let mem_array t m = t.mem.(mem_index t.prog m)

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

let eval_interp t = Array.iter (fun s -> eval_cell t s) t.prog.order

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

let exec_prog p rd v =
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
          let arr = Array.unsafe_get rd i in
          let ad = Array.unsafe_get v a in
          if ad < Array.length arr then Array.unsafe_get arr ad else 0
    in
    Array.unsafe_set v
      (Array.unsafe_get p.p_dst i)
      (r land Array.unsafe_get p.p_mask i)
  done

let step_compiled t =
  let v = t.values in
  let p = t.prog in
  let next = t.l_next in
  let n = Array.length p.l_q in
  (* stage the reg-to-reg tail first, while every Q is still old *)
  for i = p.l_direct to n - 1 do
    let en = Array.unsafe_get p.l_en i in
    let src =
      if en < 0 || Array.unsafe_get v en <> 0 then Array.unsafe_get p.l_d i
      else Array.unsafe_get p.l_q i
    in
    Array.unsafe_set next i (Array.unsafe_get v src)
  done;
  (* direct registers read only combinational signals: write in place *)
  for i = 0 to p.l_direct - 1 do
    let en = Array.unsafe_get p.l_en i in
    if en < 0 || Array.unsafe_get v en <> 0 then
      Array.unsafe_set v
        (Array.unsafe_get p.l_q i)
        (Array.unsafe_get v (Array.unsafe_get p.l_d i))
  done;
  for i = p.l_direct to n - 1 do
    Array.unsafe_set v (Array.unsafe_get p.l_q i) (Array.unsafe_get next i)
  done;
  let m = Array.length p.c_wen in
  for i = 0 to m - 1 do
    if Array.unsafe_get v (Array.unsafe_get p.c_wen i) <> 0 then begin
      let arr = Array.unsafe_get t.wr_mem i in
      let a = Array.unsafe_get v (Array.unsafe_get p.c_addr i) in
      if a < Array.length arr then
        Array.unsafe_set arr a
          (Array.unsafe_get v (Array.unsafe_get p.c_data i)
          land Array.unsafe_get p.c_mask i)
    end
  done

let eval_impl t =
  match t.engine with
  | `Compiled -> exec_prog t.prog t.rd_mem t.values
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
