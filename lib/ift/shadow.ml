open Dvz_ir
module N = Netlist

type engine = Sim.engine

(* One co-simulator runs the program {!Sim.lower} builds over three
   planes: values A and B and the taint plane.  Each memory has one store
   per plane, attached per read cell and per write port; the latch plan's
   staging has one array per plane, so feedback between registers latches
   atomically, like the interpretive two-phase step.  The compiled cycle
   does no variant dispatch, no width lookups and no allocation — the
   {!Policy} calls it makes are all int-in/int-out. *)
type t = {
  mode : Policy.mode;
  engine : engine;
  nl : N.t;
  prog : Sim.program;
  va : int array;
  vb : int array;
  ta : int array;
  mem_a : int array array;
  mem_b : int array array;
  mem_t : int array array;
  rd_a : int array array;
  rd_b : int array array;
  rd_t : int array array;
  wr_a : int array array;
  wr_b : int array array;
  wr_t : int array array;
  l_na : int array;
  l_nb : int array;
  l_nt : int array;
}

let idx (s : N.signal) = (s :> int)

let create ?(engine : engine = `Compiled) mode nl =
  let prog = Sim.lower nl in
  let stores () =
    Array.map (fun m -> Array.make (N.mem_depth m) 0) prog.Sim.mems
  in
  let mem_a = stores () and mem_b = stores () and mem_t = stores () in
  let rd_a, wr_a = Sim.attach prog mem_a in
  let rd_b, wr_b = Sim.attach prog mem_b in
  let rd_t, wr_t = Sim.attach prog mem_t in
  let staging () = Array.make (Array.length prog.Sim.l_q) 0 in
  { mode; engine; nl; prog;
    va = Array.copy prog.Sim.init; vb = Array.copy prog.Sim.init;
    ta = Array.make (N.num_signals nl) 0;
    mem_a; mem_b; mem_t; rd_a; rd_b; rd_t; wr_a; wr_b; wr_t;
    l_na = staging (); l_nb = staging (); l_nt = staging () }

let engine t = t.engine

(* Only a primary input may be driven, as in {!Sim.set_input}: driving a
   register or a computed cell would overwrite its value and its taint. *)
let check_input fn t s =
  match N.cell_of t.nl s with
  | N.Input -> ()
  | c ->
      invalid_arg
        (Printf.sprintf "Shadow.%s: signal %s is not an input (it is %s)" fn
           (N.name_of t.nl s)
           (match c with
           | N.Const _ -> "a constant"
           | N.Reg _ -> "a register"
           | N.Mem_read _ -> "a memory read port"
           | _ -> "a combinational cell"))

let set_input t s v =
  check_input "set_input" t s;
  let v = Bits.trunc (N.width_of t.nl s) v in
  t.va.(idx s) <- v;
  t.vb.(idx s) <- v;
  t.ta.(idx s) <- 0

let set_input_pair t s va vb =
  check_input "set_input_pair" t s;
  let w = N.width_of t.nl s in
  t.va.(idx s) <- Bits.trunc w va;
  t.vb.(idx s) <- Bits.trunc w vb;
  t.ta.(idx s) <- Bits.mask w

let set_input_taint t s m =
  check_input "set_input_taint" t s;
  let m = Bits.trunc (N.width_of t.nl s) m in
  t.ta.(idx s) <- m

let peek_a t s = t.va.(idx s)
let peek_b t s = t.vb.(idx s)
let taint_of t s = t.ta.(idx s)

let marr t plane m = plane.(Sim.mem_index t.prog m)

let poke_mem_pair t m i va vb =
  let w = N.mem_width m in
  (marr t t.mem_a m).(i) <- Bits.trunc w va;
  (marr t t.mem_b m).(i) <- Bits.trunc w vb;
  (marr t t.mem_t m).(i) <- (if va <> vb then Bits.mask w else 0)

let mem_taint t m i = (marr t t.mem_t m).(i)

(* --- interpretive engine (reference semantics) ------------------------- *)

(* Evaluate one combinational cell: both value instances plus the taint. *)
let eval_cell t s =
  let nl = t.nl in
  let w = N.width_of nl s in
  let va = t.va and vb = t.vb and ta = t.ta in
  let a_of x = va.(idx x) and b_of x = vb.(idx x) and t_of x = ta.(idx x) in
  let set ra rb rt =
    va.(idx s) <- Bits.trunc w ra;
    vb.(idx s) <- Bits.trunc w rb;
    ta.(idx s) <- Bits.trunc w rt
  in
  match N.cell_of nl s with
  | N.Input | N.Const _ | N.Reg _ -> ()
  | N.Not x -> set (lnot (a_of x)) (lnot (b_of x)) (t_of x)
  | N.And (x, y) ->
      let ta' =
        Policy.and_taint ~a:(a_of x) ~b:(a_of y) ~at:(t_of x) ~bt:(t_of y)
        lor Policy.and_taint ~a:(b_of x) ~b:(b_of y) ~at:(t_of x) ~bt:(t_of y)
      in
      set (a_of x land a_of y) (b_of x land b_of y) ta'
  | N.Or (x, y) ->
      let ta' =
        Policy.or_taint ~a:(a_of x) ~b:(a_of y) ~at:(t_of x) ~bt:(t_of y)
        lor Policy.or_taint ~a:(b_of x) ~b:(b_of y) ~at:(t_of x) ~bt:(t_of y)
      in
      set (a_of x lor a_of y) (b_of x lor b_of y) ta'
  | N.Xor (x, y) ->
      set (a_of x lxor a_of y) (b_of x lxor b_of y) (t_of x lor t_of y)
  | N.Mux (sel, x, y) ->
      (* [<> 0] truthiness: a selector is boolean, not literally 1. *)
      let ra = if a_of sel <> 0 then a_of y else a_of x in
      let rb = if b_of sel <> 0 then b_of y else b_of x in
      let ab_xor = a_of x lxor a_of y lor (b_of x lxor b_of y) in
      let ta' =
        Policy.mux_taint t.mode ~width:w ~s:(a_of sel)
          ~s_diff:(a_of sel <> b_of sel) ~a:(a_of x) ~b:(a_of y)
          ~st:(t_of sel) ~at:(t_of x) ~bt:(t_of y) ~ab_xor
      in
      set ra rb ta'
  | N.Eq (x, y) ->
      let ra = if a_of x = a_of y then 1 else 0 in
      let rb = if b_of x = b_of y then 1 else 0 in
      let ta' =
        Policy.cmp_taint t.mode ~o_diff:(ra <> rb) ~at:(t_of x) ~bt:(t_of y)
      in
      set ra rb ta'
  | N.Lt (x, y) ->
      let ra = if a_of x < a_of y then 1 else 0 in
      let rb = if b_of x < b_of y then 1 else 0 in
      let ta' =
        Policy.cmp_taint t.mode ~o_diff:(ra <> rb) ~at:(t_of x) ~bt:(t_of y)
      in
      set ra rb ta'
  | N.Add (x, y) ->
      set (a_of x + a_of y) (b_of x + b_of y)
        (Policy.arith_taint ~width:w ~at:(t_of x) ~bt:(t_of y))
  | N.Sub (x, y) ->
      set (a_of x - a_of y) (b_of x - b_of y)
        (Policy.arith_taint ~width:w ~at:(t_of x) ~bt:(t_of y))
  | N.Shl (x, n) -> set (a_of x lsl n) (b_of x lsl n) (t_of x lsl n)
  | N.Shr (x, n) -> set (a_of x lsr n) (b_of x lsr n) (t_of x lsr n)
  | N.Slice (x, lo) -> set (a_of x lsr lo) (b_of x lsr lo) (t_of x lsr lo)
  | N.Concat (hi, lo) ->
      let wlo = N.width_of nl lo in
      set
        ((a_of hi lsl wlo) lor a_of lo)
        ((b_of hi lsl wlo) lor b_of lo)
        ((t_of hi lsl wlo) lor t_of lo)
  | N.Mem_read (m, addr) ->
      let aa = a_of addr and ab = b_of addr in
      let arr_a = marr t t.mem_a m and arr_b = marr t t.mem_b m in
      let arr_t = marr t t.mem_t m in
      let rd arr i = if i < Array.length arr then arr.(i) else 0 in
      let data_taint = rd arr_t aa lor rd arr_t ab in
      let ctrl =
        Policy.mem_read_ctrl t.mode ~width:w ~addrt:(t_of addr)
          ~addr_diff:(aa <> ab)
      in
      set (rd arr_a aa) (rd arr_b ab) (data_taint lor ctrl)

let eval_interp t = Array.iter (fun s -> eval_cell t s) t.prog.Sim.order

let step_interp t =
  let nl = t.nl in
  (* Compute all next-state values/taints before committing any of them. *)
  let reg_next =
    List.filter_map
      (fun q ->
        match N.cell_of nl q with
        | N.Reg { d = Some d; en; _ } ->
            let w = N.width_of nl q in
            let en_a, en_b, ent =
              match en with
              | None -> (true, true, 0)
              | Some e -> (t.va.(idx e) <> 0, t.vb.(idx e) <> 0, t.ta.(idx e))
            in
            let next_a = if en_a then t.va.(idx d) else t.va.(idx q) in
            let next_b = if en_b then t.vb.(idx d) else t.vb.(idx q) in
            let dq_xor =
              t.va.(idx d) lxor t.va.(idx q)
              lor (t.vb.(idx d) lxor t.vb.(idx q))
            in
            let next_t =
              Policy.reg_en_taint t.mode ~width:w ~en:en_a
                ~en_diff:(en_a <> en_b) ~ent ~dt:t.ta.(idx d)
                ~qt:t.ta.(idx q) ~dq_xor
            in
            Some (q, next_a, next_b, next_t)
        | _ -> None)
      (N.registers nl)
  in
  List.iter
    (fun ((q : N.signal), a, b, tt) ->
      t.va.(idx q) <- a;
      t.vb.(idx q) <- b;
      t.ta.(idx q) <- tt)
    reg_next;
  List.iter
    (fun m ->
      let w = N.mem_width m in
      let arr_a = marr t t.mem_a m and arr_b = marr t t.mem_b m in
      let arr_t = marr t t.mem_t m in
      List.iter
        (fun ((wen : N.signal), (addr : N.signal), (data : N.signal)) ->
          let wen_a = t.va.(idx wen) <> 0 and wen_b = t.vb.(idx wen) <> 0 in
          let aa = t.va.(idx addr) and ab = t.vb.(idx addr) in
          let ctrl =
            Policy.mem_write_ctrl t.mode ~width:w ~wen:(wen_a || wen_b)
              ~went:t.ta.(idx wen) ~wen_diff:(wen_a <> wen_b)
              ~addrt:t.ta.(idx addr) ~addr_diff:(aa <> ab)
          in
          let touch i =
            if i < Array.length arr_t then arr_t.(i) <- arr_t.(i) lor ctrl
          in
          if ctrl <> 0 then begin touch aa; touch ab end;
          if wen_a && aa < Array.length arr_a then begin
            arr_a.(aa) <- Bits.trunc w t.va.(idx data);
            arr_t.(aa) <- arr_t.(aa) lor t.ta.(idx data) lor ctrl
          end;
          if wen_b && ab < Array.length arr_b then begin
            arr_b.(ab) <- Bits.trunc w t.vb.(idx data);
            arr_t.(ab) <- arr_t.(ab) lor t.ta.(idx data) lor ctrl
          end)
        (N.mem_writes m))
    (N.mems nl)

(* --- compiled engine ---------------------------------------------------- *)

let exec_prog t =
  let mode = t.mode and p = t.prog in
  let va = t.va and vb = t.vb and ta = t.ta in
  let n = Array.length p.p_op in
  for i = 0 to n - 1 do
    let a = Array.unsafe_get p.p_a i in
    let b = Array.unsafe_get p.p_b i in
    let dst = Array.unsafe_get p.p_dst i in
    let mask = Array.unsafe_get p.p_mask i in
    let set ra rb rt =
      Array.unsafe_set va dst (ra land mask);
      Array.unsafe_set vb dst (rb land mask);
      Array.unsafe_set ta dst (rt land mask)
    in
    match Array.unsafe_get p.p_op i with
    | 0 ->
        set
          (lnot (Array.unsafe_get va a))
          (lnot (Array.unsafe_get vb a))
          (Array.unsafe_get ta a)
    | 1 ->
        let xa = Array.unsafe_get va a and ya = Array.unsafe_get va b in
        let xb = Array.unsafe_get vb a and yb = Array.unsafe_get vb b in
        let xt = Array.unsafe_get ta a and yt = Array.unsafe_get ta b in
        set (xa land ya) (xb land yb)
          (Policy.and_taint ~a:xa ~b:ya ~at:xt ~bt:yt
          lor Policy.and_taint ~a:xb ~b:yb ~at:xt ~bt:yt)
    | 2 ->
        let xa = Array.unsafe_get va a and ya = Array.unsafe_get va b in
        let xb = Array.unsafe_get vb a and yb = Array.unsafe_get vb b in
        let xt = Array.unsafe_get ta a and yt = Array.unsafe_get ta b in
        set (xa lor ya) (xb lor yb)
          (Policy.or_taint ~a:xa ~b:ya ~at:xt ~bt:yt
          lor Policy.or_taint ~a:xb ~b:yb ~at:xt ~bt:yt)
    | 3 ->
        set
          (Array.unsafe_get va a lxor Array.unsafe_get va b)
          (Array.unsafe_get vb a lxor Array.unsafe_get vb b)
          (Array.unsafe_get ta a lor Array.unsafe_get ta b)
    | 4 ->
        set
          (Array.unsafe_get va a + Array.unsafe_get va b)
          (Array.unsafe_get vb a + Array.unsafe_get vb b)
          (Policy.arith_taint ~width:(Array.unsafe_get p.p_w i)
             ~at:(Array.unsafe_get ta a) ~bt:(Array.unsafe_get ta b))
    | 5 ->
        set
          (Array.unsafe_get va a - Array.unsafe_get va b)
          (Array.unsafe_get vb a - Array.unsafe_get vb b)
          (Policy.arith_taint ~width:(Array.unsafe_get p.p_w i)
             ~at:(Array.unsafe_get ta a) ~bt:(Array.unsafe_get ta b))
    | 6 ->
        let ra = if Array.unsafe_get va a = Array.unsafe_get va b then 1 else 0 in
        let rb = if Array.unsafe_get vb a = Array.unsafe_get vb b then 1 else 0 in
        set ra rb
          (Policy.cmp_taint mode ~o_diff:(ra <> rb)
             ~at:(Array.unsafe_get ta a) ~bt:(Array.unsafe_get ta b))
    | 7 ->
        let ra = if Array.unsafe_get va a < Array.unsafe_get va b then 1 else 0 in
        let rb = if Array.unsafe_get vb a < Array.unsafe_get vb b then 1 else 0 in
        set ra rb
          (Policy.cmp_taint mode ~o_diff:(ra <> rb)
             ~at:(Array.unsafe_get ta a) ~bt:(Array.unsafe_get ta b))
    | 8 ->
        set
          (Array.unsafe_get va a lsl b)
          (Array.unsafe_get vb a lsl b)
          (Array.unsafe_get ta a lsl b)
    | 9 ->
        set
          (Array.unsafe_get va a lsr b)
          (Array.unsafe_get vb a lsr b)
          (Array.unsafe_get ta a lsr b)
    | 10 ->
        let lo = Array.unsafe_get p.p_c i in
        set
          ((Array.unsafe_get va a lsl b) lor Array.unsafe_get va lo)
          ((Array.unsafe_get vb a lsl b) lor Array.unsafe_get vb lo)
          ((Array.unsafe_get ta a lsl b) lor Array.unsafe_get ta lo)
    | 11 ->
        let y = Array.unsafe_get p.p_c i in
        let sa = Array.unsafe_get va a and sb = Array.unsafe_get vb a in
        let xa = Array.unsafe_get va b and ya = Array.unsafe_get va y in
        let xb = Array.unsafe_get vb b and yb = Array.unsafe_get vb y in
        let ra = if sa <> 0 then ya else xa in
        let rb = if sb <> 0 then yb else xb in
        let ab_xor = xa lxor ya lor (xb lxor yb) in
        set ra rb
          (Policy.mux_taint mode ~width:(Array.unsafe_get p.p_w i) ~s:sa
             ~s_diff:(sa <> sb) ~a:xa ~b:ya ~st:(Array.unsafe_get ta a)
             ~at:(Array.unsafe_get ta b) ~bt:(Array.unsafe_get ta y) ~ab_xor)
    | _ ->
        let arr_a = Array.unsafe_get t.rd_a i in
        let arr_b = Array.unsafe_get t.rd_b i in
        let arr_t = Array.unsafe_get t.rd_t i in
        let aa = Array.unsafe_get va a and ab = Array.unsafe_get vb a in
        let len = Array.length arr_a in
        let da = if aa < len then Array.unsafe_get arr_a aa else 0 in
        let db = if ab < len then Array.unsafe_get arr_b ab else 0 in
        let dt =
          (if aa < len then Array.unsafe_get arr_t aa else 0)
          lor if ab < len then Array.unsafe_get arr_t ab else 0
        in
        let ctrl =
          Policy.mem_read_ctrl mode ~width:(Array.unsafe_get p.p_w i)
            ~addrt:(Array.unsafe_get ta a) ~addr_diff:(aa <> ab)
        in
        set da db (dt lor ctrl)
  done

let step_compiled t =
  let va = t.va and vb = t.vb and ta = t.ta in
  let p = t.prog in
  let n = Array.length p.l_q in
  for i = 0 to n - 1 do
    let q = Array.unsafe_get p.l_q i in
    let d = Array.unsafe_get p.l_d i in
    let en = Array.unsafe_get p.l_en i in
    let en_a, en_b, ent =
      if en < 0 then (true, true, 0)
      else
        ( Array.unsafe_get va en <> 0,
          Array.unsafe_get vb en <> 0,
          Array.unsafe_get ta en )
    in
    let da = Array.unsafe_get va d and qa = Array.unsafe_get va q in
    let db = Array.unsafe_get vb d and qb = Array.unsafe_get vb q in
    Array.unsafe_set t.l_na i (if en_a then da else qa);
    Array.unsafe_set t.l_nb i (if en_b then db else qb);
    let dq_xor = da lxor qa lor (db lxor qb) in
    Array.unsafe_set t.l_nt i
      (Policy.reg_en_taint t.mode ~width:(Array.unsafe_get p.l_w i) ~en:en_a
         ~en_diff:(en_a <> en_b) ~ent ~dt:(Array.unsafe_get ta d)
         ~qt:(Array.unsafe_get ta q) ~dq_xor)
  done;
  for i = 0 to n - 1 do
    let q = Array.unsafe_get p.l_q i in
    Array.unsafe_set va q (Array.unsafe_get t.l_na i);
    Array.unsafe_set vb q (Array.unsafe_get t.l_nb i);
    Array.unsafe_set ta q (Array.unsafe_get t.l_nt i)
  done;
  let m = Array.length p.c_wen in
  for i = 0 to m - 1 do
    let wen = Array.unsafe_get p.c_wen i in
    let wen_a = Array.unsafe_get va wen <> 0 in
    let wen_b = Array.unsafe_get vb wen <> 0 in
    let addr = Array.unsafe_get p.c_addr i in
    let aa = Array.unsafe_get va addr and ab = Array.unsafe_get vb addr in
    let ctrl =
      Policy.mem_write_ctrl t.mode ~width:(Array.unsafe_get p.c_w i)
        ~wen:(wen_a || wen_b) ~went:(Array.unsafe_get ta wen)
        ~wen_diff:(wen_a <> wen_b) ~addrt:(Array.unsafe_get ta addr)
        ~addr_diff:(aa <> ab)
    in
    let arr_a = Array.unsafe_get t.wr_a i in
    let arr_b = Array.unsafe_get t.wr_b i in
    let arr_t = Array.unsafe_get t.wr_t i in
    let len = Array.length arr_t in
    if ctrl <> 0 then begin
      if aa < len then Array.unsafe_set arr_t aa (Array.unsafe_get arr_t aa lor ctrl);
      if ab < len then Array.unsafe_set arr_t ab (Array.unsafe_get arr_t ab lor ctrl)
    end;
    let data = Array.unsafe_get p.c_data i in
    let mask = Array.unsafe_get p.c_mask i in
    if wen_a && aa < len then begin
      Array.unsafe_set arr_a aa (Array.unsafe_get va data land mask);
      Array.unsafe_set arr_t aa
        (Array.unsafe_get arr_t aa lor Array.unsafe_get ta data lor ctrl)
    end;
    if wen_b && ab < len then begin
      Array.unsafe_set arr_b ab (Array.unsafe_get vb data land mask);
      Array.unsafe_set arr_t ab
        (Array.unsafe_get arr_t ab lor Array.unsafe_get ta data lor ctrl)
    end
  done

let eval_impl t =
  match t.engine with
  | `Compiled -> exec_prog t
  | `Interp -> eval_interp t

(* Armed-guarded like Sim.eval: disarmed shadow cycles stay
   allocation-free. *)
let eval t =
  if Dvz_obs.Profile.armed () then
    Dvz_obs.Profile.wrap "shadow/eval" (fun () -> eval_impl t)
  else eval_impl t

let step t =
  match t.engine with
  | `Compiled -> step_compiled t
  | `Interp -> step_interp t

let cycle t =
  eval t;
  step t

let tainted_registers t =
  List.fold_left
    (fun acc q -> if t.ta.(idx q) <> 0 then acc + 1 else acc)
    0
    (N.registers t.nl)

let taint_bit_sum t =
  let regs =
    List.fold_left
      (fun acc q -> acc + Bits.popcount t.ta.(idx q))
      0
      (N.registers t.nl)
  in
  let mems =
    Array.fold_left
      (Array.fold_left (fun a x -> a + Bits.popcount x))
      0 t.mem_t
  in
  regs + mems

let tainted_by_module t =
  let tbl = Hashtbl.create 16 in
  let bump k n =
    let cur = try Hashtbl.find tbl k with Not_found -> 0 in
    Hashtbl.replace tbl k (cur + n)
  in
  List.iter
    (fun q ->
      if t.ta.(idx q) <> 0 then bump (N.module_of t.nl q) 1
      else bump (N.module_of t.nl q) 0)
    (N.registers t.nl);
  Array.iteri
    (fun k m ->
      let tainted_words =
        Array.fold_left (fun a x -> if x <> 0 then a + 1 else a) 0 t.mem_t.(k)
      in
      bump (N.mem_name m) tainted_words)
    t.prog.Sim.mems;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let clear_taints t =
  Array.fill t.ta 0 (Array.length t.ta) 0;
  Array.iter (fun arr -> Array.fill arr 0 (Array.length arr) 0) t.mem_t
