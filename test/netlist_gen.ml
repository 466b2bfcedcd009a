(* Random netlists shared by the IR and IFT suites. *)

module N = Dvz_ir.Netlist

(* A random sequential circuit exercising every opcode of the compiled
   engine: the full combinational repertoire plus enabled registers and a
   memory with out-of-range addresses (8-bit addresses into a depth-8
   array, so the bounds paths run too). *)
let random_seq_netlist seed =
  let rng = Dvz_util.Rng.create seed in
  let nl = N.create () in
  let inputs8 = Array.init 3 (fun i -> N.input nl ~name:(Printf.sprintf "in%d" i) 8) in
  let sel_in = N.input nl ~name:"sel" 1 in
  let regs =
    Array.init 3 (fun i -> N.reg nl ~name:(Printf.sprintf "r%d" i) ~init:i 8)
  in
  let pool8 = ref (Array.to_list inputs8 @ Array.to_list regs) in
  let pool1 = ref [ sel_in ] in
  let pick8 () = Dvz_util.Rng.choose_list rng !pool8 in
  let pick1 () = Dvz_util.Rng.choose_list rng !pool1 in
  let m = N.mem nl ~name:"m" ~width:8 ~depth:8 () in
  for _ = 1 to 30 do
    let a = pick8 () and b = pick8 () in
    match Dvz_util.Rng.int rng 12 with
    | 0 -> pool8 := N.and_ nl a b :: !pool8
    | 1 -> pool8 := N.or_ nl a b :: !pool8
    | 2 -> pool8 := N.xor_ nl a b :: !pool8
    | 3 -> pool8 := N.add nl a b :: !pool8
    | 4 -> pool8 := N.sub nl a b :: !pool8
    | 5 -> pool8 := N.not_ nl a :: !pool8
    | 6 -> pool8 := N.mux nl (pick1 ()) a b :: !pool8
    | 7 -> pool1 := N.eq nl a b :: !pool1
    | 8 -> pool1 := N.lt nl a b :: !pool1
    | 9 ->
        pool8 := N.shl nl a (1 + Dvz_util.Rng.int rng 3) :: !pool8;
        pool8 := N.shr nl b (1 + Dvz_util.Rng.int rng 3) :: !pool8
    | 10 ->
        pool8 :=
          N.concat nl
            (N.slice nl a ~lo:0 ~width:4)
            (N.slice nl b ~lo:4 ~width:4)
          :: !pool8
    | _ -> pool8 := N.mem_read nl m a :: !pool8
  done;
  N.mem_write nl m ~wen:(pick1 ()) ~addr:(pick8 ()) ~data:(pick8 ());
  Array.iter
    (fun q ->
      let en = if Dvz_util.Rng.int rng 2 = 0 then Some (pick1 ()) else None in
      N.reg_connect nl q ~d:(pick8 ()) ?en ())
    regs;
  (nl, inputs8, sel_in, m)
