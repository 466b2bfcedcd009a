type t = {
  shadow : Shadow.t;
  mutable bindings : (Dvz_ir.Netlist.signal array * Dvz_ir.Netlist.signal array) list;
}

let create shadow = { shadow; bindings = [] }

let bind_regs t ~sinks ~valid =
  if Array.length valid <> Array.length sinks then
    invalid_arg "Liveness.bind_regs: arity mismatch";
  t.bindings <- (sinks, valid) :: t.bindings

(* Count the tainted annotated slots whose liveness bit equals [live]. *)
let count_tainted t ~live =
  let sh = t.shadow in
  List.fold_left
    (fun acc (sinks, valid) ->
      let acc = ref acc in
      Array.iteri
        (fun i q ->
          if Shadow.taint_of sh q <> 0 && (Shadow.peek_a sh valid.(i) = 1) = live
          then incr acc)
        sinks;
      !acc)
    0 t.bindings

let live_tainted t = count_tainted t ~live:true
let dead_tainted t = count_tainted t ~live:false
