module N = Netlist

let flatten_with_map old =
  let nu = N.create () in
  let n = N.num_signals old in
  (* Word registers for every memory. *)
  let words = Hashtbl.create 8 in
  N.scoped nu "flat" (fun () ->
      List.iter
        (fun m ->
          let arr =
            Array.init (N.mem_depth m) (fun i ->
                N.reg nu
                  ~name:(Printf.sprintf "%s_w%d" (N.mem_name m) i)
                  (N.mem_width m))
          in
          Hashtbl.replace words (N.mem_name m) arr)
        (N.mems old);
      let map = Array.make n None in
      let get i =
        match map.(i) with
        | Some s -> s
        | None -> failwith "Flatten: forward reference in combinational logic"
      in
      let tr (s : N.signal) = get (s :> int) in
      (* Pass 1: translate cells in creation order. *)
      for i = 0 to n - 1 do
        let s = N.signal_of_int old i in
        let w = N.width_of old s in
        let nu_sig =
          match N.cell_of old s with
          | N.Input -> N.input nu ~name:(N.name_of old s) w
          | N.Const v -> N.const nu w v
          | N.Reg r -> N.reg nu ~name:(N.name_of old s) ~init:r.N.init w
          | N.Not a -> N.not_ nu (tr a)
          | N.And (a, b) -> N.and_ nu (tr a) (tr b)
          | N.Or (a, b) -> N.or_ nu (tr a) (tr b)
          | N.Xor (a, b) -> N.xor_ nu (tr a) (tr b)
          | N.Mux (sel, a, b) -> N.mux nu (tr sel) (tr a) (tr b)
          | N.Eq (a, b) -> N.eq nu (tr a) (tr b)
          | N.Lt (a, b) -> N.lt nu (tr a) (tr b)
          | N.Add (a, b) -> N.add nu (tr a) (tr b)
          | N.Sub (a, b) -> N.sub nu (tr a) (tr b)
          | N.Shl (a, k) -> N.shl nu (tr a) k
          | N.Shr (a, k) -> N.shr nu (tr a) k
          | N.Slice (a, lo) -> N.slice nu (tr a) ~lo ~width:w
          | N.Concat (hi, lo) -> N.concat nu (tr hi) (tr lo)
          | N.Mem_read (m, addr) ->
              (* Linear word-select chain: the read multiplexer tree CellIFT
                 must materialise once the memory is flattened. *)
              let arr = Hashtbl.find words (N.mem_name m) in
              let a = tr addr in
              let aw = N.width_of old addr in
              let acc = ref arr.(0) in
              for k = 1 to Array.length arr - 1 do
                if k < 1 lsl aw then begin
                  let here = N.eq nu a (N.const nu aw k) in
                  acc := N.mux nu here !acc arr.(k)
                end
              done;
              !acc
        in
        map.(i) <- Some nu_sig
      done;
      (* Pass 2: close register feedback loops. *)
      for i = 0 to n - 1 do
        let s = N.signal_of_int old i in
        match N.cell_of old s with
        | N.Reg { N.d = Some d; en; _ } ->
            N.reg_connect nu (get i) ~d:(tr d)
              ?en:(Option.map tr en) ()
        | N.Reg { N.d = None; _ } ->
            failwith "Flatten: unconnected register"
        | _ -> ()
      done;
      (* Pass 3: per-word write decoders. *)
      List.iter
        (fun m ->
          let arr = Hashtbl.find words (N.mem_name m) in
          Array.iteri
            (fun k q ->
              let d = ref q in
              List.iter
                (fun (wen, addr, data) ->
                  let aw = N.width_of old addr in
                  if k < 1 lsl aw then begin
                    let here =
                      N.and_ nu (tr wen) (N.eq nu (tr addr) (N.const nu aw k))
                    in
                    d := N.mux nu here !d (tr data)
                  end)
                (N.mem_writes m);
              N.reg_connect nu q ~d:!d ())
            arr)
        (N.mems old);
      let translate (s : N.signal) =
        match map.((s :> int)) with
        | Some s' -> s'
        | None -> invalid_arg "Flatten: unknown signal"
      in
      (nu, translate))

let flatten old = fst (flatten_with_map old)
