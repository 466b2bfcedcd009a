module N = Netlist

type watched = {
  w_sig : N.signal;
  w_id : string;            (** VCD short identifier *)
  w_width : int;
  mutable w_last : int option;
}

type t = {
  out : Buffer.t;
  watched : watched list;
  mutable time : int;
}

(* VCD identifiers: printable characters from '!' onward. *)
let ident i =
  let chars = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod chars)) in
    let acc = String.make 1 c ^ acc in
    if i < chars then acc else go ((i / chars) - 1) acc
  in
  go i ""

let named_signals nl =
  let acc = ref [] in
  for i = N.num_signals nl - 1 downto 0 do
    let s = N.signal_of_int nl i in
    if N.name_of nl s <> "" then acc := s :: !acc
  done;
  !acc

let create ~out nl =
  let watched =
    List.mapi
      (fun i s ->
        { w_sig = s; w_id = ident i; w_width = N.width_of nl s; w_last = None })
      (named_signals nl)
  in
  Buffer.add_string out "$date today $end\n";
  Buffer.add_string out "$version dvz_ir VCD writer $end\n";
  Buffer.add_string out "$timescale 1ns $end\n";
  (* Group by module tag. *)
  let by_module = Hashtbl.create 16 in
  List.iter
    (fun w ->
      let m = N.module_of nl w.w_sig in
      let cur = try Hashtbl.find by_module m with Not_found -> [] in
      Hashtbl.replace by_module m (w :: cur))
    watched;
  let modules = List.sort_uniq compare (List.map (fun w -> N.module_of nl w.w_sig) watched) in
  List.iter
    (fun m ->
      let scope = if m = "" then "top" else m in
      Buffer.add_string out (Printf.sprintf "$scope module %s $end\n" scope);
      List.iter
        (fun w ->
          Buffer.add_string out
            (Printf.sprintf "$var wire %d %s %s $end\n" w.w_width w.w_id
               (N.name_of nl w.w_sig)))
        (List.rev (Hashtbl.find by_module m));
      Buffer.add_string out "$upscope $end\n")
    modules;
  Buffer.add_string out "$enddefinitions $end\n";
  { out; watched; time = 0 }

let bin_of_int width v =
  String.init width (fun i -> if (v lsr (width - 1 - i)) land 1 = 1 then '1' else '0')

let sample t read =
  let changes =
    List.filter
      (fun w ->
        let v = read w.w_sig in
        match w.w_last with Some last when last = v -> false | _ -> true)
      t.watched
  in
  if changes <> [] || t.time = 0 then
    Buffer.add_string t.out (Printf.sprintf "#%d\n" t.time);
  List.iter
    (fun w ->
      let v = read w.w_sig in
      w.w_last <- Some v;
      if w.w_width = 1 then
        Buffer.add_string t.out (Printf.sprintf "%d%s\n" (v land 1) w.w_id)
      else
        Buffer.add_string t.out
          (Printf.sprintf "b%s %s\n" (bin_of_int w.w_width v) w.w_id))
    changes;
  t.time <- t.time + 1

let finish t = Buffer.add_string t.out (Printf.sprintf "#%d\n" t.time)

let dump_simulation ?engine nl ~cycles ~drive =
  let out = Buffer.create 1024 in
  let t = create ~out nl in
  let sim = Sim.create ?engine nl in
  for c = 0 to cycles - 1 do
    drive sim c;
    Sim.eval sim;
    sample t (Sim.peek sim);
    Sim.step sim
  done;
  finish t;
  Buffer.contents out
