type signal = int

exception Width_error of string

type mem_rec = {
  m_id : int;
  m_name : string;
  m_width : int;
  m_depth : int;
  mutable m_writes : (signal * signal * signal) list;
}

type mem = mem_rec

type cell =
  | Input
  | Const of int
  | Not of signal
  | And of signal * signal
  | Or of signal * signal
  | Xor of signal * signal
  | Mux of signal * signal * signal
  | Eq of signal * signal
  | Lt of signal * signal
  | Add of signal * signal
  | Sub of signal * signal
  | Shl of signal * int
  | Shr of signal * int
  | Slice of signal * int
  | Concat of signal * signal
  | Reg of reg
  | Mem_read of mem * signal

and reg = { mutable d : signal option; mutable en : signal option; init : int }

type node = { cell : cell; width : int; modname : string; name : string }

type t = {
  mutable nodes : node array;
  mutable count : int;
  mutable scope : string list;
  mutable memories : mem list;
  mutable next_mem : int;
}

let create () =
  { nodes = Array.make 64 { cell = Input; width = 1; modname = ""; name = "" };
    count = 0; scope = []; memories = []; next_mem = 0 }

let cur_module t = String.concat "." (List.rev t.scope)

let scoped t name f =
  t.scope <- name :: t.scope;
  let finally () = t.scope <- List.tl t.scope in
  match f () with
  | v -> finally (); v
  | exception e -> finally (); raise e

let grow t =
  if t.count = Array.length t.nodes then begin
    let bigger = Array.make (2 * t.count) t.nodes.(0) in
    Array.blit t.nodes 0 bigger 0 t.count;
    t.nodes <- bigger
  end

let add_cell t ?(name = "") width cell =
  if width <= 0 || width > Bits.max_width then
    invalid_arg "Netlist.add: bad width";
  grow t;
  let id = t.count in
  t.nodes.(id) <- { cell; width; modname = cur_module t; name };
  t.count <- id + 1;
  id

let width_of t s = t.nodes.(s).width
let cell_of t s = t.nodes.(s).cell
let module_of t s = t.nodes.(s).modname
let name_of t s = t.nodes.(s).name
let num_signals t = t.count

let signal_of_int t i =
  if i < 0 || i >= t.count then invalid_arg "Netlist.signal_of_int";
  i

let same_width t a b =
  if width_of t a <> width_of t b then
    invalid_arg "Netlist: operand widths differ"

(* Signal description for error messages: "#12(rob.tail_idx)" or "#12". *)
let describe t s =
  let n = name_of t s in
  let m = module_of t s in
  let qual = if m = "" then n else if n = "" then m else m ^ "." ^ n in
  if qual = "" then Printf.sprintf "#%d" s else Printf.sprintf "#%d(%s)" s qual

let require_1bit t s ~ctx ~role =
  let w = width_of t s in
  if w <> 1 then
    raise
      (Width_error
         (Printf.sprintf "%s: %s %s must be 1 bit wide, not %d" ctx role
            (describe t s) w))

let input t ?name w = add_cell t ?name w Input

let const t w v = add_cell t w (Const (Bits.trunc w v))

let not_ t a = add_cell t (width_of t a) (Not a)

let binop t ctor a b =
  same_width t a b;
  add_cell t (width_of t a) (ctor a b)

let and_ t a b = binop t (fun a b -> And (a, b)) a b
let or_ t a b = binop t (fun a b -> Or (a, b)) a b
let xor_ t a b = binop t (fun a b -> Xor (a, b)) a b
let add_ t a b = binop t (fun a b -> Add (a, b)) a b
let sub t a b = binop t (fun a b -> Sub (a, b)) a b
let add = add_

let mux t s a b =
  require_1bit t s ~ctx:"Netlist.mux" ~role:"selector";
  same_width t a b;
  add_cell t (width_of t a) (Mux (s, a, b))

let eq t a b =
  same_width t a b;
  add_cell t 1 (Eq (a, b))

let lt t a b =
  same_width t a b;
  add_cell t 1 (Lt (a, b))

let shl t a n = add_cell t (width_of t a) (Shl (a, n))
let shr t a n = add_cell t (width_of t a) (Shr (a, n))

let slice t a ~lo ~width =
  if lo < 0 || lo + width > width_of t a then invalid_arg "Netlist.slice";
  add_cell t width (Slice (a, lo))

let concat t hi lo =
  let w = width_of t hi + width_of t lo in
  if w > Bits.max_width then invalid_arg "Netlist.concat: too wide";
  add_cell t w (Concat (hi, lo))

let reg t ?name ?(init = 0) w =
  add_cell t ?name w (Reg { d = None; en = None; init = Bits.trunc w init })

let reg_connect t q ~d ?en () =
  match cell_of t q with
  | Reg r ->
      same_width t q d;
      (match en with
      | Some e -> require_1bit t e ~ctx:"Netlist.reg_connect" ~role:"enable"
      | None -> ());
      if r.d <> None then invalid_arg "Netlist.reg_connect: already connected";
      r.d <- Some d;
      r.en <- en
  | _ -> invalid_arg "Netlist.reg_connect: not a register"

let mem t ?(name = "") ~width ~depth () =
  if width <= 0 || width > Bits.max_width || depth <= 0 then
    invalid_arg "Netlist.mem";
  let name = if name = "" then Printf.sprintf "mem%d" t.next_mem else name in
  let m =
    { m_id = t.next_mem; m_name = cur_module t ^ "." ^ name;
      m_width = width; m_depth = depth; m_writes = [] }
  in
  t.next_mem <- t.next_mem + 1;
  t.memories <- m :: t.memories;
  m

let mem_read t m addr = add_cell t m.m_width (Mem_read (m, addr))

let mem_write t m ~wen ~addr ~data =
  require_1bit t wen ~ctx:"Netlist.mem_write" ~role:"write enable";
  if width_of t data <> m.m_width then
    invalid_arg "Netlist.mem_write: data width mismatch";
  m.m_writes <- (wen, addr, data) :: m.m_writes

let mems t = List.rev t.memories
let mem_width m = m.m_width
let mem_depth m = m.m_depth
let mem_name m = m.m_name
let mem_writes m = List.rev m.m_writes

let registers t =
  let acc = ref [] in
  for i = t.count - 1 downto 0 do
    match t.nodes.(i).cell with Reg _ -> acc := i :: !acc | _ -> ()
  done;
  !acc

let deps = function
  | Input | Const _ | Reg _ -> []
  | Not a | Shl (a, _) | Shr (a, _) | Slice (a, _) -> [ a ]
  | And (a, b) | Or (a, b) | Xor (a, b) | Eq (a, b) | Lt (a, b)
  | Add (a, b) | Sub (a, b) | Concat (a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]
  | Mem_read (_, a) -> [ a ]

let topo_order t =
  let n = t.count in
  let state = Array.make n 0 (* 0 unvisited, 1 visiting, 2 done *) in
  let order = ref [] in
  let rec visit s =
    match state.(s) with
    | 2 -> ()
    | 1 -> failwith "Netlist.topo_order: combinational cycle"
    | _ ->
        (match t.nodes.(s).cell with
        | Input | Const _ | Reg _ -> state.(s) <- 2
        | c ->
            state.(s) <- 1;
            List.iter visit (deps c);
            state.(s) <- 2;
            order := s :: !order)
  in
  for i = 0 to n - 1 do visit i done;
  Array.of_list (List.rev !order)

(* Backstop for the builder-level checks: simulators call this before
   lowering so a netlist assembled by any future internal path (flattening,
   generated instrumentation, deserialization) cannot smuggle a multi-bit
   select or enable into the [<> 0] truthiness tests of the engines. *)
let validate t =
  for i = 0 to t.count - 1 do
    match t.nodes.(i).cell with
    | Mux (s, _, _) -> require_1bit t s ~ctx:"Netlist.validate" ~role:"mux selector"
    | Reg { en = Some e; _ } ->
        require_1bit t e ~ctx:"Netlist.validate" ~role:"register enable"
    | _ -> ()
  done;
  List.iter
    (fun m ->
      List.iter
        (fun (wen, _, _) ->
          require_1bit t wen ~ctx:"Netlist.validate" ~role:"memory write enable")
        m.m_writes)
    t.memories

let modules t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.count - 1 do
    Hashtbl.replace tbl t.nodes.(i).modname ()
  done;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
