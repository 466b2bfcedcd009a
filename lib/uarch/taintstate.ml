module Policy = Dvz_ift.Policy
module Provenance = Dvz_ift.Provenance

(* Dense numbering of the element space, in [Elem.compare] order: [Pc] is
   0, then each other constructor in declaration order over a fixed index
   range — 32 registers per file, every physical-memory dword, and
   [table_span] entries for each cache, buffer, predictor and queue (the
   largest table of either preset has 256).  An element outside its range
   numbers -1 and lives in the side table. *)
let tables =
  [| (fun i -> Elem.Dcache i); (fun i -> Elem.Icache i);
     (fun i -> Elem.Lfb i); (fun i -> Elem.Btb i); (fun i -> Elem.Bht i);
     (fun i -> Elem.Ras i); (fun i -> Elem.Loop i); (fun i -> Elem.Tlb i);
     (fun i -> Elem.L2tlb i); (fun i -> Elem.Rob i); (fun i -> Elem.Ldq i);
     (fun i -> Elem.Stq i) |]

let areg_base = 1
let sreg_base = areg_base + 32
let mem_base = sreg_base + 32
let mem_dwords = Dvz_soc.Layout.mem_size / 8
let tables_base = mem_base + mem_dwords
let table_span = 512
let dense_size = tables_base + (Array.length tables * table_span)

let in_range base span i = if i >= 0 && i < span then base + i else -1
let table k i = in_range (tables_base + (k * table_span)) table_span i
let icache_table = 1
let rob_table = 9

(* [Elem.module_index] of every in-range table entry, so that a transition
   named by table and index needs no element. *)
let table_modules =
  Array.map
    (fun f -> Array.init table_span (fun i -> Elem.module_index (f i)))
    tables

let number = function
  | Elem.Pc -> 0
  | Elem.Areg i -> in_range areg_base 32 i
  | Elem.Sreg i -> in_range sreg_base 32 i
  | Elem.Mem i -> in_range mem_base mem_dwords i
  | Elem.Dcache i -> table 0 i
  | Elem.Icache i -> table icache_table i
  | Elem.Lfb i -> table 2 i
  | Elem.Btb i -> table 3 i
  | Elem.Bht i -> table 4 i
  | Elem.Ras i -> table 5 i
  | Elem.Loop i -> table 6 i
  | Elem.Tlb i -> table 7 i
  | Elem.L2tlb i -> table 8 i
  | Elem.Rob i -> table rob_table i
  | Elem.Ldq i -> table 10 i
  | Elem.Stq i -> table 11 i

let elem_of n =
  if n = 0 then Elem.Pc
  else if n < sreg_base then Elem.Areg (n - areg_base)
  else if n < mem_base then Elem.Sreg (n - sreg_base)
  else if n < tables_base then Elem.Mem (n - mem_base)
  else
    let n = n - tables_base in
    tables.(n / table_span) (n mod table_span)

let module_names = Array.of_list Elem.all_modules

(* A coverage point packs a module and its tainted count as
   [count * point_stride + module index]. *)
let point_stride = Array.length module_names

(* The plane in whole 64-bit words, so [tainted_elems] can skip a clean
   word with one test. *)
let plane_words = (dense_size + 63) / 64

type t = {
  mode : Policy.mode;
  bits : Bytes.t;  (** one taint bit per dense number *)
  side : (Elem.t, unit) Hashtbl.t;  (** tainted elements numbering -1 *)
  mutable count : int;  (** tainted elements, dense and side *)
  by_module : int array;
      (** tainted elements per {!Elem.module_index}, maintained on every
          transition *)
  saved : (Elem.t, bool) Hashtbl.t;  (** window-open checkpoint *)
  mutable points_memo : int list option;
      (** memoised [tainted_points] result, dropped on any taint
          transition: most window slots see no transition, so they share
          one list instead of rebuilding it per slot, and [Dualcore]
          drops a repeat with one pointer compare *)
  prov : Provenance.t option;
}

let create ?provenance mode =
  { mode; bits = Bytes.make (8 * plane_words) '\000';
    side = Hashtbl.create 8; count = 0;
    by_module = Array.make point_stride 0;
    saved = Hashtbl.create 64; points_memo = None; prov = provenance }

let mode t = t.mode

let reset t =
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  Hashtbl.reset t.side;
  t.count <- 0;
  Array.fill t.by_module 0 (Array.length t.by_module) 0;
  Hashtbl.reset t.saved;
  t.points_memo <- None

let copy_into src dst =
  Hashtbl.clear dst;
  Hashtbl.iter (Hashtbl.replace dst) src

let blit ~src ~dst =
  if src.mode <> dst.mode then invalid_arg "Taintstate.blit: mode mismatch";
  Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits);
  copy_into src.side dst.side;
  dst.count <- src.count;
  Array.blit src.by_module 0 dst.by_module 0 (Array.length src.by_module);
  copy_into src.saved dst.saved;
  dst.points_memo <- src.points_memo

let dense_tainted t n =
  Bytes.get_uint8 t.bits (n lsr 3) land (1 lsl (n land 7)) <> 0

(* [n] is [number e] throughout: callers number an element once. *)
let tainted_at t n e =
  if n >= 0 then dense_tainted t n
  else Hashtbl.length t.side > 0 && Hashtbl.mem t.side e

let flip_dense t n =
  let byte = n lsr 3 in
  Bytes.set_uint8 t.bits byte (Bytes.get_uint8 t.bits byte lxor (1 lsl (n land 7)))

(* The counters' side of a transition of an element of module [m]. *)
let count t m ~now =
  let d = if now then 1 else -1 in
  t.by_module.(m) <- t.by_module.(m) + d;
  t.count <- t.count + d;
  t.points_memo <- None

(* Flip [e]'s taint, which the caller has established is [not now]. *)
let transition t n e ~now =
  if n >= 0 then flip_dense t n
  else if now then Hashtbl.replace t.side e ()
  else Hashtbl.remove t.side e;
  count t (Elem.module_index e) ~now

let is_tainted t e = tainted_at t (number e) e

let set t e v =
  let n = number e in
  if tainted_at t n e <> v then transition t n e ~now:v

let set_tainted t e = set t e true

let rec any_tainted t = function
  | [] -> false
  | e :: rest -> is_tainted t e || any_tainted t rest

let rec taint_all t = function
  | [] -> ()
  | e :: rest ->
      set_tainted t e;
      taint_all t rest

(* Provenance labels for tainted predecessors, deduplicated so paired
   slots ([sa @ sb]) don't yield doubled source lists. *)
let tainted_src_labels t srcs =
  List.sort_uniq compare
    (List.filter_map
       (fun e -> if is_tainted t e then Some (Elem.to_string e) else None)
       srcs)

let bit b = if b then 1 else 0

(* Table 1's register-with-enable row on 1-bit taints: the taint a write
   leaves in an element that held [was], when its data's taint is [dt].
   The element model has no enable signal and no data values, so the
   enable counts as tainted and as differing exactly when the streams
   diverged, and the write changes the stored value exactly when they
   diverged (the conventions in the .mli). *)
let write_taints t ~diverged ~dt ~was =
  Policy.reg_en_taint t.mode ~width:1 ~en:true ~en_diff:diverged ~ent:1
    ~dt:(bit dt) ~qt:(bit was) ~dq_xor:(bit diverged)
  <> 0

(* The write of [dst] with the sources [sa] and [sb] of the two
   instances' writes. *)
let write t ~diverged dst sa sb =
  let n = number dst in
  let was = tainted_at t n dst in
  let now =
    write_taints t ~diverged ~dt:(any_tainted t sa || any_tainted t sb) ~was
  in
  if now <> was then begin
    (match t.prov with
    | Some p when now ->
        let kind, labels =
          match tainted_src_labels t (sa @ sb) with
          | [] -> (Provenance.Divergence, [])
          | labels -> (Provenance.Data, labels)
        in
        Provenance.record p ~dst:(Elem.to_string dst) ~srcs:labels kind
    | _ -> ());
    transition t n dst ~now
  end

(* Table 1's memory-write row on 1-bit taints: a clean, always-asserted
   write enable and the decision as the address, tainted when [st] and
   differing across the instances when [diff].  True when the decision
   control-taints the elements it touches; otherwise each keeps its taint
   as it was. *)
let ctrl_taints t ~st ~diff =
  Policy.mem_write_ctrl t.mode ~width:1 ~wen:true ~went:0 ~wen_diff:false
    ~addrt:(bit st) ~addr_diff:diff
  <> 0

(* The decision touching [ta] then [tb].  [sa] and [sb] are its sources,
   which only provenance reads. *)
let ctrl t ~label ~st ~diff sa sb ta tb =
  if ctrl_taints t ~st ~diff then
    match t.prov with
    | None ->
        taint_all t ta;
        taint_all t tb
    | Some p ->
        let labels = tainted_src_labels t (sa @ sb) in
        let kind, labels =
          if labels <> [] then (Provenance.Ctrl label, labels)
          else (Provenance.Divergence, [])
        in
        List.iter
          (fun e ->
            if not (is_tainted t e) then
              Provenance.record p ~dst:(Elem.to_string e) ~srcs:labels kind;
            set_tainted t e)
          (ta @ tb)

let copy_regs_to_spec t =
  for i = 0 to 31 do
    let v = dense_tainted t (areg_base + i) in
    if dense_tainted t (sreg_base + i) <> v then begin
      let e = Elem.Sreg i in
      (match t.prov with
      | Some p when v ->
          Provenance.record p ~dst:(Elem.to_string e)
            ~srcs:[ Elem.to_string (Elem.Areg i) ]
            Provenance.Data
      | _ -> ());
      transition t (sreg_base + i) e ~now:v
    end
  done

let snapshot t elems =
  Hashtbl.reset t.saved;
  List.iter (fun e -> Hashtbl.replace t.saved e (is_tainted t e)) elems

let restore t elems =
  List.iter
    (fun e ->
      match Hashtbl.find_opt t.saved e with
      | Some v ->
          (match t.prov with
          | Some p when v && not (is_tainted t e) ->
              (* A squash re-establishing taint from the checkpoint: the
                 element is its own predecessor, one taint epoch earlier. *)
              Provenance.record p ~dst:(Elem.to_string e)
                ~srcs:[ Elem.to_string e ] Provenance.Restore
          | _ -> ());
          set t e v
      | None -> ())
    elems

(* An event present in one instance but not the other (e.g. a cache fill on
   a hit/miss divergence): the difference itself is secret-dependent, so
   control decisions count as differing and the touched/written
   microarchitectural state taints — but only if the decision's sources are
   secret-derived or the instruction streams have diverged; an incidental
   bookkeeping write (say, a predictor update with clean operands) must not
   taint just because a neighbouring cache fill was asymmetric. *)
let apply_event t ~diverged = function
  | Effect.Write (dst, srcs) -> write t ~diverged dst srcs []
  | Effect.Copy_regs_to_spec -> copy_regs_to_spec t
  | Effect.Snapshot elems -> snapshot t elems
  | Effect.Restore elems -> restore t elems
  | Effect.Ctrl { kind; srcs; touched; _ } ->
      ctrl t ~label:(Effect.ctrl_kind_name kind)
        ~st:(any_tainted t srcs || diverged) ~diff:true srcs [] touched []

let apply_event_pair t ~diverged ea eb =
  match (ea, eb) with
  | ( Effect.Ctrl { kind = ka; value = va; srcs = sa; touched = ta },
      Effect.Ctrl { kind = kb; value = vb; srcs = sb; touched = tb } )
    when ka = kb ->
      let st = any_tainted t sa || any_tainted t sb || diverged in
      let diff = va <> vb || diverged in
      ctrl t ~label:(Effect.ctrl_kind_name ka) ~st ~diff sa sb ta tb
  | Effect.Write (da, sa), Effect.Write (db, sb) when Elem.equal da db ->
      write t ~diverged da sa sb
  | _ ->
      apply_event t ~diverged ea;
      apply_event t ~diverged eb

let rec apply_events t ~diverged ea eb =
  match (ea, eb) with
  | [], [] -> ()
  | e :: rest, [] | [], e :: rest ->
      apply_event t ~diverged e;
      apply_events t ~diverged rest []
  | a :: ra, b :: rb ->
      apply_event_pair t ~diverged a b;
      apply_events t ~diverged ra rb

let apply_pair t sa sb =
  match (sa, sb) with
  | None, None -> ()
  | Some s, None | None, Some s ->
      List.iter (apply_event t ~diverged:true) s.Effect.sl_events
  | Some a, Some b ->
      let diverged = a.Effect.sl_pc <> b.Effect.sl_pc in
      apply_events t ~diverged a.Effect.sl_events b.Effect.sl_events

(* Table [k]'s entry [i], building the element only for the side
   table. *)
let entry_tainted t k i =
  let n = table k i in
  if n < 0 then is_tainted t (tables.(k) i) else dense_tainted t n

let set_entry t k i now =
  let n = table k i in
  if n < 0 then set t (tables.(k) i) now
  else if dense_tainted t n <> now then begin
    flip_dense t n;
    count t table_modules.(k).(i) ~now
  end

(* [write ~diverged:false] of clean data to table [k]'s entry [i]. *)
let write_clean t k i =
  set_entry t k i
    (write_taints t ~diverged:false ~dt:false ~was:(entry_tainted t k i))

(* The events of [Core]'s committed-nop slot, paired with themselves as
   [apply_events] pairs them: [Write (Icache line, [])] on a refill, the
   fetch's [Ctrl C_addr] (sources [Pc; Icache line], touching
   [Icache line], equal values) and [Write (Rob rob, [])]. *)
let committed_nop t ~line ~refill ~rob =
  (match t.prov with
  | Some _ -> invalid_arg "Taintstate.committed_nop: provenance recorder armed"
  | None -> ());
  if refill then write_clean t icache_table line;
  if
    ctrl_taints t
      ~st:(is_tainted t Elem.Pc || entry_tainted t icache_table line)
      ~diff:false
  then set_entry t icache_table line true;
  write_clean t rob_table rob

let tainted_count t = t.count

let tainted_elems t =
  let acc = ref [] in
  for w = plane_words - 1 downto 0 do
    if Bytes.get_int64_le t.bits (w lsl 3) <> 0L then
      for byte = (w lsl 3) + 7 downto w lsl 3 do
        let b = Bytes.get_uint8 t.bits byte in
        if b <> 0 then
          for j = 7 downto 0 do
            if b land (1 lsl j) <> 0 then
              acc := elem_of ((byte lsl 3) lor j) :: !acc
          done
      done
  done;
  if Hashtbl.length t.side = 0 then !acc
  else
    List.merge Elem.compare
      (List.sort Elem.compare (Hashtbl.fold (fun e () l -> e :: l) t.side []))
      !acc

let tainted_points t =
  match t.points_memo with
  | Some l -> l
  | None ->
      let l = ref [] in
      for m = point_stride - 1 downto 0 do
        let c = t.by_module.(m) in
        if c > 0 then l := ((c * point_stride) + m) :: !l
      done;
      t.points_memo <- Some !l;
      !l

let tag_of_point p = (module_names.(p mod point_stride), p / point_stride)

let point_of_tag (tag, count) =
  let rec find m =
    if m = point_stride then None
    else if module_names.(m) = tag then Some ((count * point_stride) + m)
    else find (m + 1)
  in
  if count < 1 then None else find 0

let tainted_by_module t = List.map tag_of_point (tainted_points t)
