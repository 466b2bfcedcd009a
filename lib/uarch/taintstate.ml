module Policy = Dvz_ift.Policy
module Provenance = Dvz_ift.Provenance

type t = {
  mode : Policy.mode;
  taints : (Elem.t, unit) Hashtbl.t;
  saved : (Elem.t, bool) Hashtbl.t;  (** window-open checkpoint *)
  by_module : (string, int) Hashtbl.t;
      (** per-module tainted-element counts, maintained incrementally on
          taint transitions — [tainted_by_module] is read once per logged
          slot, and rebuilding it by walking every tainted element (each
          [Elem.module_of] call formats a bank name) dominated the log *)
  mutable bymod_cache : (string * int) list option;
      (** memoised [tainted_by_module] result, dropped on any taint
          transition: most logged slots see no transition, so the log
          shares one list instead of folding and sorting per slot *)
  prov : Provenance.t option;
}

let create ?provenance mode =
  { mode; taints = Hashtbl.create 256; saved = Hashtbl.create 64;
    by_module = Hashtbl.create 16; bymod_cache = None; prov = provenance }

let mode t = t.mode

let reset t =
  Hashtbl.reset t.taints;
  Hashtbl.reset t.saved;
  Hashtbl.reset t.by_module;
  t.bymod_cache <- None

let copy_into src dst =
  Hashtbl.clear dst;
  Hashtbl.iter (Hashtbl.replace dst) src

let blit ~src ~dst =
  if src.mode <> dst.mode then invalid_arg "Taintstate.blit: mode mismatch";
  copy_into src.taints dst.taints;
  copy_into src.saved dst.saved;
  copy_into src.by_module dst.by_module;
  dst.bymod_cache <- src.bymod_cache

(* [add] and [remove] are the table side of a transition the caller has
   already established ([e] clean, resp. tainted). *)
let add t e =
  Hashtbl.replace t.taints e ();
  t.bymod_cache <- None;
  let m = Elem.module_of e in
  let cur = try Hashtbl.find t.by_module m with Not_found -> 0 in
  Hashtbl.replace t.by_module m (cur + 1)

let remove t e =
  Hashtbl.remove t.taints e;
  t.bymod_cache <- None;
  let m = Elem.module_of e in
  match Hashtbl.find_opt t.by_module m with
  | Some n when n <= 1 -> Hashtbl.remove t.by_module m
  | Some n -> Hashtbl.replace t.by_module m (n - 1)
  | None -> ()

let is_tainted t e = Hashtbl.mem t.taints e

let set_tainted t e = if not (is_tainted t e) then add t e

let set t e v =
  if v then set_tainted t e else if is_tainted t e then remove t e

let any_tainted t es = List.exists (is_tainted t) es

(* Provenance labels for tainted predecessors, deduplicated so paired
   slots ([sa @ sb]) don't yield doubled source lists. *)
let tainted_src_labels t srcs =
  List.sort_uniq compare
    (List.filter_map
       (fun e -> if is_tainted t e then Some (Elem.to_string e) else None)
       srcs)

let bit b = if b then 1 else 0

(* Table 1's register-with-enable row on 1-bit taints.  The element model
   has no enable signal and no data values, so [dst]'s enable counts as
   tainted and as differing exactly when the streams diverged, and the
   write changes the stored value exactly when they diverged (the
   conventions in the .mli). *)
let write t ~diverged dst srcs =
  let was = is_tainted t dst in
  let now =
    Policy.reg_en_taint t.mode ~width:1 ~en:true ~en_diff:diverged ~ent:1
      ~dt:(bit (any_tainted t srcs)) ~qt:(bit was) ~dq_xor:(bit diverged)
    <> 0
  in
  if now && not was then begin
    (match t.prov with
    | None -> ()
    | Some p ->
        let kind, labels =
          match tainted_src_labels t srcs with
          | [] -> (Provenance.Divergence, [])
          | labels -> (Provenance.Data, labels)
        in
        Provenance.record p ~dst:(Elem.to_string dst) ~srcs:labels kind);
    add t dst
  end
  else if was && not now then remove t dst

(* Table 1's memory-write row on 1-bit taints: a clean, always-asserted
   write enable and the decision as the address, which differs across the
   instances when [diff].  A 1 control-taints every touched element; a 0
   leaves each touched element's taint as it was. *)
let ctrl ?(label = "ctrl") ?(psrcs = []) t ~st ~diff touched =
  if
    Policy.mem_write_ctrl t.mode ~width:1 ~wen:true ~went:0 ~wen_diff:false
      ~addrt:(bit st) ~addr_diff:diff
    <> 0
  then
    match t.prov with
    | None -> List.iter (set_tainted t) touched
    | Some p ->
        let labels = tainted_src_labels t psrcs in
        let kind, labels =
          if labels <> [] then (Provenance.Ctrl label, labels)
          else (Provenance.Divergence, [])
        in
        List.iter
          (fun e ->
            if not (is_tainted t e) then
              Provenance.record p ~dst:(Elem.to_string e) ~srcs:labels kind;
            set_tainted t e)
          touched

let copy_regs_to_spec t =
  for i = 0 to 31 do
    let v = is_tainted t (Elem.Areg i) in
    (match t.prov with
    | Some p when v && not (is_tainted t (Elem.Sreg i)) ->
        Provenance.record p
          ~dst:(Elem.to_string (Elem.Sreg i))
          ~srcs:[ Elem.to_string (Elem.Areg i) ]
          Provenance.Data
    | _ -> ());
    set t (Elem.Sreg i) v
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
  | Effect.Write (dst, srcs) -> write t ~diverged dst srcs
  | Effect.Copy_regs_to_spec -> copy_regs_to_spec t
  | Effect.Snapshot elems -> snapshot t elems
  | Effect.Restore elems -> restore t elems
  | Effect.Ctrl { kind; srcs; touched; _ } ->
      ctrl ~label:(Effect.ctrl_kind_name kind) ~psrcs:srcs t
        ~st:(any_tainted t srcs || diverged) ~diff:true touched

let apply_event_pair t ~diverged ea eb =
  match (ea, eb) with
  | ( Effect.Ctrl { kind = ka; value = va; srcs = sa; touched = ta },
      Effect.Ctrl { kind = kb; value = vb; srcs = sb; touched = tb } )
    when ka = kb ->
      let st = any_tainted t (sa @ sb) || diverged in
      let diff = va <> vb || diverged in
      ctrl ~label:(Effect.ctrl_kind_name ka) ~psrcs:(sa @ sb) t ~st ~diff
        (ta @ tb)
  | Effect.Write (da, sa), Effect.Write (db, sb) when Elem.equal da db ->
      write t ~diverged da (sa @ sb)
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

let tainted_count t = Hashtbl.length t.taints

let tainted_elems t =
  List.sort Elem.compare (Hashtbl.fold (fun e () acc -> e :: acc) t.taints [])

let tainted_by_module t =
  match t.bymod_cache with
  | Some l -> l
  | None ->
      let l =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.by_module [])
      in
      t.bymod_cache <- Some l;
      l
