open Dvz_isa
open Dvz_soc
module Core = Dvz_uarch.Core

type layout = {
  lo_bases : (string * int) list;
  lo_entry : int;
  lo_insns : (int * Insn.t) list;
}

(* Relocation bases are 1 KiB aligned: that preserves predictor indices for
   every power-of-two index function up to 256 entries (BHT/BTB strides),
   which is what keeps aligned training aligned after migration. *)
let align = 0x400

let region_base = 0x2000 (* the two free pages between swapMem and the
                            dedicated region *)
let region_end = 0x4000

let trampoline_words = 8

let migrate tc =
  let packets =
    tc.Packet.window_trainings @ tc.Packet.trigger_trainings
    @ [ tc.Packet.transient ]
  in
  let next_base = ref region_base in
  let alloc n_words =
    let base = !next_base in
    let size = 4 * (n_words + trampoline_words) in
    next_base := (base + size + align - 1) / align * align;
    if !next_base > region_end then
      failwith "Migrate: packets exceed the flat-memory region";
    base
  in
  let placed =
    List.map
      (fun (p : Packet.t) -> (p, alloc (List.length p.Packet.insns)))
      packets
  in
  let bases = List.map (fun (p, b) -> (p.Packet.name, b)) placed in
  let rec stitch acc = function
    | [] -> acc
    | (p, base) :: rest ->
        let next_entry =
          match rest with (_, b) :: _ -> Some b | [] -> None
        in
        let is_last = rest = [] in
        let jump_to_next addr =
          match next_entry with
          | Some target -> Insn.Jal (Reg.zero, target - addr)
          | None -> Insn.Ebreak
        in
        (* Packet body: sequence-terminating ebreaks become jumps to the
           next packet (the migrated replacement for the trap-handler
           swap); the final packet keeps them. *)
        let body =
          List.mapi
            (fun i insn ->
              let addr = base + (4 * i) in
              match insn with
              | Insn.Ebreak when not is_last -> (addr, jump_to_next addr)
              | insn -> (addr, insn))
            p.Packet.insns
        in
        (* Trampoline: control flow that used to land on swapMem's ebreak
           padding (taken training branches, trained jumps) lands on jumps
           to the next packet instead. *)
        let body_len = List.length p.Packet.insns in
        let tramp =
          List.init trampoline_words (fun i ->
              let addr = base + (4 * (body_len + i)) in
              (addr, jump_to_next addr))
        in
        stitch (acc @ body @ tramp) rest
  in
  let insns = stitch [] placed in
  { lo_bases = bases;
    lo_entry = (match placed with (_, b) :: _ -> b | [] -> region_base);
    lo_insns = insns }

let render_assembly layout =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, base) ->
      Buffer.add_string buf (Printf.sprintf "# %s at 0x%04x\n" name base))
    layout.lo_bases;
  Buffer.add_string buf (Printf.sprintf "# entry: 0x%04x\n" layout.lo_entry);
  List.iter
    (fun (addr, insn) ->
      Buffer.add_string buf
        (Printf.sprintf "%04x: %s\n" addr (Insn.to_string insn)))
    layout.lo_insns;
  Buffer.contents buf

let runs_on_flat_memory cfg ~secret tc =
  let layout = migrate tc in
  (* Deliver the migrated program through st_data (dword writes over the
     flat region) and enter it with a single trampoline blob. *)
  let insn_words = List.map (fun (a, i) -> (a, Encode.encode i)) layout.lo_insns in
  let word_at addr =
    match List.assoc_opt addr insn_words with
    | Some w -> w
    | None -> Encode.encode Insn.Ebreak
  in
  let dwords =
    let addrs = List.sort_uniq compare (List.map fst insn_words) in
    let dword_addrs = List.sort_uniq compare (List.map (fun a -> a land lnot 7) addrs) in
    List.map
      (fun a -> (a, word_at a lor (word_at (a + 4) lsl 32)))
      dword_addrs
  in
  let entry_blob =
    { Swapmem.name = "migrated-entry";
      words = [| Encode.encode (Insn.Jal (Reg.zero, layout.lo_entry - Layout.swap_base)) |];
      is_transient = true }
  in
  let stim =
    { Core.st_swapmem = Swapmem.create ~blobs:[ entry_blob ] ~schedule:[ 0 ];
      (* Permission flips are swap-time actions; the migrated flow runs with
         the training-time permissions (the paper's manual-stitching
         caveat). *)
      st_tighten_secret = false;
      st_secret = secret;
      st_data = tc.Packet.data @ dwords;
      st_perms = tc.Packet.perms;
      st_max_slots = 4000 }
  in
  let core = Core.create cfg stim in
  Core.finish core;
  (* The trigger keeps its packet-relative offset; recompute its migrated
     address. *)
  let transient_base = List.assoc tc.Packet.transient.Packet.name layout.lo_bases in
  let trigger = transient_base + (tc.Packet.trigger_addr - Layout.swap_base) in
  List.exists
    (fun (w : Core.window_record) ->
      w.Core.wr_trigger_pc = trigger
      && w.Core.wr_enqueued > 0
      && Trigger_gen.expected_window tc.Packet.seed w.Core.wr_kind)
    (Core.windows core)
