let slot_line (s : Effect.slot) =
  let marker = if s.Effect.sl_transient then "T" else "C" in
  let annot =
    String.concat ""
      [ (match s.Effect.sl_window_opened with
        | Some k -> "  <window open: " ^ Effect.window_kind_name k ^ ">"
        | None -> "");
        (if s.Effect.sl_window_closed then "  <squash>" else "");
        (if s.Effect.sl_swapped then "  <swap>" else "") ]
  in
  Printf.sprintf "[%6d] %s 0x%04x  %-28s%s" s.Effect.sl_cycles marker
    s.Effect.sl_pc
    (Dvz_isa.Insn.to_string s.Effect.sl_insn)
    annot

let render_slots slots =
  String.concat "\n" (List.map slot_line slots) ^ "\n"

let window_line (w : Core.window_record) =
  Printf.sprintf
    "window %-22s trigger=0x%04x enq=%-3d cycles=%-4d slot=%-5d %s%s%s"
    (Effect.window_kind_name w.Core.wr_kind)
    w.Core.wr_trigger_pc w.Core.wr_enqueued w.Core.wr_cycles
    w.Core.wr_start_slot
    (if w.Core.wr_in_transient_blob then "[transient-blob]" else "[training]")
    (if w.Core.wr_secret_accessed then " [secret]" else "")
    (if w.Core.wr_secret_fault then " [privilege]" else "")

let render_windows windows =
  match windows with
  | [] -> "(no transient windows)\n"
  | ws -> String.concat "\n" (List.map window_line ws) ^ "\n"

let render_result (r : Dualcore.result) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "--- instance A windows ---\n";
  Buffer.add_string buf (render_windows r.Dualcore.r_windows_a);
  Buffer.add_string buf "--- instance B windows ---\n";
  Buffer.add_string buf (render_windows r.Dualcore.r_windows_b);
  Buffer.add_string buf
    (Printf.sprintf "cycles: A=%d B=%d  slots=%d  committed(A)=%d\n"
       r.Dualcore.r_cycles_a r.Dualcore.r_cycles_b r.Dualcore.r_slots
       r.Dualcore.r_committed_a);
  let show label elems =
    Buffer.add_string buf
      (Printf.sprintf "%s (%d): %s\n" label (List.length elems)
         (String.concat " " (List.map Elem.to_string elems)))
  in
  show "live tainted" r.Dualcore.r_live_tainted;
  show "dead tainted" r.Dualcore.r_dead_tainted;
  Buffer.contents buf
