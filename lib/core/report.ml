module Tablefmt = Dvz_util.Tablefmt

let finding_to_string f =
  Printf.sprintf "[iter %4d] %-8s %-22s via %-6s -> {%s}%s"
    f.Campaign.fd_iteration
    (match f.Campaign.fd_attack with
    | `Meltdown -> "Meltdown"
    | `Spectre -> "Spectre")
    (Seed.kind_name f.Campaign.fd_window)
    (match f.Campaign.fd_kind with `Timing -> "timing" | `Encode -> "encode")
    (String.concat ", " f.Campaign.fd_components)
    (match f.Campaign.fd_source with
    | None -> ""
    | Some s -> "  src=" ^ s)

let window_group = function
  | Seed.T_access_fault | Seed.T_page_fault | Seed.T_misalign -> "mem-excp"
  | Seed.T_illegal -> "illegal"
  | Seed.T_mem_disamb -> "mem-disamb"
  | Seed.T_branch | Seed.T_jump | Seed.T_return -> "mispred"

let table5 ~core_name findings =
  let tbl = Tablefmt.create [ "Attack"; "Transient Window"; "Encoded Timing Component" ] in
  let attacks = [ (`Meltdown, "Meltdown"); (`Spectre, "Spectre") ] in
  List.iter
    (fun (attack, label) ->
      let fs =
        List.filter (fun f -> f.Campaign.fd_attack = attack) findings
      in
      if fs <> [] then begin
        let windows =
          List.sort_uniq compare
            (List.map (fun f -> window_group f.Campaign.fd_window) fs)
        in
        let comps =
          List.sort_uniq compare
            (List.concat_map (fun f -> f.Campaign.fd_components) fs)
        in
        Tablefmt.add_row tbl
          [ label; String.concat ", " windows; String.concat ", " comps ]
      end)
    attacks;
  Printf.sprintf "%s\n%s" core_name (Tablefmt.render tbl)

let render_summary ~iterations ~triggered ~coverage ~first_bug ~crashes
    ~timeouts findings =
  let buf = Buffer.create 256 in
  Printf.bprintf buf
    "iterations=%d triggered=%d coverage=%d findings=%d first_bug=%s\n"
    iterations triggered coverage (List.length findings)
    (match first_bug with None -> "none" | Some i -> Printf.sprintf "iter %d" i);
  if crashes > 0 || timeouts > 0 then
    Printf.bprintf buf "harness_crashes=%d watchdog_timeouts=%d\n" crashes
      timeouts;
  List.iter
    (fun f -> Buffer.add_string buf (finding_to_string f ^ "\n"))
    findings;
  Buffer.contents buf

let summary stats =
  render_summary ~iterations:stats.Campaign.s_options.Campaign.iterations
    ~triggered:stats.Campaign.s_triggered
    ~coverage:stats.Campaign.s_final_coverage
    ~first_bug:stats.Campaign.s_first_bug
    ~crashes:(List.length stats.Campaign.s_crashes)
    ~timeouts:stats.Campaign.s_timeouts stats.Campaign.s_findings
