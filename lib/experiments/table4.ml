open Dvz_ir
module Cfg = Dvz_uarch.Config
module Core = Dvz_uarch.Core
module Dualcore = Dvz_uarch.Dualcore
module Packet = Dejavuzz.Packet
module Simpool = Dejavuzz.Simpool
module Tablefmt = Dvz_util.Tablefmt

type timing = { base : float; cellift : float; diffift : float }

type result = {
  core : string;
  compile : timing;
  sims : (string * timing) list;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* A representative netlist for instrumentation cost: the Figure 2 RoB
   circuit plus a register-file-sized memory, scaled with the core. *)
let compile_netlist cfg =
  let scale = match cfg.Cfg.preset with Cfg.Boom -> 1 | Cfg.Xiangshan -> 4 in
  let rob = Circuits.rob ~entries:(64 * scale) ~uopc_width:8 in
  let nl = rob.Circuits.rob_nl in
  Netlist.scoped nl "prf" (fun () ->
      let m = Netlist.mem nl ~name:"regfile" ~width:32 ~depth:(128 * scale) () in
      let waddr = Netlist.input nl ~name:"waddr" 10 in
      let wdata = Netlist.input nl ~name:"wdata" 32 in
      let wen = Netlist.input nl ~name:"wen" 1 in
      Netlist.mem_write nl m ~wen ~addr:waddr ~data:wdata;
      (* A realistic register file has several read ports; flattening turns
         each into a full word-select chain, which is where CellIFT's
         compile-time blowup comes from. *)
      for p = 0 to 5 do
        let raddr = Netlist.input nl ~name:(Printf.sprintf "raddr%d" p) 10 in
        ignore (Netlist.mem_read nl m raddr)
      done);
  nl

(* The fastest of [reps] single runs: a scheduling hiccup inflates one
   run, not the cell. *)
let fastest reps f =
  List.fold_left Float.min infinity (List.init reps (fun _ -> fst (time f)))

let compile_times cfg reps =
  let nl = compile_netlist cfg in
  { base = fastest reps (fun () -> Sim.create nl);
    cellift =
      fastest reps (fun () ->
          (* Cell-level instrumentation requires flattened memories. *)
          Dvz_ift.Shadow.create Dvz_ift.Policy.Cellift (Flatten.flatten nl));
    diffift =
      fastest reps (fun () -> Dvz_ift.Shadow.create Dvz_ift.Policy.Diffift nl) }

(* Simulation runs draw from [Simpool], as the campaign's do, so every run
   after a cell's first times the simulation, not the build.  Base is two
   bare cores: [Core.finish] builds no effect events. *)
let run_base cfg stim reps =
  fastest reps (fun () ->
      Core.finish (Simpool.acquire_core cfg stim);
      Core.finish (Simpool.acquire_core cfg stim))

let run_mode cfg stim mode reps =
  fastest reps (fun () ->
      ignore (Dualcore.run (Simpool.acquire ~mode cfg stim)))

let run ?(reps = 30) cfg =
  if reps < 1 then invalid_arg "Table4.run: reps must be at least 1";
  let compile = compile_times cfg reps in
  let sims =
    List.map
      (fun name ->
        let tc = Attacks.build cfg name in
        let stim () = Packet.stimulus ~secret:Attacks.secret tc in
        let base = run_base cfg (stim ()) reps in
        let cellift = run_mode cfg (stim ()) Dvz_ift.Policy.Cellift reps in
        let diffift = run_mode cfg (stim ()) Dvz_ift.Policy.Diffift reps in
        (Attacks.to_string name, { base; cellift; diffift }))
      Attacks.all
  in
  { core = cfg.Cfg.name; compile; sims }

let render results =
  let tbl =
    Tablefmt.create [ "Core"; "Phase"; "Base"; "CellIFT"; "diffIFT"; "x(cell)"; "x(diff)" ]
  in
  List.iter
    (fun r ->
      let row phase show t =
        Tablefmt.add_row tbl
          [ r.core; phase; show t.base; show t.cellift; show t.diffift;
            Printf.sprintf "%.1fx" (t.cellift /. t.base);
            Printf.sprintf "%.1fx" (t.diffift /. t.base) ]
      in
      let us s = Printf.sprintf "%.1fus" (s *. 1e6) in
      row "Compile (instrumentation)" us r.compile;
      List.iter (fun (name, t) -> row ("Simulate " ^ name) us t) r.sims;
      Tablefmt.add_sep tbl)
    results;
  "Table 4: overhead of differential information flow tracking\n"
  ^ Tablefmt.render tbl
