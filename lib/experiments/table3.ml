module Rng = Dvz_util.Rng
module Cfg = Dvz_uarch.Config
module Tablefmt = Dvz_util.Tablefmt
module Seed = Dejavuzz.Seed
module Packet = Dejavuzz.Packet
module Trigger_gen = Dejavuzz.Trigger_gen
module Trigger_opt = Dejavuzz.Trigger_opt
module Sd = Dvz_baselines.Specdoctor

type cell = { c_rate : float; c_to : float; c_eto : float }

type row = {
  r_core : string;
  r_fuzzer : string;
  r_cells : (Seed.trigger_kind * cell option) list;
}

let kinds = Array.to_list Seed.all_kinds

(* One DejaVuzz-style cell: sample seeds, evaluate, reduce, average. *)
let dejavuzz_cell ~style ~samples rng cfg kind =
  let hits = ref 0 and to_sum = ref 0 and eto_sum = ref 0 in
  for _ = 1 to samples do
    let seed = Seed.random_of_kind rng kind in
    let tc = Trigger_gen.generate ~style ~force_training:true cfg seed in
    if Trigger_opt.evaluate cfg tc then begin
      let reduced, _ = Trigger_opt.reduce cfg tc in
      let total, eff = Packet.training_overhead reduced in
      incr hits;
      to_sum := !to_sum + total;
      eto_sum := !eto_sum + eff
    end
  done;
  if !hits = 0 then None
  else
    Some
      { c_rate = float_of_int !hits /. float_of_int samples;
        c_to = float_of_int !to_sum /. float_of_int !hits;
        c_eto = float_of_int !eto_sum /. float_of_int !hits }

let specdoctor_cell ~samples rng cfg kind =
  if not (Array.exists (( = ) kind) Sd.supported) then None
  else begin
    let hits = ref 0 and to_sum = ref 0 in
    for _ = 1 to samples do
      let case = Sd.generate_of_kind rng cfg kind in
      if Sd.triggered cfg case then begin
        incr hits;
        to_sum := !to_sum + case.Sd.sc_training_insns
      end
    done;
    if !hits = 0 then None
    else
      Some
        { c_rate = float_of_int !hits /. float_of_int samples;
          c_to = float_of_int !to_sum /. float_of_int !hits;
          c_eto = float_of_int !to_sum /. float_of_int !hits }
  end

let run ?(samples = 40) ?(rng_seed = 2025) () =
  if samples < 1 then invalid_arg "Table3.run: samples must be at least 1";
  let rng = Rng.create rng_seed in
  let cell_row core fuzzer f =
    { r_core = core; r_fuzzer = fuzzer;
      r_cells = List.map (fun k -> (k, f k)) kinds }
  in
  let boom = Cfg.boom_small and xs = Cfg.xiangshan_minimal in
  [ cell_row "BOOM" "DejaVuzz" (dejavuzz_cell ~style:`Derived ~samples rng boom);
    cell_row "BOOM" "DejaVuzz*" (dejavuzz_cell ~style:`Random ~samples rng boom);
    cell_row "BOOM" "SpecDoctor" (specdoctor_cell ~samples rng boom);
    cell_row "XiangShan" "DejaVuzz"
      (dejavuzz_cell ~style:`Derived ~samples rng xs);
    cell_row "XiangShan" "DejaVuzz*"
      (dejavuzz_cell ~style:`Random ~samples rng xs) ]

let render rows =
  let headers =
    "Processor" :: "Fuzzer"
    :: List.map (fun k -> Seed.kind_name k ^ " TO(ETO)") kinds
  in
  let tbl = Tablefmt.create headers in
  List.iter
    (fun r ->
      let cells =
        List.map
          (fun (_, c) ->
            match c with
            | None -> "x"
            | Some c -> Printf.sprintf "%.1f (%.1f)" c.c_to c.c_eto)
          r.r_cells
      in
      Tablefmt.add_row tbl (r.r_core :: r.r_fuzzer :: cells))
    rows;
  "Table 3: training overhead per transient window type\n"
  ^ Tablefmt.render tbl
