open Dvz_isa
open Dvz_soc

type role = Trigger_training | Window_training | Transient

type t = {
  name : string;
  role : role;
  insns : Insn.t list;
  training_total : int;
  training_effective : int;
}

let make ~name ~role ?(training_total = 0) ?(training_effective = 0) insns =
  { name; role; insns; training_total; training_effective }

let to_blob p =
  { Swapmem.name = p.name;
    words = Array.of_list (List.map Encode.encode p.insns);
    is_transient = (p.role = Transient) }

type testcase = {
  seed : Seed.t;
  transient : t;
  trigger_trainings : t list;
  window_trainings : t list;
  trigger_addr : int;
  window_addr : int;
  window_words : int;
  data : (int * int) list;
  perms : (int * Perm.t) list;
  tighten : bool;
  gadget_tags : string list;
}

(* Every run stops here at the latest, far below the campaign
   watchdog's 50,000-slot default. *)
let max_slots = 3000

(* The blobs of [stimulus] are the window trainings, then the trigger
   trainings, then the transient packet; [schedule] indexes them. *)
let schedule ~keep tc =
  let nw = List.length tc.window_trainings in
  List.init nw Fun.id
  @ List.map (fun k -> nw + k) keep
  @ [ nw + List.length tc.trigger_trainings ]

let stimulus ~secret tc =
  let packets =
    tc.window_trainings @ tc.trigger_trainings @ [ tc.transient ]
  in
  let blobs = List.map to_blob packets in
  let schedule =
    schedule ~keep:(List.init (List.length tc.trigger_trainings) Fun.id) tc
  in
  { Dvz_uarch.Core.st_swapmem = Swapmem.create ~blobs ~schedule;
    st_tighten_secret = tc.tighten;
    st_secret = secret;
    st_data = tc.data;
    st_perms = tc.perms;
    st_max_slots = max_slots }

let with_transient stim p =
  let swap = stim.Dvz_uarch.Core.st_swapmem in
  let blob = to_blob p in
  let blobs =
    List.map
      (fun b -> if b.Swapmem.is_transient then blob else b)
      (Swapmem.blobs swap)
  in
  { stim with
    Dvz_uarch.Core.st_swapmem =
      Swapmem.create ~blobs ~schedule:(Swapmem.schedule swap) }

let transient_words stim =
  (List.find
     (fun b -> b.Swapmem.is_transient)
     (Swapmem.blobs stim.Dvz_uarch.Core.st_swapmem))
    .Swapmem.words

let training_overhead tc =
  List.fold_left
    (fun (total, eff) p -> (total + p.training_total, eff + p.training_effective))
    (0, 0)
    (tc.trigger_trainings @ tc.window_trainings)

let with_trigger_trainings tc trainings =
  { tc with trigger_trainings = trainings }
