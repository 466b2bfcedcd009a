module Dualcore = Dvz_uarch.Dualcore

type t = { seen : (string * int, unit) Hashtbl.t }

let create () = { seen = Hashtbl.create 512 }

let observe t log =
  (* Only transient-window slots count (§4.2.2: the coverage is measured
     over the transient execution's taint log). *)
  let fresh = ref 0 in
  List.iter
    (fun e ->
      if e.Dualcore.le_in_window then
        List.iter
          (fun (m, count) ->
            if count > 0 && not (Hashtbl.mem t.seen (m, count)) then begin
              Hashtbl.replace t.seen (m, count) ();
              incr fresh
            end)
          e.Dualcore.le_per_module)
    log;
  !fresh

let observe_result t r = observe t r.Dualcore.r_log

let merge t other =
  let fresh = ref 0 in
  Hashtbl.iter
    (fun k () ->
      if not (Hashtbl.mem t.seen k) then begin
        Hashtbl.replace t.seen k ();
        incr fresh
      end)
    other.seen;
  !fresh

let points t = Hashtbl.length t.seen

let to_list t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.seen [] |> List.sort compare

let of_list points =
  let t = create () in
  List.iter (fun p -> Hashtbl.replace t.seen p ()) points;
  t
