module Dualcore = Dvz_uarch.Dualcore

type t = { seen : (string * int, unit) Hashtbl.t }

let create () = { seen = Hashtbl.create 512 }

let add t fresh point =
  if not (Hashtbl.mem t.seen point) then begin
    Hashtbl.replace t.seen point ();
    incr fresh
  end

let observe t window_counts =
  let fresh = ref 0 in
  List.iter (List.iter (add t fresh)) window_counts;
  !fresh

let observe_result t r = observe t r.Dualcore.r_window_counts

let merge t other =
  let fresh = ref 0 in
  Hashtbl.iter (fun point () -> add t fresh point) other.seen;
  !fresh

let points t = Hashtbl.length t.seen

let to_list t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.seen [] |> List.sort compare

let of_list points =
  let t = create () in
  List.iter (fun p -> Hashtbl.replace t.seen p ()) points;
  t
