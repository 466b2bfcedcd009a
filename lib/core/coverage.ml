module Dualcore = Dvz_uarch.Dualcore
module Taintstate = Dvz_uarch.Taintstate

(* Bit [p] of [bits] is set once the packed point [p]
   (Taintstate.tainted_points) is covered, and [points] lists the covered
   points, newest first. *)
type t = {
  mutable bits : Bytes.t;
  mutable points : int list;
  mutable n : int;
}

(* Room for 512 points to start: a shard stays in the minor heap. *)
let create () = { bits = Bytes.make 64 '\000'; points = []; n = 0 }

let grow t byte =
  let len = ref (Bytes.length t.bits) in
  while !len <= byte do
    len := 2 * !len
  done;
  let bits = Bytes.make !len '\000' in
  Bytes.blit t.bits 0 bits 0 (Bytes.length t.bits);
  t.bits <- bits

(* Adds point [p]; true when it was fresh. *)
let add t p =
  let byte = p lsr 3 in
  if byte >= Bytes.length t.bits then grow t byte;
  let b = Bytes.get_uint8 t.bits byte and mask = 1 lsl (p land 7) in
  b land mask = 0
  && begin
    Bytes.set_uint8 t.bits byte (b lor mask);
    t.points <- p :: t.points;
    t.n <- t.n + 1;
    true
  end

let rec add_all t fresh = function
  | [] -> fresh
  | p :: rest -> add_all t (if add t p then fresh + 1 else fresh) rest

let observe_result t r = List.fold_left (add_all t) 0 r.Dualcore.r_window_counts

let merge t other = add_all t 0 other.points

let points t = t.n

let point_of caller (tag, count) =
  if count < 1 then
    invalid_arg
      (Printf.sprintf "Coverage.%s: count %d of %s is not positive" caller
         count tag);
  match Taintstate.point_of_tag (tag, count) with
  | Some p -> p
  | None ->
      invalid_arg (Printf.sprintf "Coverage.%s: unknown module tag %S" caller tag)

let observe t window_counts =
  List.fold_left
    (fun fresh v -> add_all t fresh (List.map (point_of "observe") v))
    0 window_counts

let to_list t = List.sort compare (List.map Taintstate.tag_of_point t.points)

let of_list points =
  let t = create () in
  ignore (add_all t 0 (List.map (point_of "of_list") points));
  t
