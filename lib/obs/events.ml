type ring = {
  rg_lines : string array;  (* circular; slot i mod cap *)
  mutable rg_total : int;   (* lines ever written *)
}

(* A bounded FIFO a producer fills and a consumer periodically drains —
   the worker side of the fleet telemetry plane.  Overflow between
   drains drops (counted) instead of growing without bound. *)
type batch = {
  bt_cap : int;
  bt_lines : string Queue.t;
  mutable bt_dropped : int;
}

type target =
  | Null
  | Buf of Buffer.t
  | Chan of out_channel
  | Ring of ring
  | Batch of batch
  | Tee of sink * sink

and sink = {
  target : target;
  context : (string * Json.t) list;
  mutex : Mutex.t;
}

let make target = { target; context = []; mutex = Mutex.create () }
let null = make Null
let to_buffer b = make (Buf b)
let to_channel c = make (Chan c)

let ring ?(cap = 1024) () =
  if cap < 1 then invalid_arg "Events.ring: cap must be positive";
  make (Ring { rg_lines = Array.make cap ""; rg_total = 0 })

let batch ?(cap = 512) () =
  if cap < 1 then invalid_arg "Events.batch: cap must be positive";
  make (Batch { bt_cap = cap; bt_lines = Queue.create (); bt_dropped = 0 })

let tee a b = make (Tee (a, b))

let with_context sink fields = { sink with context = sink.context @ fields }

let rec is_null sink =
  match sink.target with
  | Null -> true
  | Tee (a, b) -> is_null a && is_null b
  | Buf _ | Chan _ | Ring _ | Batch _ -> false

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The line is rendered once (with the outermost sink's context) and
   then pushed through the tee fan-out; each leaf serialises under its
   own lock so concurrent emitters never interleave partial lines. *)
let rec write_line sink line =
  match sink.target with
  | Null -> ()
  | Tee (a, b) ->
      write_line a line;
      write_line b line
  | Buf _ | Chan _ | Ring _ | Batch _ ->
      locked sink.mutex (fun () ->
          match sink.target with
          | Buf b ->
              Buffer.add_string b line;
              Buffer.add_char b '\n'
          | Chan c ->
              output_string c line;
              output_char c '\n'
          | Ring r ->
              let cap = Array.length r.rg_lines in
              r.rg_lines.(r.rg_total mod cap) <- line;
              r.rg_total <- r.rg_total + 1
          | Batch b ->
              if Queue.length b.bt_lines >= b.bt_cap then
                b.bt_dropped <- b.bt_dropped + 1
              else Queue.add line b.bt_lines
          | Null | Tee _ -> ())

(* Held lines are rendered JSON, which never contains a raw newline, so
   the buffer splits back into exactly the lines emitted. *)
let defer sink =
  if is_null sink then (null, ignore)
  else begin
    let held = Buffer.create 4096 in
    let commit () =
      let lines = Buffer.contents held in
      Buffer.clear held;
      List.iter
        (fun line -> if line <> "" then write_line sink line)
        (String.split_on_char '\n' lines)
    in
    ({ (to_buffer held) with context = sink.context }, commit)
  end

let emit sink fields =
  if not (is_null sink) then
    write_line sink (Json.to_string (Json.Obj (fields @ sink.context)))

(* For lines rendered elsewhere (a fleet worker's batched events replayed
   into the coordinator's ring): label with this sink's context by
   splicing into the object rather than re-parsing it. *)
let emit_rendered sink line =
  if not (is_null sink) then begin
    let line =
      if sink.context = [] then line
      else
        let ctx =
          String.concat ","
            (List.map
               (fun (k, v) ->
                 Json.to_string (Json.Str k) ^ ":" ^ Json.to_string v)
               sink.context)
        in
        let n = String.length line in
        if n >= 2 && line.[0] = '{' && line.[n - 1] = '}' then
          if n = 2 then "{" ^ ctx ^ "}"
          else String.sub line 0 (n - 1) ^ "," ^ ctx ^ "}"
        else Json.to_string (Json.Obj (("line", Json.Str line) :: sink.context))
    in
    write_line sink line
  end

let rec recent sink n =
  match sink.target with
  | Ring r ->
      locked sink.mutex (fun () ->
          let cap = Array.length r.rg_lines in
          let avail = min r.rg_total cap in
          let take = max 0 (min n avail) in
          let rec go k acc =
            if k < 0 then acc
            else
              go (k - 1) (r.rg_lines.((r.rg_total - 1 - k) mod cap) :: acc)
          in
          List.rev (go (take - 1) []))
  | Tee (a, b) -> (
      match recent a n with [] -> recent b n | lines -> lines)
  | Null | Buf _ | Chan _ | Batch _ -> []

let rec drain sink =
  match sink.target with
  | Batch b ->
      locked sink.mutex (fun () ->
          let lines =
            List.rev (Queue.fold (fun acc l -> l :: acc) [] b.bt_lines)
          in
          Queue.clear b.bt_lines;
          let dropped = b.bt_dropped in
          b.bt_dropped <- 0;
          (lines, dropped))
  | Tee (a, b) ->
      let la, da = drain a in
      let lb, db = drain b in
      (la @ lb, da + db)
  | Null | Buf _ | Chan _ | Ring _ -> ([], 0)

let rec flush sink =
  match sink.target with
  | Chan c -> Stdlib.flush c
  | Tee (a, b) ->
      flush a;
      flush b
  | Null | Buf _ | Ring _ | Batch _ -> ()
