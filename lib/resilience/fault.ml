type action =
  | Crash of string
  | Hang
  | Corrupt
  | Kill of string

type fault = { f_iteration : int; f_cycle : int; f_action : action }
type plan = fault list

exception Injected of { iteration : int; cycle : int; message : string }
exception Killed of { iteration : int; cycle : int; message : string }

let () =
  Printexc.register_printer (function
    | Injected { iteration; cycle; message } ->
        Some
          (Printf.sprintf "Dvz_resilience.Fault.Injected(iter=%d, cycle=%d, %s)"
             iteration cycle message)
    | Killed { iteration; cycle; message } ->
        Some
          (Printf.sprintf "Dvz_resilience.Fault.Killed(iter=%d, cycle=%d, %s)"
             iteration cycle message)
    | _ -> None)

let action_name = function
  | Crash _ -> "crash"
  | Hang -> "hang"
  | Corrupt -> "corrupt"
  | Kill _ -> "kill"

let fault_to_string f =
  Printf.sprintf "%s@%d:%d" (action_name f.f_action) f.f_iteration f.f_cycle

let to_string plan = String.concat "," (List.map fault_to_string plan)

let parse_fault spec =
  match String.index_opt spec '@' with
  | None -> Error (Printf.sprintf "fault %S: expected ACTION@ITER:CYCLE" spec)
  | Some at -> (
      let name = String.sub spec 0 at in
      let rest = String.sub spec (at + 1) (String.length spec - at - 1) in
      let action =
        match name with
        | "crash" -> Ok (Crash "injected crash")
        | "hang" -> Ok Hang
        | "corrupt" -> Ok Corrupt
        | "kill" -> Ok (Kill "injected kill")
        | _ ->
            Error
              (Printf.sprintf
                 "fault %S: unknown action %S (want crash|hang|corrupt|kill)"
                 spec name)
      in
      match action with
      | Error _ as e -> e
      | Ok f_action -> (
          match String.index_opt rest ':' with
          | None ->
              Error (Printf.sprintf "fault %S: expected ITER:CYCLE after '@'" spec)
          | Some colon -> (
              let iter_s = String.sub rest 0 colon in
              let cycle_s =
                String.sub rest (colon + 1) (String.length rest - colon - 1)
              in
              match (int_of_string_opt iter_s, int_of_string_opt cycle_s) with
              | Some i, Some c when i >= 0 && c >= 0 ->
                  Ok { f_iteration = i; f_cycle = c; f_action }
              | _ ->
                  Error
                    (Printf.sprintf
                       "fault %S: iteration and cycle must be non-negative \
                        integers"
                       spec))))

let parse s =
  let specs =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  if specs = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc spec ->
        match acc with
        | Error _ as e -> e
        | Ok fs -> (
            match parse_fault spec with
            | Ok f -> Ok (f :: fs)
            | Error _ as e -> e))
      (Ok []) specs
    |> Result.map List.rev

(* Domain-local ambient state: each worker domain arms its own faults, so
   parallel campaign trials never see each other's plan. *)
type state = { mutable pending : fault list; mutable fired : fault list }

let key = Domain.DLS.new_key (fun () -> { pending = []; fired = [] })

let m_injected =
  Dvz_obs.Metrics.counter Dvz_obs.Metrics.default
    ~help:"Faults fired by the injection harness" "dvz_faults_injected_total"

let arm ~iteration plan =
  let st = Domain.DLS.get key in
  st.pending <-
    List.filter (fun f -> f.f_iteration = iteration) plan
    |> List.sort (fun a b -> compare a.f_cycle b.f_cycle)

let disarm () =
  let st = Domain.DLS.get key in
  st.pending <- []

let armed () = (Domain.DLS.get key).pending <> []

let fire st f =
  st.pending <- List.filter (fun g -> g != f) st.pending;
  st.fired <- f :: st.fired;
  Dvz_obs.Metrics.incr m_injected

let tick ~cycle =
  let st = Domain.DLS.get key in
  match st.pending with
  | [] -> `Ok
  | f :: _ when f.f_cycle <= cycle -> (
      fire st f;
      match f.f_action with
      | Crash message ->
          raise (Injected { iteration = f.f_iteration; cycle; message })
      | Kill message ->
          raise (Killed { iteration = f.f_iteration; cycle; message })
      | Hang -> `Hang
      | Corrupt -> `Corrupt)
  | _ -> `Ok

let drain_fired () =
  let st = Domain.DLS.get key in
  let fired = List.rev st.fired in
  st.fired <- [];
  fired
