module Json = Dvz_obs.Json

let finding_of_event ev =
  let str key = Option.bind (Json.member key ev) Json.to_str in
  let int key = Option.bind (Json.member key ev) Json.to_int in
  match (int "iteration", str "attack", str "window", str "kind") with
  | Some iteration, Some attack, Some window, Some kind ->
      (match
         ( Campaign.attack_of_name attack,
           Campaign.leak_kind_of_name kind,
           Seed.kind_of_name window )
       with
      | Some fd_attack, Some fd_kind, Some fd_window ->
          Ok
            { Campaign.fd_attack; fd_window; fd_kind;
              fd_iteration = iteration;
              fd_components =
                List.filter_map Json.to_str
                  (Json.to_list
                     (Option.value ~default:Json.Null
                        (Json.member "components" ev)));
              fd_source = str "source" }
      | _ -> Error "finding event with unknown attack/window/kind")
  | _ -> Error "finding event missing iteration/attack/window/kind"

let event_type ev = Option.bind (Json.member "type" ev) Json.to_str

let summary events =
  (* The log may hold several sequential campaigns; replay the last one:
     findings after the previous campaign_end, up to the final one. *)
  let rec last_campaign core findings result = function
    | [] -> result
    | ev :: rest -> (
        match event_type ev with
        | Some "campaign_start" ->
            last_campaign
              (Option.bind (Json.member "core" ev) Json.to_str)
              findings result rest
        | Some "finding" -> last_campaign core (ev :: findings) result rest
        | Some "campaign_end" ->
            last_campaign core [] (Some (core, List.rev findings, ev)) rest
        | _ -> last_campaign core findings result rest)
  in
  match last_campaign None [] None events with
  | None -> Error "no campaign_end record in the event log"
  | Some (core, findings, ev) -> (
      let int key = Option.bind (Json.member key ev) Json.to_int in
      match (int "iterations", int "triggered", int "coverage") with
      | Some iterations, Some triggered, Some coverage -> (
          let first_bug = int "first_bug" in
          let rec build acc = function
            | [] -> Ok (List.rev acc)
            | e :: rest -> (
                match finding_of_event e with
                | Ok f -> build (f :: acc) rest
                | Error _ as err -> err)
          in
          match build [] findings with
          | Error e -> Error e
          | Ok findings ->
              (* Resilience counters ride in [campaign_end]; logs from
                 builds predating them simply lack the fields, which is
                 also how a run with zero crashes/timeouts prints. *)
              let counter key = Option.value ~default:0 (int key) in
              let text =
                Report.render_summary ~iterations ~triggered ~coverage
                  ~first_bug ~crashes:(counter "harness_crashes")
                  ~timeouts:(counter "watchdog_timeouts") findings
              in
              (* With a campaign_start in the log we also know the core
                 name, so the Table-5 classification the CLI prints after
                 the summary can be rebuilt too. *)
              Ok
                (match core with
                | Some core_name -> text ^ Report.table5 ~core_name findings
                | None -> text))
      | _ -> Error "campaign_end record missing iterations/triggered/coverage")

let of_string text =
  match Json.of_lines text with
  | Error e -> Error e
  | Ok events -> summary events

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
