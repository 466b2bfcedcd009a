let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. float_of_int (List.length xs - 1))

let ci95 xs =
  let m = mean xs in
  let n = List.length xs in
  if n < 2 then (m, 0.0)
  else
    let half = 1.96 *. stddev xs /. sqrt (float_of_int n) in
    (m, half)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      let a = Array.of_list s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile xs p =
  match sorted xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let idx = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) idx))
