type row = Cells of string list | Sep

type t = { headers : string list; mutable rows : row list }

let create headers = { headers; rows = [] }

let add_row t cells = t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let render t =
  let rows = List.rev t.rows in
  let ncols =
    List.fold_left
      (fun acc r -> match r with Cells c -> max acc (List.length c) | Sep -> acc)
      (List.length t.headers) rows
  in
  let pad cells = cells @ List.init (ncols - List.length cells) (fun _ -> "") in
  let widths = Array.make ncols 0 in
  let account cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) (pad cells)
  in
  account t.headers;
  List.iter (function Cells c -> account c | Sep -> ()) rows;
  let buf = Buffer.create 256 in
  let emit cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf c;
        Buffer.add_string buf (String.make (widths.(i) - String.length c) ' '))
      (pad cells);
    Buffer.add_char buf '\n'
  in
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  emit t.headers;
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter
    (function
      | Cells c -> emit c
      | Sep ->
          Buffer.add_string buf (String.make total '-');
          Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf
