type row = Cells of string list | Sep

type t = { header : string list; mutable rows : row list }

let create ~header = { header; rows = [] }
let add_row t cells = t.rows <- Cells cells :: t.rows
let add_sep t = t.rows <- Sep :: t.rows

let fcell ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v
let pcell ?(decimals = 2) v = Printf.sprintf "%.*f%%" decimals (v *. 100.0)

let render t =
  let rows = List.rev t.rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let note_width cells =
    List.iteri
      (fun i c -> if i < ncols then widths.(i) <- max widths.(i) (String.length c))
      cells
  in
  note_width t.header;
  List.iter (function Cells c -> note_width c | Sep -> ()) rows;
  let buf = Buffer.create 1024 in
  let pad i c =
    let w = widths.(i) in
    let n = w - String.length c in
    if n <= 0 then c
    else if i = 0 then c ^ String.make n ' '
    else String.make n ' ' ^ c
  in
  let hline () =
    Array.iteri
      (fun i w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        if i < ncols - 1 then Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let emit cells =
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_string buf "| ";
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad i c);
        Buffer.add_char buf ' ')
      (List.mapi (fun i c -> if i < ncols then c else c) cells);
    Buffer.add_char buf '\n'
  in
  emit t.header;
  hline ();
  List.iter (function Cells c -> emit c | Sep -> hline ()) rows;
  Buffer.contents buf

let bar_chart ?(width = 46) ?(unit_label = "") entries =
  let peak =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 1e-300 entries
  in
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 entries
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (label, v) ->
      let n = int_of_float (Float.round (v /. peak *. float_of_int width)) in
      let n = max 0 (min width n) in
      Buffer.add_string buf
        (Printf.sprintf "  %-*s |%s%s %.3f%s\n" label_w label
           (String.make n '#')
           (String.make (width - n) ' ')
           v unit_label))
    entries;
  Buffer.contents buf
