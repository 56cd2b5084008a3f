type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emitter                                                              *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of %.15g/%.16g/%.17g that parses back to [f] exactly
   (%.17g always does), with a ".0" kept on integral values so they
   re-read as floats, not ints. *)
let float_repr f =
  match Float.classify_float f with
  | Float.FP_nan | Float.FP_infinite ->
    invalid_arg
      (Printf.sprintf "Json.to_string: non-finite number (%h) in document" f)
  | _ ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      let s =
        List.find
          (fun s -> float_of_string s = f)
          (List.map (fun p -> Printf.sprintf "%.*g" p f) [ 15; 16; 17 ])
      in
      if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s
      then s ^ ".0"
      else s

let float_or_null f = if Float.is_finite f then Float f else Null

let to_string v =
  let buf = Buffer.create 1024 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write_file file v =
  let text = to_string v in
  let oc = open_out file in
  output_string oc text;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  (* Exactly four hex digits: [int_of_string] would also take '_'. *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v lsl 4) lor d
    done;
    pos := !pos + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         let c = s.[!pos] in
         advance ();
         match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           let hi = hex4 () in
           let cp =
             (* A high surrogate must pair with a following \uDC00-DFFF
                low surrogate to form one code point. *)
             if hi >= 0xD800 && hi <= 0xDBFF then
               if
                 !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 pos := !pos + 2;
                 let lo = hex4 () in
                 if lo < 0xDC00 || lo > 0xDFFF then fail "bad surrogate pair";
                 0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
               end
               else fail "lone high surrogate"
             else if hi >= 0xDC00 && hi <= 0xDFFF then fail "lone low surrogate"
             else hi
           in
           utf8_of_code buf cp
         | _ -> fail "bad escape character");
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_floaty =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) tok
    in
    if is_floaty then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields_loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items_loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        items_loop ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after document";
    v
  with
  | v -> Ok v
  | exception Parse (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let read_file file =
  match In_channel.with_open_bin file In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
let to_obj = function Obj o -> Some o | _ -> None
