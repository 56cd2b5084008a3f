module Cell_lib = Pvtol_stdcell.Cell

exception Parse_error of string

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(* Canonical net names: ports keep their sanitized names, internal nets
   are n<id> (sanitized user names are not guaranteed unique). *)
let net_name (nl : Netlist.t) =
  let is_input = Hashtbl.create 64 in
  Array.iter (fun n -> Hashtbl.replace is_input n ()) nl.Netlist.inputs;
  fun nid ->
    let net = nl.Netlist.nets.(nid) in
    if Hashtbl.mem is_input nid || net.Netlist.is_output then
      sanitize net.Netlist.net_name
    else Printf.sprintf "n%d" nid

let to_string (nl : Netlist.t) =
  let name_of = net_name nl in
  let b = Buffer.create (Netlist.cell_count nl * 64) in
  let ports =
    Array.to_list (Array.map name_of nl.Netlist.inputs)
    @ Array.to_list (Array.map name_of nl.Netlist.outputs)
  in
  Buffer.add_string b
    (Printf.sprintf "module %s (%s);\n" (sanitize nl.Netlist.design_name)
       (String.concat ", " ports));
  Array.iter
    (fun nid -> Buffer.add_string b (Printf.sprintf "  input %s;\n" (name_of nid)))
    nl.Netlist.inputs;
  Array.iter
    (fun nid -> Buffer.add_string b (Printf.sprintf "  output %s;\n" (name_of nid)))
    nl.Netlist.outputs;
  Array.iter
    (fun (net : Netlist.net) ->
      let nid = net.Netlist.net_id in
      let dead = net.Netlist.driver = None && Array.length net.Netlist.sinks = 0 in
      let is_port =
        net.Netlist.is_output
        || Array.exists (fun i -> i = nid) nl.Netlist.inputs
      in
      if (not dead) && not is_port then
        Buffer.add_string b (Printf.sprintf "  wire %s;\n" (name_of nid)))
    nl.Netlist.nets;
  Array.iter
    (fun (c : Netlist.cell) ->
      let pins =
        Printf.sprintf ".o(%s)" (name_of c.Netlist.fanout)
        ::
        Array.to_list
          (Array.mapi
             (fun pin nid -> Printf.sprintf ".i%d(%s)" pin (name_of nid))
             c.Netlist.fanins)
      in
      Buffer.add_string b
        (Printf.sprintf "  %s %s (%s); // s=%d u=%s\n"
           (Cell_lib.cell_name c.Netlist.cell)
           (sanitize c.Netlist.name)
           (String.concat ", " pins)
           (Stage.index c.Netlist.stage)
           (sanitize c.Netlist.unit_name)))
    nl.Netlist.cells;
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let write_file path nl =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string nl))

(* --- parsing --- *)

let stage_of_index i =
  List.find_opt (fun s -> Stage.index s = i) Stage.all

let of_string lib src =
  let b = Netlist.Builder.create lib in
  let nets : (string, Netlist.net_id) Hashtbl.t = Hashtbl.create 1024 in
  let placeholders : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let outputs = ref [] in
  let design = ref "design" in
  let fail lnum msg = raise (Parse_error (Printf.sprintf "line %d: %s" lnum msg)) in
  let lookup name =
    match Hashtbl.find_opt nets name with
    | Some nid -> nid
    | None ->
      let nid = Netlist.Builder.placeholder b name in
      Hashtbl.replace nets name nid;
      Hashtbl.replace placeholders name ();
      nid
  in
  let resolve name real =
    (match Hashtbl.find_opt nets name with
    | Some stub when Hashtbl.mem placeholders name ->
      Netlist.Builder.merge b ~placeholder:stub real;
      Hashtbl.remove placeholders name
    | Some _ -> raise (Parse_error (Printf.sprintf "net %s driven twice" name))
    | None -> ());
    Hashtbl.replace nets name real
  in
  let strip_comment line =
    match String.index_opt line '/' with
    | Some i when i + 1 < String.length line && line.[i + 1] = '/' ->
      (String.sub line 0 i, String.sub line (i + 2) (String.length line - i - 2))
    | _ -> (line, "")
  in
  let parse_pins lnum s =
    (* ".o(x), .i0(y), ..." *)
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
    |> List.map (fun p ->
           if String.length p < 5 || p.[0] <> '.' then fail lnum ("bad pin " ^ p);
           match (String.index_opt p '(', String.index_opt p ')') with
           | Some l, Some r when r > l + 1 ->
             (String.sub p 1 (l - 1), String.sub p (l + 1) (r - l - 1))
           | _ -> fail lnum ("bad pin " ^ p))
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i raw ->
      let lnum = i + 1 in
      let code, comment = strip_comment raw in
      let code = String.trim code in
      if code = "" || code = "endmodule" then ()
      else if String.length code > 7 && String.sub code 0 7 = "module " then begin
        match String.index_opt code '(' with
        | Some j -> design := String.trim (String.sub code 7 (j - 7))
        | None -> fail lnum "malformed module header"
      end
      else begin
        let words =
          String.split_on_char ' ' code |> List.filter (fun w -> w <> "")
        in
        match words with
        | "input" :: name :: _ ->
          let name = String.trim (String.concat "" [ name ]) in
          let name = String.sub name 0 (String.length name - 1) (* drop ';' *) in
          if Hashtbl.mem nets name then fail lnum ("duplicate input " ^ name);
          Hashtbl.replace nets name (Netlist.Builder.input b name)
        | "output" :: name :: _ ->
          let name = String.sub name 0 (String.length name - 1) in
          outputs := name :: !outputs
        | "wire" :: _ -> ()
        | celltype :: instname :: _ -> begin
          match Cell_lib.find_by_name lib celltype with
          | None -> fail lnum ("unknown cell type " ^ celltype)
          | Some cell ->
            let lpar =
              match String.index_opt code '(' with
              | Some j -> j
              | None -> fail lnum "missing pin list"
            in
            let rpar =
              match String.rindex_opt code ')' with
              | Some j when j > lpar -> j
              | Some _ -> fail lnum "missing pin list"
              | None -> fail lnum "missing ')'"
            in
            let pins = parse_pins lnum (String.sub code (lpar + 1) (rpar - lpar - 1)) in
            let out =
              match List.assoc_opt "o" pins with
              | Some o -> o
              | None -> fail lnum "missing .o pin"
            in
            let arity = Pvtol_stdcell.Kind.arity cell.Cell_lib.kind in
            let fanins =
              Array.init arity (fun k ->
                  match List.assoc_opt (Printf.sprintf "i%d" k) pins with
                  | Some n -> lookup n
                  | None -> fail lnum (Printf.sprintf "missing .i%d pin" k))
            in
            (* stage/unit from the trailing comment. *)
            let stage = ref Stage.Execute and unit_name = ref "top" in
            String.split_on_char ' ' comment
            |> List.iter (fun w ->
                   if String.length w > 2 && String.sub w 0 2 = "s=" then begin
                     match
                       Option.bind
                         (int_of_string_opt (String.sub w 2 (String.length w - 2)))
                         stage_of_index
                     with
                     | Some s -> stage := s
                     | None -> fail lnum "bad stage index"
                   end
                   else if String.length w > 2 && String.sub w 0 2 = "u=" then
                     unit_name := String.sub w 2 (String.length w - 2));
            let real =
              Netlist.Builder.add b ~drive:cell.Cell_lib.drive ~name:instname
                ~stage:!stage ~unit_name:!unit_name cell.Cell_lib.kind fanins
            in
            resolve out real
        end
        | [ _ ] | [] -> fail lnum ("unrecognised statement: " ^ code)
      end)
    lines;
  List.iter
    (fun name ->
      match Hashtbl.find_opt nets name with
      | Some nid -> Netlist.Builder.output b nid name
      | None -> raise (Parse_error ("undriven output " ^ name)))
    (List.rev !outputs);
  let nl = Netlist.Builder.freeze b in
  { nl with Netlist.design_name = !design }

let read_file lib path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string lib (really_input_string ic (in_channel_length ic)))
