type span = {
  name : string;
  deps : string list;
  start_s : float;
  dur_s : float;
  self_s : float;
  minor_words : float;
  major_words : float;
  self_minor_words : float;
  self_major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  ok : bool;
  domain : int;
}

type t = {
  created : float;
  lock : Mutex.t;
  mutable spans : span list;  (* reverse completion order *)
}

let now () = Unix.gettimeofday ()
let create () = { created = now (); lock = Mutex.create (); spans = [] }

let record t span =
  Mutex.lock t.lock;
  t.spans <- span :: t.spans;
  Mutex.unlock t.lock

(* Spans nest when a stage lazily forces its inputs inside its own
   compute function.  Each domain keeps a stack of accumulators for the
   time and allocation of child spans, so a span can report its self
   time and self allocation (its totals minus the nested spans it
   forced). *)
type children = {
  mutable c_s : float;
  mutable c_minor : float;
  mutable c_major : float;
}

let child_stack : children list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span t ~name ?(deps = fun () -> []) f =
  let t0 = now () in
  let g0 = Gc.quick_stat () in
  (* [quick_stat]'s minor_words only advances at minor collections; the
     dedicated counter is precise, so short spans still attribute their
     allocation. *)
  let mw0 = Gc.minor_words () in
  let nested = Domain.DLS.get child_stack in
  let children = { c_s = 0.0; c_minor = 0.0; c_major = 0.0 } in
  nested := children :: !nested;
  let finish ok =
    let t1 = now () in
    let g1 = Gc.quick_stat () in
    let dur = t1 -. t0 in
    let minor = Gc.minor_words () -. mw0 in
    let major = g1.Gc.major_words -. g0.Gc.major_words in
    nested := List.tl !nested;
    (match !nested with
    | parent :: _ ->
      parent.c_s <- parent.c_s +. dur;
      parent.c_minor <- parent.c_minor +. minor;
      parent.c_major <- parent.c_major +. major
    | [] -> ());
    record t
      {
        name;
        deps = deps ();
        start_s = t0 -. t.created;
        dur_s = dur;
        self_s = Float.max 0.0 (dur -. children.c_s);
        minor_words = minor;
        major_words = major;
        self_minor_words = Float.max 0.0 (minor -. children.c_minor);
        self_major_words = Float.max 0.0 (major -. children.c_major);
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        compactions = g1.Gc.compactions - g0.Gc.compactions;
        ok;
        domain = (Domain.self () :> int);
      }
  in
  match f () with
  | v ->
    finish true;
    v
  | exception e ->
    finish false;
    raise e

let spans t =
  Mutex.lock t.lock;
  let s = List.rev t.spans in
  Mutex.unlock t.lock;
  s

(* Stable, so spans sharing a start keep completion order — exporters
   must not re-sort ad hoc. *)
let sort_by_start t =
  List.stable_sort (fun a b -> Float.compare a.start_s b.start_s) (spans t)

let find t name = List.find_opt (fun s -> s.name = name) (spans t)

let count t name =
  List.length (List.filter (fun s -> s.name = name) (spans t))

let duplicates t =
  let seen = Hashtbl.create 16 in
  let dups = ref [] in
  List.iter
    (fun s ->
      if Hashtbl.mem seen s.name then begin
        if not (List.mem s.name !dups) then dups := s.name :: !dups
      end
      else Hashtbl.add seen s.name ())
    (spans t);
  List.rev !dups

let mwords w = w /. 1_000_000.0

let pp fmt t =
  let spans = spans t in
  let total = List.fold_left (fun acc s -> acc +. s.self_s) 0.0 spans in
  Format.fprintf fmt "stage trace: %d spans, %.3f s total stage time@."
    (List.length spans) total;
  Format.fprintf fmt "  %-22s %10s %12s %12s %12s %8s  %s@." "stage" "start"
    "dur" "self" "major-alloc" "gcs" "deps";
  List.iter
    (fun s ->
      Format.fprintf fmt
        "  %-22s %8.3f s %10.3f s %10.3f s %9.2f MW %4d/%-3d  %s%s@." s.name
        s.start_s s.dur_s s.self_s (mwords s.self_major_words) s.minor_collections
        s.major_collections
        (match s.deps with [] -> "-" | ds -> String.concat ", " ds)
        (if s.ok then "" else "  [FAILED]"))
    spans

let strs l = Json.List (List.map (fun d -> Json.Str d) l)

let span_json s =
  Json.Obj
    [ ("name", Json.Str s.name); ("deps", strs s.deps);
      ("start_s", Json.Float s.start_s); ("dur_s", Json.Float s.dur_s);
      ("self_s", Json.Float s.self_s);
      ("minor_words", Json.Float s.minor_words);
      ("major_words", Json.Float s.major_words);
      ("self_minor_words", Json.Float s.self_minor_words);
      ("self_major_words", Json.Float s.self_major_words);
      ("promoted_words", Json.Float s.promoted_words);
      ("minor_collections", Json.Int s.minor_collections);
      ("major_collections", Json.Int s.major_collections);
      ("compactions", Json.Int s.compactions); ("ok", Json.Bool s.ok);
      ("domain", Json.Int s.domain) ]

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (chrome://tracing, Perfetto).  One
   complete ("X") event per span on the track of the domain that
   computed it, preceded by metadata events naming the process and each
   domain track.  Timestamps are microseconds since trace creation. *)

let chrome_event ~name ~ph ~ts ~tid extra =
  Json.Obj
    ([ ("name", Json.Str name); ("ph", Json.Str ph); ("ts", Json.Float ts);
       ("pid", Json.Int 1); ("tid", Json.Int tid) ]
    @ extra)

let chrome_value t =
  let spans = sort_by_start t in
  let meta name ~tid label =
    chrome_event ~name ~ph:"M" ~ts:0.0 ~tid
      [ ("args", Json.Obj [ ("name", Json.Str label) ]) ]
  in
  let track tid = meta "thread_name" ~tid (Printf.sprintf "domain %d" tid) in
  let event s =
    chrome_event ~name:s.name ~ph:"X" ~ts:(s.start_s *. 1e6) ~tid:s.domain
      [ ("dur", Json.Float (s.dur_s *. 1e6)); ("cat", Json.Str "stage");
        ( "args",
          Json.Obj
            [ ("deps", strs s.deps); ("self_us", Json.Float (s.self_s *. 1e6));
              ("minor_words", Json.Float s.minor_words);
              ("major_words", Json.Float s.major_words);
              ("minor_collections", Json.Int s.minor_collections);
              ("major_collections", Json.Int s.major_collections);
              ("ok", Json.Bool s.ok) ] ) ]
  in
  Json.List
    ((meta "process_name" ~tid:0 "pvtol"
     :: List.map track (List.sort_uniq compare (List.map (fun s -> s.domain) spans)))
    @ List.map event spans)

let to_chrome_json t = Json.to_string (chrome_value t)
let write_chrome_json t file = Json.write_file file (chrome_value t)
