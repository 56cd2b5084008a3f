type t = {
  lock : Mutex.t;
  argv : string list;
  started_at : float;
  t0_wall : float;
  t0_times : Unix.process_times;
  g0 : Gc.stat;
  mutable config : (string * Json.t) list;  (* insertion order *)
  mutable artifacts : (string * string * int) list;  (* reverse order *)
}

let schema = 2
let version = "1.1.0"

(* [git describe --always --dirty] of the working directory: pins the
   exact build when the tool runs inside its own checkout; a missing
   git binary, a non-checkout working directory or any other failure
   degrades to None rather than a hard error. *)
let git_describe () =
  match
    let ic =
      Unix.open_process_in "git describe --always --dirty 2>/dev/null"
    in
    let line = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    (line, status)
  with
  | line, Unix.WEXITED 0 when String.trim line <> "" -> Some (String.trim line)
  | _ -> None
  | exception _ -> None

let version_string () =
  match git_describe () with
  | Some g -> Printf.sprintf "%s (git %s)" version g
  | None -> version

let create ?argv () =
  let argv =
    match argv with Some a -> a | None -> Array.to_list Sys.argv
  in
  {
    lock = Mutex.create ();
    argv;
    started_at = Unix.gettimeofday ();
    t0_wall = Unix.gettimeofday ();
    t0_times = Unix.times ();
    g0 = Gc.quick_stat ();
    config = [];
    artifacts = [];
  }

let add_config t key v =
  Mutex.lock t.lock;
  t.config <- List.remove_assoc key t.config @ [ (key, v) ];
  Mutex.unlock t.lock

let digest_hex s = Digest.to_hex (Digest.string s)

let add_artifact t ~name content =
  let entry = (name, digest_hex content, String.length content) in
  Mutex.lock t.lock;
  t.artifacts <- entry :: t.artifacts;
  Mutex.unlock t.lock

let iso8601 epoch =
  let tm = Unix.gmtime epoch in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* Pool attribution: job and chunk counts from the metrics snapshot,
   worker-idle and job-latency totals from the pool itself (zero when
   metrics were disabled or the pool never ran a parallel job). *)
let pool_json (snap : Metrics.snapshot) =
  let counter name = Option.value ~default:0 (List.assoc_opt name snap) in
  let w = Pool.wall_totals () in
  Json.Obj
    [
      ("jobs", Json.Int (counter "pool_jobs_total"));
      ("chunks", Json.Int (counter "pool_chunks_total"));
      ("queue_wait_s", Json.Float w.Pool.queue_wait_s);
      ("queue_waits", Json.Int w.Pool.queue_waits);
      ("job_s", Json.Float w.Pool.job_s);
      ("jobs_timed", Json.Int w.Pool.jobs_timed);
    ]

let to_json ?trace ?metrics t =
  let wall = Unix.gettimeofday () -. t.t0_wall in
  let times = Unix.times () in
  let g1 = Gc.quick_stat () in
  Mutex.lock t.lock;
  let config = t.config in
  let artifacts = List.rev t.artifacts in
  Mutex.unlock t.lock;
  let stages =
    match trace with
    | None -> []
    | Some tr -> List.map Trace.span_json (Trace.sort_by_start tr)
  in
  let metrics_fields =
    match metrics with
    | None -> []
    | Some snap ->
      [ ("pool", pool_json snap); ("metrics", Metrics.to_value snap) ]
  in
  Json.Obj
    ([
       ("schema", Json.Int schema);
       ("tool", Json.Str "pvtol");
       ("version", Json.Str version);
       ( "git",
         match git_describe () with Some g -> Json.Str g | None -> Json.Null );
       ("argv", Json.List (List.map (fun a -> Json.Str a) t.argv));
       ("started_at", Json.Str (iso8601 t.started_at));
       ("started_at_epoch_s", Json.Float t.started_at);
       ("config", Json.Obj config);
       ("wall_s", Json.Float wall);
       ( "cpu_user_s",
         Json.Float (times.Unix.tms_utime -. t.t0_times.Unix.tms_utime) );
       ( "cpu_sys_s",
         Json.Float (times.Unix.tms_stime -. t.t0_times.Unix.tms_stime) );
       ( "gc",
         Json.Obj
           [
             ("minor_words", Json.Float (g1.Gc.minor_words -. t.g0.Gc.minor_words));
             ("major_words", Json.Float (g1.Gc.major_words -. t.g0.Gc.major_words));
             ( "promoted_words",
               Json.Float (g1.Gc.promoted_words -. t.g0.Gc.promoted_words) );
             ( "minor_collections",
               Json.Int (g1.Gc.minor_collections - t.g0.Gc.minor_collections) );
             ( "major_collections",
               Json.Int (g1.Gc.major_collections - t.g0.Gc.major_collections) );
             ("compactions", Json.Int (g1.Gc.compactions - t.g0.Gc.compactions));
           ] );
       ("stages", Json.List stages);
     ]
    @ metrics_fields
    @ [
        ( "artifacts",
          Json.List
            (List.map
               (fun (name, md5, bytes) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ("md5", Json.Str md5);
                     ("bytes", Json.Int bytes);
                   ])
               artifacts) );
      ])

let write ?trace ?metrics t ~file = Json.write_file file (to_json ?trace ?metrics t)

(* ------------------------------------------------------------------ *)
(* Markdown rendering (pvtol report)                                    *)

(* Members of a ledger that has [ledger_shape], which guarantees that
   each one [markdown] reads is present with its type. *)
let field j k = Option.get (Json.member k j)
let num j k = Option.get (Json.to_float (field j k))
let str j k = Option.get (Json.to_str (field j k))
let items j k = Option.get (Json.to_list (field j k))

let mwords w = w /. 1_000_000.0

(* The ledger layout [to_json] writes, as far as [render] reads it:
   [Fields] lists the members an object must have, [Opt] marks one it
   may lack, [Map] is an object whose every value has one shape. *)
type shape =
  | Any
  | Num
  | Str
  | Bool
  | List of shape
  | Map of shape
  | Fields of (string * shape) list
  | Opt of shape

let nums names = List.map (fun n -> (n, Num)) names

let ledger_shape =
  Fields
    ([ ("version", Str); ("argv", List Str); ("started_at", Str) ]
    @ nums [ "wall_s"; "cpu_user_s"; "cpu_sys_s" ]
    @ [
        ( "gc",
          Fields
            (nums
               [ "minor_words"; "major_words"; "promoted_words";
                 "minor_collections"; "major_collections"; "compactions" ]) );
        ("config", Map Any);
        ( "stages",
          List
            (Fields
               ([ ("name", Str); ("ok", Bool) ]
               @ nums
                   [ "dur_s"; "self_s"; "self_minor_words"; "self_major_words";
                     "minor_collections"; "major_collections"; "domain" ])) );
        ( "pool",
          Opt
            (Fields
               (nums
                  [ "jobs"; "chunks"; "queue_wait_s"; "queue_waits"; "job_s";
                    "jobs_timed" ])) );
        ("metrics", Opt (Fields [ ("counters", Map Num) ]));
        ( "artifacts",
          List (Fields [ ("name", Str); ("md5", Str); ("bytes", Num) ]) );
      ])

(* The first value under [path] that does not have its [shape]. *)
let rec check path shape j =
  let rec all f = function
    | [] -> Ok ()
    | x :: rest -> Result.bind (f x) (fun () -> all f rest)
  in
  let member k = if path = "" then k else path ^ "." ^ k in
  let fail what = Error (Printf.sprintf "%s is not %s" path what) in
  match (shape, j) with
  | Any, _ | Num, (Json.Int _ | Json.Float _) | Str, Json.Str _
  | Bool, Json.Bool _ ->
    Ok ()
  | Opt s, _ -> check path s j
  | List s, Json.List items ->
    all
      (fun (i, x) -> check (Printf.sprintf "%s[%d]" path i) s x)
      (List.mapi (fun i x -> (i, x)) items)
  | Map s, Json.Obj kvs -> all (fun (k, v) -> check (member k) s v) kvs
  | Fields fs, Json.Obj _ ->
    all
      (fun (k, s) ->
        match (Json.member k j, s) with
        | None, Opt _ -> Ok ()
        | None, _ -> Error (member k ^ " is missing")
        | Some v, _ -> check (member k) s v)
      fs
  | Num, _ -> fail "a number"
  | Str, _ -> fail "a string"
  | Bool, _ -> fail "a boolean"
  | List _, _ -> fail "a list"
  | (Map _ | Fields _), _ -> fail "an object"

(* The markdown report of a ledger that has [ledger_shape]. *)
let markdown j =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let argv = String.concat " " (List.filter_map Json.to_str (items j "argv")) in
  add "# pvtol run ledger\n\n";
  add "- **version:** %s" (str j "version");
  (match Option.bind (Json.member "git" j) Json.to_str with
  | Some g -> add " (git %s)\n" g
  | None -> add "\n");
  add "- **command:** `%s`\n" argv;
  add "- **started:** %s\n" (str j "started_at");
  add "- **wall:** %.3f s — **cpu:** %.3f s user + %.3f s sys\n"
    (num j "wall_s") (num j "cpu_user_s") (num j "cpu_sys_s");
  let gc = field j "gc" in
  add
    "- **GC:** %.1f MW minor, %.1f MW major, %.1f MW promoted; %.0f \
     minor / %.0f major collections, %.0f compactions\n"
    (mwords (num gc "minor_words"))
    (mwords (num gc "major_words"))
    (mwords (num gc "promoted_words"))
    (num gc "minor_collections")
    (num gc "major_collections")
    (num gc "compactions");
  (* Config table *)
  (match Option.get (Json.to_obj (field j "config")) with
  | [] -> ()
  | fields ->
    add "\n## Config\n\n| key | value |\n|---|---|\n";
    List.iter
      (fun (k, v) ->
        let s =
          match v with
          | Json.Str s -> s
          | Json.Int i -> string_of_int i
          | Json.Float f -> Printf.sprintf "%g" f
          | Json.Bool b -> string_of_bool b
          | Json.Null -> "-"
          | _ -> "…"
        in
        add "| %s | %s |\n" k s)
      fields);
  (* Stage table *)
  (match items j "stages" with
  | [] -> add "\n(no stages recorded)\n"
  | stages ->
    add
      "\n## Stages\n\n| stage | dur (s) | self (s) | self minor (MW) | \
       self major (MW) | gcs | domain |\n|---|---:|---:|---:|---:|---:|---:|\n";
    List.iter
      (fun s ->
        add "| %s%s | %.3f | %.3f | %.2f | %.2f | %.0f/%.0f | %.0f |\n"
          (str s "name")
          (if field s "ok" = Json.Bool false then " **[FAILED]**" else "")
          (num s "dur_s") (num s "self_s")
          (mwords (num s "self_minor_words"))
          (mwords (num s "self_major_words"))
          (num s "minor_collections")
          (num s "major_collections")
          (num s "domain"))
      stages;
    let total_self =
      List.fold_left (fun acc s -> acc +. num s "self_s") 0.0 stages
    in
    add "\n%d stages, %.3f s total stage self-time.\n" (List.length stages)
      total_self);
  (* Pool attribution *)
  (match Json.member "pool" j with
  | None -> ()
  | Some p ->
    add "\n## Pool\n\n";
    add "- jobs: %.0f (%.0f chunks)\n" (num p "jobs")
      (num p "chunks");
    add "- worker idle: %.3f s total over %.0f waits\n"
      (num p "queue_wait_s") (num p "queue_waits");
    add "- job latency: %.3f s total over %.0f timed jobs\n"
      (num p "job_s") (num p "jobs_timed"));
  (* Metrics highlights: the biggest nonzero counters. *)
  (match
     Option.bind (Json.member "metrics" j) (Json.member "counters")
     |> Fun.flip Option.bind Json.to_obj
   with
  | None | Some [] -> ()
  | Some counters ->
    let nonzero =
      List.filter_map
        (fun (k, v) ->
          match Json.to_float v with
          | Some f when f > 0.0 -> Some (k, f)
          | _ -> None)
        counters
    in
    if nonzero <> [] then begin
      add "\n## Metrics highlights\n\n";
      let sorted =
        List.sort (fun (_, a) (_, b) -> Float.compare b a) nonzero
      in
      let top = List.filteri (fun i _ -> i < 12) sorted in
      List.iter (fun (k, v) -> add "- `%s` = %.0f\n" k v) top;
      if List.length sorted > List.length top then
        add "- … %d more nonzero counters in the ledger\n"
          (List.length sorted - List.length top)
    end);
  (* Artifacts *)
  (match items j "artifacts" with
  | [] -> ()
  | arts ->
    add "\n## Artifacts\n\n| artifact | bytes | md5 |\n|---|---:|---|\n";
    List.iter
      (fun a ->
        add "| %s | %.0f | `%s` |\n" (str a "name")
          (num a "bytes") (str a "md5"))
      arts);
  Buffer.contents buf

let render j =
  match (Json.member "schema" j, Json.member "tool" j) with
  | Some (Json.Int s), Some (Json.Str "pvtol") when s <> schema ->
    Error
      (Printf.sprintf "unsupported run-ledger schema %d (this build reads %d)"
         s schema)
  | Some (Json.Int _), Some (Json.Str "pvtol") ->
    check "" ledger_shape j
    |> Result.map_error (( ^ ) "broken run ledger: ")
    |> Result.map (fun () -> markdown j)
  | _ -> Error "not a pvtol run ledger (missing schema/tool fields)"
