(* Observability: the shared JSON tree, trace edge cases, the run
   ledger and the alternating-pairs perf verdict.  The end-to-end cases
   drive the installed pvtol binary (a dune dep of this test) so the
   exit codes CI relies on are pinned here. *)

module Json = Pvtol_util.Json
module Trace = Pvtol_util.Trace
module Runinfo = Pvtol_util.Runinfo
module Metrics = Pvtol_util.Metrics
module BC = Pvtol_util.Bench_compare

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- Json ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\" \\ line\nwith\ttabs and caf\xc3\xa9");
        ("n", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("null", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
        ("empty", Json.List []);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok v' ->
    Alcotest.(check string) "round-trip" (Json.to_string v) (Json.to_string v')

let test_json_rejects_nonfinite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Obj [ ("x", Json.Float f) ]) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "non-finite float emitted as %s" s)
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* Every finite float survives emit -> parse bit for bit (random bit
   patterns reach subnormals, huge magnitudes and -0.0); non-finite
   ones are refused rather than written. *)
let prop_json_float_exact =
  QCheck.Test.make ~name:"json floats round-trip exactly" ~count:5000
    QCheck.(oneof [ float; map Int64.float_of_bits int64 ])
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> not (Float.is_finite f)
      | text -> (
        Float.is_finite f
        &&
        match Json.of_string text with
        | Ok (Json.Float g) -> Int64.bits_of_float g = Int64.bits_of_float f
        | _ -> false))

let test_json_parse_escapes () =
  (match Json.of_string {|"café 😀 \n\t\\"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "escapes decode"
      "caf\xc3\xa9 \xf0\x9f\x98\x80 \n\t\\" s
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "escape parse failed: %s" e);
  (* A \u escape is exactly four hex digits, and a low surrogate only
     closes a pair. *)
  (match Json.of_string {|"\u00e9\uD83D\uDE00\u0123"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "\\u escapes decode" "\xc3\xa9\xf0\x9f\x98\x80\xc4\xa3" s
  | _ -> Alcotest.fail "\\u escapes rejected");
  List.iter
    (fun text ->
      match Json.of_string text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" text)
    [ {|"\u1_23"|}; {|"\uDC00"|}; {|"a\udfff"|} ];
  (match Json.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Json.of_string "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated list accepted"

let test_json_members () =
  let j =
    Result.get_ok (Json.of_string {|{"a": {"b": [1, 2.5]}, "s": "x"}|})
  in
  let b = Option.get (Option.bind (Json.member "a" j) (Json.member "b")) in
  (match Json.to_list b with
  | Some [ x; y ] ->
    Alcotest.(check int) "int elt" 1 (Option.get (Json.to_int x));
    Alcotest.(check (float 1e-9)) "float elt" 2.5
      (Option.get (Json.to_float y))
  | _ -> Alcotest.fail "list member lost");
  Alcotest.(check string) "str member" "x"
    (Option.get (Option.bind (Json.member "s" j) Json.to_str));
  Alcotest.(check bool) "missing member" true (Json.member "zz" j = None)

(* --- Trace edge cases ---------------------------------------------- *)

(* The run ledger is the trace's JSON export: its [stages] list. *)
let ledger_of_trace t =
  Runinfo.to_json ~trace:t (Runinfo.create ~argv:[ "pvtol"; "test" ] ())

let test_trace_empty () =
  let t = Trace.create () in
  let report = Format.asprintf "%a" Trace.pp t in
  Alcotest.(check bool) "pp total renders" true
    (String.length report > 0);
  (match Json.of_string (Json.to_string (ledger_of_trace t)) with
  | Ok (Json.Obj fields) ->
    Alcotest.(check bool) "empty stages list" true
      (List.assoc "stages" fields = Json.List [])
  | Ok _ -> Alcotest.fail "ledger JSON is not an object"
  | Error e -> Alcotest.failf "empty-trace ledger JSON invalid: %s" e);
  match Json.of_string (Trace.to_chrome_json t) with
  | Ok (Json.List events) ->
    (* Only the process-metadata event: no spans, no domain tracks. *)
    Alcotest.(check int) "metadata only" 1 (List.length events)
  | Ok _ -> Alcotest.fail "chrome JSON is not an array"
  | Error e -> Alcotest.failf "empty chrome JSON invalid: %s" e

let test_trace_self_alloc () =
  (* A span whose body only forces a child that allocates on the major
     heap reports that allocation in its totals, not in its self words;
     the child's self words are its totals. *)
  let t = Trace.create () in
  let words = 1_000_000 in
  let kept = ref [||] in
  Trace.span t ~name:"parent" (fun () ->
      Trace.span t ~name:"child" (fun () -> kept := Array.make words 0.0));
  Alcotest.(check int) "child kept its array" words (Array.length !kept);
  let parent = Option.get (Trace.find t "parent") in
  let child = Option.get (Trace.find t "child") in
  Alcotest.(check bool) "child allocated on the major heap" true
    (child.Trace.major_words >= float_of_int words);
  Alcotest.(check bool) "child self = child total" true
    (child.Trace.self_major_words = child.Trace.major_words
    && child.Trace.self_minor_words = child.Trace.minor_words);
  Alcotest.(check bool) "parent total includes the child" true
    (parent.Trace.major_words >= child.Trace.major_words);
  if parent.Trace.self_major_words > 1000.0 then
    Alcotest.failf "parent self major words %.0f, expected ~0"
      parent.Trace.self_major_words;
  if parent.Trace.self_minor_words > 1000.0 then
    Alcotest.failf "parent self minor words %.0f, expected ~0"
      parent.Trace.self_minor_words

let test_trace_gc_fields () =
  let t = Trace.create () in
  let r =
    Trace.span t ~name:"alloc" (fun () ->
        (* Allocate enough to move the minor-words counter for sure. *)
        let acc = ref [] in
        for i = 1 to 10_000 do
          acc := (i, float_of_int i) :: !acc
        done;
        List.length !acc)
  in
  Alcotest.(check int) "span result" 10_000 r;
  let s = Option.get (Trace.find t "alloc") in
  Alcotest.(check bool) "minor words counted" true (s.Trace.minor_words > 0.0);
  Alcotest.(check bool) "gc counters non-negative" true
    (s.Trace.minor_collections >= 0
    && s.Trace.major_collections >= 0
    && s.Trace.compactions >= 0 && s.Trace.promoted_words >= 0.0);
  (* The new fields must survive the JSON exporter. *)
  let j =
    Result.get_ok (Json.of_string (Json.to_string (ledger_of_trace t)))
  in
  let span_j =
    match Option.bind (Json.member "stages" j) Json.to_list with
    | Some [ s ] -> s
    | _ -> Alcotest.fail "expected exactly one exported span"
  in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " exported") true
        (Json.member field span_j <> None))
    [ "promoted_words"; "minor_collections"; "major_collections";
      "compactions"; "self_minor_words"; "self_major_words" ]

(* --- Run ledger ---------------------------------------------------- *)

let test_ledger_roundtrip () =
  let ledger = Runinfo.create ~argv:[ "pvtol"; "test" ] () in
  Runinfo.add_config ledger "seed" (Json.Int 7);
  Runinfo.add_config ledger "seed" (Json.Int 9);
  (* later entry wins *)
  Runinfo.add_artifact ledger ~name:"stdout:demo" "demo report\n";
  let trace = Trace.create () in
  ignore (Trace.span trace ~name:"stage-a" (fun () -> 1 + 1));
  let j = Runinfo.to_json ~trace ledger in
  let j' = Result.get_ok (Json.of_string (Json.to_string j)) in
  Alcotest.(check int) "schema" Runinfo.schema
    (Option.get (Option.bind (Json.member "schema" j') Json.to_int));
  Alcotest.(check string) "tool" "pvtol"
    (Option.get (Option.bind (Json.member "tool" j') Json.to_str));
  let config = Option.get (Json.member "config" j') in
  Alcotest.(check int) "config override" 9
    (Option.get (Option.bind (Json.member "seed" config) Json.to_int));
  (match Option.bind (Json.member "artifacts" j') Json.to_list with
  | Some [ a ] ->
    Alcotest.(check string) "artifact digest"
      (Runinfo.digest_hex "demo report\n")
      (Option.get (Option.bind (Json.member "md5" a) Json.to_str));
    Alcotest.(check int) "artifact bytes" 12
      (Option.get (Option.bind (Json.member "bytes" a) Json.to_int))
  | _ -> Alcotest.fail "expected one artifact");
  (match Option.bind (Json.member "stages" j') Json.to_list with
  | Some [ s ] ->
    Alcotest.(check string) "stage name" "stage-a"
      (Option.get (Option.bind (Json.member "name" s) Json.to_str))
  | _ -> Alcotest.fail "expected one stage");
  (* The markdown renderer accepts what the collector wrote... *)
  (match Runinfo.render j' with
  | Ok md ->
    Alcotest.(check bool) "render has stage table" true
      (String.length md > 0 && contains ~sub:"stage-a" md)
  | Error e -> Alcotest.failf "render failed: %s" e);
  (* ...and rejects a value that is not a ledger... *)
  (match Runinfo.render (Json.Obj [ ("schema", Json.Int 999) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "render accepted a non-ledger");
  (* ...or a broken one, naming the first bad field. *)
  let fields = Option.get (Json.to_obj j') in
  let set k v = Json.Obj (List.remove_assoc k fields @ [ (k, v) ]) in
  let header = [ ("schema", Json.Int Runinfo.schema); ("tool", Json.Str "pvtol") ] in
  List.iter
    (fun (what, broken, bad_field) ->
      match Runinfo.render broken with
      | Ok _ -> Alcotest.failf "render accepted %s" what
      | Error e ->
        Alcotest.(check bool) (what ^ ": names " ^ bad_field) true
          (contains ~sub:bad_field e))
    ([
       ("a bare header", Json.Obj header, "version");
       ( "a nameless stage",
         set "stages" (Json.List [ Json.Obj [ ("dur_s", Json.Float 1.0) ] ]),
         "stages[0].name" );
       ("a string pool", set "pool" (Json.Str "pool"), "pool");
       ( "a pool without jobs",
         set "pool" (Json.Obj [ ("chunks", Json.Int 1) ]),
         "pool.jobs" );
       ("a metrics list", set "metrics" (Json.List []), "metrics");
       ( "a string counter",
         set "metrics"
           (Json.Obj [ ("counters", Json.Obj [ ("c", Json.Str "1") ]) ]),
         "metrics.counters.c" );
     ]
    @ List.map
        (fun k -> ("a ledger without " ^ k, Json.Obj (List.remove_assoc k fields), k))
        [ "version"; "argv"; "started_at"; "wall_s"; "cpu_user_s";
          "cpu_sys_s"; "gc"; "config"; "stages"; "artifacts" ]
    @ List.map
        (fun (k, v) -> ("a mistyped " ^ k, set k v, k))
        [ ("version", Json.Int 1); ("argv", Json.Str "pvtol");
          ("wall_s", Json.Str "1"); ("gc", Json.List []);
          ("config", Json.List []); ("artifacts", Json.Obj []) ])

(* The ledger is the one machine-readable run record: its [metrics] is
   the registry's JSON export of the same snapshot and its [stages] the
   trace's spans in start order, field for field, after a round trip
   through the file. *)
let test_ledger_holds_exports () =
  let c = Metrics.counter "test_ledger_counter" in
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled false)
    (fun () -> Metrics.add c 3);
  let trace = Trace.create () in
  (* The outer span completes last: completion order is not start
     order. *)
  Trace.span trace ~name:"outer" (fun () ->
      Trace.span trace ~name:"inner" (fun () -> ());
      Trace.span trace ~name:"second" (fun () -> ()));
  let metrics = Metrics.snapshot () in
  let file = Filename.temp_file "pvtol_ledger" ".json" in
  Runinfo.write ~trace ~metrics
    (Runinfo.create ~argv:[ "pvtol"; "test" ] ())
    ~file;
  let ledger = Result.get_ok (Json.read_file file) in
  Sys.remove file;
  let reread v = Result.get_ok (Json.of_string (Json.to_string v)) in
  let field name = Option.get (Json.member name ledger) in
  Alcotest.(check bool) "metrics = Metrics.to_value" true
    (field "metrics" = reread (Metrics.to_value metrics));
  let stages = List.map Trace.span_json (Trace.sort_by_start trace) in
  Alcotest.(check bool) "stages = span_json in start order" true
    (field "stages" = reread (Json.List stages))

(* End-to-end: the same run under PVTOL_DOMAINS 1/2/4 must produce the
   same report bytes, so the ledger's artifact digests are identical —
   the result-first comparison the ledger exists for. *)
let pvtol_exe = Filename.concat (Filename.concat ".." "bin") "pvtol.exe"

let run_ledger_digests ~domains =
  let file =
    Filename.temp_file (Printf.sprintf "pvtol_ledger_%d" domains) ".json"
  in
  let cmd =
    Printf.sprintf "PVTOL_DOMAINS=%d %s validate --quick --run-ledger %s > /dev/null 2>&1"
      domains (Filename.quote pvtol_exe) (Filename.quote file)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) (Printf.sprintf "exit (domains=%d)" domains) 0 rc;
  let j = Result.get_ok (Json.read_file file) in
  Sys.remove file;
  match Option.bind (Json.member "artifacts" j) Json.to_list with
  | Some arts ->
    List.map
      (fun a ->
        ( Option.get (Option.bind (Json.member "name" a) Json.to_str),
          Option.get (Option.bind (Json.member "md5" a) Json.to_str) ))
      arts
  | None -> Alcotest.fail "ledger has no artifacts"

let test_ledger_domain_stability () =
  let d1 = run_ledger_digests ~domains:1 in
  Alcotest.(check bool) "at least one artifact" true (d1 <> []);
  List.iter
    (fun domains ->
      let d = run_ledger_digests ~domains in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "digests stable at %d domains" domains)
        d1 d)
    [ 2; 4 ]

(* Every artifact the CLI can write must parse: the wafer, sampler and
   comparison reports (including the degenerate one-die-per-stratum
   sampler, whose half-widths are undefined), the Chrome trace and the
   run ledger. *)
let test_cli_artifacts_parse () =
  let dir = Filename.temp_file "pvtol_artifacts" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let file name = Filename.concat dir name in
  let run args outputs =
    let cmd =
      Printf.sprintf "%s %s > /dev/null 2>&1" (Filename.quote pvtol_exe) args
    in
    Alcotest.(check int) ("exit: " ^ args) 0 (Sys.command cmd);
    List.map
      (fun name ->
        match Json.read_file (file name) with
        | Ok j ->
          Sys.remove (file name);
          j
        | Error e -> Alcotest.failf "%s (from %s): %s" name args e)
      outputs
  in
  let q = Filename.quote in
  (match
     run
       (Printf.sprintf
          "wafer --quick --grid 2x2 --dies 2 --json %s --trace \
           --trace-chrome %s --run-ledger %s"
          (q (file "wafer.json")) (q (file "chrome.json"))
          (q (file "ledger.json")))
       [ "wafer.json"; "chrome.json"; "ledger.json" ]
   with
  | [ _; _; ledger ] ->
    (* The command's own span attributes the sweep's time. *)
    let names =
      Option.value ~default:[]
        (Option.bind (Json.member "stages" ledger) Json.to_list)
      |> List.filter_map (fun st ->
             Option.bind (Json.member "name" st) Json.to_str)
    in
    Alcotest.(check bool) "ledger has a wafer stage" true
      (List.mem "wafer" names)
  | _ -> assert false);
  List.iter
    (fun sampler ->
      ignore
        (run
           (Printf.sprintf
              "wafer --quick --sampler %s --strata 2 --dies 2 --rounds 2 \
               --json %s"
              sampler (q (file "sampler.json")))
           [ "sampler.json" ]))
    [ "is"; "lhs"; "mc" ];
  (match
     run
       (Printf.sprintf
          "wafer --quick --sampler mc --strata 2 --dies 1 --rounds 1 --json %s"
          (q (file "degenerate.json")))
       [ "degenerate.json" ]
   with
  | [ j ] ->
    Alcotest.(check bool) "starved half-width is null" true
      (Json.member "ci_halfwidth" j = Some Json.Null
      && Option.bind (Json.member "rare" j) (Json.member "ci_halfwidth")
         = Some Json.Null);
    Alcotest.(check bool) "not converged" true
      (Json.member "converged" j = Some (Json.Bool false))
  | _ -> assert false);
  ignore
    (run
       (Printf.sprintf "compare --quick --grid 2x2 --dies 2 --json %s"
          (q (file "compare.json")))
       [ "compare.json" ]);
  Sys.rmdir dir

(* --- bench pairs --------------------------------------------------- *)

(* Ten alternating runs a side, spread like perfbench's op_s on a
   2-core machine. *)
let pair_base = [| 0.86; 0.82; 0.90; 0.84; 0.88; 0.81; 0.93; 0.85; 0.87; 0.89 |]

let test_pairs_constant_shift () =
  let next = Array.map (fun x -> x -. 0.15) pair_base in
  let s = BC.pair_stat ~metric:"op_s" ~base:pair_base ~next in
  Alcotest.(check int) "wins" 10 s.BC.wins;
  Alcotest.(check (float 1e-12)) "shift" (-0.15) s.BC.shift;
  Alcotest.(check bool) "CI excludes 0" true (s.BC.shift_hi < 0.0);
  Alcotest.(check bool) "CI holds the shift" true
    (s.BC.shift_lo <= s.BC.shift && s.BC.shift <= s.BC.shift_hi);
  Alcotest.(check bool) "coverage >= 95%" true (s.BC.coverage >= 0.95);
  Alcotest.(check bool) "gain" true (s.BC.pair_verdict = BC.Gain);
  let worse = BC.pair_stat ~metric:"op_s" ~base:next ~next:pair_base in
  Alcotest.(check bool) "the mirror is a loss" true (worse.BC.pair_verdict = BC.Loss)

let test_pairs_identical () =
  let s = BC.pair_stat ~metric:"op_s" ~base:pair_base ~next:(Array.copy pair_base) in
  Alcotest.(check int) "wins" 0 s.BC.wins;
  Alcotest.(check (float 0.0)) "shift" 0.0 s.BC.shift;
  Alcotest.(check bool) "CI contains 0" true
    (s.BC.shift_lo <= 0.0 && 0.0 <= s.BC.shift_hi);
  Alcotest.(check bool) "unresolved" true (s.BC.pair_verdict = BC.Unresolved)

let test_pairs_eight_of_ten () =
  (* Eight large wins and two small losses: the shift clears the IQR,
     but eight in ten is not a gain. *)
  let next = Array.mapi (fun i x -> if i < 8 then x -. 0.2 else x +. 0.01) pair_base in
  let s = BC.pair_stat ~metric:"op_s" ~base:pair_base ~next in
  Alcotest.(check int) "wins" 8 s.BC.wins;
  Alcotest.(check bool) "shift beyond the base IQR" true
    (-.s.BC.shift > s.BC.base_q.BC.q3 -. s.BC.base_q.BC.q1);
  Alcotest.(check bool) "not a gain" true (s.BC.pair_verdict = BC.Unresolved);
  (* Nine wins, but a shift inside the base IQR: no gain either. *)
  let small = Array.mapi (fun i x -> if i < 9 then x -. 0.01 else x +. 0.01) pair_base in
  Alcotest.(check bool) "shift inside the IQR" true
    ((BC.pair_stat ~metric:"op_s" ~base:pair_base ~next:small).BC.pair_verdict
    = BC.Unresolved)

(* A perfbench [--json] record: one op per entry of [problems]. *)
let perfbench_record ?(workload = "yield_is") ?(seed = 7) ?(seconds = 13.0)
    ?(quick = false) ?(problems = [ []; [] ]) metrics =
  Json.Obj
    [ ("workload", Json.Str workload); ("seed", Json.Int seed);
      ("seconds", Json.Float seconds); ("trace", Json.Bool false);
      ("quick", Json.Bool quick); ("domains", Json.Int 2);
      ( "ops",
        Json.List
          (List.map
             (fun ps ->
               Json.Obj
                 [ ("seconds", Json.Float 0.8);
                   ("problems", Json.List (List.map (fun p -> Json.Str p) ps)) ])
             problems) );
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str "s") ]))
             metrics) ) ]

let test_pairs_records () =
  let side f =
    Array.to_list
      (Array.mapi
         (fun i x ->
           (Printf.sprintf "run%d.json" i, perfbench_record [ ("op_s", f x); ("setup_s", 2.5) ]))
         pair_base)
  in
  let base = side Fun.id and next = side (fun x -> x -. 0.15) in
  (match BC.pairs ~base ~next with
  | Error e -> Alcotest.fail (BC.pair_error_message e)
  | Ok r ->
    Alcotest.(check (pair int int)) "failed ops" (0, 0) (r.BC.base_failed, r.BC.next_failed);
    Alcotest.(check string) "workload" "yield_is" r.BC.p_workload;
    Alcotest.(check (list int)) "seeds" [ 7 ] r.BC.seeds;
    Alcotest.(check (list string)) "metrics in record order" [ "op_s"; "setup_s" ]
      (List.map (fun st -> st.BC.metric) r.BC.stats);
    let md = BC.render_pairs r in
    Alcotest.(check bool) "table names the gain" true
      (contains ~sub:"| op_s |" md && contains ~sub:"**gain**" md));
  let expect_error label want got =
    match got with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.(check bool) (label ^ ": " ^ BC.pair_error_message e) true (want e)
  in
  expect_error "workload mismatch"
    (function BC.Workload_mismatch _ -> true | _ -> false)
    (BC.pairs ~base
       ~next:(("census.json", perfbench_record ~workload:"wafer_census" [ ("op_s", 1.0); ("setup_s", 2.5) ])
              :: List.tl next));
  (* A faster new side whose ops fail more often gains nothing. *)
  (match
     BC.pairs ~base
       ~next:(("failing.json",
               perfbench_record ~problems:[ []; [ "digest mismatch" ] ]
                 [ ("op_s", 0.5); ("setup_s", 2.5) ])
              :: List.tl next)
   with
  | Error e -> Alcotest.fail (BC.pair_error_message e)
  | Ok r ->
    Alcotest.(check (pair int int)) "failed ops" (0, 1) (r.BC.base_failed, r.BC.next_failed);
    Alcotest.(check bool) "no gain while more new ops fail" true
      (List.for_all (fun st -> st.BC.pair_verdict <> BC.Gain) r.BC.stats));
  expect_error "shorter window"
    (function BC.Setting_mismatch { setting = "seconds"; _ } -> true | _ -> false)
    (BC.pairs ~base
       ~next:(("short.json", perfbench_record ~seconds:1.0 [ ("op_s", 1.0); ("setup_s", 2.5) ])
              :: List.tl next));
  expect_error "quick design"
    (function BC.Setting_mismatch { setting = "quick"; _ } -> true | _ -> false)
    (BC.pairs ~base
       ~next:(("quick.json", perfbench_record ~quick:true [ ("op_s", 1.0); ("setup_s", 2.5) ])
              :: List.tl next));
  expect_error "missing metric"
    (function BC.Missing_metric { metric = "setup_s"; _ } -> true | _ -> false)
    (BC.pairs ~base ~next:(("short.json", perfbench_record [ ("op_s", 1.0) ]) :: List.tl next));
  expect_error "unpaired"
    (function BC.Unpaired { base = 10; next = 9 } -> true | _ -> false)
    (BC.pairs ~base ~next:(List.tl next));
  expect_error "not a record"
    (function BC.Bad_record _ -> true | _ -> false)
    (BC.pairs ~base ~next:(("x.json", Json.Obj []) :: List.tl next))

(* The [pvtol bench pairs] CLI over perfbench records written to temp
   files: ten base and ten new records (the new side 0.15 s faster),
   and [run] sends stderr to [err]. *)
let pairs_write name j =
  let file = Filename.temp_file name ".json" in
  Json.write_file file j;
  file

let with_pairs_cli f =
  let side g =
    Array.to_list
      (Array.map (fun x -> pairs_write "pairs" (perfbench_record [ ("op_s", g x) ])) pair_base)
  in
  let base = side Fun.id and next = side (fun x -> x -. 0.15) in
  let err = Filename.temp_file "pairs_err" ".txt" in
  let run b n =
    let args flag = List.map (fun f -> flag ^ "=" ^ Filename.quote f) in
    Sys.command
      (Printf.sprintf "%s bench pairs %s > /dev/null 2> %s" (Filename.quote pvtol_exe)
         (String.concat " " (args "--base" b @ args "--new" n))
         (Filename.quote err))
  in
  f ~base ~next ~err run;
  List.iter Sys.remove (err :: base @ next)

(* The CLI: 0 on a gain, 1 on a loss, 2 on mismatched workloads or
   settings or a missing metric. *)
let test_pairs_cli_exit_codes () =
  with_pairs_cli (fun ~base ~next ~err:_ run ->
    let census = pairs_write "pairs_census" (perfbench_record ~workload:"wafer_census" [ ("op_s", 1.0) ]) in
    let bare = pairs_write "pairs_bare" (perfbench_record []) in
    let quick = pairs_write "pairs_quick" (perfbench_record ~quick:true [ ("op_s", 0.5) ]) in
    Alcotest.(check int) "gain exits 0" 0 (run base next);
    Alcotest.(check int) "loss exits 1" 1 (run next base);
    Alcotest.(check int) "mismatched workloads exit 2" 2 (run base (census :: List.tl next));
    Alcotest.(check int) "missing metric exits 2" 2 (run base (bare :: List.tl next));
    Alcotest.(check int) "mismatched settings exit 2" 2 (run base (quick :: List.tl next));
    List.iter Sys.remove [ census; bare; quick ])

(* A file that is not JSON or a record without ops exits 2 with one
   [pvtol bench pairs:] line on stderr. *)
let test_pairs_cli_unreadable () =
  with_pairs_cli (fun ~base ~next ~err run ->
    let no_ops =
      pairs_write "pairs_no_ops"
        (match perfbench_record [ ("op_s", 1.0) ] with
        | Json.Obj fields -> Json.Obj (List.remove_assoc "ops" fields)
        | j -> j)
    in
    let not_json = Filename.temp_file "pairs_not_json" ".json" in
    Out_channel.with_open_text not_json (fun oc -> output_string oc "op_s 1.0\n");
    List.iter
      (fun (label, file) ->
        Alcotest.(check int) (label ^ " exits 2") 2 (run base (file :: List.tl next));
        let lines =
          In_channel.with_open_text err In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
        in
        match lines with
        | [ line ] when String.starts_with ~prefix:"pvtol bench pairs: " line -> ()
        | _ ->
          Alcotest.failf "%s: expected one pvtol bench pairs: line on stderr, got %S"
            label (String.concat "\n" lines))
      [ ("not JSON", not_json); ("no ops", no_ops) ];
    List.iter Sys.remove [ no_ops; not_json ])

(* Degenerate count flags are usage errors: exit 124 with cmdliner's
   one-line message naming the option, never an uncaught exception from
   a stage that was handed a zero budget. *)
let test_cli_rejects_nonpositive_counts () =
  let err = Filename.temp_file "pvtol_usage" ".txt" in
  List.iter
    (fun (args, option) ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote pvtol_exe)
             args (Filename.quote err))
      in
      Alcotest.(check int) ("exit: " ^ args) 124 rc;
      let first =
        In_channel.with_open_text err In_channel.input_line
        |> Option.value ~default:""
      in
      let prefix = Printf.sprintf "pvtol: option '%s': " option in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message names %s (got %S)" args option first)
        true
        (String.starts_with ~prefix first))
    [ ("wafer --quick --dies 0", "--dies");
      ("wafer --quick --fields 0", "--fields");
      ("wafer --quick --sampler is --strata 0", "--strata");
      ("wafer --quick --sampler is --rounds 0", "--rounds");
      ("wafer --quick --sampler is --ci-target 0", "--ci-target");
      ("wafer --quick --sampler is --rare-scenario 0", "--rare-scenario");
      ("wafer --quick --sampler is --rare-scenario 9", "--rare-scenario");
      ("compare --quick --dies 0", "--dies");
      ("compare --quick --fields=-2", "--fields");
      ("scenarios --quick --samples 0", "--samples");
      ("scenarios --quick --samples 7", "--samples") ];
  Sys.remove err

(* The sampler's --progress status line ends once: at the stopping rule
   or the last round.  A starved run (every die agrees, so the
   half-width is zero and the rule rejects it) rewrites the line each
   round and ends it after the last. *)
let test_cli_progress_line_ends_once () =
  let err = Filename.temp_file "pvtol_progress" ".txt" in
  let rc =
    Sys.command
      (Printf.sprintf
         "PVTOL_DOMAINS=1 %s wafer --quick --sampler mc --strata 1 --dies 2 \
          --rounds 3 --progress --ci-metric rare --rare-scenario 3 > /dev/null 2> %s"
         (Filename.quote pvtol_exe) (Filename.quote err))
  in
  Alcotest.(check int) "exit" 0 rc;
  let text = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  let status =
    String.split_on_char '\r' text
    |> List.filter (String.starts_with ~prefix:"sampling: ")
  in
  Alcotest.(check int) "status updates" 3 (List.length status);
  let newlines =
    List.fold_left
      (fun n seg ->
        n + List.length (String.split_on_char '\n' seg) - 1)
      0 status
  in
  Alcotest.(check int) "newlines on the status line" 1 newlines

(* A run that fails (an unwritable report or artifact, a failed stage)
   prints one [pvtol: ] line and exits 2, not an uncaught exception.
   The run inherits [PVTOL_DOMAINS]: the parsing test leaves an unset
   variable as "", which the pool reads as unset, without a warning. *)
let test_cli_run_failures_exit_2 () =
  let err = Filename.temp_file "pvtol_failure" ".txt" in
  let missing = Filename.temp_file "pvtol_missing" "" in
  Sys.remove missing;
  let bad = Filename.quote (Filename.concat missing "x.json") in
  List.iter
    (fun args ->
      let rc =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s"
             (Filename.quote pvtol_exe) args (Filename.quote err))
      in
      Alcotest.(check int) ("exit: " ^ args) 2 rc;
      let lines =
        In_channel.with_open_text err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      match lines with
      | [ line ] when String.starts_with ~prefix:"pvtol: " line -> ()
      | _ ->
        Alcotest.failf "%s: expected one pvtol: line on stderr, got %S" args
          (String.concat "\n" lines))
    [ "wafer --quick --grid 2x2 --dies 1 --json " ^ bad;
      "fig2 --run-ledger " ^ bad;
      "fig2 --trace-chrome " ^ bad;
      "dump --quick -o " ^ Filename.quote missing ];
  Sys.remove err

(* A ledger that does not parse or lacks a field exits 1 with one
   [pvtol report: FILE: ...] line; a written ledger renders. *)
let test_cli_report_exit_codes () =
  let ledger = Runinfo.to_json (Runinfo.create ~argv:[ "pvtol"; "test" ] ()) in
  let full = Json.to_string ledger in
  let err = Filename.temp_file "pvtol_report" ".txt" in
  List.iter
    (fun (what, content, expect) ->
      let file = Filename.temp_file "pvtol_ledger" ".json" in
      Out_channel.with_open_text file (fun oc -> output_string oc content);
      let rc =
        Sys.command
          (Printf.sprintf "%s report %s > /dev/null 2> %s"
             (Filename.quote pvtol_exe) (Filename.quote file)
             (Filename.quote err))
      in
      Sys.remove file;
      Alcotest.(check int) ("exit: " ^ what) expect rc;
      let lines =
        In_channel.with_open_text err In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (( <> ) "")
      in
      match (expect, lines) with
      | 0, [] -> ()
      | 1, [ line ] when String.starts_with ~prefix:"pvtol report: " line -> ()
      | _ ->
        Alcotest.failf "%s: unexpected stderr %S" what (String.concat "\n" lines))
    [
      ("a written ledger", full, 0);
      ("a truncated ledger", String.sub full 0 (String.length full / 2), 1);
      ( "a bare header",
        Printf.sprintf {|{"schema":%d,"tool":"pvtol"}|} Runinfo.schema,
        1 );
    ];
  Sys.remove err

let suite =
  ( "observability",
    [
      Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
      Alcotest.test_case "json rejects nan/inf" `Quick
        test_json_rejects_nonfinite;
      Alcotest.test_case "json escape parsing" `Quick test_json_parse_escapes;
      Alcotest.test_case "json member access" `Quick test_json_members;
      QCheck_alcotest.to_alcotest prop_json_float_exact;
      Alcotest.test_case "empty trace exports" `Quick test_trace_empty;
      Alcotest.test_case "span gc deltas" `Quick test_trace_gc_fields;
      Alcotest.test_case "span self allocation" `Quick test_trace_self_alloc;
      Alcotest.test_case "ledger round-trip" `Quick test_ledger_roundtrip;
      Alcotest.test_case "ledger holds the metrics and trace exports" `Quick
        test_ledger_holds_exports;
      Alcotest.test_case "ledger digests vs PVTOL_DOMAINS" `Slow
        test_ledger_domain_stability;
      Alcotest.test_case "every cli artifact parses" `Slow
        test_cli_artifacts_parse;
      Alcotest.test_case "cli rejects non-positive counts" `Quick
        test_cli_rejects_nonpositive_counts;
      Alcotest.test_case "cli report rejects broken ledgers" `Quick
        test_cli_report_exit_codes;
      Alcotest.test_case "cli run failures exit 2" `Quick
        test_cli_run_failures_exit_2;
      Alcotest.test_case "cli progress line ends once" `Quick
        test_cli_progress_line_ends_once;
      Alcotest.test_case "pairs: perfbench records" `Quick test_pairs_records;
      Alcotest.test_case "pairs: cli exit codes" `Quick test_pairs_cli_exit_codes;
      Alcotest.test_case "pairs: unreadable records exit 2" `Quick
        test_pairs_cli_unreadable;
      Alcotest.test_case "pairs: constant shift found" `Quick
        test_pairs_constant_shift;
      Alcotest.test_case "pairs: identical sides" `Quick test_pairs_identical;
      Alcotest.test_case "pairs: 8 wins in 10 is no gain" `Quick
        test_pairs_eight_of_ten;
    ] )
