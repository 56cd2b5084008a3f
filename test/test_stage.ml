(* Tests for the lazy memoized stage graph (Pvtol_core.Stage) and its
   trace (Pvtol_util.Trace). *)

module Sg = Pvtol_core.Stage
module Trace = Pvtol_util.Trace

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The error forcing [f] raises; a value is a test failure. *)
let stage_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a stage error" what
  | exception Sg.Stage_error e -> e

(* Labels of the instances of keyed node [name] that [g] computed, read
   off its trace: one ok span ["name[l1,l2,...]"] per compute. *)
let computed_keys g name =
  let prefix = name ^ "[" in
  let p = String.length prefix in
  List.concat_map
    (fun (s : Trace.span) ->
      let n = s.Trace.name in
      if s.Trace.ok && String.length n > p && String.sub n 0 p = prefix then
        String.split_on_char ',' (String.sub n p (String.length n - p - 1))
      else [])
    (Trace.spans (Sg.trace g))
  |> List.sort String.compare

(* --- memoization --- *)

let test_node_runs_once () =
  let g = Sg.create () in
  let runs = ref 0 in
  let n =
    Sg.node g ~name:"a" (fun () ->
        incr runs;
        42)
  in
  let spans () = Trace.count (Sg.trace g) "a" in
  Alcotest.(check (pair int int)) "not computed yet" (0, 0) (!runs, spans ());
  Alcotest.(check int) "value" 42 (Sg.get n);
  Alcotest.(check int) "again" 42 (Sg.get n);
  Alcotest.(check int) "computed once" 1 !runs;
  Alcotest.(check int) "one span" 1 (spans ())

let test_dependent_nodes_share () =
  let g = Sg.create () in
  let runs = ref 0 in
  let base =
    Sg.node g ~name:"base" (fun () ->
        incr runs;
        10)
  in
  let left = Sg.node g ~name:"left" (fun () -> Sg.get base + 1) in
  let right = Sg.node g ~name:"right" (fun () -> Sg.get base + 2) in
  Alcotest.(check int) "left" 11 (Sg.get left);
  Alcotest.(check int) "right" 12 (Sg.get right);
  Alcotest.(check int) "diamond base computed once" 1 !runs

let test_duplicate_name_rejected () =
  let g = Sg.create () in
  let _ = Sg.node g ~name:"x" (fun () -> 0) in
  match Sg.node g ~name:"x" (fun () -> 1) with
  | _ -> Alcotest.fail "duplicate node name must be rejected"
  | exception Invalid_argument _ -> ()

(* --- keyed nodes --- *)

let test_keyed_isolation () =
  let g = Sg.create () in
  let runs = Hashtbl.create 4 in
  let k =
    Sg.keyed g ~name:"mc" ~key_label:string_of_int (fun key ->
        Hashtbl.replace runs key (1 + Option.value ~default:0 (Hashtbl.find_opt runs key));
        key * key)
  in
  Alcotest.(check int) "key 2" 4 (Sg.get_keyed k 2);
  Alcotest.(check int) "key 3" 9 (Sg.get_keyed k 3);
  Alcotest.(check int) "key 2 again" 4 (Sg.get_keyed k 2);
  Alcotest.(check int) "key 2 ran once" 1 (Hashtbl.find runs 2);
  Alcotest.(check int) "key 3 ran once" 1 (Hashtbl.find runs 3);
  Alcotest.(check (list string)) "computed keys" [ "2"; "3" ] (computed_keys g "mc");
  Alcotest.(check int) "span per key" 1 (Trace.count (Sg.trace g) "mc[2]")

let test_keyed_batch () =
  (* A batch compute sees only the keys no force has computed or
     started, once each and in request order, under one span; each
     value is memoized under its own key. *)
  let g = Sg.create () in
  let calls = ref [] in
  let k =
    Sg.keyed_batch g ~name:"sq" ~key_label:string_of_int (fun keys ->
        calls := keys :: !calls;
        List.map (fun key -> key * key) keys)
  in
  Alcotest.(check int) "lone key" 4 (Sg.get_keyed k 2);
  Alcotest.(check (list int)) "many keys" [ 1; 4; 9; 1 ]
    (Sg.get_keyed_many k [ 1; 2; 3; 1 ]);
  Alcotest.(check (list (list int))) "batch calls" [ [ 2 ]; [ 1; 3 ] ]
    (List.rev !calls);
  Alcotest.(check (list int)) "all memoized" [ 9; 4; 1 ]
    (Sg.get_keyed_many k [ 3; 2; 1 ]);
  Alcotest.(check int) "no further call" 2 (List.length !calls);
  Alcotest.(check (list string)) "computed keys" [ "1"; "2"; "3" ]
    (computed_keys g "sq");
  Alcotest.(check int) "lone span" 1 (Trace.count (Sg.trace g) "sq[2]");
  Alcotest.(check int) "batch span" 1 (Trace.count (Sg.trace g) "sq[1,3]");
  (* A failing batch fails every key it claimed, memoized. *)
  let bad =
    Sg.keyed_batch g ~name:"bad" ~key_label:string_of_int (fun _ ->
        failwith "boom")
  in
  let e = stage_error "batch" (fun () -> Sg.get_keyed_many bad [ 1; 2 ]) in
  Alcotest.(check string) "batch attributed" "bad[1,2]" e.Sg.stage;
  (* A recompute would be attributed to "bad[2]". *)
  let e = stage_error "memoized" (fun () -> Sg.get_keyed bad 2) in
  Alcotest.(check string) "same error" "bad[1,2]" e.Sg.stage

(* --- tracing --- *)

let test_trace_dependency_order () =
  let g = Sg.create () in
  let a = Sg.node g ~name:"a" (fun () -> 1) in
  let b = Sg.node g ~name:"b" (fun () -> Sg.get a + 1) in
  (* [c] forces [b] (a compute), then [a] (a memo hit), then [b] again. *)
  let c =
    Sg.node g ~name:"c" (fun () ->
        let vb = Sg.get b in
        let va = Sg.get a in
        vb + va + Sg.get b)
  in
  Alcotest.(check int) "c" 5 (Sg.get c);
  let names = List.map (fun (s : Trace.span) -> s.Trace.name) (Trace.spans (Sg.trace g)) in
  (* Completion order: upstream finishes before what forced it. *)
  Alcotest.(check (list string)) "completion order" [ "a"; "b"; "c" ] names;
  (match Trace.find (Sg.trace g) "c" with
  | Some s ->
    Alcotest.(check (list string)) "forced deps recorded" [ "b"; "a" ] s.Trace.deps;
    Alcotest.(check bool) "ok" true s.Trace.ok;
    Alcotest.(check bool) "duration sane" true (s.Trace.dur_s >= 0.0)
  | None -> Alcotest.fail "span c missing");
  Alcotest.(check (list string)) "no duplicates" [] (Trace.duplicates (Sg.trace g));
  (* A keyed force is recorded per key, whether the keys compute as one
     batch or hit the memo. *)
  let k = Sg.keyed_batch g ~name:"k" ~key_label:string_of_int (List.map succ) in
  let d =
    Sg.node g ~name:"d" (fun () ->
        let v2 = Sg.get_keyed k 2 in
        v2 + List.length (Sg.get_keyed_many k [ 1; 2 ]))
  in
  Alcotest.(check int) "d" 5 (Sg.get d);
  match Trace.find (Sg.trace g) "d" with
  | Some s ->
    Alcotest.(check (list string)) "keyed deps recorded" [ "k[2]"; "k[1]" ] s.Trace.deps
  | None -> Alcotest.fail "span d missing"

let test_trace_json () =
  let g = Sg.create () in
  let up = Sg.node g ~name:"up" (fun () -> ()) in
  let a = Sg.node g ~name:"stage one" (fun () -> Sg.get up) in
  Sg.get a;
  let json =
    Pvtol_util.(
      Json.to_string
        (Runinfo.to_json ~trace:(Sg.trace g)
           (Runinfo.create ~argv:[ "pvtol"; "test" ] ())))
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json mentions %s" needle)
        true
        (contains ~sub:needle json))
    [ "\"stage one\""; "\"up\""; "\"dur_s\""; "\"ok\"" ]

(* --- error boundaries --- *)

let test_error_names_failing_stage () =
  let g = Sg.create () in
  let runs = ref 0 in
  let bad =
    Sg.node g ~name:"parse" (fun () ->
        incr runs;
        failwith "bad liberty file")
  in
  let mid = Sg.node g ~name:"mid" (fun () -> Sg.get bad + 1) in
  let top = Sg.node g ~name:"top" (fun () -> Sg.get mid + 1) in
  let e = stage_error "top" (fun () -> Sg.get top) in
  Alcotest.(check string) "failing stage named" "parse" e.Sg.stage;
  Alcotest.(check (list string)) "forcing chain outermost first"
    [ "top"; "mid"; "parse" ] e.Sg.chain;
  Alcotest.(check bool) "message kept" true
    (contains ~sub:"bad liberty file" e.Sg.message);
  (* The error is memoized: re-forcing re-raises without recomputing. *)
  let e = stage_error "memoized" (fun () -> Sg.get bad) in
  Alcotest.(check string) "same stage" "parse" e.Sg.stage;
  Alcotest.(check int) "failed stage ran once" 1 !runs;
  (* The failed span is recorded with ok = false. *)
  match Trace.find (Sg.trace g) "parse" with
  | Some s -> Alcotest.(check bool) "span not ok" false s.Trace.ok
  | None -> Alcotest.fail "failed span missing from trace"

let test_cycle_detected () =
  let g = Sg.create () in
  let rec cell = lazy (Sg.node g ~name:"loop" (fun () -> Sg.get (Lazy.force cell))) in
  let e = stage_error "cycle" (fun () -> Sg.get (Lazy.force cell)) in
  Alcotest.(check string) "cycle attributed" "loop" e.Sg.stage;
  Alcotest.(check bool) "says cycle" true (contains ~sub:"cycle" e.Sg.message)

let test_batch_cycle_detected () =
  (* A batch that forces one of its own keys is a cycle, like a lone
     node forcing itself: it fails every key it claimed. *)
  let g = Sg.create () in
  let rec k =
    lazy
      (Sg.keyed_batch g ~name:"self" ~key_label:string_of_int (fun keys ->
           ignore (Sg.get_keyed (Lazy.force k) 2);
           keys))
  in
  let k = Lazy.force k in
  let e = stage_error "cycle" (fun () -> Sg.get_keyed_many k [ 1; 2 ]) in
  Alcotest.(check string) "cycle attributed" "self[2]" e.Sg.stage;
  Alcotest.(check (list string)) "chain" [ "self[1,2]"; "self[2]" ] e.Sg.chain;
  Alcotest.(check bool) "says cycle" true (contains ~sub:"cycle" e.Sg.message);
  let e = stage_error "memoized" (fun () -> Sg.get_keyed k 1) in
  Alcotest.(check string) "same error" "self[2]" e.Sg.stage

(* --- concurrency --- *)

let test_concurrent_force_computes_once () =
  let g = Sg.create () in
  let runs = Atomic.make 0 in
  let n =
    Sg.node g ~name:"slow" (fun () ->
        Atomic.incr runs;
        (* Give the other domains time to pile onto the same cell. *)
        Unix.sleepf 0.02;
        99)
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn (fun () -> Sg.get n)) in
  let results = Array.map Domain.join domains in
  Array.iter (fun v -> Alcotest.(check int) "same value" 99 v) results;
  Alcotest.(check int) "computed once under contention" 1 (Atomic.get runs);
  Alcotest.(check int) "one span" 1 (Trace.count (Sg.trace g) "slow")

let test_concurrent_batches_compute_once () =
  (* Overlapping batches forced from several domains: every key is
     computed by exactly one of them. *)
  let g = Sg.create () in
  let runs = Array.init 6 (fun _ -> Atomic.make 0) in
  let k =
    Sg.keyed_batch g ~name:"slow" ~key_label:string_of_int (fun keys ->
        List.iter (fun key -> Atomic.incr runs.(key)) keys;
        Unix.sleepf 0.02;
        List.map (fun key -> 10 * key) keys)
  in
  let batches = [| [ 0; 1; 2; 3 ]; [ 2; 3; 4; 5 ]; [ 5; 0 ]; [ 1; 4 ] |] in
  let domains =
    Array.map (fun keys -> Domain.spawn (fun () -> Sg.get_keyed_many k keys)) batches
  in
  Array.iteri
    (fun i d ->
      Alcotest.(check (list int)) "values" (List.map (fun key -> 10 * key) batches.(i))
        (Domain.join d))
    domains;
  Array.iter (fun r -> Alcotest.(check int) "computed once" 1 (Atomic.get r)) runs

let suite =
  ( "stage",
    [
      Alcotest.test_case "node runs once" `Quick test_node_runs_once;
      Alcotest.test_case "diamond shares base" `Quick test_dependent_nodes_share;
      Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name_rejected;
      Alcotest.test_case "keyed isolation" `Quick test_keyed_isolation;
      Alcotest.test_case "keyed batch" `Quick test_keyed_batch;
      Alcotest.test_case "trace dependency order" `Quick test_trace_dependency_order;
      Alcotest.test_case "trace json" `Quick test_trace_json;
      Alcotest.test_case "error names failing stage" `Quick test_error_names_failing_stage;
      Alcotest.test_case "cycle detected" `Quick test_cycle_detected;
      Alcotest.test_case "batch cycle detected" `Quick test_batch_cycle_detected;
      Alcotest.test_case "concurrent force" `Quick test_concurrent_force_computes_once;
      Alcotest.test_case "concurrent batches" `Quick
        test_concurrent_batches_compute_once;
    ] )
