(* Telemetry layer: the counter registry (shard merging, the disabled
   fast path), the pool's wall-clock totals, the warn-once latch under
   a domain race and the Chrome trace export. *)

module Metrics = Pvtol_util.Metrics
module Log = Pvtol_util.Log
module Trace = Pvtol_util.Trace
module Pool = Pvtol_util.Pool
module Srng = Pvtol_util.Srng
module Json = Pvtol_util.Json
module Runinfo = Pvtol_util.Runinfo

(* A run ledger over [trace] and [metrics] — their one JSON export. *)
let ledger ?trace ?metrics () =
  Runinfo.to_json ?trace ?metrics (Runinfo.create ~argv:[ "pvtol"; "test" ] ())

(* Every test that enables metrics must restore the disabled default,
   also on failure: later tests assert the zero-cost path. *)
let with_metrics_enabled f =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                     *)

let test_counter_basics () =
  let c = Metrics.counter "test_basics_counter" in
  let before = Metrics.counter_value c in
  with_metrics_enabled (fun () ->
      Metrics.incr c;
      Metrics.add c 41);
  Alcotest.(check int) "counter sums" 42 (Metrics.counter_value c - before);
  (* Disabled updates are dropped, not queued. *)
  Metrics.incr c;
  Alcotest.(check int) "disabled update dropped" 42
    (Metrics.counter_value c - before)

let test_registration () =
  let c = Metrics.counter "test_reregistered" in
  let c' = Metrics.counter "test_reregistered" in
  with_metrics_enabled (fun () ->
      Metrics.incr c;
      Metrics.incr c');
  Alcotest.(check int) "same name, same metric" 2 (Metrics.counter_value c);
  Alcotest.check_raises "bad name rejected"
    (Invalid_argument "Metrics: bad metric name \"bad name\"") (fun () ->
      ignore (Metrics.counter "bad name"))

(* The shared test pool: worker domains (and their DLS shards) persist
   across the QCheck iterations, which is exactly the production
   shape. *)
let test_pool = lazy (Pool.create ~domains:4 ())

let prop_shard_merge_serial_reference =
  QCheck.Test.make
    ~name:"sharded counter merge equals the serial sum" ~count:25
    QCheck.(pair (int_bound 100_000) (int_range 1 50))
    (fun (seed, chunks) ->
      let c = Metrics.counter "test_merge_counter" in
      let rng = Srng.create seed in
      let adds = Array.init chunks (fun _ -> Srng.int rng 100) in
      let before = Metrics.counter_value c in
      with_metrics_enabled (fun () ->
          ignore
            (Pool.parallel_chunks (Lazy.force test_pool) ~chunks
               ~init:(fun ~worker:_ -> ())
               ~f:(fun () i -> Metrics.add c adds.(i))));
      Metrics.counter_value c - before = Array.fold_left ( + ) 0 adds)

let test_deterministic_across_domain_counts () =
  let c = Metrics.counter "test_domain_invariant" in
  let run domains =
    let pool = Pool.create ~domains () in
    let before = Metrics.counter_value c in
    with_metrics_enabled (fun () ->
        ignore
          (Pool.parallel_chunks pool ~chunks:64
             ~init:(fun ~worker:_ -> ())
             ~f:(fun () i -> Metrics.add c i)));
    Pool.shutdown pool;
    Metrics.counter_value c - before
  in
  let r1 = run 1 in
  Alcotest.(check int) "2 domains = 1 domain" r1 (run 2);
  Alcotest.(check int) "4 domains = 1 domain" r1 (run 4)

let test_disabled_path_allocates_nothing () =
  Metrics.set_enabled false;
  let c = Metrics.counter "test_noalloc_counter" in
  let n = 100_000 in
  let minor_delta f =
    let a = (Gc.quick_stat ()).Gc.minor_words in
    f ();
    (Gc.quick_stat ()).Gc.minor_words -. a
  in
  (* The empty loop is the baseline: both deltas carry the same
     quick_stat bookkeeping, so equal deltas mean the updates
     themselves allocated zero words. *)
  let base =
    minor_delta (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity ())
        done)
  in
  let updates =
    minor_delta (fun () ->
        for _ = 1 to n do
          Metrics.incr c;
          Metrics.add c 2
        done)
  in
  Alcotest.(check (float 0.0)) "disabled updates allocate zero words" base
    updates

(* The pool's wall-clock totals: one parallel job on a 2-domain pool
   adds one timed job and the worker's idle wait before it; with
   metrics off nothing moves; the ledger's [pool] object reads them. *)
let test_pool_wall_totals () =
  let job pool =
    ignore
      (Pool.parallel_chunks pool ~chunks:4
         ~init:(fun ~worker:_ -> ())
         ~f:(fun () i -> i))
  in
  let w0 = Pool.wall_totals () in
  let pool, w1 =
    with_metrics_enabled (fun () ->
        let pool = Pool.create ~domains:2 () in
        job pool;
        (pool, Pool.wall_totals ()))
  in
  Alcotest.(check int) "one timed job" 1
    (w1.Pool.jobs_timed - w0.Pool.jobs_timed);
  Alcotest.(check bool) "at least one idle wait" true
    (w1.Pool.queue_waits > w0.Pool.queue_waits);
  Alcotest.(check bool) "non-negative seconds" true
    (w1.Pool.job_s >= w0.Pool.job_s
    && w1.Pool.queue_wait_s >= w0.Pool.queue_wait_s);
  job pool;
  Pool.shutdown pool;
  Alcotest.(check bool) "disabled job leaves the totals" true
    (Pool.wall_totals () = w1);
  let pool_field name =
    Json.member "pool" (ledger ~metrics:(Metrics.snapshot ()) ())
    |> Fun.flip Option.bind (Json.member name)
  in
  Alcotest.(check bool) "ledger pool carries the totals" true
    (pool_field "queue_wait_s" = Some (Json.Float w1.Pool.queue_wait_s)
    && pool_field "queue_waits" = Some (Json.Int w1.Pool.queue_waits)
    && pool_field "job_s" = Some (Json.Float w1.Pool.job_s)
    && pool_field "jobs_timed" = Some (Json.Int w1.Pool.jobs_timed))

(* The compensation-strategy counters from [Pvtol_core.Compensation]:
   registered under their catalogue names (re-registration is
   idempotent, so grabbing handles here observes the library's own),
   bumped consistently with a strategy-comparison report when enabled,
   and dropped without allocating when disabled. *)
let test_compensation_counters () =
  let module Compare = Pvtol_core.Compare in
  let applied =
    List.map
      (fun name -> (name, Metrics.counter ("compensation_" ^ name ^ "_applied_total")))
      [ "vi"; "chipwide"; "skew"; "buffers" ]
  in
  let skew_flops = Metrics.counter "skew_tuned_flops_total" in
  let buffers_inserted = Metrics.counter "buffers_inserted_total" in
  let t, v = Lazy.force Test_extensions.env in
  let cfg =
    { Compare.default_config with Compare.nx = 2; ny = 2; dies_per_cell = 3 }
  in
  let snapshot () =
    ( List.map (fun (n, c) -> (n, Metrics.counter_value c)) applied,
      Metrics.counter_value skew_flops,
      Metrics.counter_value buffers_inserted )
  in
  let before, sf0, bi0 = snapshot () in
  let r = with_metrics_enabled (fun () -> Compare.run t v cfg) in
  let result name =
    List.find (fun s -> s.Compare.name = name) r.Compare.results
  in
  (* Applied counters tick at most once per die, only when the strategy
     actually turned its knob; chip-wide's knob is 0/1 so its applied
     count equals its knob total exactly. *)
  List.iter
    (fun (name, c) ->
      let delta = Metrics.counter_value c - List.assoc name before in
      if delta < 0 || delta > r.Compare.dies then
        Alcotest.failf "%s applied %d times over %d dies" name delta
          r.Compare.dies;
      if delta > (result name).Compare.knob_total then
        Alcotest.failf "%s applied %d times but knob total is %d" name delta
          (result name).Compare.knob_total)
    applied;
  Alcotest.(check int)
    "chipwide applied count = failing dies"
    (result "chipwide").Compare.knob_total
    (Metrics.counter_value (List.assoc "chipwide" applied)
    - List.assoc "chipwide" before);
  Alcotest.(check int)
    "skew_tuned_flops_total tracks the knob total"
    (result "skew").Compare.knob_total
    (Metrics.counter_value skew_flops - sf0);
  Alcotest.(check int)
    "buffers_inserted_total tracks the knob total"
    (result "buffers").Compare.knob_total
    (Metrics.counter_value buffers_inserted - bi0);
  (* Disabled (the ambient default): the same sweep leaves every
     counter untouched, and raw updates on these handles ride the
     zero-allocation fast path like any other counter. *)
  let enabled = snapshot () in
  ignore (Compare.run t v cfg);
  Alcotest.(check bool) "disabled sweep leaves counters untouched" true
    (snapshot () = enabled);
  let n = 100_000 in
  let minor_delta f =
    let a = (Gc.quick_stat ()).Gc.minor_words in
    f ();
    (Gc.quick_stat ()).Gc.minor_words -. a
  in
  let base =
    minor_delta (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity ())
        done)
  in
  let updates =
    minor_delta (fun () ->
        for _ = 1 to n do
          Metrics.incr skew_flops;
          Metrics.add buffers_inserted 3
        done)
  in
  Alcotest.(check (float 0.0))
    "disabled compensation updates allocate zero words" base updates

let test_exports () =
  let c = Metrics.counter "test_export_counter" in
  with_metrics_enabled (fun () -> Metrics.incr c);
  let snap = Metrics.snapshot () in
  let json = Json.to_string (ledger ~metrics:snap ()) in
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json has counter" true
    (has "\"test_export_counter\"" json);
  Alcotest.(check bool) "summary has nonzero counter" true
    (has "test_export_counter=1" (Metrics.summary_line snap))

(* ------------------------------------------------------------------ *)
(* Logger                                                               *)

(* Capture through a custom sink; always restore the default. *)
let with_captured_log f =
  let captured = ref [] in
  Log.set_sink (fun msg -> captured := msg :: !captured);
  Fun.protect ~finally:(fun () -> Log.set_sink Log.default_sink) f;
  List.rev !captured

let test_warn_once_race () =
  let captured =
    with_captured_log (fun () ->
        let once = Log.once () in
        let domains =
          Array.init 4 (fun d ->
              Domain.spawn (fun () ->
                  for i = 1 to 100 do
                    Log.warn_once once "latch %d.%d" d i
                  done))
        in
        Array.iter Domain.join domains)
  in
  Alcotest.(check int) "exactly one warning across domains" 1
    (List.length captured)

(* ------------------------------------------------------------------ *)
(* Trace export                                                         *)

let make_trace () =
  let tr = Trace.create () in
  Trace.span tr ~name:"outer" (fun () ->
      Trace.span tr ~name:"inner" ~deps:(fun () -> [ "outer" ]) (fun () -> ()));
  Trace.span tr ~name:"late" (fun () -> ());
  tr

let test_sort_by_start () =
  let tr = make_trace () in
  let sorted = Trace.sort_by_start tr in
  Alcotest.(check (list string))
    "chronological order"
    [ "outer"; "inner"; "late" ]
    (List.map (fun s -> s.Trace.name) sorted);
  let starts = List.map (fun s -> s.Trace.start_s) sorted in
  Alcotest.(check bool) "starts non-decreasing" true
    (List.sort compare starts = starts)

let count_occurrences needle hay =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length hay then acc
    else if String.sub hay i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_trace_json_domain () =
  let tr = make_trace () in
  let json = Json.to_string (ledger ~trace:tr ()) in
  Alcotest.(check int) "every span has a domain field" 3
    (count_occurrences "\"domain\":" json);
  List.iter
    (fun s -> Alcotest.(check int) "single-domain trace" 0 s.Trace.domain)
    (Trace.spans tr)

let test_chrome_export () =
  let tr = make_trace () in
  let json = Trace.to_chrome_json tr in
  (* A JSON array of one X event per span plus metadata events. *)
  Alcotest.(check bool) "array payload" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check int) "one complete event per span" 3
    (count_occurrences "\"ph\": \"X\"" json);
  Alcotest.(check int) "process + domain metadata" 2
    (count_occurrences "\"ph\": \"M\"" json);
  Alcotest.(check int) "all events carry a pid" 5
    (count_occurrences "\"pid\": 1" json);
  (* Chrome ts/dur are microseconds: the inner span's dur must not
     exceed the outer's (it nests inside). *)
  let outer = Option.get (Trace.find tr "outer") in
  let inner = Option.get (Trace.find tr "inner") in
  Alcotest.(check bool) "nesting preserved" true
    (inner.Trace.dur_s <= outer.Trace.dur_s
    && inner.Trace.start_s >= outer.Trace.start_s)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  ( "telemetry",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "registration rules" `Quick test_registration;
      qcheck prop_shard_merge_serial_reference;
      Alcotest.test_case "counts invariant in domain count" `Quick
        test_deterministic_across_domain_counts;
      Alcotest.test_case "disabled path allocates nothing" `Quick
        test_disabled_path_allocates_nothing;
      Alcotest.test_case "pool wall totals" `Quick test_pool_wall_totals;
      Alcotest.test_case "compensation counters" `Quick
        test_compensation_counters;
      Alcotest.test_case "ledger/summary exports" `Quick test_exports;
      Alcotest.test_case "warn_once fires once under a race" `Quick
        test_warn_once_race;
      Alcotest.test_case "trace sort_by_start" `Quick test_sort_by_start;
      Alcotest.test_case "trace json carries domains" `Quick
        test_trace_json_domain;
      Alcotest.test_case "chrome trace export" `Quick test_chrome_export;
    ] )
