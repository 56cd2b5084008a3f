(* pvtol — command-line driver for the process-variation-tolerant
   voltage-island design flow.  One subcommand per paper exhibit, plus
   the full flow, design-file dumps and kernel information. *)

module Experiments = Pvtol_core.Experiments
module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Wafer = Pvtol_core.Wafer
module Compare = Pvtol_core.Compare
module Compensation = Pvtol_core.Compensation
module Smart_sampling = Pvtol_ssta.Smart_sampling
module Trace = Pvtol_util.Trace
module Metrics = Pvtol_util.Metrics
module Json = Pvtol_util.Json
module Runinfo = Pvtol_util.Runinfo
module Bench_compare = Pvtol_util.Bench_compare
module Vex_core = Pvtol_vex.Vex_core
module Netlist = Pvtol_netlist.Netlist
open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common options                                                       *)

(* Counts, sizes and targets: a value [ok] rejects is a usage error
   (one line, exit 124) rather than a failed stage. *)
let checked_conv base ~ok ~what =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let pos_int = checked_conv Arg.int ~ok:(fun n -> n > 0) ~what:"not positive"

let pos_float =
  checked_conv Arg.float ~ok:(fun x -> x > 0.0) ~what:"not positive"

let samples =
  let doc = "Monte-Carlo sample count (default from the configuration)." in
  let min = Pvtol_util.Fit.min_samples in
  let count =
    checked_conv Arg.int
      ~ok:(fun n -> n >= min)
      ~what:(Printf.sprintf "below the minimum of %d samples" min)
  in
  Arg.(value & opt (some count) None & info [ "samples" ] ~doc)

let seed =
  let doc = "Random seed for the Monte-Carlo and stimulus streams." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

(* The four flags every command takes: the design size and the run
   artifacts. *)
type common = {
  quick : bool;
  trace : bool;
  trace_chrome : string option;
  run_ledger : string option;
}

let common =
  let quick =
    let doc = "Use the scaled-down design and sample counts (fast)." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let trace =
    let doc =
      "Report the stage graph after the run: every pipeline stage that \
       was computed, its wall-clock time, heap allocation and \
       dependencies (to stderr).  $(b,--run-ledger) records the same \
       spans as JSON."
    in
    Arg.(value & flag & info [ "trace" ] ~doc)
  in
  let file_opt name doc =
    Arg.(value & opt (some string) None & info [ name ] ~doc ~docv:"FILE")
  in
  let trace_chrome =
    file_opt "trace-chrome"
      "Write the stage trace as Chrome trace-event JSON to $(docv) (load \
       in chrome://tracing or Perfetto; one track per domain)."
  in
  let run_ledger =
    file_opt "run-ledger"
      "Enable the metrics registry and write a run ledger to $(docv) after \
       the run: version and git revision, argv and configuration, \
       wall/CPU time, GC totals, per-stage time/allocation attribution \
       (the $(b,--trace) spans), pool worker-idle totals, the metrics \
       snapshot and an MD5 digest of every emitted report.  Also prints a \
       one-line summary of the non-zero counters to stderr.  Render it \
       with $(b,pvtol report FILE)."
  in
  let make quick trace trace_chrome run_ledger =
    { quick; trace; trace_chrome; run_ledger }
  in
  Term.(const make $ quick $ trace $ trace_chrome $ run_ledger)

(* Run command [name]'s body [f] on a fresh flow handle, under one
   trace span named [name].  Then write every requested artifact, also
   when [f] failed (the trace shows how far the run got).  The first
   failure, of the run or else of an artifact, ends the process.  A
   failed stage or an unwritable file prints one [pvtol: <message>]
   line and exits 2; any other exception escapes.  [f] receives the
   run-ledger collector so commands can digest the reports they emit. *)
let with_flow ~name ?samples ?seed c f =
  if c.run_ledger <> None then Metrics.set_enabled true;
  let config = if c.quick then Flow.quick_config else Flow.default_config in
  let config =
    { config with
      Flow.mc_samples = Option.value samples ~default:config.Flow.mc_samples;
      mc_seed = Option.value seed ~default:config.Flow.mc_seed }
  in
  let ledger = Runinfo.create () in
  Runinfo.add_config ledger "quick" (Json.Bool c.quick);
  Runinfo.add_config ledger "mc_samples" (Json.Int config.Flow.mc_samples);
  Runinfo.add_config ledger "mc_seed" (Json.Int config.Flow.mc_seed);
  Runinfo.add_config ledger "PVTOL_DOMAINS"
    (match Sys.getenv_opt "PVTOL_DOMAINS" with
    | Some v -> Json.Str v
    | None -> Json.Null);
  let t = Flow.prepare ~config () in
  let trace = Flow.trace t in
  let failure = ref None in
  let attempt g =
    try g () with e -> if Option.is_none !failure then failure := Some e
  in
  let write what save file =
    attempt (fun () ->
        save file;
        Format.eprintf "%s written to %s@." what file)
  in
  attempt (fun () -> Trace.span trace ~name (fun () -> f ~ledger t));
  if c.trace then Format.eprintf "%a@?" Trace.pp trace;
  Option.iter (write "chrome trace" (Trace.write_chrome_json trace)) c.trace_chrome;
  Option.iter
    (write "run ledger" (fun file ->
         let metrics = Metrics.snapshot () in
         Runinfo.write ~trace ~metrics ledger ~file;
         Format.eprintf "%s@." (Metrics.summary_line metrics)))
    c.run_ledger;
  let fail m =
    Format.eprintf "pvtol: %s@." m;
    exit 2
  in
  match !failure with
  | None -> ()
  | Some (Sys_error m) -> fail m
  | Some (Pvtol_core.Stage.Stage_error e) -> fail (Pvtol_core.Stage.error_message e)
  | Some e -> raise e

(* Print a rendered report and record its digest in the run ledger, so
   two runs can be compared result-first. *)
let emit_report ledger ~name content =
  Runinfo.add_artifact ledger ~name:("stdout:" ^ name) content;
  print_string content

(* Write a JSON report string to [file], digest it and say so. *)
let write_report ledger ~what ~file content =
  Out_channel.with_open_text file (fun oc -> output_string oc content);
  Runinfo.add_artifact ledger ~name:file content;
  Printf.printf "\n%s written to %s\n" what file

(* ------------------------------------------------------------------ *)
(* Exhibit subcommands                                                  *)

let exhibit_cmd name doc render =
  let run c samples seed =
    with_flow ~name ?samples ?seed c (fun ~ledger t ->
        emit_report ledger ~name (render t))
  in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ common $ samples $ seed)

(* Every registered exhibit but [wafer], whose name belongs to the sweep
   command below, then [all]. *)
let cmds_exhibits =
  List.filter_map
    (fun (name, doc, render) ->
      if name = "wafer" then None else Some (exhibit_cmd name doc render))
    Experiments.exhibits
  @ [ exhibit_cmd "all" "Every table and figure, in paper order."
        Experiments.all ]

(* ------------------------------------------------------------------ *)
(* Wafer sweep                                                          *)

let grid_conv =
  let parse s =
    match String.index_opt s 'x' with
    | Some i ->
      (try
         let nx = int_of_string (String.sub s 0 i) in
         let ny = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
         if nx > 0 && ny > 0 then Ok (nx, ny)
         else Error (`Msg "grid dimensions must be positive")
       with _ -> Error (`Msg (Printf.sprintf "bad grid %S, expected NxM" s)))
    | None -> Error (`Msg (Printf.sprintf "bad grid %S, expected NxM" s))
  in
  let print fmt (nx, ny) = Format.fprintf fmt "%dx%d" nx ny in
  Arg.conv (parse, print)

(* The die-grid flags shared by [wafer] and [compare]. *)
let grid =
  let doc = "Die-position grid over the chip, columns x rows." in
  Arg.(value & opt grid_conv (8, 8) & info [ "grid" ] ~doc ~docv:"NxM")

let dies =
  let doc = "Dies simulated per grid cell (per exposure field)." in
  Arg.(value & opt pos_int 12 & info [ "dies" ] ~doc ~docv:"N")

let fields =
  let doc =
    "Exposure-field replicas of the grid (same systematic map, fresh \
     random draws)."
  in
  Arg.(value & opt pos_int 1 & info [ "fields" ] ~doc ~docv:"N")

(* An enum flag's values under their report names. *)
let named name xs = Arg.enum (List.map (fun x -> (name x, x)) xs)

let direction_arg doc =
  let directions = Island.[ Vertical; Horizontal; Quadrant ] in
  Arg.(
    value
    & opt (named Island.direction_name directions) Island.Vertical
    & info [ "direction" ] ~doc ~docv:"vertical|horizontal|quadrant")

let wafer_cmd =
  let wafer_seed =
    let doc = "Seed of the per-die random Lgate draws." in
    Arg.(value & opt int 7 & info [ "wafer-seed" ] ~doc ~docv:"SEED")
  in
  let direction =
    direction_arg "Island slicing deployed on every die: $(docv)."
  in
  let json_file =
    let doc = "Also write the whole sweep (wafer + per-cell) as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let progress =
    let doc =
      "Stream per-cell progress and an ETA to stderr while the sweep \
       runs."
    in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let sampler =
    let doc =
      "Switch from the fixed-budget census sweep to the adaptive \
       estimator with this sampling method: $(b,mc) (i.i.d. positions), \
       $(b,lhs) (Latin-hypercube strata) or $(b,is) (importance \
       sampling toward the rare-scenario boundary).  $(b,--dies) then \
       sets the dies per stratum per round and $(b,--grid)/$(b,--fields) \
       are ignored."
    in
    let methods = Smart_sampling.[ Mc; Is; Lhs ] in
    Arg.(
      value
      & opt (some (named Smart_sampling.method_name methods)) None
      & info [ "sampler" ] ~doc ~docv:"mc|is|lhs")
  in
  let ci_target =
    let doc =
      "Stop sampling when the watched metric's CI half-width reaches \
       $(docv) (absolute, e.g. 0.001 = +-0.1%)."
    in
    Arg.(value & opt pos_float 0.001 & info [ "ci-target" ] ~doc ~docv:"EPS")
  in
  let ci_metric =
    let doc =
      "Metric the stopping rule watches: $(b,yield) (uncompensated \
       timing yield) or $(b,rare) (the rare-scenario probability)."
    in
    Arg.(
      value
      & opt (named Wafer.ci_metric_name Wafer.[ Ci_yield; Ci_rare ]) Wafer.Ci_yield
      & info [ "ci-metric" ] ~doc ~docv:"yield|rare")
  in
  let rare_scenario =
    let stages = List.length Pvtol_ssta.Scenario.analyzed_stages in
    let doc =
      Printf.sprintf
        "The rare scenario: a die with at least $(docv) islands violating \
         before compensation, 1 to %d (the analyzed stages)."
        stages
    in
    let count =
      checked_conv Arg.int
        ~ok:(fun m -> m > 0 && m <= stages)
        ~what:(Printf.sprintf "not in 1..%d" stages)
    in
    Arg.(value & opt count 2 & info [ "rare-scenario" ] ~doc ~docv:"M")
  in
  let strata =
    let doc =
      "Position strata per axis: $(docv)x$(docv) groups, each running \
       $(b,--dies) dies per round, so every sampler draws $(docv)^2 x \
       $(b,--dies) dies per round.  $(b,is) and $(b,lhs) place each \
       group's dies inside its stratum; under $(b,mc) the groups are \
       independent substreams of one uniform sample over the field."
    in
    Arg.(value & opt pos_int 4 & info [ "strata" ] ~doc ~docv:"S")
  in
  let rounds =
    let doc = "Maximum sampling rounds before giving up on the CI target." in
    Arg.(value & opt pos_int 64 & info [ "rounds" ] ~doc ~docv:"N")
  in
  let run c samples seed (nx, ny) dies_per_cell fields wafer_seed direction
      json_file progress sampler ci_target ci_metric rare_scenario strata
      rounds =
    with_flow ~name:"wafer" ?samples ?seed c (fun ~ledger t ->
        Runinfo.add_config ledger "sampler"
          (match sampler with
          | Some m -> Json.Str (Smart_sampling.method_name m)
          | None -> Json.Null);
        match sampler with
        | Some s_method ->
          let scfg =
            {
              Wafer.s_method;
              s_strata = strata;
              s_dies_per_round = dies_per_cell;
              s_max_rounds = rounds;
              s_ci_target = ci_target;
              s_ci_metric = ci_metric;
              s_rare = rare_scenario;
              s_seed = wafer_seed;
              s_direction = direction;
            }
          in
          let on_round =
            if not progress then None
            else
              Some
                (fun ~round ~max_rounds ~ci_halfwidth ->
                  Printf.eprintf "\rsampling: round %d/%d, CI half-width %.5f%s"
                    round max_rounds ci_halfwidth
                    (if
                       round = max_rounds
                       || Wafer.ci_reached ~target:scfg.Wafer.s_ci_target
                            ci_halfwidth
                     then "\n"
                     else "");
                  flush stderr)
          in
          let r = Wafer.estimate ?on_round t scfg in
          emit_report ledger ~name:"sampling"
            (Format.asprintf "%a@." Wafer.pp_sampling r);
          Option.iter
            (fun file ->
              write_report ledger ~what:"sampling report" ~file
                (Wafer.sampling_to_json r))
            json_file
        | None ->
        let cfg =
          { Wafer.nx; ny; dies_per_cell; fields; seed = wafer_seed; direction }
        in
        (* Cells complete on pool workers; one mutex keeps the \r
           status line whole.  ETA extrapolates the mean cell time. *)
        let on_cell =
          if not progress then None
          else begin
            let mu = Mutex.create () in
            let t0 = Unix.gettimeofday () in
            Some
              (fun ~completed ~total ->
                Mutex.lock mu;
                let dt = Unix.gettimeofday () -. t0 in
                let eta =
                  dt /. float_of_int completed
                  *. float_of_int (total - completed)
                in
                Printf.eprintf "\rwafer: %d/%d cells (%.0f%%), %.1fs, ETA %.1fs%s"
                  completed total
                  (100.0 *. float_of_int completed /. float_of_int total)
                  dt eta
                  (if completed = total then "\n" else "");
                flush stderr;
                Mutex.unlock mu)
          end
        in
        let s = Wafer.run ?on_cell t (Flow.variant t direction) cfg in
        emit_report ledger ~name:"wafer"
          (Format.asprintf "%a@.%s\n%s\n%s" Wafer.pp s
             (Wafer.render_map s Wafer.Yield_uncompensated)
             (Wafer.render_map s Wafer.Yield_compensated)
             (Wafer.render_map s Wafer.Mean_raised));
        Option.iter
          (fun file ->
            write_report ledger ~what:"wafer sweep" ~file (Wafer.to_json s))
          json_file)
  in
  Cmd.v
    (Cmd.info "wafer"
       ~doc:
         "Wafer-scale yield sweep: run the post-silicon \
          detect-and-compensate loop for a population of dies at every \
          point of a 2D grid over the exposure field, and report \
          per-cell and wafer-level yield, compensation and power with \
          streaming statistics.")
    Term.(
      const run $ common $ samples $ seed $ grid $ dies $ fields $ wafer_seed
      $ direction $ json_file $ progress $ sampler $ ci_target $ ci_metric
      $ rare_scenario $ strata $ rounds)

(* ------------------------------------------------------------------ *)
(* Strategy comparison                                                  *)

let strategies_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | n :: rest -> (
        match Compensation.choice_of_name (String.trim n) with
        | Some c when not (List.mem c acc) -> go (c :: acc) rest
        | Some _ -> Error (`Msg (Printf.sprintf "duplicate strategy %S" n))
        | None ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown strategy %S (expected vi, chipwide, skew or \
                   buffers)"
                  n)))
    in
    if s = "" then Error (`Msg "empty strategy list") else go [] names
  in
  let print fmt cs =
    Format.pp_print_string fmt (Compensation.choices_label cs)
  in
  Arg.conv (parse, print)

let compare_cmd =
  let strategies =
    let doc =
      "Comma-separated compensation strategies to evaluate: any of \
       $(b,vi) (the paper's voltage islands), $(b,chipwide) (full-chip \
       1.2V adaptation), $(b,skew) (post-silicon clock-skew tuning) and \
       $(b,buffers) (tunable delay-trim buffers)."
    in
    Arg.(
      value
      & opt strategies_conv Compensation.all_choices
      & info [ "strategies" ] ~doc ~docv:"LIST")
  in
  let compare_seed =
    let doc = "Seed of the per-die random Lgate draws." in
    Arg.(value & opt int 7 & info [ "compare-seed" ] ~doc ~docv:"SEED")
  in
  let direction =
    direction_arg "Island slicing the vi strategy deploys: $(docv)."
  in
  let json_file =
    let doc = "Also write the comparison report as JSON." in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let run c samples seed strategies (nx, ny) dies_per_cell fields compare_seed
      direction json_file =
    with_flow ~name:"compare" ?samples ?seed c (fun ~ledger t ->
        let cfg =
          {
            Compare.nx;
            ny;
            dies_per_cell;
            fields;
            seed = compare_seed;
            direction;
            choices = strategies;
          }
        in
        let r = Compare.run t (Flow.variant t direction) cfg in
        emit_report ledger ~name:"compare" (Compare.render r);
        Option.iter
          (fun file ->
            write_report ledger ~what:"comparison" ~file (Compare.to_json r))
          json_file)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compensation-strategy shoot-out: evaluate voltage islands, \
          chip-wide adaptation, clock-skew tuning and tunable buffers \
          on the same wafer die population (shared per-die detect pass \
          and Lgate realisations) and report yield, mean power and area \
          overhead per strategy.")
    Term.(
      const run $ common $ samples $ seed $ strategies $ grid $ dies $ fields
      $ compare_seed $ direction $ json_file)

(* ------------------------------------------------------------------ *)
(* Design-file dumps                                                    *)

let outdir =
  let doc = "Directory to write design files into." in
  Arg.(value & opt string "." & info [ "o"; "outdir" ] ~doc)

let dump_cmd =
  let run c outdir =
    with_flow ~name:"dump" c (fun ~ledger:_ t ->
        let nl = Flow.netlist t in
        let path name = Filename.concat outdir name in
        Pvtol_stdcell.Liberty.write_file (path "pvtol65lp.lib") nl.Netlist.lib;
        Pvtol_place.Def.write_file (path "vex.def") (Flow.placement t);
        let delays = Pvtol_timing.Sta.nominal_delays (Flow.sta t) in
        Pvtol_timing.Sdf.write_file (path "vex.sdf") nl ~delays;
        Pvtol_netlist.Verilog.write_file (path "vex.v") nl;
        Pvtol_timing.Spef.write_file (path "vex.spef") nl
          (Pvtol_timing.Spef.extract (Flow.placement t));
        Printf.printf
          "wrote %s, %s, %s, %s and %s\n(design: %d cells, clock %.3f ns)\n"
          (path "pvtol65lp.lib") (path "vex.def") (path "vex.sdf") (path "vex.v")
          (path "vex.spef")
          (Netlist.cell_count nl) (Flow.clock t))
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Run the front-end flow and write the Liberty library, DEF \
          placement, SDF delays, structural Verilog and SPEF parasitics \
          of the prepared design.")
    Term.(const run $ common $ outdir)

let summary_run c =
  with_flow ~name:"summary" c (fun ~ledger t ->
      emit_report ledger ~name:"summary"
        (Format.asprintf "%a%s%a"
           Netlist.pp_summary (Flow.netlist t)
           (Printf.sprintf "clock: %.3f ns (%.1f MHz)\n" (Flow.clock t)
              (1000.0 /. Flow.clock t))
           (Format.pp_print_list ~pp_sep:(fun _ () -> ())
              Pvtol_ssta.Scenario.pp)
           (Flow.scenarios t)))

let summary_cmd =
  Cmd.v
    (Cmd.info "summary" ~doc:"Prepared-design summary and scenario ladder.")
    Term.(const summary_run $ common)

(* ------------------------------------------------------------------ *)
(* Run-ledger report and the perf-regression observatory               *)

let report_cmd =
  let file =
    let doc = "Run-ledger JSON file written by $(b,--run-ledger)." in
    Arg.(required & pos 0 (some file) None & info [] ~doc ~docv:"LEDGER")
  in
  let run file =
    match Json.read_file file with
    | Error e ->
      Printf.eprintf "pvtol report: %s: %s\n" file e;
      exit 1
    | Ok j -> (
      match Runinfo.render j with
      | Ok md -> print_string md
      | Error e ->
        Printf.eprintf "pvtol report: %s: %s\n" file e;
        exit 1)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a run ledger (written by $(b,--run-ledger)) as a \
          human-readable markdown report: run header, configuration, \
          per-stage attribution, pool totals, metric highlights and \
          artifact digests.")
    Term.(const run $ file)

let bench_compare_cmd =
  let base =
    let doc = "Baseline $(b,BENCH_ssta.json)." in
    Arg.(required & pos 0 (some file) None & info [] ~doc ~docv:"BASE")
  in
  let next =
    let doc = "Candidate $(b,BENCH_ssta.json) to compare against BASE." in
    Arg.(required & pos 1 (some file) None & info [] ~doc ~docv:"NEW")
  in
  let threshold =
    let doc =
      "Relative regression threshold in percent: a kernel only flags \
       when its delta exceeds both $(docv) and the combined CI \
       half-widths of the two runs."
    in
    let pct =
      checked_conv Arg.float
        ~ok:(fun x -> Float.is_finite x && x >= 0.0)
        ~what:"not a finite value >= 0"
    in
    Arg.(
      value
      & opt pct Bench_compare.default_threshold_pct
      & info [ "threshold" ] ~doc ~docv:"PCT")
  in
  let out =
    let doc = "Also write the markdown comparison table to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let run base next threshold out =
    let read name file =
      match Json.read_file file with
      | Ok j -> j
      | Error e ->
        Printf.eprintf "pvtol bench compare: %s file: %s\n" name e;
        exit 2
    in
    let base_j = read "base" base and next_j = read "new" next in
    match
      Bench_compare.compare ~threshold_pct:threshold ~base:base_j ~next:next_j
        ()
    with
    | Error e ->
      Printf.eprintf "pvtol bench compare: %s\n" e;
      exit 2
    | Ok report ->
      let md = Bench_compare.render report in
      print_string md;
      Option.iter
        (fun file ->
          Out_channel.with_open_text file (fun oc -> output_string oc md))
        out;
      if Bench_compare.regressions report <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two bench reports kernel by kernel: a kernel is \
          $(b,regressed)/$(b,improved) only when the delta clears both \
          the CI half-widths and $(b,--threshold); exits nonzero when \
          any kernel regressed significantly.")
    Term.(const run $ base $ next $ threshold $ out)

let bench_pairs_cmd =
  let runs opt_name side =
    let doc =
      Printf.sprintf
        "A perfbench $(b,--json) record of the %s side; repeat once per \
         run, in pair order."
        side
    in
    Arg.(value & opt_all file [] & info [ opt_name ] ~doc ~docv:"FILE")
  in
  let run base next =
    let read file =
      match Json.read_file file with
      | Ok j -> (file, j)
      | Error e ->
        Printf.eprintf "pvtol bench pairs: %s: %s\n" file e;
        exit 2
    in
    match
      Bench_compare.pairs ~base:(List.map read base) ~next:(List.map read next)
    with
    | Error e ->
      Printf.eprintf "pvtol bench pairs: %s\n" (Bench_compare.pair_error_message e);
      exit 2
    | Ok report ->
      print_string (Bench_compare.render_pairs report);
      if
        List.exists
          (fun st -> st.Bench_compare.pair_verdict = Bench_compare.Loss)
          report.Bench_compare.stats
      then exit 1
  in
  Cmd.v
    (Cmd.info "pairs"
       ~doc:
         "Judge alternating base/new perfbench runs of one workload: per \
          metric each side's median and quartiles, the pair wins and the \
          Hodges-Lehmann shift with its signed-rank interval.  A metric \
          is a $(b,gain) (or a $(b,loss)) when one side wins at least 9 \
          in 10 pairs and the shift exceeds the base side's interquartile \
          range, and no gain counts while more new ops fail.  Exits 1 \
          on a loss, 2 on unreadable or incomplete records or on runs \
          of different workloads or settings.")
    Term.(const run $ runs "base" "base" $ runs "new" "new")

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Perf-regression observatory: statistical kernel reports \
          ($(b,BENCH_ssta.json)) and alternating perfbench pairs.")
    [ bench_compare_cmd; bench_pairs_cmd ]

let main =
  let doc =
    "process-variation tolerant pipeline design through placement-aware \
     multiple voltage islands (DATE 2008 reproduction)"
  in
  (* Bare [pvtol] (no subcommand) runs the summary, so
     [pvtol --quick --trace] reports the prepared design plus its stage
     trace. *)
  Cmd.group
    ~default:Term.(const summary_run $ common)
    (Cmd.info "pvtol" ~version:(Runinfo.version_string ()) ~doc)
    (cmds_exhibits
    @ [ wafer_cmd; compare_cmd; dump_cmd; summary_cmd; report_cmd; bench_cmd ])

let () = exit (Cmd.eval main)
