(* pvtol — command-line driver for the process-variation-tolerant
   voltage-island design flow.  One subcommand per paper exhibit, plus
   the full flow, design-file dumps and kernel information. *)

module Experiments = Pvtol_core.Experiments
module Flow = Pvtol_core.Flow
module Island = Pvtol_core.Island
module Wafer = Pvtol_core.Wafer
module Compare = Pvtol_core.Compare
module Compensation = Pvtol_core.Compensation
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

let quick =
  let doc = "Use the scaled-down design and sample counts (fast)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

(* Counts, sizes and targets: a non-positive value is a usage error
   (one line, exit 124) rather than a failed stage. *)
let positive_conv base ~positive =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when positive v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not positive" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let pos_int = positive_conv Arg.int ~positive:(fun n -> n > 0)
let pos_float = positive_conv Arg.float ~positive:(fun x -> x > 0.0)

let samples =
  let doc = "Monte-Carlo sample count (default from the configuration)." in
  Arg.(value & opt (some pos_int) None & info [ "samples" ] ~doc)

let seed =
  let doc = "Random seed for the Monte-Carlo and stimulus streams." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

let trace_flag =
  let doc =
    "Report the stage graph after the run: every pipeline stage that \
     was computed, its wall-clock time, heap allocation and \
     dependencies (to stderr), and write the same spans as \
     $(b,trace.json)."
  in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out =
  let doc = "File the JSON trace is written to when $(b,--trace) is set." in
  Arg.(value & opt string "trace.json" & info [ "trace-out" ] ~doc ~docv:"FILE")

let metrics_out =
  let doc =
    "Enable the metrics registry and write a snapshot to $(docv) after \
     the run (Prometheus text if the name ends in .prom or .txt, JSON \
     otherwise).  Also prints a one-line summary of the non-zero \
     counters to stderr."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let trace_chrome =
  let doc =
    "Write the stage trace as Chrome trace-event JSON to $(docv) (load \
     in chrome://tracing or Perfetto; one track per domain)."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-chrome" ] ~doc ~docv:"FILE")

let run_ledger =
  let doc =
    "Write a run ledger to $(docv) after the run: version and git \
     revision, argv and configuration, wall/CPU time, GC totals, \
     per-stage time/allocation attribution, pool queue-wait totals and \
     an MD5 digest of every emitted report.  Render it with \
     $(b,pvtol report FILE).  Implies metrics collection."
  in
  Arg.(
    value & opt (some string) None & info [ "run-ledger" ] ~doc ~docv:"FILE")

let config_of ~quick ~samples ~seed =
  let base = if quick then Flow.quick_config else Flow.default_config in
  let base =
    match samples with Some s -> { base with Flow.mc_samples = s } | None -> base
  in
  match seed with Some s -> { base with Flow.mc_seed = s } | None -> base

(* Run [f] on a fresh flow handle; with [--trace], print the span
   report and write the JSON artifact afterwards (also when a stage
   fails, so the trace shows how far the run got).  [--metrics-out],
   [--trace-chrome] and [--run-ledger] write their artifacts on the
   same always-also-on-failure basis.  [f] receives the run-ledger
   collector so subcommands can digest the reports they emit. *)
let with_flow ~quick ~samples ~seed ~trace ~trace_out ~metrics_out
    ~trace_chrome ~run_ledger f =
  if metrics_out <> None || run_ledger <> None then Metrics.set_enabled true;
  let ledger = Runinfo.create () in
  let config = config_of ~quick ~samples ~seed in
  Runinfo.add_config ledger "quick" (Json.Bool quick);
  Runinfo.add_config ledger "mc_samples" (Json.Int config.Flow.mc_samples);
  Runinfo.add_config ledger "mc_seed" (Json.Int config.Flow.mc_seed);
  Runinfo.add_config ledger "PVTOL_DOMAINS"
    (match Sys.getenv_opt "PVTOL_DOMAINS" with
    | Some v -> Json.Str v
    | None -> Json.Null);
  let t = Flow.prepare ~config () in
  let emit () =
    if trace then begin
      Format.eprintf "%a@?" Trace.pp (Flow.trace t);
      Trace.write_json (Flow.trace t) trace_out;
      Format.eprintf "trace written to %s@." trace_out
    end;
    (match trace_chrome with
    | None -> ()
    | Some file ->
      Trace.write_chrome_json (Flow.trace t) file;
      Format.eprintf "chrome trace written to %s@." file);
    (match metrics_out with
    | None -> ()
    | Some file ->
      Metrics.write ~file;
      Format.eprintf "%s@.metrics written to %s@."
        (Metrics.summary_line (Metrics.snapshot ()))
        file);
    match run_ledger with
    | None -> ()
    | Some file ->
      Runinfo.write ~trace:(Flow.trace t) ~metrics:(Metrics.snapshot ()) ledger
        ~file;
      Format.eprintf "run ledger written to %s@." file
  in
  match f ~ledger t with
  | () -> emit ()
  | exception exn ->
    emit ();
    raise exn

(* Print a rendered report and record its digest in the run ledger, so
   two runs can be compared result-first. *)
let emit_report ledger ~name content =
  Runinfo.add_artifact ledger ~name:("stdout:" ^ name) content;
  print_string content

(* Write a JSON report string to [file] and digest it. *)
let write_report ledger ~file content =
  let oc = open_out file in
  output_string oc content;
  close_out oc;
  Runinfo.add_artifact ledger ~name:file content

(* ------------------------------------------------------------------ *)
(* Exhibit subcommands                                                  *)

let exhibit_cmd name doc render =
  let run quick samples seed trace trace_out metrics_out trace_chrome
      run_ledger =
    with_flow ~quick ~samples ~seed ~trace ~trace_out ~metrics_out
      ~trace_chrome ~run_ledger (fun ~ledger t ->
        emit_report ledger ~name (render t))
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const run $ quick $ samples $ seed $ trace_flag $ trace_out
      $ metrics_out $ trace_chrome $ run_ledger)

let fig2_cmd =
  let run () = print_string (Experiments.fig2_lgate_map ()) in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Systematic Lgate map over the chip (Fig. 2).")
    Term.(const run $ const ())

let cmds_exhibits =
  [
    fig2_cmd;
    exhibit_cmd "table1" "Area/power breakdown of the VEX design (Table 1)."
      Experiments.table1_breakdown;
    exhibit_cmd "fig3"
      "Per-stage critical-path slack distributions at point A (Fig. 3)."
      Experiments.fig3_distributions;
    exhibit_cmd "scenarios"
      "Timing-violation scenarios along the chip diagonal (section 4.4)."
      Experiments.scenarios_summary;
    exhibit_cmd "razor" "Razor sensing-site selection (section 4.4)."
      Experiments.razor_sites;
    exhibit_cmd "fig4" "Voltage-island generation, both slicings (Fig. 4)."
      Experiments.fig4_islands;
    exhibit_cmd "table2" "Level-shifter overhead (Table 2)."
      Experiments.table2_level_shifters;
    exhibit_cmd "fig5" "Total power per violation scenario (Fig. 5)."
      Experiments.fig5_total_power;
    exhibit_cmd "fig6" "Leakage power per violation scenario (Fig. 6)."
      Experiments.fig6_leakage;
    exhibit_cmd "energy" "Energy ratios including the VI slowdown (section 5)."
      Experiments.energy_note;
    exhibit_cmd "validate"
      "Monte-Carlo check that every scenario is compensated."
      Experiments.compensation_check;
    exhibit_cmd "ablation"
      "Cell-grouping strategy ablation (placement-aware vs logic-based)."
      Experiments.grouping_ablation;
    exhibit_cmd "clocktree"
      "Clock-tree synthesis and the ideal-clock assumption check."
      Experiments.clock_tree_note;
    exhibit_cmd "crosscheck"
      "Analytic (Clark) SSTA vs Monte-Carlo cross-validation."
      Experiments.ssta_crosscheck;
    exhibit_cmd "alternatives"
      "Compensation alternatives of section 1 (guard-band, retiming, AVS, ABB, islands)."
      Experiments.alternatives_comparison;
    exhibit_cmd "routing"
      "Global routing: estimate vs routed wirelength and congestion."
      Experiments.routing_note;
    exhibit_cmd "powergrid"
      "IR-drop feasibility of each grouping strategy's supply network."
      Experiments.power_integrity;
    exhibit_cmd "workloads"
      "Workload sensitivity of the power comparison (5 verified benchmarks)."
      Experiments.workload_sensitivity;
    exhibit_cmd "postsilicon"
      "Detect-and-compensate study over a sampled chip population."
      Experiments.postsilicon_study;
    exhibit_cmd "all" "Every table and figure, in paper order."
      Experiments.all;
  ]

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

let direction_arg doc =
  Arg.(
    value
    & opt
        (enum
           [ ("vertical", Island.Vertical); ("horizontal", Island.Horizontal);
             ("quadrant", Island.Quadrant) ])
        Island.Vertical
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
       runs (no effect when the sweep is already memoized)."
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
    Arg.(
      value
      & opt
          (some
             (enum
                [ ("mc", Pvtol_ssta.Smart_sampling.Mc);
                  ("is", Pvtol_ssta.Smart_sampling.Is);
                  ("lhs", Pvtol_ssta.Smart_sampling.Lhs) ]))
          None
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
      & opt (enum [ ("yield", Wafer.Ci_yield); ("rare", Wafer.Ci_rare) ])
          Wafer.Ci_yield
      & info [ "ci-metric" ] ~doc ~docv:"yield|rare")
  in
  let rare_scenario =
    let doc =
      "The rare scenario: a die with at least $(docv) islands violating \
       before compensation."
    in
    Arg.(value & opt pos_int 2 & info [ "rare-scenario" ] ~doc ~docv:"M")
  in
  let strata =
    let doc = "Position strata per axis for the $(b,is)/$(b,lhs) samplers." in
    Arg.(value & opt pos_int 4 & info [ "strata" ] ~doc ~docv:"S")
  in
  let rounds =
    let doc = "Maximum sampling rounds before giving up on the CI target." in
    Arg.(value & opt pos_int 64 & info [ "rounds" ] ~doc ~docv:"N")
  in
  let run quick samples seed trace trace_out metrics_out trace_chrome
      run_ledger (nx, ny) dies_per_cell fields wafer_seed direction json_file
      progress sampler ci_target ci_metric rare_scenario strata rounds =
    with_flow ~quick ~samples ~seed ~trace ~trace_out ~metrics_out
      ~trace_chrome ~run_ledger (fun ~ledger t ->
        Runinfo.add_config ledger "sampler"
          (match sampler with
          | Some Pvtol_ssta.Smart_sampling.Mc -> Json.Str "mc"
          | Some Pvtol_ssta.Smart_sampling.Is -> Json.Str "is"
          | Some Pvtol_ssta.Smart_sampling.Lhs -> Json.Str "lhs"
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
              s_confidence = 0.95;
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
                       || ci_halfwidth <= scfg.Wafer.s_ci_target
                     then "\n"
                     else "");
                  flush stderr)
          in
          let r = Wafer.estimate ?on_round t scfg in
          emit_report ledger ~name:"sampling"
            (Format.asprintf "%a@." Wafer.pp_sampling r);
          (match json_file with
          | None -> ()
          | Some file ->
            write_report ledger ~file (Wafer.sampling_to_json r);
            Printf.printf "\nsampling report written to %s\n" file)
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
        let s = Wafer.sweep ?on_cell t cfg in
        emit_report ledger ~name:"wafer"
          (Format.asprintf "%a@.%s\n%s\n%s" Wafer.pp s
             (Wafer.render_map s Wafer.Yield_uncompensated)
             (Wafer.render_map s Wafer.Yield_compensated)
             (Wafer.render_map s Wafer.Mean_raised));
        match json_file with
        | None -> ()
        | Some file ->
          write_report ledger ~file (Wafer.to_json s);
          Printf.printf "\nwafer sweep written to %s\n" file)
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
      const run $ quick $ samples $ seed $ trace_flag $ trace_out
      $ metrics_out $ trace_chrome $ run_ledger $ grid $ dies $ fields
      $ wafer_seed $ direction $ json_file $ progress $ sampler $ ci_target
      $ ci_metric $ rare_scenario $ strata $ rounds)

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
  let run quick samples seed trace trace_out metrics_out trace_chrome
      run_ledger strategies (nx, ny) dies_per_cell fields compare_seed
      direction json_file =
    with_flow ~quick ~samples ~seed ~trace ~trace_out ~metrics_out
      ~trace_chrome ~run_ledger (fun ~ledger t ->
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
        let r = Compare.compare t cfg in
        emit_report ledger ~name:"compare" (Compare.render r);
        match json_file with
        | None -> ()
        | Some file ->
          write_report ledger ~file (Compare.to_json r);
          Printf.printf "\ncomparison written to %s\n" file)
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
      const run $ quick $ samples $ seed $ trace_flag $ trace_out
      $ metrics_out $ trace_chrome $ run_ledger $ strategies $ grid $ dies
      $ fields $ compare_seed $ direction $ json_file)

(* ------------------------------------------------------------------ *)
(* Design-file dumps                                                    *)

let outdir =
  let doc = "Directory to write design files into." in
  Arg.(value & opt string "." & info [ "o"; "outdir" ] ~doc)

let dump_cmd =
  let run quick outdir trace trace_out metrics_out trace_chrome run_ledger =
    with_flow ~quick ~samples:None ~seed:None ~trace ~trace_out ~metrics_out
      ~trace_chrome ~run_ledger (fun ~ledger:_ t ->
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
    Term.(
      const run $ quick $ outdir $ trace_flag $ trace_out $ metrics_out
      $ trace_chrome $ run_ledger)

let summary_run quick trace trace_out metrics_out trace_chrome run_ledger =
  with_flow ~quick ~samples:None ~seed:None ~trace ~trace_out ~metrics_out
    ~trace_chrome ~run_ledger (fun ~ledger t ->
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
    Term.(
      const summary_run $ quick $ trace_flag $ trace_out $ metrics_out
      $ trace_chrome $ run_ledger)

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
      Printf.eprintf "pvtol report: %s\n" e;
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
    Arg.(
      value
      & opt float Bench_compare.default_threshold_pct
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
      (match out with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        output_string oc md;
        close_out oc);
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

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:
         "Perf-regression observatory over the statistical bench \
          reports ($(b,BENCH_ssta.json)).")
    [ bench_compare_cmd ]

let main =
  let doc =
    "process-variation tolerant pipeline design through placement-aware \
     multiple voltage islands (DATE 2008 reproduction)"
  in
  (* Bare [pvtol] (no subcommand) runs the summary, so
     [pvtol --quick --trace] reports the prepared design plus its stage
     trace. *)
  Cmd.group
    ~default:
      Term.(
        const summary_run $ quick $ trace_flag $ trace_out $ metrics_out
        $ trace_chrome $ run_ledger)
    (Cmd.info "pvtol" ~version:(Runinfo.version_string ()) ~doc)
    (cmds_exhibits
    @ [ wafer_cmd; compare_cmd; dump_cmd; summary_cmd; report_cmd; bench_cmd ])

let () = exit (Cmd.eval main)
