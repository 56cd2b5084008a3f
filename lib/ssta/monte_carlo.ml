open Pvtol_netlist
module Sta = Pvtol_timing.Sta
module Sampler = Pvtol_variation.Sampler
module Position = Pvtol_variation.Position
module Srng = Pvtol_util.Srng
module Stats = Pvtol_util.Stats
module Fit = Pvtol_util.Fit
module Pool = Pvtol_util.Pool
module Metrics = Pvtol_util.Metrics

let m_samples = Metrics.counter "mc_samples_total"
let m_mc_chunks = Metrics.counter "mc_chunks_total"
let m_gaussians = Metrics.counter "mc_gaussians_total"

type config = { samples : int; seed : int }

let default_config = { samples = 400; seed = 2024 }

type stage_stats = {
  stage : Stage.t;
  samples : float array;
  summary : Stats.summary;
  fit : Fit.normal;
  gof : Fit.gof;
}

type result = {
  position : Position.t;
  stages : stage_stats list;
  worst_samples : float array;
  endpoint_critical_count : (Netlist.cell_id, int) Hashtbl.t;
}

type job = { position : Position.t; raised : Netlist.cell_id -> bool }

let job ?(raised = fun _ -> false) position = { position; raised }

(* Samples per chunk.  Fixed — never derived from the domain count — so
   chunk boundaries, and therefore every RNG draw, are identical no
   matter how many domains execute the fan-out. *)
let chunk_size = 32

(* Per-worker scratch: a chunk-wide STA workspace, the cell-major
   delay block it reads (cells x chunk lanes) and one sample-major
   gaussian buffer sized for a full chunk.  Jobs take turns on the
   workspace and the delay block; the gaussians are shared. *)
type scratch = {
  ws : Sta.workspace;
  delays : float array;
  gauss : float array;
}

(* One job's state: its scale fit and the sample arrays its chunks
   fill, one per active stage in [active_stages] order. *)
type job_state = {
  j_position : Position.t;
  batch : Sampler.batch;
  worst : float array;
  stage_samples : float array list;
}

let run ?(config = default_config) ?pool ~sampler ~sta ~placement jobs =
  (* Every stage's sample is fitted and tested ([Fit.fit_and_test]). *)
  if config.samples < Fit.min_samples then
    invalid_arg
      (Printf.sprintf "Monte_carlo.run: %d samples, at least %d needed"
         config.samples Fit.min_samples);
  let nl = Sta.netlist sta in
  let n = Netlist.cell_count nl in
  let base = Sta.nominal_delays sta in
  (* Endpoint sets are precomputed once: the per-sample loop must not
     re-filter the flop array.  Criticality is counted per endpoint
     slot: [crit_ids] lists every active endpoint in id order, and each
     stage's [slots] maps its endpoints to their slot. *)
  let active_stages =
    List.filter_map
      (fun s ->
        let eps = Sta.stage_endpoint_ids sta s in
        if Array.length eps > 0 then Some (s, eps) else None)
      Stage.all
  in
  let crit_ids = Array.concat (List.map snd active_stages) in
  Array.sort compare crit_ids;
  let slot_of = Array.make n (-1) in
  Array.iteri (fun slot cid -> slot_of.(cid) <- slot) crit_ids;
  let active_stages =
    List.map (fun (s, eps) -> (s, eps, Array.map (Array.get slot_of) eps))
      active_stages
  in
  (* Per-job scale state (one fit per job) is immutable after
     construction; workers share it read-only. *)
  let jobs =
    Array.of_list
      (List.map
         (fun { position; raised } ->
           let systematic = Sampler.systematic_lgates sampler placement position in
           {
             j_position = position;
             batch = Sampler.batch sampler ~base ~systematic ~raised;
             worst = Array.make config.samples 0.0;
             stage_samples =
               List.map (fun _ -> Array.make config.samples 0.0) active_stages;
           })
         jobs)
  in
  let chunks = (config.samples + chunk_size - 1) / chunk_size in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let init ~worker:_ =
    {
      ws = Sta.workspace ~lanes:chunk_size sta;
      delays = Array.make (n * chunk_size) 0.0;
      gauss = Array.make (chunk_size * n) 0.0;
    }
  in
  (* Each chunk owns a disjoint slice of every sample array, so workers
     write without synchronisation; the per-chunk criticality counts
     (one row per job) are returned and merged in chunk order below. *)
  let run_chunk st c =
    let s0 = c * chunk_size in
    let s1 = min config.samples (s0 + chunk_size) in
    let kb = s1 - s0 in
    Metrics.incr m_mc_chunks;
    Metrics.add m_gaussians (kb * n);
    (* Sample-major, cells in id order: the chunk resumes the serial
       stream at its first sample and consumes the same [kb * n]
       draws, once for every job. *)
    let rng = Srng.create_after ~gaussians:(s0 * n) config.seed in
    Srng.fill_gaussians rng st.gauss ~pos:0 ~len:(kb * n);
    Array.map
      (fun j ->
        Metrics.add m_samples kb;
        Sampler.scale_delays_batch j.batch ~gauss:st.gauss ~samples:kb
          ~stride:chunk_size ~out:st.delays;
        Sta.analyze_into ~lanes:kb sta st.ws ~delays:st.delays;
        let crit = Array.make (Array.length crit_ids) 0 in
        for lane = 0 to kb - 1 do
          let k = s0 + lane in
          j.worst.(k) <- Sta.ws_worst st.ws lane;
          List.iter2
            (fun (s, eps, slots) arr ->
              match Sta.ws_stage_delay st.ws s lane with
              | None -> ()
              | Some stage_worst ->
                arr.(k) <- stage_worst;
                (* Endpoint criticality: flops within 2% of their
                   stage's worst. *)
                Array.iteri
                  (fun e cid ->
                    if Sta.ws_endpoint_delay st.ws cid lane >= 0.98 *. stage_worst
                    then crit.(slots.(e)) <- crit.(slots.(e)) + 1)
                  eps)
            active_stages j.stage_samples
        done;
        crit)
      jobs
  in
  let crit_chunks = Pool.parallel_chunks pool ~chunks ~init ~f:run_chunk in
  List.init (Array.length jobs) (fun ji ->
      let j = jobs.(ji) in
      let critical_count = Hashtbl.create 256 in
      Array.iter
        (fun per_job ->
          Array.iteri
            (fun slot c ->
              if c > 0 then
                let cid = crit_ids.(slot) in
                Hashtbl.replace critical_count cid
                  (c + Option.value (Hashtbl.find_opt critical_count cid) ~default:0))
            per_job.(ji))
        crit_chunks;
      let stages =
        List.map2
          (fun (stage, _, _) samples ->
            let fit, gof = Fit.fit_and_test samples in
            { stage; samples; summary = Stats.summarize samples; fit; gof })
          active_stages j.stage_samples
      in
      {
        position = j.j_position;
        stages;
        worst_samples = j.worst;
        endpoint_critical_count = critical_count;
      })

let stage_stats r s =
  List.find_opt (fun ss -> Stage.equal ss.stage s) r.stages

let three_sigma_delay ss = Stats.three_sigma ss.summary
