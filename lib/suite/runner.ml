(* Suite runner: measures every entry of a declarative matrix and
   assembles the normalized report.

   Per entry the runner
   - resolves (and memoizes) the workload analysis, counting cache
     hits so the report can pin the shared-analysis payoff;
   - picks the first candidate design point feasible on the device;
   - evaluates the analytical estimate through all three engines —
     sequential [Model.estimate], the parallel sweep engine
     ([Parsweep.eval_batch] over worker domains) and the staged
     [Model.specialize] path — and records whether the three agreed
     bitwise;
   - runs the simrtl ground truth ([Sysrun.run], seeded) and the
     resulting accuracy error;
   - times the warm specialized path with warmup, repetition and a
     bootstrap confidence interval (deterministic resampling seed per
     entry);
   - extracts the architecture-independent workload features. *)

module W = Flexcl_workloads.Workload
module Pipelines = Flexcl_workloads.Pipelines
module Graph = Flexcl_graph.Graph
module Cosim = Flexcl_graph.Cosim
module Trace = Flexcl_util.Trace
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Explore = Flexcl_dse.Explore
module Parsweep = Flexcl_dse.Parsweep
module Sysrun = Flexcl_simrtl.Sysrun
module Launch = Flexcl_ir.Launch
module Dram = Flexcl_dram.Dram
module Prng = Flexcl_util.Prng
module Learn = Flexcl_learn.Learn

type opts = {
  repeat : int;   (* timed samples per entry *)
  warmup : int;   (* discarded samples per entry *)
  inner : int;    (* model evaluations per sample *)
  seed : int;     (* simulator + bootstrap determinism *)
  smoke : bool;   (* recorded in the report *)
  domains : int;  (* worker domains for the parallel engine *)
}

let default_opts =
  { repeat = 12; warmup = 3; inner = 64; seed = 42; smoke = false; domains = 2 }

let smoke_opts = { default_opts with repeat = 8; warmup = 2; smoke = true }

(* ------------------------------------------------------------------ *)
(* Calibration: a fixed reference computation timed on the measuring
   machine. The gate compares latencies normalized by this figure, so a
   committed baseline survives a move to faster or slower hardware. *)

let calibration_loop () =
  let acc = ref 0.0 in
  for i = 1 to 200_000 do
    acc := !acc +. sqrt (float_of_int i)
  done;
  !acc

let calibrate () =
  (* best of 3: calibration must reflect machine speed, not a scheduler
     hiccup during one run *)
  let once () =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (calibration_loop ()));
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  ignore (once ());
  Float.min (once ()) (Float.min (once ()) (once ()))

(* ------------------------------------------------------------------ *)
(* Feature extraction (Johnston et al.): the architecture-independent
   workload descriptors recorded per entry live in Flexcl_learn so the
   learned-residual predictor and the runner can never drift apart. *)

let features = Learn.features

(* ------------------------------------------------------------------ *)

type analysis_memo = {
  table : (string, Analysis.t) Hashtbl.t;
  gtable : (string, Graph.analyzed) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let memo_create () =
  { table = Hashtbl.create 64; gtable = Hashtbl.create 8; hits = 0; misses = 0 }

let analysis_of memo (w : W.t) =
  match Hashtbl.find_opt memo.table (W.name w) with
  | Some a ->
      memo.hits <- memo.hits + 1;
      a
  | None ->
      memo.misses <- memo.misses + 1;
      let a = Analysis.analyze (W.parse w) w.W.launch in
      Hashtbl.replace memo.table (W.name w) a;
      a

let graph_of memo (p : Pipelines.t) =
  match Hashtbl.find_opt memo.gtable p.Pipelines.name with
  | Some t ->
      memo.hits <- memo.hits + 1;
      t
  | None ->
      memo.misses <- memo.misses + 1;
      let t =
        match Graph.analyze (Pipelines.graph p) with
        | Ok t -> t
        | Error ds ->
            failwith
              (Printf.sprintf "Pipeline.suite: %s does not analyze: %s"
                 p.Pipelines.name
                 (Flexcl_util.Diag.render_all ds))
      in
      Hashtbl.replace memo.gtable p.Pipelines.name t;
      t

let bits = Int64.bits_of_float

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Warm latency of an entry's hot path. One sample = best of 3 bursts
   of [inner] evaluations: the min discards bursts inflated by
   preemption or a major GC, which would otherwise dominate
   sub-microsecond timings. *)
let warm_timing ~opts ~entry_index eval =
  let burst () =
    let (), dt =
      time_of (fun () ->
          for _ = 1 to opts.inner do
            ignore (Sys.opaque_identity (eval ()))
          done)
    in
    dt /. float_of_int opts.inner *. 1e6
  in
  let sample () = Float.min (burst ()) (Float.min (burst ()) (burst ())) in
  for _ = 1 to opts.warmup do
    ignore (sample ())
  done;
  let samples = Array.init opts.repeat (fun _ -> sample ()) in
  let boot_seed = Prng.hash_mix opts.seed entry_index in
  let ci = Bstats.bootstrap_ci_mean ~seed:boot_seed samples in
  {
    Report.mean_us = Bstats.mean samples;
    stddev_us = Bstats.stddev samples;
    ci_lo_us = ci.Bstats.lo;
    ci_hi_us = ci.Bstats.hi;
    samples = opts.repeat;
  }

(* Multi-channel entries run with the default placement heuristic
   (round robin), so both the model's channel roofline and the
   channel-accurate simulator see spread traffic; 1-channel devices
   keep the empty placement (bitwise-identical to the pre-channel
   suite). [Analysis.with_placement] is cheap, so the memoized base
   analysis stays shared across devices. *)
let placed_for (dev : Flexcl_device.Device.t) (a : Analysis.t) =
  let n_channels = dev.Flexcl_device.Device.dram.Dram.n_channels in
  if n_channels <= 1 then a
  else
    Analysis.with_placement a
      (Launch.round_robin_placement a.Analysis.launch ~n_channels)

let measure_single ~opts ~memo ~entry_index (e : Sdef.entry) (w : W.t) =
  let a = placed_for e.Sdef.device (analysis_of memo w) in
  let wg_size = Launch.wg_size a.Analysis.launch in
  match
    List.find_opt
      (fun cfg -> Model.feasible e.Sdef.device a cfg)
      (Sdef.candidate_configs ~wg_size)
  with
  | None -> None (* no candidate fits the device; entry is skipped *)
  | Some cfg ->
      let dev = e.Sdef.device in
      (* estimate mode, three engines: a specialization staged afresh
         for this point (the reference), the analysis's shared one, and
         the parallel engine's per-point oracle *)
      let seq = Model.specialized_cycles (Model.specialize dev a) cfg in
      let spec = Model.specialized_cycles (Explore.specialized_for dev a) cfg in
      let par =
        match
          Parsweep.eval_batch ~num_domains:opts.domains a [ cfg ]
            (Explore.model_oracle dev)
        with
        | [ { Parsweep.cycles; _ } ] -> cycles
        | _ -> nan
      in
      let engines_identical = bits seq = bits spec && bits seq = bits par in
      (* simrtl mode: ground truth *)
      let sim = (Sysrun.run ~seed:opts.seed dev a cfg).Sysrun.cycles in
      let err_pct =
        if sim <= 0.0 then 0.0
        else 100.0 *. Float.abs (seq -. sim) /. sim
      in
      (* warm latency of the specialized path (the sweep/serve hot path) *)
      let sm = Explore.specialized_for dev a in
      let warm =
        warm_timing ~opts ~entry_index (fun () ->
            Model.specialized_cycles sm cfg)
      in
      Some
        {
          Report.suite = e.Sdef.suite;
          workload = W.name w;
          device = e.Sdef.device_name;
          config = Config.to_string cfg;
          est_cycles = seq;
          sim_cycles = sim;
          err_pct;
          cal_err_pct = None;
          learn_schema = None;
          engines_identical;
          warm;
          features = features a dev;
        }

(* A pipeline entry measures the kernel-graph model: the analytical
   estimate (with its conservation-checked explain trace standing in
   for the engine-identity column — estimate, explain root and trace
   recomposition must agree bitwise) against the work-group-granular
   co-simulation, and the warm latency of a full graph evaluation (the
   joint-DSE hot path). *)
let measure_pipeline ~opts ~memo ~entry_index (e : Sdef.entry)
    (p : Pipelines.t) =
  let t = graph_of memo p in
  let dev = e.Sdef.device in
  let t =
    {
      t with
      Graph.stage_analyses =
        List.map
          (fun (s, a) -> (s, placed_for dev a))
          t.Graph.stage_analyses;
    }
  in
  (* first feasible candidate per stage, same ladder as single entries *)
  let cfgs =
    List.map
      (fun (s, a) ->
        let wg_size = Launch.wg_size a.Analysis.launch in
        Option.map
          (fun c -> (s, c))
          (List.find_opt
             (fun cfg -> Model.feasible dev a cfg)
             (Sdef.candidate_configs ~wg_size)))
      t.Graph.stage_analyses
  in
  if List.exists Option.is_none cfgs then None
  else
    let stage_configs = List.filter_map Fun.id cfgs in
    let j = { (Graph.default_joint t) with Graph.stage_configs } in
    let gb, tr = Graph.explain dev t j in
    let seq = gb.Graph.cycles in
    let engines_identical =
      bits seq = bits (Graph.cycles dev t j)
      && bits seq = bits tr.Trace.cycles
      && Result.is_ok (Trace.check tr)
    in
    (* cosim mode: ground truth *)
    let sim = (Cosim.run ~seed:opts.seed dev t j).Cosim.cycles in
    let err_pct =
      if sim <= 0.0 then 0.0 else 100.0 *. Float.abs (seq -. sim) /. sim
    in
    let warm = warm_timing ~opts ~entry_index (fun () -> Graph.cycles dev t j) in
    let ba = Graph.stage_analysis t gb.Graph.bottleneck_stage in
    Some
      {
        Report.suite = e.Sdef.suite;
        workload = Sdef.workload_name e;
        device = e.Sdef.device_name;
        config = Graph.joint_to_string j;
        est_cycles = seq;
        sim_cycles = sim;
        err_pct;
        cal_err_pct = None;
        learn_schema = None;
        engines_identical;
        warm;
        features =
          ("stages", float_of_int (List.length t.Graph.stage_analyses))
          :: ( "channels",
               float_of_int
                 (List.length
                    t.Graph.resolved.Flexcl_graph.Gdef.graph
                      .Flexcl_graph.Gdef.channels) )
          :: features ba dev;
      }

let measure_entry ~opts ~memo ~entry_index (e : Sdef.entry) =
  match e.Sdef.payload with
  | Sdef.Single w -> measure_single ~opts ~memo ~entry_index e w
  | Sdef.Pipeline p -> measure_pipeline ~opts ~memo ~entry_index e p

(* ------------------------------------------------------------------ *)
(* Learned-residual bridge: report rows carry the device only by name,
   so both directions (annotating a run with calibrated columns, and
   turning a report back into training samples) resolve it through the
   suite's device registry. Rows naming an unknown device are left
   untouched / skipped rather than failing the whole report. *)

let device_of_name name = List.assoc_opt name Sdef.devices

let calibrate_row (m : Learn.model) (e : Report.entry) =
  match device_of_name e.Report.device with
  | None -> e
  | Some device ->
      let c =
        Learn.calibrate m ~device ~est:e.Report.est_cycles e.Report.features
      in
      let cal_err_pct =
        if e.Report.sim_cycles <= 0.0 then 0.0
        else
          100.0
          *. Float.abs (c.Learn.cycles -. e.Report.sim_cycles)
          /. e.Report.sim_cycles
      in
      {
        e with
        Report.cal_err_pct = Some cal_err_pct;
        learn_schema = Some Learn.schema_version;
      }

let samples_of_report (r : Report.t) =
  List.filter_map
    (fun (e : Report.entry) ->
      match device_of_name e.Report.device with
      | None -> None
      | Some device ->
          Some
            {
              Learn.workload = e.Report.workload;
              device;
              est_cycles = e.Report.est_cycles;
              sim_cycles = e.Report.sim_cycles;
              features = e.Report.features;
            })
    r.Report.rows

let run ?model ?(progress = fun (_ : string) -> ()) opts entries =
  let memo = memo_create () in
  let calibration_us = calibrate () in
  let rows =
    entries
    |> List.mapi (fun i e ->
           let row = measure_entry ~opts ~memo ~entry_index:i e in
           (match row with
           | Some r ->
               progress
                 (Printf.sprintf "%-44s err %5.1f%%  warm %.2f us%s"
                    (Sdef.id e) r.Report.err_pct r.Report.warm.Report.mean_us
                    (if r.Report.engines_identical then ""
                     else "  ENGINES DIVERGE"))
           | None ->
               progress
                 (Printf.sprintf "%-44s skipped (no feasible design point)"
                    (Sdef.id e)));
           row)
    |> List.filter_map Fun.id
  in
  let rows =
    match model with
    | None -> rows
    | Some m -> List.map (calibrate_row m) rows
  in
  Report.normalize
    {
      Report.smoke = opts.smoke;
      seed = opts.seed;
      repeat = opts.repeat;
      warmup = opts.warmup;
      inner = opts.inner;
      calibration_us;
      analysis_cache = { Report.hits = memo.hits; misses = memo.misses };
      rows;
      summaries = Report.summarize rows;
    }
