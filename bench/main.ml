(* Benchmark entry point.

   With no argument, every experiment of the paper's evaluation runs and
   prints its table/figure:

     dune exec bench/main.exe              # all experiments
     dune exec bench/main.exe -- table2    # one experiment
     dune exec bench/main.exe -- list      # name + one-line description

   An unknown experiment name lists what is available and exits 2. *)

module W = Flexcl_workloads.Workload
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Sysrun = Flexcl_simrtl.Sysrun

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure, measuring
   the cost of the computation that regenerates it. *)

let bechamel_tests () =
  let open Bechamel in
  let dev = Device.virtex7 in
  let w = List.find (fun w -> W.name w = "hotspot/hotspot") Flexcl_workloads.Rodinia.all in
  let analysis = Analysis.analyze (W.parse w) w.W.launch in
  let cfg =
    { Config.wg_size = 64; n_pe = 2; n_cu = 2; wi_pipeline = true;
      comm_mode = Config.Pipeline_mode }
  in
  let nn = List.find (fun w -> W.name w = "nn/nn") Flexcl_workloads.Rodinia.all in
  let nn_analysis = Analysis.analyze (W.parse nn) nn.W.launch in
  Test.make_grouped ~name:"flexcl"
    [
      (* Table 2 / PolyBench: one analytical estimate per design point *)
      Test.make ~name:"table2-model-estimate"
        (Staged.stage (fun () -> ignore (Model.estimate dev analysis cfg)));
      (* Figure 4: one simulator evaluation per design point *)
      Test.make ~name:"figure4-sysrun-point"
        (Staged.stage (fun () -> ignore (Sysrun.run dev nn_analysis cfg)));
      (* Robustness: estimate on the second platform *)
      Test.make ~name:"robustness-ku060-estimate"
        (Staged.stage (fun () -> ignore (Model.estimate Device.ku060 analysis cfg)));
      (* DSE columns: frontend + kernel analysis cost *)
      Test.make ~name:"dse-kernel-analysis"
        (Staged.stage (fun () -> ignore (Analysis.analyze (W.parse nn) nn.W.launch)));
      Test.make ~name:"dse-parse-kernel"
        (Staged.stage (fun () -> ignore (W.parse w)));
    ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  print_endline "=== Bechamel micro-benchmarks (ns per run) ===";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "%-40s %12.0f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Experiment registry: one row per experiment, so the dispatch, the
   all-experiments run and the listing printed on a typo cannot drift
   apart. *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table2", "Rodinia accuracy & exploration cost (paper Table 2)",
     fun () -> ignore (Experiments.run_table2 ()));
    ("polybench", "PolyBench accuracy (paper Table 3)",
     fun () -> ignore (Experiments.run_polybench ()));
    ("figure4", "model-vs-simulator cycle scatter (paper Figure 4)",
     fun () -> ignore (Experiments.run_figure4 ()));
    ("robustness", "second-platform (KU060) accuracy",
     fun () -> ignore (Experiments.run_robustness ()));
    ("dse-speed", "exploration wall-clock per oracle",
     fun () -> ignore (Experiments.run_dse_speed ()));
    ("dse-quality", "picked-vs-optimal design-point quality",
     fun () -> ignore (Experiments.run_dse_quality ()));
    ("dse-parallel", "parallel sweep engine speedup & pruning",
     fun () -> ignore (Experiments.run_dse_parallel ()));
    ("dse-specialize",
     "staged model vs re-staging per point (BENCH_dse_specialize.json)",
     fun () -> ignore (Experiments.run_dse_specialize ()));
    ("ablation", "model refinements ablated one at a time",
     fun () -> Experiments.run_ablation ());
    ("serve-load", "flexcl serve cold-vs-cached latency (BENCH_serve.json)",
     fun () -> ignore (Experiments.run_serve_load ()));
    ("trace-overhead", "explain-vs-estimate cost on a warm cache (BENCH_trace.json)",
     fun () -> ignore (Experiments.run_trace_overhead ()));
    ("profile-pass",
     "Analysis.analyze on a cold explore's 238 launches (BENCH_profile.json)",
     fun () -> Experiments.run_profile_pass ());
    ("bechamel", "micro-benchmarks (ns per run)", run_bechamel);
  ]

let list_experiments oc =
  List.iter
    (fun (name, doc, _) -> Printf.fprintf oc "  %-14s %s\n" name doc)
    experiments

let run_all () = List.iter (fun (_, _, run) -> run ()) experiments

let () =
  let t0 = Unix.gettimeofday () in
  (match Array.to_list Sys.argv with
  | _ :: "list" :: _ -> list_experiments stdout
  | _ :: name :: _ -> (
      match
        List.find_opt (fun (name', _, _) -> name' = name) experiments
      with
      | Some (_, _, run) -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S; available experiments:\n"
            name;
          list_experiments stderr;
          exit 2)
  | _ -> run_all ());
  Printf.printf "total bench time: %.1f s\n" (Unix.gettimeofday () -. t0)
