(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (§4). Each [run_*] function prints the same rows/series the
   paper reports; EXPERIMENTS.md records paper-vs-measured values. *)

module W = Flexcl_workloads.Workload
module Rodinia = Flexcl_workloads.Rodinia
module Polybench = Flexcl_workloads.Polybench
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Sysrun = Flexcl_simrtl.Sysrun
module Sdaccel = Flexcl_simrtl.Sdaccel_estimate
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module Launch = Flexcl_ir.Launch
module Stats = Flexcl_util.Stats
module Table = Flexcl_util.Table

let dev = Device.virtex7

(* base analyses are cached per workload *)
let analysis_cache : (string, Analysis.t) Hashtbl.t = Hashtbl.create 64

let analysis_of (w : W.t) =
  match Hashtbl.find_opt analysis_cache (W.name w) with
  | Some a -> a
  | None ->
      let a = Analysis.analyze (W.parse w) w.W.launch in
      Hashtbl.replace analysis_cache (W.name w) a;
      a

let subsample stride xs = List.filteri (fun i _ -> i mod stride = 0) xs

let space_of (w : W.t) =
  Space.default ~total_work_items:(Launch.n_work_items w.W.launch)

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Per-kernel accuracy measurement *)

type kernel_row = {
  name : string;
  n_designs : int;          (* feasible design points (the paper's #Designs) *)
  flexcl_err : float;       (* mean abs % error vs System Run *)
  sdaccel_err : float;      (* over the points SDAccel survives *)
  sdaccel_fail_pct : float;
  t_model : float;          (* seconds for the FULL design space, measured *)
  t_sdaccel : float;
  t_sysrun : float;         (* simulator seconds over the sampled points *)
  sampled : int;
}

let measure_kernel ?(device = dev) ?(stride = 6) (w : W.t) =
  let base = analysis_of w in
  let space = space_of w in
  let points = Space.feasible_points device base space in
  let n_designs = List.length points in
  (* FlexCL model over the FULL space (it is cheap; this is the paper's
     exploration-time column) *)
  let _, t_model =
    time_of (fun () ->
        List.iter
          (fun (c : Config.t) ->
            let a = Analysis.with_wg_size base c.Config.wg_size in
            ignore (Model.cycles device a c))
          points)
  in
  let _, t_sdaccel =
    time_of (fun () ->
        List.iter
          (fun (c : Config.t) ->
            let a = Analysis.with_wg_size base c.Config.wg_size in
            ignore (Sdaccel.estimate device a c))
          points)
  in
  (* accuracy over a deterministic subsample of the space *)
  let sample = subsample stride points in
  let t0 = Unix.gettimeofday () in
  let flexcl_errs, sdaccel_errs, sd_fail =
    List.fold_left
      (fun (fe, se, sf) (c : Config.t) ->
        let a = Analysis.with_wg_size base c.Config.wg_size in
        let truth = (Sysrun.run device a c).Sysrun.cycles in
        let m = Model.cycles device a c in
        let fe = Stats.abs_pct_error ~actual:truth ~predicted:m :: fe in
        match Sdaccel.estimate device a c with
        | Some sd -> (fe, Stats.abs_pct_error ~actual:truth ~predicted:sd :: se, sf)
        | None -> (fe, se, sf + 1))
      ([], [], 0) sample
  in
  let t_sysrun = Unix.gettimeofday () -. t0 in
  {
    name = W.name w;
    n_designs;
    flexcl_err = Stats.mean flexcl_errs;
    sdaccel_err = (if sdaccel_errs = [] then nan else Stats.mean sdaccel_errs);
    sdaccel_fail_pct = 100.0 *. float_of_int sd_fail /. float_of_int (List.length sample);
    t_model;
    t_sdaccel;
    t_sysrun;
    sampled = List.length sample;
  }

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let hours_per_synthesis = 0.75
(* The paper's System Run column is bitstream synthesis + board runs at
   roughly 45 minutes per design point; our substitute simulator is
   measured directly and the projected RTL-flow time is also printed so
   the >10,000x exploration-speed claim can be checked. *)

let run_table2 ?(stride = 6) () =
  print_endline "=== Table 2: Rodinia accuracy and exploration time ===";
  Printf.printf
    "(errors vs the cycle-level System-Run simulator; %d-point design\n\
     subsample per kernel; 'RTL proj.' projects %.2f h per design point)\n\n"
    stride hours_per_synthesis;
  let t = Table.create
      ~headers:
        [ "Benchmark/Kernel"; "#Designs"; "SDAccel err%"; "FlexCL err%";
          "SDAccel fail%"; "RTL proj. (hrs)"; "SysRun sim (s)"; "FlexCL (s)" ]
  in
  let rows = List.map (measure_kernel ~stride) Rodinia.all in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.name;
          string_of_int r.n_designs;
          (if Float.is_nan r.sdaccel_err then "-" else Table.fmt_float r.sdaccel_err);
          Table.fmt_float r.flexcl_err;
          Table.fmt_float r.sdaccel_fail_pct;
          Table.fmt_float (float_of_int r.n_designs *. hours_per_synthesis);
          Table.fmt_float ~decimals:2
            (r.t_sysrun /. float_of_int r.sampled *. float_of_int r.n_designs);
          Table.fmt_float ~decimals:2 r.t_model;
        ])
    rows;
  Table.add_separator t;
  let mean f = Stats.mean (List.map f rows) in
  Table.add_row t
    [
      "AVERAGE";
      Table.fmt_float ~decimals:0 (mean (fun r -> float_of_int r.n_designs));
      Table.fmt_float (Stats.mean (List.filter_map (fun r -> if Float.is_nan r.sdaccel_err then None else Some r.sdaccel_err) rows));
      Table.fmt_float (mean (fun r -> r.flexcl_err));
      Table.fmt_float (mean (fun r -> r.sdaccel_fail_pct));
      "";
      "";
      "";
    ];
  print_string (Table.render t);
  Printf.printf
    "\npaper: FlexCL avg 9.5%%, SDAccel 30.4-84.9%% with ~42%% failed runs,\n\
     System Run 47-182 hrs vs FlexCL seconds per kernel\n\n";
  rows

(* ------------------------------------------------------------------ *)
(* PolyBench accuracy (§4.2) *)

let run_polybench ?(stride = 6) () =
  print_endline "=== PolyBench accuracy (sec. 4.2) ===";
  let t =
    Table.create ~headers:[ "Kernel"; "#Designs"; "FlexCL err%"; "SDAccel err%" ]
  in
  let rows = List.map (measure_kernel ~stride) Polybench.all in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.name;
          string_of_int r.n_designs;
          Table.fmt_float r.flexcl_err;
          (if Float.is_nan r.sdaccel_err then "-" else Table.fmt_float r.sdaccel_err);
        ])
    rows;
  Table.add_separator t;
  Table.add_row t
    [ "AVERAGE"; ""; Table.fmt_float (Stats.mean (List.map (fun r -> r.flexcl_err) rows)) ];
  print_string (Table.render t);
  Printf.printf "\npaper: FlexCL average absolute error 8.7%% on PolyBench\n\n";
  rows

(* ------------------------------------------------------------------ *)
(* Figure 4: per-design-point scatter for hotspot3D and nn *)

let run_figure4 ?(stride = 4) () =
  print_endline "=== Figure 4: estimated vs actual per design point ===";
  let plot kernel_name =
    let w = List.find (fun w -> W.name w = kernel_name) Rodinia.all in
    let base = analysis_of w in
    let points = subsample stride (Space.feasible_points dev base (space_of w)) in
    Printf.printf "--- %s (%d design points) ---\n" kernel_name (List.length points);
    Printf.printf "%-6s %12s %12s %8s\n" "id" "actual" "flexcl" "err%";
    let pairs =
      List.mapi
        (fun i (c : Config.t) ->
          let a = Analysis.with_wg_size base c.Config.wg_size in
          let actual = (Sysrun.run dev a c).Sysrun.cycles in
          let est = Model.cycles dev a c in
          (i, actual, est))
        points
      |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
    in
    List.iteri
      (fun rank (_, actual, est) ->
        Printf.printf "%-6d %12.0f %12.0f %8.1f\n" rank actual est
          (Stats.abs_pct_error ~actual ~predicted:est))
      pairs;
    let corr = Stats.correlation (List.map (fun (_, a, e) -> (a, e)) pairs) in
    Printf.printf "correlation(actual, flexcl) = %.4f\n\n" corr;
    corr
  in
  let c1 = plot "hotspot3D/hotspot3D" in
  let c2 = plot "nn/nn" in
  print_endline
    "paper: the two series visually coincide across all configuration ids";
  (c1, c2)

(* ------------------------------------------------------------------ *)
(* Robustness: KU060 (§4.2) *)

let run_robustness ?(stride = 6) () =
  print_endline "=== Robustness: Kintex UltraScale KU060 ===";
  let t = Table.create ~headers:[ "Kernel"; "FlexCL err% (KU060)" ] in
  let rows =
    List.map
      (fun name ->
        let w = List.find (fun w -> W.name w = name) Rodinia.all in
        let r = measure_kernel ~device:Device.ku060 ~stride w in
        Table.add_row t [ r.name; Table.fmt_float r.flexcl_err ];
        r)
      [ "hotspot/hotspot"; "pathfinder/dynproc" ]
  in
  print_string (Table.render t);
  print_endline "\npaper: HotSpot 9.7%, pathfinder 13.6% on the KU060\n";
  rows

(* ------------------------------------------------------------------ *)
(* DSE speed (§4.3 / Table 2 time columns) *)

let run_dse_speed () =
  print_endline "=== Design-space exploration speed ===";
  let w = List.find (fun w -> W.name w = "hotspot/hotspot") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let n = List.length (Space.feasible_points dev base space) in
  let _, t_flexcl =
    time_of (fun () -> ignore (Explore.exhaustive dev base space (Explore.model_oracle dev)))
  in
  let sim_points = subsample 8 (Space.feasible_points dev base space) in
  let _, t_sim_sample =
    time_of (fun () ->
        List.iter
          (fun (c : Config.t) ->
            ignore (Sysrun.run dev (Analysis.with_wg_size base c.Config.wg_size) c))
          sim_points)
  in
  let t_sim = t_sim_sample /. float_of_int (List.length sim_points) *. float_of_int n in
  let t_rtl = float_of_int n *. hours_per_synthesis *. 3600.0 in
  Printf.printf "design points explored         : %d\n" n;
  Printf.printf "FlexCL exhaustive exploration  : %8.2f s\n" t_flexcl;
  Printf.printf "cycle-level simulator (extrap.): %8.2f s   (%.0fx slower)\n" t_sim
    (t_sim /. t_flexcl);
  Printf.printf "projected RTL synthesis flow   : %8.0f s   (%.0fx slower)\n" t_rtl
    (t_rtl /. t_flexcl);
  print_endline "\npaper: >10,000x faster than System Run\n";
  (t_flexcl, t_sim, t_rtl)

(* ------------------------------------------------------------------ *)
(* Parallel sweep engine: sequential-vs-parallel speedup and pruning *)

let run_dse_parallel ?(domains = 4) () =
  let module Parsweep = Flexcl_dse.Parsweep in
  Printf.printf "=== Parallel DSE engine (hotspot3D, %d worker domains) ===\n"
    domains;
  Printf.printf "host offers %d recommended domain(s)\n\n"
    (Domain.recommended_domain_count ());
  let w = List.find (fun w -> W.name w = "hotspot3D/hotspot3D") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let oracle = Explore.model_oracle dev in
  (* warm the per-wg re-analyses and the model's trace caches so the
     timed runs compare sweep cost, not first-touch analysis cost *)
  let warm = Parsweep.sweep ~num_domains:0 dev base space oracle in
  let seq, t_seq =
    time_of (fun () -> Parsweep.sweep ~num_domains:0 dev base space oracle)
  in
  let par, t_par =
    time_of (fun () -> Parsweep.sweep ~num_domains:domains dev base space oracle)
  in
  let identical = seq = par && warm = seq in
  Printf.printf "design points ranked           : %d\n" (List.length seq);
  Printf.printf "sequential sweep (0 domains)   : %8.4f s\n" t_seq;
  Printf.printf "parallel sweep  (%d domains)    : %8.4f s  (%.2fx)\n" domains
    t_par
    (t_seq /. t_par);
  Printf.printf "identical ranked results       : %s\n"
    (if identical then "yes (bit-for-bit)" else "NO - ENGINE BUG");
  (* best-mode: bound-based pruning skips full model evaluations *)
  let best_seq, t_best_seq =
    time_of (fun () -> Parsweep.best ~num_domains:0 dev base space oracle)
  in
  let best_pruned_seq, t_best_pruned_seq =
    time_of (fun () ->
        Parsweep.best ~num_domains:0
          ~bound:(Model.lower_bound dev)
          dev base space oracle)
  in
  let best_pruned, t_best_pruned =
    time_of (fun () ->
        Parsweep.best ~num_domains:domains
          ~bound:(Model.lower_bound dev)
          dev base space oracle)
  in
  let picked = function
    | Some (e : Parsweep.evaluated), _ ->
        Printf.sprintf "%s (%.0f cycles)" (Config.to_string e.Parsweep.config)
          e.Parsweep.cycles
    | None, _ -> "none"
  in
  let stats (_, (s : Parsweep.progress)) = s in
  Printf.printf "\nbest (no pruning, 0 domains)   : %8.4f s  -> %s\n" t_best_seq
    (picked best_seq);
  Printf.printf "best (pruned, 0 domains)       : %8.4f s  -> %s  (%.2fx)\n"
    t_best_pruned_seq (picked best_pruned_seq)
    (t_best_seq /. t_best_pruned_seq);
  Printf.printf "best (pruned, %d domains)       : %8.4f s  -> %s\n" domains
    t_best_pruned (picked best_pruned);
  Printf.printf "pruned points                  : %d of %d (%.0f%% skipped)\n"
    (stats best_pruned).Parsweep.pruned
    (stats best_pruned).Parsweep.total
    (100.0
    *. float_of_int (stats best_pruned).Parsweep.pruned
    /. float_of_int (max 1 (stats best_pruned).Parsweep.total));
  Printf.printf "best-mode speedup              : %.2fx\n"
    (t_best_seq /. t_best_pruned);
  let same_best =
    match (best_seq, best_pruned_seq, best_pruned) with
    | (Some a, _), (Some b, _), (Some c, _) -> a = b && b = c
    | (None, _), (None, _), (None, _) -> true
    | _ -> false
  in
  Printf.printf "pruned best equals exact best  : %s\n\n"
    (if same_best then "yes" else "NO - PRUNER BUG");
  (t_seq, t_par, t_best_seq, t_best_pruned, identical && same_best)

(* ------------------------------------------------------------------ *)
(* Staged specialization payoff (DESIGN.md §11): warm per-point cost of
   the closed-form tail on a reused specialization
   ([Model.specialized_estimate] via [Explore.specialized_for]) against
   a fresh [Model.specialize] for every point — so the "re-staged"
   column times stage 0 and the per-DSP-share schedules per point.
   "Warm" is the steady state a sweep lives in: analyses and
   pattern counts filled, sweep specializations staged — what remains
   is exactly the per-point work the staging was built to shrink.
   Target: >= 5x per point. The
   rankings are also cross-checked bit-for-bit (the [test_specialize]
   differential contract, re-asserted here on the timed runs
   themselves). *)

let run_dse_specialize ?(iters = 40) ?(out_file = "BENCH_dse_specialize.json")
    () =
  let module Parsweep = Flexcl_dse.Parsweep in
  let module Json = Flexcl_util.Json in
  Printf.printf
    "=== Staged specialization: closed-form eval vs re-staging (%d \
     sweeps) ===\n"
    iters;
  let kernels =
    [ "hotspot/hotspot"; "hotspot3D/hotspot3D"; "backprop/layer";
      "lavaMD/lavaMD"; "gemm/gemm"; "mvt/mvt" ]
  in
  let rows =
    List.map
      (fun name ->
        let w =
          List.find (fun w -> W.name w = name) (Rodinia.all @ Polybench.all)
        in
        let base = analysis_of w in
        let space = space_of w in
        let points = Space.feasible_points dev base space in
        let n = List.length points in
        (* pair each point with its memoized analysis once: both timed
           loops then measure evaluation, not analysis lookup *)
        let paired =
          List.map
            (fun (c : Config.t) ->
              (Analysis.with_wg_size base c.Config.wg_size, c))
            points
        in
        let restaged (a, c) =
          ignore (Model.specialized_cycles (Model.specialize dev a) c)
        in
        (* warm both paths (pattern counts, staged specializations)
           before timing *)
        List.iter
          (fun (a, c) ->
            restaged (a, c);
            ignore (Model.specialized_cycles (Explore.specialized_for dev a) c))
          paired;
        let (), t_unspec =
          time_of (fun () ->
              for _ = 1 to iters do
                List.iter restaged paired
              done)
        in
        let (), t_spec =
          time_of (fun () ->
              for _ = 1 to iters do
                List.iter
                  (fun (a, c) ->
                    ignore
                      (Model.specialized_cycles (Explore.specialized_for dev a) c))
                  paired
              done)
        in
        let evals = float_of_int (n * iters) in
        let unspec_us = t_unspec /. evals *. 1e6 in
        let spec_us = t_spec /. evals *. 1e6 in
        (* the differential contract, re-checked on the benchmarked
           workloads: identical rankings, bit for bit *)
        let ranking_identical =
          Parsweep.sweep ~num_domains:0 dev base space
            (Explore.model_oracle dev)
          = Parsweep.sweep ~num_domains:0 dev base space
              (Explore.specialized_model_oracle dev)
        in
        if not ranking_identical then
          Printf.printf "!! %s: specialized ranking DIVERGES\n" name;
        (name, n, unspec_us, spec_us, t_unspec, t_spec, ranking_identical))
      kernels
  in
  let t =
    Table.create
      ~headers:
        [ "workload"; "points"; "re-staged us/pt"; "specialized us/pt";
          "speedup"; "ranking" ]
  in
  List.iter
    (fun (name, n, unspec_us, spec_us, _, _, ok) ->
      Table.add_row t
        [
          name;
          string_of_int n;
          Printf.sprintf "%.2f" unspec_us;
          Printf.sprintf "%.2f" spec_us;
          Printf.sprintf "%.1fx" (unspec_us /. Float.max spec_us 1e-9);
          (if ok then "bit-identical" else "DIVERGES");
        ])
    rows;
  print_string (Table.render t);
  (* aggregate over total time so large spaces weigh proportionally *)
  let tot_unspec =
    List.fold_left (fun a (_, _, _, _, u, _, _) -> a +. u) 0.0 rows
  in
  let tot_spec =
    List.fold_left (fun a (_, _, _, _, _, s, _) -> a +. s) 0.0 rows
  in
  let speedup = tot_unspec /. Float.max tot_spec 1e-9 in
  let all_identical =
    List.for_all (fun (_, _, _, _, _, _, ok) -> ok) rows
  in
  Printf.printf "warm per-point speedup : %.1fx %s\n" speedup
    (if speedup >= 5.0 then "(>= 5x target)" else "(BELOW 5x TARGET)");
  Printf.printf "rankings bit-identical : %s\n"
    (if all_identical then "yes (all workloads)" else "NO - STAGING BUG");
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "dse-specialize");
        ("iters", Json.int iters);
        ("speedup_per_point", Json.Num speedup);
        ("target", Json.Num 5.0);
        ("within_target", Json.Bool (speedup >= 5.0));
        ("rankings_bit_identical", Json.Bool all_identical);
        ( "workloads",
          Json.Arr
            (List.map
               (fun (name, n, unspec_us, spec_us, _, _, ok) ->
                 Json.Obj
                   [
                     ("workload", Json.Str name);
                     ("points", Json.int n);
                     ("estimate_us_per_point", Json.Num unspec_us);
                     ("specialized_us_per_point", Json.Num spec_us);
                     ( "speedup",
                       Json.Num (unspec_us /. Float.max spec_us 1e-9) );
                     ("ranking_bit_identical", Json.Bool ok);
                   ])
               rows) );
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n\n" out_file;
  (speedup, all_identical)

(* ------------------------------------------------------------------ *)
(* DSE quality (§4.3): optimality of picked configs, gap, speedup *)

type dse_row = {
  kernel : string;
  flexcl_gap : float;     (* % above the true (sampled) optimum *)
  heuristic_gap : float;
  flexcl_optimal : bool;  (* within 0.5% of the sampled optimum *)
  heuristic_optimal : bool;
  speedup_vs_default : float;
}

let run_dse_quality ?(stride = 5) () =
  print_endline "=== Design-space exploration quality (PolyBench) ===";
  let t =
    Table.create
      ~headers:
        [ "Kernel"; "FlexCL gap%"; "Greedy[16] gap%"; "FlexCL opt?"; "Greedy opt?";
          "Speedup vs base" ]
  in
  let truth_cache = Hashtbl.create 64 in
  let rows =
    List.map
      (fun w ->
        let base = analysis_of w in
        let space = space_of w in
        let oracle = Explore.model_oracle dev in
        let picked = (Explore.best dev base space oracle).Explore.config in
        let greedy = (Heuristic.search dev base space oracle).Explore.config in
        let truth (c : Config.t) =
          match Hashtbl.find_opt truth_cache (W.name w, c) with
          | Some v -> v
          | None ->
              let v =
                (Sysrun.run dev (Analysis.with_wg_size base c.Config.wg_size) c)
                  .Sysrun.cycles
              in
              Hashtbl.replace truth_cache (W.name w, c) v;
              v
        in
        let sample =
          let pts = Space.feasible_points dev base space in
          let s = subsample stride pts in
          let s = if List.mem picked s then s else picked :: s in
          if List.mem greedy s then s else greedy :: s
        in
        let flexcl_gap = Explore.quality_vs_optimal ~picked ~truth ~all:sample in
        let heuristic_gap =
          Explore.quality_vs_optimal ~picked:greedy ~truth ~all:sample
        in
        let speedup = truth Config.default /. truth picked in
        let row =
          {
            kernel = W.name w;
            flexcl_gap;
            heuristic_gap;
            flexcl_optimal = flexcl_gap <= 0.5;
            heuristic_optimal = heuristic_gap <= 0.5;
            speedup_vs_default = speedup;
          }
        in
        Table.add_row t
          [
            row.kernel;
            Table.fmt_float row.flexcl_gap;
            Table.fmt_float row.heuristic_gap;
            (if row.flexcl_optimal then "yes" else "no");
            (if row.heuristic_optimal then "yes" else "no");
            Table.fmt_float row.speedup_vs_default ^ "x";
          ];
        row)
      Polybench.all
  in
  Table.add_separator t;
  let pct p = 100.0 *. float_of_int (List.length (List.filter p rows))
              /. float_of_int (List.length rows) in
  Table.add_row t
    [
      "SUMMARY";
      Table.fmt_float (Stats.mean (List.map (fun r -> r.flexcl_gap) rows));
      Table.fmt_float (Stats.mean (List.map (fun r -> r.heuristic_gap) rows));
      Table.fmt_float (pct (fun r -> r.flexcl_optimal)) ^ "%";
      Table.fmt_float (pct (fun r -> r.heuristic_optimal)) ^ "%";
      Table.fmt_float (Stats.geomean (List.map (fun r -> r.speedup_vs_default) rows))
      ^ "x geo";
    ];
  print_string (Table.render t);
  print_endline
    "\npaper: 96% of FlexCL's exhaustive picks optimal vs 12% for the greedy\n\
     heuristic of [16]; picks within 2.1% of optimal; 273x average speedup\n\
     over the unoptimized baseline\n";
  rows

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each DESIGN.md §4b refinement *)

let run_ablation ?(stride = 8) () =
  print_endline "=== Ablation: model refinements (DESIGN.md 4b) ===";
  let kernels =
    [ "backprop/layer"; "hotspot/hotspot"; "kmeans/center"; "cfd/memset";
      "gemm/gemm"; "mvt/mvt" ]
  in
  let variants =
    [
      ("full model", Model.default_options);
      ("no cross-WI coalescing",
       { Model.default_options with Model.cross_wi_coalescing = false });
      ("no warm classification",
       { Model.default_options with Model.warm_classification = false });
      ("no bus roofline",
       { Model.default_options with Model.bus_roofline = false });
      ("no multi-CU DRAM replay",
       { Model.default_options with Model.multi_cu_dram_replay = false });
    ]
  in
  let t =
    Table.create ~headers:("variant" :: kernels @ [ "mean" ])
  in
  let truth_cache = Hashtbl.create 256 in
  List.iter
    (fun (label, options) ->
      let errs =
        List.map
          (fun name ->
            let w =
              List.find (fun w -> W.name w = name) (Rodinia.all @ Polybench.all)
            in
            let base = analysis_of w in
            let pts =
              subsample stride (Space.feasible_points dev base (space_of w))
            in
            let es =
              List.map
                (fun (c : Config.t) ->
                  let a = Analysis.with_wg_size base c.Config.wg_size in
                  let truth =
                    match Hashtbl.find_opt truth_cache (name, c) with
                    | Some v -> v
                    | None ->
                        let v = (Sysrun.run dev a c).Sysrun.cycles in
                        Hashtbl.replace truth_cache (name, c) v;
                        v
                  in
                  let m = (Model.estimate ~options dev a c).Model.cycles in
                  Stats.abs_pct_error ~actual:truth ~predicted:m)
                pts
            in
            Stats.mean es)
          kernels
      in
      Table.add_row t
        (label
        :: List.map Table.fmt_float errs
        @ [ Table.fmt_float (Stats.mean errs) ]))
    variants;
  print_string (Table.render t);
  print_endline
    "\n(each refinement is justified when removing it raises the error)\n"

(* ------------------------------------------------------------------ *)
(* Serve load: the request-level cache against cold analysis cost *)

(* ------------------------------------------------------------------ *)
(* Trace overhead: [Model.explain] must stay a cheap add-on over
   [Model.estimate] (< 10% on a warm cache) or nobody turns it on. The
   first explain of a design point pays the extra region traversal that
   builds the tree (reported as "cold build"); after that the trace is
   memoized per design point, so the steady-state loops measure the
   serving pattern the cache exists for. *)

let run_trace_overhead ?(iters = 300) ?(out_file = "BENCH_trace.json") () =
  let module Trace = Flexcl_util.Trace in
  let module Json = Flexcl_util.Json in
  Printf.printf "=== Trace overhead: explain vs estimate (%d iters) ===\n"
    iters;
  let points =
    List.concat_map
      (fun (w : W.t) ->
        let wg = Launch.wg_size w.W.launch in
        List.map
          (fun mode ->
            ( w,
              { Config.wg_size = wg; n_pe = 2; n_cu = 2; wi_pipeline = true;
                comm_mode = mode } ))
          [ Config.Barrier_mode; Config.Pipeline_mode ])
      Rodinia.all
  in
  let rows =
    List.map
      (fun ((w : W.t), cfg) ->
        let a = analysis_of w in
        (* warm every cache both paths share before timing; the
           first explain builds (and caches) the trace — its cost is the
           one-time surcharge a traced request pays *)
        let b = Model.estimate dev a cfg in
        let (_, tr), t_cold = time_of (fun () -> Model.explain dev a cfg) in
        (match Trace.check tr with
        | Ok () -> ()
        | Error e ->
            failwith
              (Printf.sprintf "conservation violated on %s: %s" (W.name w) e));
        if Float.abs (tr.Trace.cycles -. b.Model.cycles) > 1e-9 *. b.Model.cycles
        then
          failwith
            (Printf.sprintf "trace root diverges from estimate on %s"
               (W.name w));
        let (), t_est =
          time_of (fun () ->
              for _ = 1 to iters do
                ignore (Model.estimate dev a cfg)
              done)
        in
        let (), t_exp =
          time_of (fun () ->
              for _ = 1 to iters do
                ignore (Model.explain dev a cfg)
              done)
        in
        let est_us = t_est /. float_of_int iters *. 1e6 in
        let exp_us = t_exp /. float_of_int iters *. 1e6 in
        let overhead = (exp_us -. est_us) /. Float.max est_us 1e-9 in
        let mode =
          match cfg.Config.comm_mode with
          | Config.Barrier_mode -> "barrier"
          | Config.Pipeline_mode -> "pipeline"
        in
        (W.name w, mode, t_cold *. 1e6, est_us, exp_us, overhead))
      points
  in
  let t =
    Table.create
      ~headers:
        [ "workload"; "mode"; "cold build us"; "estimate us"; "explain us";
          "overhead" ]
  in
  List.iter
    (fun (name, mode, cold_us, est_us, exp_us, ov) ->
      Table.add_row t
        [ name; mode; Printf.sprintf "%.1f" cold_us;
          Printf.sprintf "%.1f" est_us; Printf.sprintf "%.1f" exp_us;
          Printf.sprintf "%+.1f%%" (ov *. 100.0) ])
    rows;
  print_string (Table.render t);
  (* aggregate over total time, not mean-of-ratios: tiny kernels with
     sub-microsecond estimates would otherwise dominate the verdict *)
  let tot_est = List.fold_left (fun a (_, _, _, e, _, _) -> a +. e) 0.0 rows in
  let tot_exp = List.fold_left (fun a (_, _, _, _, x, _) -> a +. x) 0.0 rows in
  let overall = (tot_exp -. tot_est) /. Float.max tot_est 1e-9 in
  Printf.printf "overall overhead       : %+.1f%% %s\n" (overall *. 100.0)
    (if overall < 0.10 then "(< 10% target)" else "(ABOVE 10% TARGET)");
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "trace-overhead");
        ("iters", Json.int iters);
        ("overall_overhead", Json.Num overall);
        ("target", Json.Num 0.10);
        ("within_target", Json.Bool (overall < 0.10));
        ( "points",
          Json.Arr
            (List.map
               (fun (name, mode, cold_us, est_us, exp_us, ov) ->
                 Json.Obj
                   [
                     ("workload", Json.Str name);
                     ("mode", Json.Str mode);
                     ("cold_build_us", Json.Num cold_us);
                     ("estimate_us", Json.Num est_us);
                     ("explain_us", Json.Num exp_us);
                     ("overhead", Json.Num ov);
                   ])
               rows) );
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n\n" out_file;
  overall

let run_serve_load ?(requests = 100) ?(out_file = "BENCH_serve.json") () =
  let module Client = Flexcl_server.Client in
  let module Json = Flexcl_util.Json in
  Printf.printf "=== Serve load generator (%d predict requests) ===\n" requests;
  let line id =
    Printf.sprintf
      {|{"id":%d,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true}|}
      id
  in
  let client = Client.create ~num_domains:0 () in
  (* request 1 is cold: parse + profile + model. *)
  let cold_resp, t_cold = time_of (fun () -> Client.request_line client (line 1)) in
  (* requests 2..N replay the same kernel/design point: the serving
     pattern the cache exists for. *)
  let warm_lat = ref [] in
  let warm_resp = ref cold_resp in
  let (), t_warm_total =
    time_of (fun () ->
        for id = 2 to requests do
          let r, dt = time_of (fun () -> Client.request_line client (line id)) in
          warm_resp := r;
          warm_lat := (dt *. 1e6) :: !warm_lat
        done)
  in
  let warm_lat = List.rev !warm_lat in
  let result_of resp =
    match Json.of_string resp with
    | Ok v -> Option.map Json.to_string (Json.member "result" v)
    | Error _ -> None
  in
  let identical =
    match (result_of cold_resp, result_of !warm_resp) with
    | Some a, Some b -> a = b
    | _ -> false
  in
  (* the one-shot CLI path computes the same estimate directly; cached
     responses must agree byte-for-byte on the rendered cycle count *)
  let w = List.find (fun w -> W.name w = "hotspot/hotspot") Rodinia.all in
  let cfg =
    { Config.wg_size = Launch.wg_size w.W.launch; n_pe = 2; n_cu = 2;
      wi_pipeline = true; comm_mode = Config.Pipeline_mode }
  in
  let direct = Model.estimate dev (analysis_of w) cfg in
  let direct_cycles = Json.to_string (Json.Num direct.Model.cycles) in
  let served_cycles =
    match Json.of_string !warm_resp with
    | Ok v ->
        Option.bind (Json.member "result" v) (Json.member "cycles")
        |> Option.map Json.to_string
    | Error _ -> None
  in
  let matches_cli = served_cycles = Some direct_cycles in
  let hit_rate =
    match Json.member "cache" (Client.stats client) with
    | Some cache -> (
        match
          Option.bind (Json.member "predict" cache) (Json.member "hit_rate")
        with
        | Some (Json.Num r) -> r
        | _ -> 0.0)
    | None -> 0.0
  in
  let mean_warm_us = Stats.mean warm_lat in
  let p50 = Stats.percentile 50.0 warm_lat in
  let p95 = Stats.percentile 95.0 warm_lat in
  let p99 = Stats.percentile 99.0 warm_lat in
  let cold_us = t_cold *. 1e6 in
  let speedup = cold_us /. Float.max mean_warm_us 1e-9 in
  let throughput =
    float_of_int (requests - 1) /. Float.max t_warm_total 1e-9
  in
  Printf.printf "cold first request     : %10.0f us\n" cold_us;
  Printf.printf "cached mean / p50      : %10.1f / %.1f us\n" mean_warm_us p50;
  Printf.printf "cached p95 / p99       : %10.1f / %.1f us\n" p95 p99;
  Printf.printf "cached throughput      : %10.0f req/s\n" throughput;
  Printf.printf "cold/cached speedup    : %10.1fx %s\n" speedup
    (if speedup >= 10.0 then "(>= 10x)" else "(BELOW 10x TARGET)");
  Printf.printf "predict cache hit rate : %10.1f%% %s\n" (hit_rate *. 100.0)
    (if hit_rate >= 0.99 then "(>= 99%)" else "(BELOW 99% TARGET)");
  Printf.printf "cold == cached result  : %s\n"
    (if identical then "yes (byte-identical)" else "NO - CACHE BUG");
  Printf.printf "serve == one-shot CLI  : %s\n"
    (if matches_cli then "yes (byte-identical cycles)" else "NO - DIVERGENCE");
  (* --- overload scenario: offered load >= 2x admission capacity over a
     real socket server; excess is shed immediately with E-OVERLOAD, and
     every accepted response carries the same result bytes as the
     sequential client above --- *)
  let module Server = Flexcl_server.Server in
  let max_inflight = 2 in
  let n_threads = 8 and bursts_per_thread = 6 and burst = 4 in
  Printf.printf
    "--- overload: %d clients x bursts of %d vs max_inflight=%d ---\n"
    n_threads burst max_inflight;
  let srv = Server.create ~num_domains:2 ~max_inflight () in
  let sock_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "flexcl_bench_%d.sock" (Unix.getpid ()))
  in
  let srv_thread =
    Thread.create (fun () -> Server.serve_unix_socket srv sock_path) ()
  in
  let connect () =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX sock_path) with
      | () -> Some fd
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if n = 0 then None
          else begin
            Thread.delay 0.05;
            go (n - 1)
          end
    in
    go 100
  in
  let send_all fd s =
    let b = Bytes.of_string s in
    let rec go off =
      if off < Bytes.length b then
        match Unix.write fd b off (Bytes.length b - off) with
        | n -> go (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    try
      go 0;
      true
    with Unix.Unix_error _ -> false
  in
  let read_line_bounded fd buf =
    let deadline = Unix.gettimeofday () +. 10.0 in
    let chunk = Bytes.create 4096 in
    let rec go () =
      match String.index_opt !buf '\n' with
      | Some i ->
          let l = String.sub !buf 0 i in
          buf := String.sub !buf (i + 1) (String.length !buf - i - 1);
          Some l
      | None ->
          let left = deadline -. Unix.gettimeofday () in
          if left <= 0.0 then None
          else
            let readable =
              try
                let r, _, _ =
                  Unix.select [ fd ] [] [] (Float.min left 0.5)
                in
                r <> []
              with Unix.Unix_error (Unix.EINTR, _, _) -> false
            in
            if not readable then go ()
            else
              let n =
                try Unix.read fd chunk 0 (Bytes.length chunk)
                with Unix.Unix_error _ -> 0
              in
              if n = 0 then None
              else begin
                buf := !buf ^ Bytes.sub_string chunk 0 n;
                go ()
              end
    in
    go ()
  in
  let expected_result = result_of cold_resp in
  let ov_mutex = Mutex.create () in
  let accepted_lat = ref [] in
  let shed = ref 0 and lost = ref 0 and mismatched = ref 0 in
  let t0_overload = Unix.gettimeofday () in
  let client_threads =
    List.init n_threads (fun ti ->
        Thread.create
          (fun () ->
            for b = 1 to bursts_per_thread do
              match connect () with
              | None ->
                  Mutex.lock ov_mutex;
                  lost := !lost + burst;
                  Mutex.unlock ov_mutex
              | Some fd ->
                  let payload =
                    String.concat ""
                      (List.init burst (fun i ->
                           line ((10000 * ti) + (100 * b) + i) ^ "\n"))
                  in
                  let t_send = Unix.gettimeofday () in
                  if send_all fd payload then begin
                    let buf = ref "" in
                    for _ = 1 to burst do
                      match read_line_bounded fd buf with
                      | None ->
                          Mutex.lock ov_mutex;
                          incr lost;
                          Mutex.unlock ov_mutex
                      | Some resp -> (
                          let lat_us =
                            (Unix.gettimeofday () -. t_send) *. 1e6
                          in
                          match Json.of_string resp with
                          | Error _ ->
                              Mutex.lock ov_mutex;
                              incr lost;
                              Mutex.unlock ov_mutex
                          | Ok v ->
                              let ok =
                                Option.bind (Json.member "ok" v) Json.to_bool
                              in
                              Mutex.lock ov_mutex;
                              (if ok = Some true then begin
                                 accepted_lat := lat_us :: !accepted_lat;
                                 if result_of resp <> expected_result then
                                   incr mismatched
                               end
                               else incr shed);
                              Mutex.unlock ov_mutex)
                    done
                  end
                  else begin
                    Mutex.lock ov_mutex;
                    lost := !lost + burst;
                    Mutex.unlock ov_mutex
                  end;
                  (try Unix.close fd with Unix.Unix_error _ -> ())
            done)
          ())
  in
  List.iter Thread.join client_threads;
  let overload_wall = Unix.gettimeofday () -. t0_overload in
  (* graceful drain, so the bench process exits cleanly *)
  (match connect () with
  | Some fd ->
      ignore (send_all fd "{\"id\":0,\"kind\":\"shutdown\"}\n");
      ignore (read_line_bounded fd (ref ""));
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> Server.request_shutdown srv);
  Thread.join srv_thread;
  let offered = n_threads * bursts_per_thread * burst in
  let accepted_lat = !accepted_lat in
  let n_accepted = List.length accepted_lat in
  let shed_rate = float_of_int !shed /. float_of_int (max 1 offered) in
  let goodput =
    float_of_int n_accepted /. Float.max overload_wall 1e-9
  in
  let p99_accepted =
    if accepted_lat = [] then 0.0 else Stats.percentile 99.0 accepted_lat
  in
  let overload_identical = !mismatched = 0 && n_accepted > 0 in
  Printf.printf "offered / accepted     : %10d / %d (%d shed, %d lost)\n"
    offered n_accepted !shed !lost;
  Printf.printf "shed rate              : %10.1f%%\n" (shed_rate *. 100.0);
  Printf.printf "accepted p99 latency   : %10.1f us\n" p99_accepted;
  Printf.printf "goodput                : %10.0f req/s\n" goodput;
  Printf.printf "accepted == sequential : %s\n"
    (if overload_identical then "yes (byte-identical)"
     else "NO - DIVERGENCE UNDER LOAD");
  let json =
    Json.Obj
      [
        ("experiment", Json.Str "serve-load");
        ("requests", Json.int requests);
        ("cold_us", Json.Num cold_us);
        ("cached_mean_us", Json.Num mean_warm_us);
        ("cached_p50_us", Json.Num p50);
        ("cached_p95_us", Json.Num p95);
        ("cached_p99_us", Json.Num p99);
        ("cached_throughput_rps", Json.Num throughput);
        ("speedup_cold_over_cached", Json.Num speedup);
        ("predict_cache_hit_rate", Json.Num hit_rate);
        ("cold_equals_cached", Json.Bool identical);
        ("serve_equals_cli", Json.Bool matches_cli);
        ( "overload",
          Json.Obj
            [
              ("max_inflight", Json.int max_inflight);
              ("offered_requests", Json.int offered);
              ( "offered_concurrency",
                Json.int (n_threads * burst) );
              ("accepted", Json.int n_accepted);
              ("shed", Json.int !shed);
              ("lost", Json.int !lost);
              ("shed_rate", Json.Num shed_rate);
              ("accepted_p99_us", Json.Num p99_accepted);
              ("goodput_rps", Json.Num goodput);
              ("accepted_identical", Json.Bool overload_identical);
            ] );
      ]
  in
  Out_channel.with_open_text out_file (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n\n" out_file;
  (speedup, hit_rate)
