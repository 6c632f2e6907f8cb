(* Lockdown of the parallel memoized sweep engine (Parsweep):

   - differential: the engine at 0/1/4 domains returns bit-for-bit the
     same ranking as an independent sequential reference sweep, for every
     Rodinia and PolyBench workload; best-mode pruning never changes the
     winner;
   - properties (seeded Prng): Model.lower_bound never exceeds the model
     estimate, and infeasible points (cost infinity) never outrank
     feasible ones;
   - golden: the best design point per Rodinia kernel on Virtex-7 is
     pinned, so a model or engine change that silently moves an optimum
     fails loudly;
   - failure handling: oracles that fail (non-finite cost) are filtered,
     never ranked, and an all-failure sweep reports a diagnostic. *)

module W = Flexcl_workloads.Workload
module Rodinia = Flexcl_workloads.Rodinia
module Polybench = Flexcl_workloads.Polybench
module Launch = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Space = Flexcl_dse.Space
module Parsweep = Flexcl_dse.Parsweep
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module Prng = Flexcl_util.Prng
module Diag = Flexcl_util.Diag

let check = Alcotest.check
let dev = Device.virtex7

(* workload corpus, analysis cache and design space come from the shared
   test/gen.ml generators *)
let all_workloads = Gen.all_workloads
let analysis_of = Gen.analysis_of
let space_of = Gen.space_of

let show_point (e : Parsweep.evaluated) =
  Printf.sprintf "%s @ %.17g" (Config.to_string e.Parsweep.config)
    e.Parsweep.cycles

let show_ranking es = String.concat "\n" (List.map show_point es)

(* ------------------------------------------------------------------ *)
(* Differential: engine vs an independent sequential reference sweep.

   The reference deliberately shares no code with Parsweep: its own
   per-wg analysis cache, its own filter, its own sort. It re-analyzes a
   copy of the base, which owns none of the base's artifacts, so neither
   its re-analyses nor what the oracle stages on them are the engine's. *)

let reference_sweep device (base : Analysis.t) space oracle =
  let own = { base with Analysis.launch = base.Analysis.launch } in
  let wg_cache : (int, Analysis.t) Hashtbl.t = Hashtbl.create 8 in
  let analysis_at wg =
    match Hashtbl.find_opt wg_cache wg with
    | Some a -> a
    | None ->
        let a = Analysis.with_wg_size own wg in
        Hashtbl.add wg_cache wg a;
        a
  in
  Space.feasible_points device base space
  |> List.filter_map (fun (c : Config.t) ->
         let cost = oracle (analysis_at c.Config.wg_size) c in
         if Float.is_finite cost then
           Some { Parsweep.config = c; cycles = cost }
         else None)
  |> List.sort (fun (a : Parsweep.evaluated) (b : Parsweep.evaluated) ->
         compare (a.Parsweep.cycles, a.Parsweep.config)
           (b.Parsweep.cycles, b.Parsweep.config))

let test_differential_all_workloads () =
  List.iter
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      let oracle = Explore.model_oracle dev in
      let expect = reference_sweep dev base space oracle in
      List.iter
        (fun nd ->
          let got = Parsweep.sweep ~num_domains:nd dev base space oracle in
          check Alcotest.string
            (Printf.sprintf "%s @ %d domains" (W.name w) nd)
            (show_ranking expect) (show_ranking got);
          check Alcotest.bool
            (Printf.sprintf "%s @ %d domains (structural)" (W.name w) nd)
            true (expect = got))
        [ 0; 1; 4 ])
    all_workloads

let test_best_pruning_differential () =
  List.iter
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      let oracle = Explore.model_oracle dev in
      let plain, _ = Parsweep.best ~num_domains:0 dev base space oracle in
      let pruned, stats =
        Parsweep.best ~num_domains:0 ~bound:(Model.lower_bound dev) dev base
          space oracle
      in
      let show = function Some e -> show_point e | None -> "none" in
      check Alcotest.string (W.name w) (show plain) (show pruned);
      check Alcotest.bool
        (Printf.sprintf "%s counters cover the space" (W.name w))
        true
        (stats.Parsweep.evaluated + stats.Parsweep.pruned
         + stats.Parsweep.failed
        = stats.Parsweep.total))
    all_workloads

let test_sweep_matches_explore () =
  (* Explore.exhaustive is a thin wrapper; keep it honest. *)
  let w = List.find (fun w -> W.name w = "hotspot/hotspot") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let oracle = Explore.model_oracle dev in
  check Alcotest.bool "wrapper is the engine" true
    (Explore.exhaustive ~num_domains:0 dev base space oracle
    = Parsweep.sweep ~num_domains:0 dev base space oracle)

(* ------------------------------------------------------------------ *)
(* Properties, driven by the repo's seeded Prng. *)

let sample_feasible = Gen.sample_feasible

let test_lower_bound_sound () =
  (* lower_bound <= estimate over ~1k random feasible points, across all
     workloads and both devices. Tolerance covers float re-association
     between the bound's and the estimate's summations. *)
  let rng = Prng.create 0xf1ec5 in
  let checked = ref 0 in
  List.iter
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      List.iter
        (fun device ->
          List.iter
            (fun (c : Config.t) ->
              let a = Analysis.with_wg_size base c.Config.wg_size in
              let cycles = Model.cycles device a c in
              let lb = Model.lower_bound device a c in
              incr checked;
              if not (lb <= (cycles *. (1. +. 1e-9)) +. 1e-6) then
                Alcotest.failf "%s %s on %s: lower_bound %.17g > cycles %.17g"
                  (W.name w) (Config.to_string c) device.Device.name lb cycles)
            (sample_feasible rng device base space 10))
        [ Device.virtex7; Device.ku060 ])
    all_workloads;
  check Alcotest.bool "sampled at least 1000 points" true (!checked >= 1000)

let test_lower_bound_positive_and_finite () =
  let rng = Prng.create 42 in
  List.iter
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      List.iter
        (fun (c : Config.t) ->
          let a = Analysis.with_wg_size base c.Config.wg_size in
          let lb = Model.lower_bound dev a c in
          check Alcotest.bool
            (Printf.sprintf "%s %s bound finite >0" (W.name w)
               (Config.to_string c))
            true
            (Float.is_finite lb && lb > 0.))
        (sample_feasible rng dev base space 5))
    all_workloads

let test_infeasible_never_outranks () =
  (* Evaluate random raw points the way the heuristic does — infeasible
     ones cost infinity — and require every feasible point to rank
     strictly ahead of every infeasible one. *)
  let rng = Prng.create 7 in
  List.iter
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      let raw = Array.of_list (Space.points space) in
      let sample = List.init 16 (fun _ -> Prng.choose rng raw) in
      let costed =
        List.map
          (fun (c : Config.t) ->
            let feasible = Model.feasible dev base c in
            let cost =
              if feasible then
                Model.cycles dev (Analysis.with_wg_size base c.Config.wg_size) c
              else infinity
            in
            (feasible, { Parsweep.config = c; cycles = cost }))
          sample
      in
      let ranked =
        List.sort
          (fun (_, (a : Parsweep.evaluated)) (_, (b : Parsweep.evaluated)) ->
            compare (a.Parsweep.cycles, a.Parsweep.config)
              (b.Parsweep.cycles, b.Parsweep.config))
          costed
      in
      (* once an infeasible point appears, no feasible point may follow *)
      let _ =
        List.fold_left
          (fun seen_infeasible (feasible, e) ->
            check Alcotest.bool
              (Printf.sprintf "%s: feasibility/cost agree for %s" (W.name w)
                 (Config.to_string e.Parsweep.config))
              feasible
              (Float.is_finite e.Parsweep.cycles);
            if seen_infeasible && feasible then
              Alcotest.failf "%s: feasible %s ranked below an infeasible point"
                (W.name w)
                (Config.to_string e.Parsweep.config);
            seen_infeasible || not feasible)
          false ranked
      in
      ())
    all_workloads

let test_heuristic_matches_any_domains () =
  let rng = Prng.create 99 in
  let picks = Array.of_list all_workloads in
  for _ = 1 to 8 do
    let w = Prng.choose rng picks in
    let base = analysis_of w in
    let space = space_of w in
    let oracle = Explore.model_oracle dev in
    let seq = Heuristic.search ~num_domains:0 dev base space oracle in
    let par = Heuristic.search ~num_domains:4 dev base space oracle in
    check Alcotest.string (W.name w) (show_point seq) (show_point par)
  done

(* ------------------------------------------------------------------ *)
(* Golden regression: the winning design point per Rodinia kernel on
   Virtex-7, as "config @ cycles" with cycles printed to the nearest
   cycle. Regenerate (deliberately, by hand) with:
     dune exec bench/main.exe -- dse-quality   (or re-run this test and
     copy the actual values from the failure diff). *)

let golden_rodinia_best =
  [
    ("backprop/layer", "wg256 pe4 cu4 pipe pipeline @ 2716");
    ("backprop/adjust", "wg256 pe4 cu4 nopipe pipeline @ 133752");
    ("bfs/bfs_1", "wg256 pe8 cu1 nopipe pipeline @ 13987");
    ("bfs/bfs_2", "wg256 pe1 cu4 nopipe pipeline @ 1836");
    ("b+tree/findK", "wg32 pe8 cu4 nopipe pipeline @ 23520");
    ("b+tree/rangeK", "wg256 pe4 cu1 pipe pipeline @ 80024");
    ("cfd/memset", "wg256 pe2 cu4 pipe pipeline @ 155");
    ("cfd/initialize", "wg256 pe4 cu4 nopipe pipeline @ 574");
    ("cfd/compute", "wg256 pe4 cu1 pipe pipeline @ 40088");
    ("cfd/time_step", "wg256 pe2 cu4 pipe pipeline @ 426");
    ("dwt2d/compute", "wg256 pe4 cu4 pipe pipeline @ 717");
    ("dwt2d/components", "wg256 pe2 cu4 pipe pipeline @ 570");
    ("dwt2d/component", "wg256 pe2 cu4 pipe pipeline @ 295");
    ("dwt2d/fdwt", "wg256 pe1 cu4 pipe pipeline @ 422");
    ("gaussian/fan1", "wg256 pe4 cu1 pipe pipeline @ 2164");
    ("gaussian/fan2", "wg64 pe2 cu4 nopipe pipeline @ 4308");
    ("hotspot/hotspot", "wg256 pe4 cu4 pipe pipeline @ 1400");
    ("hotspot3D/hotspot3D", "wg256 pe8 cu1 pipe pipeline @ 15563");
    ("hybridsort/count", "wg256 pe4 cu1 pipe pipeline @ 4321");
    ("hybridsort/prefix", "wg256 pe1 cu4 pipe pipeline @ 17606");
    ("hybridsort/sort", "wg256 pe4 cu1 nopipe pipeline @ 10123");
    ("kmeans/center", "wg256 pe2 cu4 pipe pipeline @ 6730");
    ("kmeans/swap", "wg256 pe4 cu1 pipe pipeline @ 17860");
    ("lavaMD/lavaMD", "wg256 pe2 cu4 pipe pipeline @ 38457");
    ("leukocyte/gicov", "wg256 pe2 cu4 pipe pipeline @ 14897");
    ("leukocyte/dilate", "wg256 pe4 cu4 pipe pipeline @ 7213");
    ("leukocyte/imgvf", "wg256 pe4 cu4 pipe pipeline @ 1037");
    ("lud/diagonal", "wg256 pe1 cu4 pipe pipeline @ 38829");
    ("lud/perimeter", "wg256 pe1 cu4 pipe pipeline @ 20397");
    ("nn/nn", "wg256 pe4 cu1 pipe pipeline @ 4504");
    ("nw/nw1", "wg32 pe1 cu4 nopipe pipeline @ 1324");
    ("nw/nw2", "wg32 pe1 cu4 nopipe pipeline @ 1297");
    ("particlefilter/find_index", "wg256 pe2 cu4 pipe pipeline @ 9318");
    ("particlefilter/normalize", "wg256 pe2 cu4 pipe pipeline @ 317");
    ("particlefilter/sum", "wg32 pe1 cu4 pipe pipeline @ 4600");
    ("particlefilter/likelihood", "wg256 pe2 cu4 pipe pipeline @ 2767");
    ("pathfinder/dynproc", "wg256 pe2 cu4 pipe pipeline @ 705");
    ("srad/extract", "wg256 pe2 cu4 pipe pipeline @ 322");
    ("srad/prepare", "wg256 pe2 cu4 pipe pipeline @ 419");
    ("srad/reduce", "wg32 pe1 cu4 pipe pipeline @ 6584");
    ("srad/srad", "wg256 pe2 cu4 pipe pipeline @ 2322");
    ("srad/srad2", "wg256 pe4 cu1 pipe pipeline @ 1879");
    ("srad/compress", "wg256 pe2 cu4 pipe pipeline @ 318");
    ("streamcluster/memset", "wg256 pe2 cu4 pipe pipeline @ 155");
    ("streamcluster/pgain", "wg256 pe4 cu1 pipe pipeline @ 17977");
  ]

let test_golden_rodinia_best () =
  List.iter
    (fun (name, expect) ->
      let w = List.find (fun w -> W.name w = name) Rodinia.all in
      let base = analysis_of w in
      let space = space_of w in
      let e = Explore.best ~num_domains:0 dev base space (Explore.model_oracle dev) in
      let got =
        Printf.sprintf "%s @ %.0f" (Config.to_string e.Parsweep.config)
          e.Parsweep.cycles
      in
      check Alcotest.string name expect got)
    golden_rodinia_best

(* ------------------------------------------------------------------ *)
(* Failure handling *)

let test_failing_oracle_points_filtered () =
  (* An oracle that fails (infinity, the sdaccel_oracle convention) on
     every barrier-mode point: those points must vanish from the ranking
     and be counted as failed, and the survivors must match a sweep of a
     clean oracle restricted to pipeline mode. *)
  let w = List.find (fun w -> W.name w = "nn/nn") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let flaky a (c : Config.t) =
    if c.Config.comm_mode = Config.Barrier_mode then infinity
    else Explore.model_oracle dev a c
  in
  let ranked, stats = Parsweep.sweep_stats ~num_domains:0 dev base space flaky in
  check Alcotest.bool "no barrier point survives" true
    (List.for_all
       (fun (e : Parsweep.evaluated) ->
         e.Parsweep.config.Config.comm_mode = Config.Pipeline_mode)
       ranked);
  check Alcotest.bool "all costs finite" true
    (List.for_all (fun (e : Parsweep.evaluated) -> Float.is_finite e.Parsweep.cycles) ranked);
  check Alcotest.int "failed = barrier points" stats.Parsweep.failed
    (stats.Parsweep.total - List.length ranked);
  let pipeline_only =
    reference_sweep dev base { space with Space.comm_modes = [ Config.Pipeline_mode ] }
      (Explore.model_oracle dev)
  in
  check Alcotest.bool "survivors = clean pipeline-only sweep" true
    (ranked = pipeline_only)

let test_all_failures_reported () =
  let w = List.find (fun w -> W.name w = "nn/nn") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let dead _ _ = infinity in
  check Alcotest.bool "exhaustive is empty" true
    (Explore.exhaustive ~num_domains:0 dev base space dead = []);
  (match Explore.best_result ~num_domains:0 dev base space dead with
  | Error d ->
      check Alcotest.bool "diagnostic names the oracle failures" true
        (Thelpers.contains (Diag.render d) "oracle")
  | Ok e -> Alcotest.failf "expected Error, got %s" (show_point e));
  match Explore.best ~num_domains:0 dev base space dead with
  | exception Invalid_argument _ -> ()
  | e -> Alcotest.failf "expected Invalid_argument, got %s" (show_point e)

let test_nan_costs_filtered () =
  let w = List.find (fun w -> W.name w = "nn/nn") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  let ranked = Parsweep.sweep ~num_domains:0 dev base space (fun _ _ -> nan) in
  check Alcotest.int "nan never ranks" 0 (List.length ranked)

let test_worker_exception_propagates () =
  let w = List.find (fun w -> W.name w = "nn/nn") Rodinia.all in
  let base = analysis_of w in
  let space = space_of w in
  List.iter
    (fun nd ->
      match
        Parsweep.sweep ~num_domains:nd dev base space (fun _ _ ->
            failwith "oracle exploded")
      with
      | exception Failure msg ->
          check Alcotest.string
            (Printf.sprintf "exn text @ %d domains" nd)
            "oracle exploded" msg
      | _ -> Alcotest.failf "expected Failure at %d domains" nd)
    [ 0; 4 ]

(* ------------------------------------------------------------------ *)
(* Harness invariants *)

let test_backtraces_enabled () =
  (* test/dune sets OCAMLRUNPARAM=b so failures in CI come with
     backtraces; this pins that the env stanza stays in place. *)
  check Alcotest.bool "OCAMLRUNPARAM=b is in effect" true
    (Printexc.backtrace_status ())

let suite =
  let t = Alcotest.test_case in
  [
    t "parsweep: differential vs reference, all workloads, 0/1/4 domains"
      `Slow test_differential_all_workloads;
    t "parsweep: pruned best = exact best, all workloads" `Slow
      test_best_pruning_differential;
    t "parsweep: Explore.exhaustive is the engine" `Quick
      test_sweep_matches_explore;
    t "model: lower_bound <= cycles on ~1k random feasible points" `Slow
      test_lower_bound_sound;
    t "model: lower_bound finite and positive" `Quick
      test_lower_bound_positive_and_finite;
    t "dse: infeasible points never outrank feasible ones" `Quick
      test_infeasible_never_outranks;
    t "heuristic: picks identical at any domain count" `Slow
      test_heuristic_matches_any_domains;
    t "golden: Rodinia best design points on Virtex-7" `Quick
      test_golden_rodinia_best;
    t "failures: failing points filtered, counted, never ranked" `Quick
      test_failing_oracle_points_filtered;
    t "failures: all-failure sweep reports a diagnostic" `Quick
      test_all_failures_reported;
    t "failures: nan costs filtered" `Quick test_nan_costs_filtered;
    t "failures: worker exception propagates with its message" `Quick
      test_worker_exception_propagates;
    t "harness: backtraces enabled via OCAMLRUNPARAM" `Quick
      test_backtraces_enabled;
  ]
