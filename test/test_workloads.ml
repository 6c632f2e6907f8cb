(* Workload integration tests: every Rodinia and PolyBench kernel parses,
   type-checks, lowers, profiles, models and simulates; functional
   validation of representative kernels. *)

module W = Flexcl_workloads.Workload
module Rodinia = Flexcl_workloads.Rodinia
module Polybench = Flexcl_workloads.Polybench
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Sysrun = Flexcl_simrtl.Sysrun
module Launch = Flexcl_ir.Launch
module Interp = Flexcl_interp.Interp
open Flexcl_opencl

let check = Alcotest.check
let dev = Flexcl_device.Device.virtex7
let all = Rodinia.all @ Polybench.all

let test_counts () =
  check Alcotest.int "45 Rodinia kernels (Table 2)" 45 (List.length Rodinia.all);
  check Alcotest.int "15 PolyBench kernels" 15 (List.length Polybench.all)

let test_names_unique () =
  let names = List.map W.name all in
  check Alcotest.int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_table2_roster () =
  (* benchmark -> kernel count must match Table 2 *)
  let expected =
    [
      ("backprop", 2); ("bfs", 2); ("b+tree", 2); ("cfd", 4); ("dwt2d", 4);
      ("gaussian", 2); ("hotspot", 1); ("hotspot3D", 1); ("hybridsort", 3);
      ("kmeans", 2); ("lavaMD", 1); ("leukocyte", 3); ("lud", 2); ("nn", 1);
      ("nw", 2); ("particlefilter", 4); ("pathfinder", 1); ("srad", 6);
      ("streamcluster", 2);
    ]
  in
  List.iter
    (fun (bench, n) ->
      let got =
        List.length (List.filter (fun w -> w.W.benchmark = bench) Rodinia.all)
      in
      check Alcotest.int bench n got)
    expected

let test_every_kernel_parses_and_checks () =
  List.iter
    (fun w ->
      let k = W.parse w in
      ignore (Sema.analyze k);
      (* every argument matches a parameter *)
      List.iter
        (fun (name, _) ->
          check Alcotest.bool
            (W.name w ^ ": arg " ^ name ^ " has a parameter")
            true
            (List.exists (fun p -> p.Ast.p_name = name) k.Ast.k_params))
        w.W.launch.Launch.args)
    all

let test_every_kernel_profiles () =
  (* full analysis incl. dynamic profiling (2 sampled work-groups) *)
  List.iter
    (fun w ->
      let a = Analysis.analyze (W.parse w) w.W.launch in
      check Alcotest.bool
        (W.name w ^ " produced traces")
        true
        (Array.length a.Analysis.profile.Interp.wi_traces > 0))
    all

let test_every_kernel_models_and_simulates () =
  let cfg =
    { Config.wg_size = 32; n_pe = 2; n_cu = 1; wi_pipeline = true;
      comm_mode = Config.Pipeline_mode }
  in
  List.iter
    (fun w ->
      let a = Analysis.analyze (W.parse w) w.W.launch in
      let wg = min 32 (Launch.wg_size w.W.launch) in
      let cfg = { cfg with Config.wg_size = wg } in
      if Model.feasible dev a cfg then begin
        let m = Model.cycles dev a cfg in
        check Alcotest.bool (W.name w ^ " model positive") true (m > 0.0);
        let s = (Sysrun.run dev a cfg).Sysrun.cycles in
        check Alcotest.bool (W.name w ^ " sim positive") true (s > 0.0)
      end)
    all

let find name = List.find (fun w -> W.name w = name) all

(* functional checks of representative kernels through run_all *)
let run_all w =
  let k = W.parse w in
  Interp.run_all k (Sema.analyze k) w.W.launch

let buffer p name = Interp.buffer_values (List.assoc name p.Interp.buffers)

let test_functional_cfd_timestep () =
  let p = run_all (find "cfd/time_step") in
  let vars = buffer p "vars" in
  let old_vars = buffer p "old_vars" in
  let fluxes = buffer p "fluxes" in
  let f = function Interp.F x -> x | Interp.I i -> Int64.to_float i in
  for i = 0 to 1023 do
    check (Alcotest.float 1e-5) "vars = old + 0.2 flux"
      (f old_vars.(i) +. (0.2 *. f fluxes.(i)))
      (f vars.(i))
  done

let test_functional_kmeans_swap () =
  let p = run_all (find "kmeans/swap") in
  let feature = buffer p "feature" in
  let swapped = buffer p "feature_swap" in
  let f = function Interp.F x -> x | Interp.I i -> Int64.to_float i in
  (* transposition: swapped[i * npoints + g] = feature[g * nfeatures + i] *)
  for g = 0 to 20 do
    for i = 0 to 7 do
      check (Alcotest.float 1e-6) "transposed"
        (f feature.((g * 8) + i))
        (f swapped.((i * 1024) + g))
    done
  done

let test_functional_hybridsort_count () =
  let p = run_all (find "hybridsort/count") in
  let histo = buffer p "histo" in
  let total =
    Array.fold_left
      (fun acc v -> acc + Int64.to_int (match v with Interp.I i -> i | Interp.F f -> Int64.of_float f))
      0 histo
  in
  check Alcotest.int "histogram counts every element" 1024 total

let test_functional_pathfinder () =
  let p = run_all (find "pathfinder/dynproc") in
  let src = buffer p "src" in
  let wall = buffer p "wall" in
  let dst = buffer p "dst" in
  let i v = Int64.to_int (match v with Interp.I x -> x | Interp.F f -> Int64.of_float f) in
  (* spot-check an interior element *)
  let tid = 100 in
  let m = min (i src.(tid)) (min (i src.(tid - 1)) (i src.(tid + 1))) in
  check Alcotest.int "min of neighbours plus wall"
    (m + i wall.((3 * 1024) + tid))
    (i dst.(tid))

let test_functional_nn () =
  let p = run_all (find "nn/nn") in
  let loc = buffer p "locations" in
  let d = buffer p "distances" in
  let f = function Interp.F x -> x | Interp.I i -> Int64.to_float i in
  let g = 17 in
  let dx = 0.5 -. f loc.(g * 2) and dy = 0.5 -. f loc.((g * 2) + 1) in
  check (Alcotest.float 1e-5) "euclidean distance"
    (sqrt ((dx *. dx) +. (dy *. dy)))
    (f d.(g))

let test_functional_gemm () =
  let p = run_all (find "gemm/gemm") in
  let f = function Interp.F x -> x | Interp.I i -> Int64.to_float i in
  let a = buffer p "a" in
  let b = buffer p "b" in
  let c = buffer p "c" in
  (* recompute c[1][2]; c was overwritten, so recompute beta * c0 needs
     the original value: use the generator stream instead. The original
     c is Random_floats 503; regenerate it. *)
  let rng = Flexcl_util.Prng.create 503 in
  let c0 = Array.init 1024 (fun _ -> Flexcl_util.Prng.float rng 1.0) in
  let i = 1 and j = 2 in
  let acc = ref 0.0 in
  for k = 0 to 31 do
    acc := !acc +. (f a.((i * 32) + k) *. f b.((k * 32) + j))
  done;
  check (Alcotest.float 1e-4) "gemm element"
    ((1.2 *. c0.((i * 32) + j)) +. (1.5 *. !acc))
    (f c.((i * 32) + j))

let test_functional_lud_diagonal_stable () =
  (* LU factorization of the diagonal block: deterministic and finite *)
  let p = run_all (find "lud/diagonal") in
  let m = buffer p "m" in
  Array.iter
    (fun v ->
      let f = match v with Interp.F x -> x | Interp.I i -> Int64.to_float i in
      check Alcotest.bool "finite" true (Float.is_finite f))
    m

let test_barrier_kernels_use_top_level_barriers () =
  (* phase-exact barrier handling requires top-level barriers; all our
     barrier kernels are written that way *)
  List.iter
    (fun w ->
      let k = W.parse w in
      let info = Sema.analyze k in
      if info.Sema.uses_barrier then begin
        let nested = ref false in
        let rec check_nested stmts =
          List.iter
            (fun (s : Ast.stmt) ->
              match s with
              | Ast.Barrier -> nested := true
              | Ast.If (_, t, e) ->
                  check_nested t;
                  check_nested e
              | Ast.For (_, b, _) | Ast.While (_, b, _) -> check_nested b
              | _ -> ())
            stmts
        in
        List.iter
          (fun (s : Ast.stmt) ->
            match s with
            | Ast.If (_, t, e) ->
                check_nested t;
                check_nested e
            | Ast.For (_, b, _) | Ast.While (_, b, _) -> check_nested b
            | _ -> ())
          k.Ast.k_body;
        check Alcotest.bool (W.name w ^ ": barriers top-level") false !nested
      end)
    all

let test_suite_diversity () =
  (* the suite must exercise local memory, barriers, transcendentals,
     data-dependent gathers and recurrences somewhere *)
  let analyses = List.map (fun w -> (w, Sema.analyze (W.parse w))) all in
  check Alcotest.bool "some kernel uses barrier" true
    (List.exists (fun (_, i) -> i.Sema.uses_barrier) analyses);
  check Alcotest.bool "some kernel uses local arrays" true
    (List.exists (fun (_, i) -> i.Sema.local_arrays <> []) analyses);
  check Alcotest.bool "some kernel has loops" true
    (List.exists (fun (_, i) -> i.Sema.n_loops > 0) analyses);
  check Alcotest.bool "some kernel has nesting depth 2" true
    (List.exists (fun (_, i) -> i.Sema.max_loop_depth >= 2) analyses)

let suite =
  [
    Alcotest.test_case "roster: suite sizes" `Quick test_counts;
    Alcotest.test_case "roster: unique names" `Quick test_names_unique;
    Alcotest.test_case "roster: Table 2 benchmarks" `Quick test_table2_roster;
    Alcotest.test_case "all: parse and type-check" `Quick
      test_every_kernel_parses_and_checks;
    Alcotest.test_case "all: profile" `Slow test_every_kernel_profiles;
    Alcotest.test_case "all: model and simulate" `Slow
      test_every_kernel_models_and_simulates;
    Alcotest.test_case "functional: cfd/time_step" `Quick test_functional_cfd_timestep;
    Alcotest.test_case "functional: kmeans/swap" `Quick test_functional_kmeans_swap;
    Alcotest.test_case "functional: hybridsort/count" `Quick
      test_functional_hybridsort_count;
    Alcotest.test_case "functional: pathfinder" `Quick test_functional_pathfinder;
    Alcotest.test_case "functional: nn" `Quick test_functional_nn;
    Alcotest.test_case "functional: gemm" `Quick test_functional_gemm;
    Alcotest.test_case "functional: lud stability" `Quick
      test_functional_lud_diagonal_stable;
    Alcotest.test_case "barriers: top-level only" `Quick
      test_barrier_kernels_use_top_level_barriers;
    Alcotest.test_case "suite diversity" `Quick test_suite_diversity;
  ]
