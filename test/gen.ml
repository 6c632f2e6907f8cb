(* Shared seeded generators for the test suites (test/gen.ml).

   One home for the workload/analysis/design-point machinery that the
   differential suites (test_parsweep, test_trace, test_specialize) all
   need: the bundled workload list, a per-kernel analysis cache, the
   default design space, seeded feasible-point sampling, the
   single-switch options ablations, qcheck generators for random
   configurations, and the bitwise breakdown comparison. Keeping them
   here means every suite draws from the same corpus and the same seeds
   instead of re-implementing (and silently diverging on) its own copy. *)

module W = Flexcl_workloads.Workload
module Rodinia = Flexcl_workloads.Rodinia
module Polybench = Flexcl_workloads.Polybench
module Launch = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Space = Flexcl_dse.Space
module Prng = Flexcl_util.Prng

let all_workloads = Rodinia.all @ Polybench.all

let find_workload name = List.find (fun w -> W.name w = name) all_workloads

(* Analyses are expensive (parse + interpret); cache one per kernel,
   shared across every suite in the test binary. *)
let analysis_cache : (string, Analysis.t) Hashtbl.t = Hashtbl.create 64

let analysis_of (w : W.t) =
  match Hashtbl.find_opt analysis_cache (W.name w) with
  | Some a -> a
  | None ->
      let a = Analysis.analyze (W.parse w) w.W.launch in
      Hashtbl.replace analysis_cache (W.name w) a;
      a

let space_of (w : W.t) =
  Space.default ~total_work_items:(Launch.n_work_items w.W.launch)

(* Draw [n] feasible points uniformly (seeded). *)
let sample_feasible rng device base space n =
  let points = Array.of_list (Space.feasible_points device base space) in
  if Array.length points = 0 then []
  else List.init n (fun _ -> Prng.choose rng points)

(* Every single-switch ablation of [Model.options] — the axes the bench's
   ablation experiment turns off one at a time. Suites that claim a
   property "under every ablation" iterate this list. *)
let ablations =
  let d = Model.default_options in
  [
    ("no_cross_wi_coalescing", { d with Model.cross_wi_coalescing = false });
    ("no_warm_classification", { d with Model.warm_classification = false });
    ("no_bus_roofline", { d with Model.bus_roofline = false });
    ("no_multi_cu_dram_replay", { d with Model.multi_cu_dram_replay = false });
    ("vector_width_4", { d with Model.vector_width = 4 });
  ]

(* Default options plus each ablation, for "every options variant"
   sweeps. *)
let options_variants = ("default", Model.default_options) :: ablations

(* ------------------------------------------------------------------ *)
(* Golden regression rows: every bundled workload's best default-space
   design point on the default device (Virtex-7) at default options, as
   [(workload, config, cycles)] with cycles at full float precision.
   Computed through the staged oracle — bitwise-identical to the
   unspecialized model by the [test_specialize] contract — so
   [test/promote.ml] and [test/test_goldens.ml] agree by construction. *)

let golden_device = Flexcl_device.Device.virtex7

let golden_cycles_rows () =
  List.filter_map
    (fun w ->
      let base = analysis_of w in
      let space = space_of w in
      match
        Flexcl_dse.Parsweep.best ~num_domains:0 golden_device base space
          (Flexcl_dse.Explore.specialized_model_oracle golden_device)
      with
      | Some e, _ ->
          Some
            ( W.name w,
              Config.to_string e.Flexcl_dse.Parsweep.config,
              e.Flexcl_dse.Parsweep.cycles )
      | None, _ -> None)
    all_workloads

let golden_line (name, cfg, cycles) =
  Printf.sprintf "%s | %s | %.17g" name cfg cycles

(* ------------------------------------------------------------------ *)
(* qcheck generators *)

(* A random configuration, not necessarily feasible and not necessarily
   inside [Space.default] — wg sizes beyond the space exercise
   re-analysis and specialization fallback paths. *)
let qcheck_config =
  let open QCheck.Gen in
  let gen =
    let* wg = oneofl [ 16; 32; 64; 128; 256 ] in
    let* n_pe = oneofl [ 1; 2; 3; 4; 8; 16 ] in
    let* n_cu = oneofl [ 1; 2; 3; 4; 8 ] in
    let* wi_pipeline = bool in
    let+ comm_mode = oneofl [ Config.Barrier_mode; Config.Pipeline_mode ] in
    { Config.wg_size = wg; n_pe; n_cu; wi_pipeline; comm_mode }
  in
  QCheck.make ~print:Config.to_string gen

(* A random (workload, configuration) pair over the bundled corpus. *)
let qcheck_workload_config =
  let open QCheck.Gen in
  let names = Array.of_list (List.map W.name all_workloads) in
  let gen =
    let* name = oneofa names in
    let+ cfg = QCheck.gen qcheck_config in
    (name, cfg)
  in
  QCheck.make
    ~print:(fun (name, cfg) ->
      Printf.sprintf "%s %s" name (Config.to_string cfg))
    gen

(* ------------------------------------------------------------------ *)
(* Bitwise breakdown comparison: the names of the fields on which two
   breakdowns differ, floats compared via [Int64.bits_of_float]. *)

let field_diffs (a : Model.breakdown) (b : Model.breakdown) =
  let bits = Int64.bits_of_float in
  let d = ref [] in
  let fail name = d := name :: !d in
  let int name x y = if x <> y then fail name in
  let fl name x y = if bits x <> bits y then fail name in
  int "ii_wi" a.Model.ii_wi b.Model.ii_wi;
  int "depth_pe" a.depth_pe b.depth_pe;
  int "rec_mii" a.rec_mii b.rec_mii;
  int "res_mii" a.res_mii b.res_mii;
  fl "l_pe" a.l_pe b.l_pe;
  int "n_pe_eff" a.n_pe_eff b.n_pe_eff;
  fl "l_cu" a.l_cu b.l_cu;
  int "n_cu_eff" a.n_cu_eff b.n_cu_eff;
  fl "l_comp_kernel" a.l_comp_kernel b.l_comp_kernel;
  fl "l_mem_wi" a.l_mem_wi b.l_mem_wi;
  int "dsp_footprint" a.dsp_footprint b.dsp_footprint;
  fl "cycles" a.cycles b.cycles;
  fl "seconds" a.seconds b.seconds;
  if
    List.length a.pattern_counts <> List.length b.pattern_counts
    || not
         (List.for_all2
            (fun (p, c) (p', c') -> p = p' && bits c = bits c')
            a.pattern_counts b.pattern_counts)
  then fail "pattern_counts";
  List.rev !d

let check_bitwise ~label expect got =
  match field_diffs expect got with
  | [] -> ()
  | ds ->
      Alcotest.failf "%s: fields differ [%s]; cycles %.17g vs %.17g" label
        (String.concat ", " ds) expect.Model.cycles got.Model.cycles
