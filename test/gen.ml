(* Shared seeded generators for the test suites (test/gen.ml).

   One home for the workload/analysis/design-point machinery that the
   differential suites (test_parsweep, test_trace, test_specialize) all
   need: the bundled workload list, a per-kernel analysis cache, the
   default design space, seeded feasible-point sampling, the
   single-switch options ablations, qcheck generators for random
   configurations, the bitwise breakdown comparison, and the golden
   files' readers and rows (cycles and profiles). Keeping them
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

(* ------------------------------------------------------------------ *)
(* Golden files: `dune runtest` runs with cwd = the build's test
   directory (where the dune deps stanza staged the goldens); a bare
   `dune exec test/test_main.exe` runs from the project root — accept
   both. [golden_data] drops blank and [#] comment lines. *)

let golden_path file =
  let candidates =
    [
      Filename.concat "goldens" file;
      Filename.concat (Filename.concat "test" "goldens") file;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let golden_data file =
  read_lines (golden_path file) |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* ------------------------------------------------------------------ *)
(* Profile golden rows (test/goldens/profiles.golden): a digest of the
   whole interpreter profile of every launch the model is fed, so a
   change to the interpreter that moves any trip count, trace entry,
   pipe count or buffer value — even by one ulp — fails loudly.

   The digest is [Flexcl_util.Hash] over a canonical rendering: trip
   averages and pipe counts with [%h], maximum trips, the profiled
   work-item count, every work-item trace in order, and the final
   buffer contents sorted by name. *)

module Interp = Flexcl_interp.Interp
module Hash = Flexcl_util.Hash

let profile_digest (p : Interp.profile) =
  let h = ref Hash.init in
  let add s = h := Hash.add_string !h s in
  let b = Buffer.create 4096 in
  let flush () =
    add (Buffer.contents b);
    Buffer.clear b
  in
  let put fmt = Printf.bprintf b fmt in
  List.iter (fun (id, t) -> put "avg %d %h\n" id t) p.Interp.avg_trips;
  List.iter (fun (id, m) -> put "max %d %d\n" id m) p.Interp.max_trips;
  put "profiled %d\n" p.Interp.n_work_items_profiled;
  List.iter
    (fun (name, (r, w)) -> put "pipe %s %h %h\n" name r w)
    p.Interp.pipe_counts;
  flush ();
  Array.iteri
    (fun wi trace ->
      put "wi %d\n" wi;
      List.iter
        (fun (a : Interp.access) ->
          put "%c %s %d %d\n"
            (match a.Interp.kind with `Read -> 'r' | `Write -> 'w')
            a.Interp.array a.Interp.index a.Interp.elem_bits)
        trace;
      flush ())
    p.Interp.wi_traces;
  List.iter
    (fun (name, buf) ->
      put "buffer %s %d\n" name (Array.length buf);
      Array.iter
        (function
          | Interp.I i -> put "%Ld\n" i | Interp.F f -> put "%h\n" f)
        buf;
      flush ())
    (List.sort (fun (x, _) (y, _) -> compare x y) p.Interp.buffers);
  Hash.to_hex !h

(* Profiles are taken the way [Analysis.analyze] takes them. *)
let profile_work_groups = 3

let profile_of_source src launch =
  let k = Flexcl_opencl.Parser.parse_kernel src in
  Interp.run ~max_work_groups:profile_work_groups k
    (Flexcl_opencl.Sema.analyze k) launch

let profile_of_analysis (a : Analysis.t) =
  Interp.run ~max_work_groups:profile_work_groups a.Analysis.kernel
    a.Analysis.sema a.Analysis.launch

(* [(name, wg, digest)]: every Rodinia and PolyBench kernel at its own
   launch and at every other work-group size of its default space (the
   launches a cold explore profiles), every pipeline stage, and the
   sample kernel of [Thelpers]. *)
let profile_digest_rows () =
  let corpus =
    List.concat_map
      (fun w ->
        let base = analysis_of w in
        let own = Launch.wg_size base.Analysis.launch in
        let others = List.filter (( <> ) own) (space_of w).Space.wg_sizes in
        List.map
          (fun wg ->
            let a = Analysis.with_wg_size base wg in
            (W.name w, wg, profile_digest (profile_of_analysis a)))
          (own :: others))
      all_workloads
  in
  let stages =
    List.concat_map
      (fun (p : Flexcl_workloads.Pipelines.t) ->
        List.map
          (fun (stage, src, launch) ->
            ( p.Flexcl_workloads.Pipelines.name ^ ":" ^ stage,
              Launch.wg_size launch,
              profile_digest (profile_of_source src launch) ))
          p.Flexcl_workloads.Pipelines.stages)
      Flexcl_workloads.Pipelines.all
  in
  let sample =
    ( "sample",
      Launch.wg_size Thelpers.sample_launch,
      profile_digest
        (profile_of_source Thelpers.sample_kernel_src Thelpers.sample_launch) )
  in
  corpus @ stages @ [ sample ]

(* Exact-fuel kernels: small launches whose step count pins the fuel
   rule (one step per executed statement, loop init and step included,
   plus one per loop iteration). Serve turns [deadline_ms] into fuel, so
   these rows keep its verdicts from drifting. *)
let fuel_kernels =
  let out n = ("out", Launch.Buffer { length = n; init = Launch.Zeros }) in
  let launch ?(n = 64) ?(wg = 16) args =
    Launch.make ~global:(Launch.dim3 n) ~local:(Launch.dim3 wg) ~args
  in
  [
    ( "while-break-continue",
      {|__kernel void f(__global int* out) {
          int g = get_global_id(0);
          int i = 0;
          int acc = 0;
          while (1) {
            i = i + 1;
            if (i > g % 7 + 3) { break; }
            if (i % 2 == 0) { continue; }
            acc += i;
          }
          out[g] = acc;
        }|},
      launch [ out 64 ] );
    ( "nested-barrier",
      {|__kernel void f(__global const float* a, __global float* out) {
          __local float t[16];
          int lid = get_local_id(0);
          int gid = get_global_id(0);
          for (int s = 1; s < 16; s = s * 2) {
            t[lid] = a[gid] + (float)s;
            barrier(CLK_LOCAL_MEM_FENCE);
            if (lid >= s) { out[gid] = t[lid - s]; }
          }
        }|},
      launch
        [ ("a", Launch.Buffer { length = 64; init = Launch.Ramp }); out 64 ] );
    ( "return-in-loop",
      {|__kernel void f(__global int* out, int n) {
          int g = get_global_id(0);
          int acc = 0;
          for (int i = 0; i < n; i++) {
            if (i == g % 5) { out[g] = acc; return; }
            acc += i;
          }
          out[g] = -1;
        }|},
      launch [ out 64; ("n", Launch.Scalar (Launch.Int 4L)) ] );
    ("sample", Thelpers.sample_kernel_src, Thelpers.sample_launch);
  ]

let fuel_runs src launch max_steps =
  let k = Flexcl_opencl.Parser.parse_kernel src in
  let info = Flexcl_opencl.Sema.analyze k in
  match
    Interp.run ~max_work_groups:profile_work_groups ~max_steps k info launch
  with
  | _ -> true
  | exception Interp.Profile_budget_exceeded _ -> false

(* The smallest [max_steps] for which the run succeeds (fuel exhaustion
   is monotone in [max_steps]). *)
let min_fuel src launch =
  let rec search lo hi =
    (* invariant: fails at [lo], succeeds at [hi] *)
    if hi - lo <= 1 then hi
    else
      let mid = lo + ((hi - lo) / 2) in
      if fuel_runs src launch mid then search lo mid else search mid hi
  in
  search 0 Interp.default_max_steps

let fuel_rows () =
  List.map
    (fun (name, src, launch) ->
      ("fuel/" ^ name, Launch.wg_size launch, string_of_int (min_fuel src launch)))
    fuel_kernels

let profile_line (name, wg, value) = Printf.sprintf "%s | %d | %s" name wg value
