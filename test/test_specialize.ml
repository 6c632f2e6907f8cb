(* Differential lockdown of the staged model (Model.specialize,
   DESIGN.md §11). [Model.estimate] is the staged tail on a fresh
   one-point specialization, so these check that a specialization
   reused across a sweep — its per-DSP-share stage memo shared by every
   point and every domain — gives the same bits as a fresh one:

   - exhaustive: for every bundled Rodinia/PolyBench workload, every
     feasible point of the default design space (both communication
     modes), under default options and every single-switch ablation,
     [specialized_estimate] equals [Model.estimate] on every breakdown
     field, floats compared via [Int64.bits_of_float];
   - engine: a [Parsweep.sweep] on the specialized oracle returns
     bit-for-bit the ranking of the per-point oracle at 0 and 4 domains,
     and pruned [best] with [specialized_bound] returns exactly the
     unpruned winner, also at 4 domains on a freshly analyzed kernel;
   - bound: [specialized_lower_bound] is bitwise [Model.lower_bound];
   - fallback: a design point whose wg size differs from the staged
     launch takes the full-estimate path and still agrees bitwise;
   - qcheck: random (workload, config) pairs — including infeasible
     knobs and wg sizes outside the space — agree bitwise whenever the
     reference path computes, and fail identically when it raises. *)

module W = Flexcl_workloads.Workload
module Launch = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Space = Flexcl_dse.Space
module Parsweep = Flexcl_dse.Parsweep
module Explore = Flexcl_dse.Explore
module Prng = Flexcl_util.Prng

let check = Alcotest.check
let dev = Device.virtex7
let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Exhaustive: every workload × every feasible point × every options
   variant. Points are grouped per wg size so each (wg, options) pair
   stages exactly one specialization, like a sweep chunk does. *)

let test_exhaustive_differential () =
  let points = ref 0 in
  List.iter
    (fun w ->
      let base = Gen.analysis_of w in
      let space = Gen.space_of w in
      let feasible = Space.feasible_points dev base space in
      let by_wg = Hashtbl.create 8 in
      List.iter
        (fun (c : Config.t) ->
          let l =
            match Hashtbl.find_opt by_wg c.Config.wg_size with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add by_wg c.Config.wg_size l;
                l
          in
          l := c :: !l)
        feasible;
      Hashtbl.iter
        (fun wg cfgs ->
          let a = Explore.analysis_for base wg in
          List.iter
            (fun (oname, options) ->
              let sp = Model.specialize ~options dev a in
              List.iter
                (fun cfg ->
                  incr points;
                  Gen.check_bitwise
                    ~label:
                      (Printf.sprintf "%s %s [%s]" (W.name w)
                         (Config.to_string cfg) oname)
                    (Model.estimate ~options dev a cfg)
                    (Model.specialized_estimate sp cfg))
                !cfgs)
            Gen.options_variants)
        by_wg)
    Gen.all_workloads;
  check Alcotest.bool "covered a real point count" true (!points > 10_000)

(* ------------------------------------------------------------------ *)
(* Engine-level identity: rankings and pruned best *)

let show_point (e : Parsweep.evaluated) =
  Printf.sprintf "%s @ %.17g" (Config.to_string e.Parsweep.config)
    e.Parsweep.cycles

let test_sweep_ranking_identical () =
  List.iter
    (fun name ->
      let w = Gen.find_workload name in
      let base = Gen.analysis_of w in
      let space = Gen.space_of w in
      let expect =
        Parsweep.sweep ~num_domains:0 dev base space (Explore.model_oracle dev)
      in
      List.iter
        (fun nd ->
          let got =
            Parsweep.sweep ~num_domains:nd dev base space
              (Explore.specialized_model_oracle dev)
          in
          check Alcotest.bool
            (Printf.sprintf "%s: specialized ranking bit-identical @ %d domains"
               name nd)
            true (expect = got))
        [ 0; 4 ])
    [ "hotspot/hotspot"; "backprop/layer"; "gemm/gemm"; "nn/nn" ]

let check_pruned_best ~num_domains ~label base space =
  let plain, _ =
    Parsweep.best ~num_domains:0 dev base space (Explore.model_oracle dev)
  in
  let pruned, stats =
    Parsweep.best ~num_domains ~bound:(Explore.specialized_bound dev) dev base
      space
      (Explore.specialized_model_oracle dev)
  in
  let show = function Some e -> show_point e | None -> "none" in
  check Alcotest.string label (show plain) (show pruned);
  check Alcotest.bool
    (Printf.sprintf "%s: counters cover the space" label)
    true
    (stats.Parsweep.evaluated + stats.Parsweep.pruned + stats.Parsweep.failed
    = stats.Parsweep.total)

let test_pruned_best_identical () =
  List.iter
    (fun w ->
      check_pruned_best ~num_domains:0 ~label:(W.name w) (Gen.analysis_of w)
        (Gen.space_of w))
    Gen.all_workloads;
  (* a kernel analyzed afresh has no specialization yet: at 4 domains the
     chunks of one work-group size stage it, and its per-DSP-share
     schedules, concurrently *)
  List.iter
    (fun name ->
      let w = Gen.find_workload name in
      check_pruned_best ~num_domains:4
        ~label:(name ^ " (fresh analysis, 4 domains)")
        (Analysis.analyze (W.parse w) w.W.launch)
        (Gen.space_of w))
    [ "hotspot/hotspot"; "backprop/layer"; "gemm/gemm" ]

let test_specialized_bound_bitwise () =
  let rng = Prng.create 0x5bec1a1 in
  let checked = ref 0 in
  List.iter
    (fun w ->
      let base = Gen.analysis_of w in
      let space = Gen.space_of w in
      List.iter
        (fun (c : Config.t) ->
          let a = Explore.analysis_for base c.Config.wg_size in
          let sp = Model.specialize dev a in
          incr checked;
          let expect = Model.lower_bound dev a c in
          let got = Model.specialized_lower_bound sp c in
          if bits expect <> bits got then
            Alcotest.failf "%s %s: bound %.17g vs %.17g" (W.name w)
              (Config.to_string c) expect got)
        (Gen.sample_feasible rng dev base space 8))
    Gen.all_workloads;
  check Alcotest.bool "sampled enough points" true (!checked >= 300)

(* ------------------------------------------------------------------ *)
(* wg-size fallback *)

let test_wg_mismatch_falls_back () =
  let w = Gen.find_workload "hotspot/hotspot" in
  let base = Gen.analysis_of w in
  let wg0 = Launch.wg_size base.Analysis.launch in
  let sp = Model.specialize dev base in
  check Alcotest.bool "staged analysis is the input" true
    (Model.specialized_analysis sp == base);
  List.iter
    (fun wg ->
      if wg <> wg0 then
        let cfg =
          {
            Config.wg_size = wg;
            n_pe = 2;
            n_cu = 2;
            wi_pipeline = true;
            comm_mode = Config.Pipeline_mode;
          }
        in
        Gen.check_bitwise
          ~label:(Printf.sprintf "fallback wg%d" wg)
          (Model.estimate dev base cfg)
          (Model.specialized_estimate sp cfg))
    [ 32; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* qcheck: random (workload, config) pairs, any wg size, any knobs *)

let run_both (name, cfg) =
  let w = Gen.find_workload name in
  let base = Gen.analysis_of w in
  let sp = Model.specialize dev base in
  let wrap f = try Ok (f ()) with exn -> Error (Printexc.to_string exn) in
  let expect = wrap (fun () -> Model.estimate dev base cfg) in
  let got = wrap (fun () -> Model.specialized_estimate sp cfg) in
  (expect, got)

let prop_random_configs =
  QCheck.Test.make ~name:"random configs agree bitwise (or fail identically)"
    ~count:250 Gen.qcheck_workload_config (fun (name, cfg) ->
      match run_both (name, cfg) with
      | Ok expect, Ok got ->
          (match Gen.field_diffs expect got with
          | [] -> true
          | ds ->
              QCheck.Test.fail_reportf "%s %s: fields differ [%s]" name
                (Config.to_string cfg)
                (String.concat ", " ds))
      | Error _, Error _ ->
          (* both paths reject the point (e.g. wg size incompatible with
             the NDRange): agreement is all the contract asks *)
          true
      | Ok _, Error e ->
          QCheck.Test.fail_reportf "%s %s: specialized failed (%s)" name
            (Config.to_string cfg) e
      | Error e, Ok _ ->
          QCheck.Test.fail_reportf "%s %s: only reference failed (%s)" name
            (Config.to_string cfg) e)

let suite =
  let t = Alcotest.test_case in
  [
    t "specialize: bitwise differential, all workloads × points × ablations"
      `Slow test_exhaustive_differential;
    t "specialize: sweep ranking identical at 0/4 domains" `Slow
      test_sweep_ranking_identical;
    t "specialize: pruned best = exact best, all workloads" `Slow
      test_pruned_best_identical;
    t "specialize: lower bound bitwise equal" `Slow
      test_specialized_bound_bitwise;
    t "specialize: wg mismatch falls back to estimate" `Quick
      test_wg_mismatch_falls_back;
    QCheck_alcotest.to_alcotest prop_random_configs;
  ]
