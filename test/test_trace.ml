(* The cycle-attribution trace layer: Trace data-structure unit tests,
   exact recomposition of [Model.explain] against [Model.estimate], and
   the foregrounded conservation property — every bundled workload ×
   seeded random feasible configs × both communication modes × every
   single-switch ablation of [Model.options]. *)

module Trace = Flexcl_util.Trace
module Json = Flexcl_util.Json
module Prng = Flexcl_util.Prng
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Analysis = Flexcl_core.Analysis
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Workload = Flexcl_workloads.Workload
module Launch = Flexcl_ir.Launch

let device = Thelpers.virtex7

(* ------------------------------------------------------------------ *)
(* Trace data structure *)

let sample_trace () =
  Trace.node ~eq:"Eq.0" "root"
    [
      Trace.leaf ~eq:"Eq.1" "a" 2.5 ~notes:[ ("ops", 3.0) ];
      Trace.node "b" [ Trace.leaf "b1" 1.0; Trace.leaf "b2" 0.5 ];
    ]

let test_node_sums () =
  let t = sample_trace () in
  Alcotest.(check (float 0.0)) "root sums children" 4.0 t.Trace.cycles;
  Alcotest.(check (float 0.0)) "total descends to leaves" 4.0 (Trace.total t);
  Alcotest.(check bool) "conservation holds" true
    (Result.is_ok (Trace.check t))

let test_check_catches_corruption () =
  let bad =
    Trace.node_at "root" 10.0 [ Trace.leaf "a" 1.0; Trace.leaf "b" 2.0 ]
  in
  match Trace.check bad with
  | Ok () -> Alcotest.fail "corrupted node passed the conservation check"
  | Error msg ->
      Alcotest.(check bool) "message names the node" true
        (Thelpers.contains msg "root")

let test_check_tolerance () =
  (* a 1-ulp discrepancy must pass; node_at with a value off by far less
     than the 1e-6 relative tolerance *)
  let t =
    Trace.node_at "root" (3.0 +. 1e-12) [ Trace.leaf "a" 1.0; Trace.leaf "b" 2.0 ]
  in
  Alcotest.(check bool) "ulp noise tolerated" true (Result.is_ok (Trace.check t))

let test_scale () =
  let t = Trace.scale 3.0 (sample_trace ()) in
  Alcotest.(check (float 1e-9)) "scaled root" 12.0 t.Trace.cycles;
  Alcotest.(check bool) "scaling preserves conservation" true
    (Result.is_ok (Trace.check t))

let test_find () =
  let t = sample_trace () in
  (match Trace.find t "b2" with
  | Some n -> Alcotest.(check (float 0.0)) "found leaf" 0.5 n.Trace.cycles
  | None -> Alcotest.fail "b2 not found");
  Alcotest.(check bool) "missing name" true (Trace.find t "zzz" = None)

let test_render () =
  let s = Trace.render (sample_trace ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " rendered") true (Thelpers.contains s needle))
    [ "root"; "[Eq.0]"; "b1"; "ops=3"; "└─" ]

let test_json_round_trip () =
  let t = sample_trace () in
  let s = Json.to_string (Trace.to_json t) in
  match Json.of_string s with
  | Error e -> Alcotest.fail ("printed trace does not parse: " ^ e)
  | Ok j -> (
      match Trace.of_json j with
      | Error e -> Alcotest.fail ("of_json failed: " ^ e)
      | Ok t' ->
          Alcotest.(check bool) "round-trip preserves the tree" true (t = t');
          Alcotest.(check string) "re-printing is byte-identical" s
            (Json.to_string (Trace.to_json t')))

let test_json_rejects_garbage () =
  List.iter
    (fun (label, j) ->
      match Trace.of_json j with
      | Ok _ -> Alcotest.fail (label ^ ": accepted malformed trace")
      | Error _ -> ())
    [
      ("not an object", Json.Num 3.0);
      ("missing name", Json.Obj [ ("cycles", Json.Num 1.0) ]);
      ("missing cycles", Json.Obj [ ("name", Json.Str "x") ]);
      ( "non-number note",
        Json.Obj
          [
            ("name", Json.Str "x");
            ("cycles", Json.Num 1.0);
            ("notes", Json.Obj [ ("k", Json.Str "v") ]);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Explain on the sample kernel: exact recomposition, determinism *)

let explain_modes () =
  let analysis = Thelpers.sample_analysis () in
  let base = { Config.default with Config.wg_size = 64 } in
  List.map
    (fun mode -> Model.explain device analysis { base with Config.comm_mode = mode })
    [ Config.Barrier_mode; Config.Pipeline_mode ]

let test_explain_matches_estimate () =
  let analysis = Thelpers.sample_analysis () in
  let base = { Config.default with Config.wg_size = 64 } in
  List.iter
    (fun mode ->
      let cfg = { base with Config.comm_mode = mode } in
      let b = Model.estimate device analysis cfg in
      let b', tr = Model.explain device analysis cfg in
      Gen.check_bitwise ~label:"explain breakdown agrees" b b';
      Alcotest.(check (float 0.0)) "trace root carries the prediction"
        b.Model.cycles tr.Trace.cycles)
    [ Config.Barrier_mode; Config.Pipeline_mode ]

let test_explain_conserves () =
  List.iter
    (fun (_, tr) ->
      match Trace.check tr with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    (explain_modes ())

let test_explain_deterministic () =
  let once () =
    List.map (fun (_, tr) -> Json.to_string (Trace.to_json tr)) (explain_modes ())
  in
  List.iter2
    (Alcotest.(check string) "repeated explain is byte-identical")
    (once ()) (once ())

let test_explain_has_schedule_detail () =
  List.iter
    (fun ((_ : Model.breakdown), tr) ->
      Alcotest.(check bool) "per-block leaves present" true
        (Trace.find tr "block b0" <> None);
      Alcotest.(check bool) "PE depth node present" true
        (Trace.find tr "PE depth (D_comp^PE)" <> None))
    (explain_modes ())

(* ------------------------------------------------------------------ *)
(* Foregrounded conservation property.

   For every bundled Rodinia/PolyBench workload, sample seeded random
   feasible configs across the default design space, alternate the
   communication mode deterministically, and assert on every explain:
   - the trace root carries exactly [breakdown.cycles],
   - every internal node's children sum to it (Trace.check),
   - the schedule-ceiling leaf stays within one cycle per round (the
     ceil of Eq. 1's region latency — a drift detector for the
     region-trace recursion).
   Every [ablate_every]-th sample additionally re-runs under each
   single-switch ablation of [Model.options]. *)

(* the single-switch ablations live in the shared test/gen.ml *)
let ablations = Gen.ablations

let check_one ?(device = device) ~label ~options analysis cfg =
  let b, tr = Model.explain ~options device analysis cfg in
  if Float.abs (tr.Trace.cycles -. b.Model.cycles)
     > 1e-9 *. Float.max 1.0 (Float.abs b.Model.cycles)
  then
    Alcotest.failf "%s: root %.17g but breakdown.cycles %.17g" label
      tr.Trace.cycles b.Model.cycles;
  (match Trace.check tr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e);
  (* ceiling drift: the schedule-ceiling leaf is [rounds × gap] with
     gap ∈ [0, 1); recover gap through the scaled depth node *)
  match (Trace.find tr "PE depth (D_comp^PE)", b.Model.depth_pe) with
  | Some depth_node, depth_pe when depth_pe > 0 && depth_node.Trace.cycles > 0.0
    -> (
      match
        List.find_opt
          (fun (c : Trace.t) -> c.Trace.name = "schedule ceiling")
          depth_node.Trace.children
      with
      | None -> Alcotest.failf "%s: depth node lost its ceiling leaf" label
      | Some ceil_leaf ->
          let gap =
            ceil_leaf.Trace.cycles *. float_of_int depth_pe
            /. depth_node.Trace.cycles
          in
          if gap < -1e-9 || gap >= 1.0 +. 1e-9 then
            Alcotest.failf "%s: schedule ceiling gap %.17g outside [0, 1)"
              label gap)
  | _ -> ()

let conservation_on_workload ~samples ~ablate_every (w : Workload.t) =
  let name = Workload.name w in
  match Analysis.of_source_result w.Workload.source w.Workload.launch with
  | Error _ -> Alcotest.failf "%s: workload failed to analyze" name
  | Ok analysis ->
      let n_wi = Launch.n_work_items w.Workload.launch in
      let space = Space.default ~total_work_items:n_wi in
      let feasible = Space.feasible_points device analysis space in
      if feasible = [] then Alcotest.failf "%s: empty feasible space" name;
      let pts = Array.of_list feasible in
      let rng = Prng.create (Hashtbl.hash name) in
      for i = 0 to samples - 1 do
        let cfg = Prng.choose rng pts in
        (* force both modes to appear regardless of the draw *)
        let cfg =
          {
            cfg with
            Config.comm_mode =
              (if i mod 2 = 0 then Config.Barrier_mode else Config.Pipeline_mode);
          }
        in
        (* reuse the sweep-wide memoized re-analysis: [Model.explain]
           would otherwise re-run the interpreter per sample *)
        let analysis = Analysis.with_wg_size analysis cfg.Config.wg_size in
        let label = Printf.sprintf "%s sample %d (%s)" name i
            (Config.to_string cfg)
        in
        check_one ~label ~options:Model.default_options analysis cfg;
        if i mod ablate_every = 0 then
          List.iter
            (fun (aname, options) ->
              check_one ~label:(label ^ " ablation " ^ aname) ~options analysis
                cfg)
            ablations
      done

let test_conservation_all_workloads () =
  let workloads = Gen.all_workloads in
  Alcotest.(check bool) "bundled workloads present" true (List.length workloads > 10);
  List.iter (conservation_on_workload ~samples:24 ~ablate_every:8) workloads

(* Deep sampling on two representative workloads (one per suite) brings
   the per-kernel draw count to the ~200 the conservation property is
   calibrated for, without scanning the whole corpus at that depth. *)
let test_conservation_deep () =
  let deep = [ "backprop/layer"; "gemm/gemm" ] in
  let workloads =
    List.filter (fun w -> List.mem (Workload.name w) deep) Gen.all_workloads
  in
  Alcotest.(check bool) "deep targets found" true (List.length workloads > 0);
  List.iter (conservation_on_workload ~samples:200 ~ablate_every:10) workloads

(* Conservation over the channel-roofline node (DESIGN.md §15): on
   multi-channel devices the explain trace either embeds the winning
   "memory (channel roofline)" subtree (whose per-channel children sum to
   the roofline) or records the losing roofline as a 0-cycle leaf; either
   way [Trace.check] must hold for every workload × device × placement. *)
let test_conservation_hbm_placements () =
  let devices = [ Flexcl_device.Device.ku060_2ddr; Flexcl_device.Device.u280 ] in
  let workloads = [ "bfs/bfs_1"; "mvt/mvt"; "gemm/gemm"; "hotspot/hotspot" ] in
  List.iter
    (fun device ->
      let n_channels =
        device.Flexcl_device.Device.dram.Flexcl_dram.Dram.n_channels
      in
      List.iter
        (fun name ->
          let w = Gen.find_workload name in
          let a0 = Analysis.of_source w.Workload.source w.Workload.launch in
          let buffers = Launch.buffer_names a0.Analysis.launch in
          let rng =
            Prng.create (Hashtbl.hash (name, device.Flexcl_device.Device.name))
          in
          let seeded_placement () =
            List.filter_map
              (fun b ->
                if Prng.int rng 2 = 0 then None
                else Some (b, Prng.int rng n_channels))
              buffers
          in
          let placements =
            [ []; Launch.round_robin_placement a0.Analysis.launch ~n_channels ]
            @ List.init 3 (fun _ -> seeded_placement ())
          in
          let n_wi = Launch.n_work_items w.Workload.launch in
          let space = Space.default ~total_work_items:n_wi in
          let feasible = Space.feasible_points device a0 space in
          if feasible = [] then Alcotest.failf "%s: empty feasible space" name;
          let pts = Array.of_list feasible in
          List.iteri
            (fun pi placement ->
              let a =
                if placement = [] then a0
                else Analysis.with_placement a0 placement
              in
              for i = 0 to 5 do
                let cfg = Prng.choose rng pts in
                let cfg =
                  {
                    cfg with
                    Config.comm_mode =
                      (if i mod 2 = 0 then Config.Barrier_mode
                       else Config.Pipeline_mode);
                  }
                in
                let a =
                  if cfg.Config.wg_size = Launch.wg_size a.Analysis.launch then a
                  else Analysis.with_wg_size a cfg.Config.wg_size
                in
                let label =
                  Printf.sprintf "%s@%s placement %d sample %d (%s)" name
                    device.Flexcl_device.Device.name pi i (Config.to_string cfg)
                in
                check_one ~device ~label ~options:Model.default_options a cfg;
                (* the roofline term is visible in the trace, win or lose *)
                let _, tr = Model.explain device a cfg in
                Alcotest.(check bool)
                  (label ^ ": roofline node present") true
                  (Trace.find tr "memory (channel roofline)" <> None
                  || Trace.find tr "channel roofline transfers" <> None
                  || Trace.find tr "channel roofline (not binding)" <> None)
              done)
            placements)
        workloads)
    devices

let suite =
  [
    Alcotest.test_case "node sums children" `Quick test_node_sums;
    Alcotest.test_case "check catches corruption" `Quick test_check_catches_corruption;
    Alcotest.test_case "check tolerates ulp noise" `Quick test_check_tolerance;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "find" `Quick test_find;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "explain matches estimate" `Quick test_explain_matches_estimate;
    Alcotest.test_case "explain conserves cycles" `Quick test_explain_conserves;
    Alcotest.test_case "explain is deterministic" `Quick test_explain_deterministic;
    Alcotest.test_case "explain has schedule detail" `Quick test_explain_has_schedule_detail;
    Alcotest.test_case "conservation across all workloads" `Slow
      test_conservation_all_workloads;
    Alcotest.test_case "conservation deep sampling" `Slow test_conservation_deep;
    Alcotest.test_case "conservation on HBM devices x placements" `Slow
      test_conservation_hbm_placements;
  ]
