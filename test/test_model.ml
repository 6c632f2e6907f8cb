(* Tests for the device descriptions, the FlexCL analytical model, the
   ground-truth simulator, the SDAccel-like baseline and the DSE engine. *)

module Device = Flexcl_device.Device
module Opcode = Flexcl_ir.Opcode
module Launch = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Sysrun = Flexcl_simrtl.Sysrun
module Sdaccel = Flexcl_simrtl.Sdaccel_estimate
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module Stats = Flexcl_util.Stats

let check = Alcotest.check
let dev = Device.virtex7

let cfg ?(wg = 64) ?(pe = 1) ?(cu = 1) ?(pipe = false) ?(mode = Config.Barrier_mode) () =
  { Config.wg_size = wg; n_pe = pe; n_cu = cu; wi_pipeline = pipe; comm_mode = mode }

(* ------------------------------------------------------------------ *)
(* Device *)

let test_device_latency_is_variant_mean () =
  List.iter
    (fun op ->
      let v = Device.op_variants dev op in
      let sum = Array.fold_left ( + ) 0 v in
      let mean = (sum + (Array.length v / 2)) / Array.length v in
      check Alcotest.int (Opcode.to_string op) mean (Device.op_latency dev op))
    Opcode.all

let test_device_variant_in_set () =
  List.iter
    (fun op ->
      for salt = 0 to 50 do
        let l = Device.variant_latency dev op ~salt in
        check Alcotest.bool "variant from set" true
          (Array.exists (fun x -> x = l) (Device.op_variants dev op))
      done)
    Opcode.all

let test_device_zero_latency_ops () =
  check Alcotest.int "live_in free" 0 (Device.op_latency dev Opcode.Live_in);
  check Alcotest.int "const free" 0 (Device.op_latency dev Opcode.Const_op);
  check Alcotest.int "wi query free" 0 (Device.op_latency dev Opcode.Wi_query)

let test_device_platforms_differ () =
  check Alcotest.bool "UltraScale float add faster" true
    (Device.op_latency Device.ku060 Opcode.Float_add
    < Device.op_latency Device.virtex7 Opcode.Float_add);
  check Alcotest.bool "fewer DSPs on KU060" true
    (Device.ku060.Device.dsp_total < Device.virtex7.Device.dsp_total)

let test_device_ports () =
  check Alcotest.int "read ports" 4 (Device.local_read_ports dev);
  check Alcotest.int "write ports" 4 (Device.local_write_ports dev)

let test_cycles_to_seconds () =
  check (Alcotest.float 1e-12) "200 MHz" 1e-6 (Device.cycles_to_seconds dev 200.0)

(* ------------------------------------------------------------------ *)
(* Model basics on the shared sample kernel *)

let analysis = lazy (Thelpers.sample_analysis ())

let estimate ?wg ?pe ?cu ?pipe ?mode () =
  Model.estimate dev (Lazy.force analysis) (cfg ?wg ?pe ?cu ?pipe ?mode ())

let test_model_positive_cycles () =
  let b = estimate () in
  check Alcotest.bool "cycles > 0" true (b.Model.cycles > 0.0);
  check Alcotest.bool "seconds consistent" true
    (Float.abs (b.Model.seconds -. Device.cycles_to_seconds dev b.Model.cycles) < 1e-12)

let test_model_eq1_structure () =
  (* Eq. 1: L_PE = II (N_wi - 1) + D *)
  let b = estimate ~pipe:true () in
  check (Alcotest.float 1e-6) "Eq. 1"
    ((float_of_int b.Model.ii_wi *. 63.0) +. float_of_int b.Model.depth_pe)
    b.Model.l_pe

let test_model_pipelining_helps () =
  let nopipe = estimate ~mode:Config.Pipeline_mode () in
  let pipe = estimate ~pipe:true ~mode:Config.Pipeline_mode () in
  check Alcotest.bool "work-item pipelining reduces cycles" true
    (pipe.Model.cycles < nopipe.Model.cycles)

let test_model_ii_at_least_mii () =
  let b = estimate ~pipe:true () in
  check Alcotest.bool "ii >= rec" true (b.Model.ii_wi >= b.Model.rec_mii);
  check Alcotest.bool "ii >= res" true (b.Model.ii_wi >= b.Model.res_mii)

let test_model_more_cu_never_slower () =
  let one = estimate ~cu:1 ~pipe:true ~mode:Config.Pipeline_mode () in
  let four = estimate ~cu:4 ~pipe:true ~mode:Config.Pipeline_mode () in
  check Alcotest.bool "cu scaling monotone" true
    (four.Model.cycles <= one.Model.cycles +. 1e-6)

let test_model_more_pe_never_slower () =
  let one = estimate ~pe:1 ~pipe:true ~mode:Config.Pipeline_mode () in
  let four = estimate ~pe:4 ~pipe:true ~mode:Config.Pipeline_mode () in
  check Alcotest.bool "pe scaling monotone" true
    (four.Model.cycles <= one.Model.cycles +. 1e-6)

let test_model_pattern_counts_nonnegative () =
  let b = estimate () in
  check Alcotest.int "8 patterns" 8 (List.length b.Model.pattern_counts);
  List.iter
    (fun (_, c) -> check Alcotest.bool "count >= 0" true (c >= 0.0))
    b.Model.pattern_counts

let test_model_eq9_memory_latency () =
  (* Eq. 9: L_mem is the dot product of counts and the profiled table *)
  let b = estimate () in
  let table = Model.pattern_latencies dev in
  let expected =
    List.fold_left
      (fun acc (p, c) -> acc +. (c *. List.assoc p table))
      0.0 b.Model.pattern_counts
  in
  check (Alcotest.float 1e-6) "Eq. 9" expected b.Model.l_mem_wi

let test_model_feasible () =
  check Alcotest.bool "modest config feasible" true
    (Model.feasible dev (Lazy.force analysis) (cfg ()));
  check Alcotest.bool "absurd CU count infeasible" false
    (Model.feasible dev (Lazy.force analysis) (cfg ~cu:1000 ()));
  check Alcotest.bool "pe > wg infeasible" false
    (Model.feasible dev (Lazy.force analysis) (cfg ~wg:32 ~pe:64 ()))

let test_model_bottleneck_strings () =
  let b = estimate ~pipe:true ~mode:Config.Pipeline_mode () in
  let known =
    [ "global memory"; "recurrence"; "local-memory ports"; "DSP"; "compute depth";
      "scheduling overhead" ]
  in
  check Alcotest.bool "bottleneck is a known label" true
    (List.mem (Model.bottleneck b) known)

let test_model_wg_size_reanalysis () =
  (* estimate with a different wg size re-analyzes transparently *)
  let b = estimate ~wg:128 () in
  check Alcotest.bool "positive" true (b.Model.cycles > 0.0)

let test_model_recurrence_kernel () =
  (* accumulator into a shared location forces RecMII above 1 *)
  let launch =
    Launch.make ~global:(Launch.dim3 256) ~local:(Launch.dim3 64)
      ~args:[ ("out", Launch.Buffer { length = 8; init = Launch.Zeros }) ]
  in
  let a =
    Analysis.of_source
      {|__kernel void acc(__global float* out) {
          out[0] = out[0] + 1.0f;
        }|}
      launch
  in
  let b = Model.estimate dev a (cfg ~pipe:true ~mode:Config.Pipeline_mode ()) in
  check Alcotest.bool "rec mii > 1" true (b.Model.rec_mii > 1);
  check Alcotest.bool "ii reflects recurrence" true (b.Model.ii_wi >= b.Model.rec_mii)

let test_model_determinism () =
  let a = estimate () and b = estimate () in
  check (Alcotest.float 0.0) "bitwise equal" a.Model.cycles b.Model.cycles

(* ------------------------------------------------------------------ *)
(* Sysrun *)

let test_sysrun_positive_and_deterministic () =
  let r1 = Sysrun.run dev (Lazy.force analysis) (cfg ()) in
  let r2 = Sysrun.run dev (Lazy.force analysis) (cfg ()) in
  check Alcotest.bool "positive" true (r1.Sysrun.cycles > 0.0);
  check (Alcotest.float 0.0) "deterministic" r1.Sysrun.cycles r2.Sysrun.cycles

let test_sysrun_seed_changes_result () =
  let r1 = Sysrun.run ~seed:1 dev (Lazy.force analysis) (cfg ()) in
  let r2 = Sysrun.run ~seed:2 dev (Lazy.force analysis) (cfg ()) in
  check Alcotest.bool "different synthesis outcomes" true
    (r1.Sysrun.cycles <> r2.Sysrun.cycles)

let test_sysrun_memory_traffic () =
  let r = Sysrun.run dev (Lazy.force analysis) (cfg ()) in
  check Alcotest.bool "simulated transactions" true (r.Sysrun.mem_transactions > 0)

let test_model_tracks_sysrun () =
  (* the headline property: the analytical model lands near the simulator *)
  let configs =
    [
      cfg ();
      cfg ~pipe:true ~mode:Config.Pipeline_mode ();
      cfg ~pe:4 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ();
      cfg ~wg:128 ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ();
    ]
  in
  let errs =
    List.map
      (fun c ->
        let m = Model.cycles dev (Lazy.force analysis) c in
        let s = (Sysrun.run dev (Lazy.force analysis) c).Sysrun.cycles in
        Stats.abs_pct_error ~actual:s ~predicted:m)
      configs
  in
  check Alcotest.bool
    (Printf.sprintf "mean error %.1f%% below 20%%" (Stats.mean errs))
    true
    (Stats.mean errs < 20.0)

(* ------------------------------------------------------------------ *)
(* SDAccel baseline *)

let test_sdaccel_unsupported_shapes () =
  check Alcotest.bool "high PE replication fails" false
    (Sdaccel.supported (Lazy.force analysis) (cfg ~pe:8 ()));
  check Alcotest.bool "multi-CU with local memory fails" false
    (Sdaccel.supported (Lazy.force analysis) (cfg ~cu:4 ()))

let test_sdaccel_failure_rate_band () =
  (* across the design space, a realistic fraction of points fails *)
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let pts = Space.feasible_points dev a space in
  let failures =
    List.length (List.filter (fun c -> not (Sdaccel.supported a c)) pts)
  in
  let rate = float_of_int failures /. float_of_int (List.length pts) in
  check Alcotest.bool (Printf.sprintf "failure rate %.0f%% in [20%%, 60%%]" (rate *. 100.))
    true
    (rate > 0.2 && rate < 0.6)

let test_sdaccel_worse_than_flexcl () =
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let pts =
    Space.feasible_points dev a space
    |> List.filter (Sdaccel.supported a)
    |> List.filteri (fun i _ -> i mod 4 = 0)
  in
  let pairs =
    List.map
      (fun c ->
        let a' = Analysis.with_wg_size a c.Config.wg_size in
        let s = (Sysrun.run dev a' c).Sysrun.cycles in
        let m = Model.cycles dev a' c in
        let sd = Option.get (Sdaccel.estimate dev a' c) in
        ( Stats.abs_pct_error ~actual:s ~predicted:m,
          Stats.abs_pct_error ~actual:s ~predicted:sd ))
      pts
  in
  let flexcl = Stats.mean (List.map fst pairs) in
  let sdaccel = Stats.mean (List.map snd pairs) in
  check Alcotest.bool
    (Printf.sprintf "flexcl %.1f%% < sdaccel %.1f%%" flexcl sdaccel)
    true (flexcl < sdaccel)

(* ------------------------------------------------------------------ *)
(* DSE *)

let test_space_default_shape () =
  let s = Space.default ~total_work_items:1024 in
  check Alcotest.int "4 wg sizes" 4 (List.length s.Space.wg_sizes);
  check Alcotest.int "raw points" 192 (Space.size s)

let test_space_respects_divisibility () =
  let s = Space.default ~total_work_items:96 in
  List.iter
    (fun w -> check Alcotest.int "divides" 0 (96 mod w))
    s.Space.wg_sizes

let test_exhaustive_sorted () =
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let evald = Explore.exhaustive dev a space (Explore.model_oracle dev) in
  check Alcotest.bool "non-empty" true (evald <> []);
  let rec sorted = function
    | x :: y :: rest -> x.Explore.cycles <= y.Explore.cycles && sorted (y :: rest)
    | _ -> true
  in
  check Alcotest.bool "ascending" true (sorted evald)

let test_best_beats_default () =
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let best = Explore.best dev a space (Explore.model_oracle dev) in
  let default_cost = Model.cycles dev a Config.default in
  check Alcotest.bool "best <= default" true (best.Explore.cycles <= default_cost)

let test_heuristic_not_better_than_exhaustive () =
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let oracle = Explore.model_oracle dev in
  let best = Explore.best dev a space oracle in
  let greedy = Heuristic.search dev a space oracle in
  check Alcotest.bool "greedy >= optimal" true
    (greedy.Explore.cycles >= best.Explore.cycles -. 1e-9)

let test_quality_vs_optimal () =
  let truth (c : Config.t) = float_of_int (c.Config.n_pe * 100) in
  let all = [ cfg ~pe:1 (); cfg ~pe:2 (); cfg ~pe:4 () ] in
  check (Alcotest.float 1e-9) "picked optimal" 0.0
    (Explore.quality_vs_optimal ~picked:(cfg ~pe:1 ()) ~truth ~all);
  check (Alcotest.float 1e-9) "picked 2x" 100.0
    (Explore.quality_vs_optimal ~picked:(cfg ~pe:2 ()) ~truth ~all)

let test_flexcl_choice_near_true_optimum () =
  (* §4.3: the design FlexCL picks is close to the simulator's optimum *)
  let a = Lazy.force analysis in
  let space = Space.default ~total_work_items:1024 in
  let picked = (Explore.best dev a space (Explore.model_oracle dev)).Explore.config in
  let pts = Space.feasible_points dev a space in
  let truth c =
    (Sysrun.run dev (Analysis.with_wg_size a c.Config.wg_size) c).Sysrun.cycles
  in
  (* evaluating the full truth for every point is slow; subsample plus
     the picked config *)
  let sample = List.filteri (fun i _ -> i mod 6 = 0) pts in
  let sample = if List.mem picked sample then sample else picked :: sample in
  let gap = Explore.quality_vs_optimal ~picked ~truth ~all:sample in
  check Alcotest.bool (Printf.sprintf "gap %.1f%% below 15%%" gap) true (gap < 15.0)

let suite =
  [
    Alcotest.test_case "device: latency is variant mean" `Quick
      test_device_latency_is_variant_mean;
    Alcotest.test_case "device: variants well-formed" `Quick test_device_variant_in_set;
    Alcotest.test_case "device: free ops" `Quick test_device_zero_latency_ops;
    Alcotest.test_case "device: platforms differ" `Quick test_device_platforms_differ;
    Alcotest.test_case "device: local ports" `Quick test_device_ports;
    Alcotest.test_case "device: clock conversion" `Quick test_cycles_to_seconds;
    Alcotest.test_case "model: positive cycles" `Quick test_model_positive_cycles;
    Alcotest.test_case "model: Eq. 1 structure" `Quick test_model_eq1_structure;
    Alcotest.test_case "model: pipelining helps" `Quick test_model_pipelining_helps;
    Alcotest.test_case "model: II >= MII" `Quick test_model_ii_at_least_mii;
    Alcotest.test_case "model: CU monotone" `Quick test_model_more_cu_never_slower;
    Alcotest.test_case "model: PE monotone" `Quick test_model_more_pe_never_slower;
    Alcotest.test_case "model: pattern counts" `Quick test_model_pattern_counts_nonnegative;
    Alcotest.test_case "model: Eq. 9 memory latency" `Quick test_model_eq9_memory_latency;
    Alcotest.test_case "model: feasibility" `Quick test_model_feasible;
    Alcotest.test_case "model: bottleneck labels" `Quick test_model_bottleneck_strings;
    Alcotest.test_case "model: wg re-analysis" `Quick test_model_wg_size_reanalysis;
    Alcotest.test_case "model: recurrence kernel" `Quick test_model_recurrence_kernel;
    Alcotest.test_case "model: determinism" `Quick test_model_determinism;
    Alcotest.test_case "sysrun: deterministic" `Quick test_sysrun_positive_and_deterministic;
    Alcotest.test_case "sysrun: seed sensitivity" `Quick test_sysrun_seed_changes_result;
    Alcotest.test_case "sysrun: memory traffic" `Quick test_sysrun_memory_traffic;
    Alcotest.test_case "model vs sysrun accuracy" `Slow test_model_tracks_sysrun;
    Alcotest.test_case "sdaccel: unsupported shapes" `Quick test_sdaccel_unsupported_shapes;
    Alcotest.test_case "sdaccel: failure-rate band" `Quick test_sdaccel_failure_rate_band;
    Alcotest.test_case "sdaccel: worse than flexcl" `Slow test_sdaccel_worse_than_flexcl;
    Alcotest.test_case "dse: default space shape" `Quick test_space_default_shape;
    Alcotest.test_case "dse: wg divisibility" `Quick test_space_respects_divisibility;
    Alcotest.test_case "dse: exhaustive sorted" `Quick test_exhaustive_sorted;
    Alcotest.test_case "dse: best beats default" `Quick test_best_beats_default;
    Alcotest.test_case "dse: greedy is no better" `Quick
      test_heuristic_not_better_than_exhaustive;
    Alcotest.test_case "dse: quality metric" `Quick test_quality_vs_optimal;
    Alcotest.test_case "dse: picked near optimum" `Slow test_flexcl_choice_near_true_optimum;
  ]

(* ------------------------------------------------------------------ *)
(* Ablation options and vectorization (appended suite) *)

let test_options_default_neutral () =
  (* estimate with explicit default options equals the plain estimate *)
  let a = Lazy.force analysis in
  let c = cfg ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode () in
  let plain = Model.estimate dev a c in
  let opt = Model.estimate ~options:Model.default_options dev a c in
  check (Alcotest.float 0.0) "identical" plain.Model.cycles opt.Model.cycles

let test_ablation_coalescing_matters () =
  (* disabling cross-WI coalescing inflates the memory estimate on a
     streaming kernel *)
  let a = Lazy.force analysis in
  let c = cfg ~pipe:true ~mode:Config.Pipeline_mode () in
  let on = Model.estimate dev a c in
  let off =
    Model.estimate
      ~options:{ Model.default_options with Model.cross_wi_coalescing = false }
      dev a c
  in
  check Alcotest.bool "uncoalesced memory costs more" true
    (off.Model.l_mem_wi > on.Model.l_mem_wi *. 1.5)

let test_ablation_warmup_matters () =
  (* a small resident buffer is all row-hits in steady state; a cold
     classification sees misses *)
  let launch =
    Launch.make ~global:(Launch.dim3 1024) ~local:(Launch.dim3 64)
      ~args:[ ("buf", Launch.Buffer { length = 1024; init = Launch.Zeros }) ]
  in
  let a =
    Analysis.of_source
      {|__kernel void memset(__global float* buf) {
          buf[get_global_id(0)] = 0.0f;
        }|}
      launch
  in
  let c = cfg () in
  let on = Model.estimate dev a c in
  let off =
    Model.estimate
      ~options:{ Model.default_options with Model.warm_classification = false }
      dev a c
  in
  let misses (b : Model.breakdown) =
    List.fold_left
      (fun acc ((p : Model.Dram.pattern), n) ->
        if p.Model.Dram.row_hit then acc else acc +. n)
      0.0 b.Model.pattern_counts
  in
  check Alcotest.bool "cold classification reports more misses" true
    (misses off > misses on)

let test_vectorization_acts_as_pe () =
  (* footnote 1: an N-wide vector PE behaves as N scalar PEs *)
  let a = Lazy.force analysis in
  let scalar = cfg ~pe:4 ~pipe:true ~mode:Config.Pipeline_mode () in
  let vec_opts = { Model.default_options with Model.vector_width = 4 } in
  let v = Model.estimate ~options:vec_opts dev a (cfg ~pe:1 ~pipe:true ~mode:Config.Pipeline_mode ()) in
  let s = Model.estimate dev a scalar in
  check (Alcotest.float 0.0) "vec4 x pe1 = pe4" s.Model.cycles v.Model.cycles

let ablation_suite =
  [
    Alcotest.test_case "options: defaults neutral" `Quick test_options_default_neutral;
    Alcotest.test_case "ablation: coalescing matters" `Quick
      test_ablation_coalescing_matters;
    Alcotest.test_case "ablation: warm-up matters" `Quick test_ablation_warmup_matters;
    Alcotest.test_case "vectorization: acts as PE parallelism" `Quick
      test_vectorization_acts_as_pe;
  ]

(* ------------------------------------------------------------------ *)
(* Multi-channel devices, the bandwidth roofline and buffer placement
   (DESIGN.md §15) *)

module Workload = Flexcl_workloads.Workload
module Dram = Flexcl_dram.Dram

let bits = Int64.bits_of_float
let multi_channel_devices = [ Device.ku060_2ddr; Device.u280 ]

let analysis_of name =
  let w = Gen.find_workload name in
  Analysis.of_source w.Workload.source w.Workload.launch

let round_robin (d : Device.t) (a : Analysis.t) =
  Analysis.with_placement a
    (Launch.round_robin_placement a.Analysis.launch
       ~n_channels:d.Device.dram.Dram.n_channels)

let test_hbm_devices_shape () =
  check Alcotest.int "u280 has 32 HBM2 channels" 32
    Device.u280.Device.dram.Dram.n_channels;
  check Alcotest.int "ku060-2ddr has 2 channels" 2
    Device.ku060_2ddr.Device.dram.Dram.n_channels;
  check Alcotest.int "virtex7 stays single-channel" 1
    dev.Device.dram.Dram.n_channels

let test_channel_counts_sum_to_aggregate () =
  List.iter
    (fun d ->
      List.iter
        (fun name ->
          let a = round_robin d (analysis_of name) in
          let total = Model.mean_pattern_counts a d in
          let by_chan = Model.mean_pattern_counts_by_channel a d in
          check Alcotest.int
            (name ^ ": one entry per channel")
            d.Device.dram.Dram.n_channels (Array.length by_chan);
          List.iter
            (fun (p, c) ->
              let summed =
                Array.fold_left
                  (fun acc counts -> acc +. List.assoc p counts)
                  0.0 by_chan
              in
              check
                (Alcotest.float 1e-9)
                (name ^ ": " ^ Dram.pattern_name p ^ " conserved")
                c summed)
            total)
        [ "bfs/bfs_1"; "mvt/mvt" ])
    multi_channel_devices

let test_channel_roofline_is_slowest_channel () =
  List.iter
    (fun d ->
      let a = round_robin d (analysis_of "bfs/bfs_1") in
      let n_wi_f = float_of_int (Launch.n_work_items a.Analysis.launch) in
      let demands = Model.channel_demands a d ~n_wi_f in
      let roof = Model.channel_roofline a d ~n_wi_f in
      check Alcotest.bool "roofline = max demand" true
        (bits roof = bits (Array.fold_left Float.max 0.0 demands));
      (* spreading traffic over channels only lowers the binding demand:
         the placed roofline never exceeds the all-on-channel-0 one *)
      let roof0 =
        Model.channel_roofline (analysis_of "bfs/bfs_1") d ~n_wi_f
      in
      check Alcotest.bool "round robin no worse than unplaced" true
        (roof <= roof0 +. 1e-9))
    multi_channel_devices

let test_lower_bound_sound_under_placement () =
  (* the 1/N_chan stream floor must stay below the estimate for every
     placement, the property the placement-aware DSE pruning rests on *)
  List.iter
    (fun d ->
      List.iter
        (fun name ->
          let a0 = analysis_of name in
          let candidates =
            Explore.placement_candidates a0
              ~n_channels:d.Device.dram.Dram.n_channels
          in
          List.iter
            (fun placement ->
              let a =
                if placement = [] then a0
                else Analysis.with_placement a0 placement
              in
              let c =
                cfg
                  ~wg:(Launch.wg_size a.Analysis.launch)
                  ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ()
              in
              if Model.feasible d a c then
                let lb = Model.lower_bound d a c in
                let est = Model.cycles d a c in
                check Alcotest.bool
                  (Printf.sprintf "%s: bound %.0f <= est %.0f" name lb est)
                  true
                  (lb <= est +. (1e-9 *. Float.max est 1.0)))
            candidates)
        [ "bfs/bfs_1"; "mvt/mvt"; "gemm/gemm" ])
    multi_channel_devices

let test_zero_placement_is_identity () =
  (* binding every buffer to channel 0 (or placing on a 1-channel
     device) reproduces the unplaced estimate bitwise *)
  List.iter
    (fun d ->
      let a0 = analysis_of "bfs/bfs_1" in
      let zeros =
        List.map (fun b -> (b, 0)) (Launch.buffer_names a0.Analysis.launch)
      in
      let a = Analysis.with_placement a0 zeros in
      let c =
        cfg
          ~wg:(Launch.wg_size a0.Analysis.launch)
          ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ()
      in
      check Alcotest.bool
        (d.Device.name ^ ": all-zeros placement is the identity")
        true
        (bits (Model.cycles d a0 c) = bits (Model.cycles d a c)))
    (dev :: multi_channel_devices)

let test_placed_strict_improvement () =
  (* acceptance: against the placed channel-accurate simulator, the
     channel-aware (placed) model strictly beats the channel-oblivious
     one for bfs and mvt on every multi-channel device. The design
     points are where each workload's memory behaviour is
     channel-sensitive: bfs (scattered reads over several buffers)
     improves at the suite's pe2/cu2 point; mvt (one dominant streamed
     matrix) needs concurrent CUs per memory channel, pe1/cu2. *)
  List.iter
    (fun (name, pe, cu) ->
      List.iter
        (fun d ->
          let a0 = analysis_of name in
          let ap = round_robin d a0 in
          let c =
            cfg
              ~wg:(Launch.wg_size a0.Analysis.launch)
              ~pe ~cu ~pipe:true ~mode:Config.Pipeline_mode ()
          in
          let sim = (Sysrun.run ~seed:42 d ap c).Sysrun.cycles in
          let placed_err =
            Stats.abs_pct_error ~actual:sim ~predicted:(Model.cycles d ap c)
          in
          let oblivious_err =
            Stats.abs_pct_error ~actual:sim ~predicted:(Model.cycles d a0 c)
          in
          check Alcotest.bool
            (Printf.sprintf "%s@%s: placed %.2f%% < oblivious %.2f%%" name
               d.Device.name placed_err oblivious_err)
            true
            (placed_err < oblivious_err))
        multi_channel_devices)
    [ ("bfs/bfs_1", 2, 2); ("mvt/mvt", 1, 2) ]

let test_explore_placements_differential () =
  (* the staged, pruned placement sweep ranks identically to the
     unstaged, unpruned reference — bitwise *)
  List.iter
    (fun d ->
      let a = analysis_of "bfs/bfs_1" in
      let n_wi = Launch.n_work_items a.Analysis.launch in
      let space =
        { (Space.default ~total_work_items:n_wi) with
          Space.pe_counts = [ 1; 2 ];
          cu_counts = [ 1; 2 ];
        }
      in
      let staged = Explore.explore_placements ~num_domains:0 d a space in
      let reference =
        Explore.explore_placements_reference ~num_domains:0 d a space
      in
      check Alcotest.int
        (d.Device.name ^ ": same candidate count")
        (List.length reference) (List.length staged);
      List.iter2
        (fun (s : Explore.placed) (r : Explore.placed) ->
          check Alcotest.bool "same placement" true
            (s.Explore.placement = r.Explore.placement);
          check Alcotest.bool "same config" true
            (s.Explore.best_point.Explore.config
            = r.Explore.best_point.Explore.config);
          check Alcotest.bool "bitwise cycles" true
            (bits s.Explore.best_point.Explore.cycles
            = bits r.Explore.best_point.Explore.cycles))
        staged reference)
    (dev :: multi_channel_devices)

let test_placement_candidates_shape () =
  let a = Lazy.force analysis in
  check Alcotest.bool "1-channel space is the empty placement" true
    (Explore.placement_candidates a ~n_channels:1 = [ [] ]);
  let cands = Explore.placement_candidates a ~n_channels:4 in
  check Alcotest.bool "empty placement first" true (List.hd cands = []);
  let buffers = Launch.buffer_names a.Analysis.launch in
  List.iter
    (fun p ->
      List.iter
        (fun (b, chan) ->
          check Alcotest.bool "names a kernel buffer" true (List.mem b buffers);
          check Alcotest.bool "channel in range" true (chan >= 0 && chan < 4))
        p)
    cands;
  check Alcotest.bool "no duplicate candidates" true
    (List.length (List.sort_uniq compare cands) = List.length cands)

(* The multi-CU DRAM replay span is memoized per (CUs, PE lanes): two
   design points that differ in both must never share an entry, so a
   point's breakdown cannot depend on what was evaluated before it on
   the same analysis. backprop/layer at wg128 on the U280 runs
   [pe64 cu3] at 3 CUs × 64 lanes and [pe128 cu2] at 2 CUs × 128 lanes. *)
let test_round_span_order_independent () =
  let cfg pe cu =
    {
      Config.wg_size = 128;
      n_pe = pe;
      n_cu = cu;
      wi_pipeline = true;
      comm_mode = Config.Pipeline_mode;
    }
  in
  let fresh () =
    let a = Analysis.with_wg_size (analysis_of "backprop/layer") 128 in
    Analysis.analyze a.Analysis.kernel a.Analysis.launch
  in
  let b = cfg 128 2 in
  let alone = Model.estimate Device.u280 (fresh ()) b in
  let a = fresh () in
  let first = Model.estimate Device.u280 a (cfg 64 3) in
  check Alcotest.(pair int int) "the earlier point replays 3 CUs × 64 lanes"
    (3, 64) (first.Model.n_cu_eff, first.Model.n_pe_eff);
  check Alcotest.(pair int int) "the later point replays 2 CUs × 128 lanes"
    (2, 128) (alone.Model.n_cu_eff, alone.Model.n_pe_eff);
  Gen.check_bitwise ~label:"pe128 cu2 after pe64 cu3" alone
    (Model.estimate Device.u280 a b)

let hbm_suite =
  [
    Alcotest.test_case "hbm: device shapes" `Quick test_hbm_devices_shape;
    Alcotest.test_case "hbm: per-channel counts conserve" `Quick
      test_channel_counts_sum_to_aggregate;
    Alcotest.test_case "hbm: roofline is the slowest channel" `Quick
      test_channel_roofline_is_slowest_channel;
    Alcotest.test_case "hbm: lower bound sound under placement" `Quick
      test_lower_bound_sound_under_placement;
    Alcotest.test_case "hbm: zero placement identity (bitwise)" `Quick
      test_zero_placement_is_identity;
    Alcotest.test_case "hbm: placed model beats oblivious (bfs, mvt)" `Slow
      test_placed_strict_improvement;
    Alcotest.test_case "hbm: placement sweep differential (bitwise)" `Slow
      test_explore_placements_differential;
    Alcotest.test_case "hbm: placement candidate shape" `Quick
      test_placement_candidates_shape;
    Alcotest.test_case "hbm: replay span independent of evaluation order"
      `Quick test_round_span_order_independent;
  ]

(* ------------------------------------------------------------------ *)
(* Artifacts owned by their analysis: every cached value is keyed on the
   analysis itself and on the whole device record, so a same-name device
   with other DRAM timing never reads another record's results, whatever
   ran before on the same analysis, and nothing outlives its analysis. *)

let with_dram (d : Device.t) f = { d with Device.dram = f d.Device.dram }

(* virtex7 with triple CAS and RCD latencies, under virtex7's name *)
let slow_virtex7 =
  with_dram Device.virtex7 (fun r ->
      { r with Dram.t_cas = 3 * r.Dram.t_cas; t_rcd = 3 * r.Dram.t_rcd })

let device_variants =
  [|
    Device.virtex7;
    slow_virtex7;
    Device.u280;
    with_dram Device.u280 (fun r -> { r with Dram.t_bus = 2 * r.Dram.t_bus });
  |]

let fresh_analysis name =
  let w = Gen.find_workload name in
  Analysis.analyze (Workload.parse w) w.Workload.launch

let test_same_name_devices () =
  let point =
    cfg ~wg:64 ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ()
  in
  let cycles d a = (Model.estimate d a point).Model.cycles in
  let a = fresh_analysis "hotspot/hotspot" in
  let slow_first = cycles slow_virtex7 a in
  check (Alcotest.float 0.0) "virtex7 after its slow variant" 2544.0
    (cycles Device.virtex7 a);
  let b = fresh_analysis "hotspot/hotspot" in
  check (Alcotest.float 0.0) "virtex7 on a fresh analysis" 2544.0
    (cycles Device.virtex7 b);
  check (Alcotest.float 0.0) "slow variant after virtex7" 4080.0
    (cycles slow_virtex7 b);
  check (Alcotest.float 0.0) "slow variant first" 4080.0 slow_first

(* Random sequences over four device records (two pairs sharing a name),
   every options variant and a few multi-CU points, where the DRAM replay
   spans and the traces depend on the timing the same-name records
   disagree on. *)
let prop_shared_equals_fresh =
  let name = "hotspot/hotspot" in
  let points =
    [|
      cfg ~wg:64 ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ();
      cfg ~wg:64 ~pe:1 ~cu:4 ~mode:Config.Barrier_mode ();
      cfg ~wg:64 ~pe:4 ~cu:3 ~pipe:true ~mode:Config.Barrier_mode ();
      cfg ~wg:128 ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode ();
    |]
  in
  let step =
    QCheck.Gen.(
      triple
        (int_bound (Array.length device_variants - 1))
        (int_bound (List.length Gen.options_variants - 1))
        (int_bound (Array.length points - 1)))
  in
  let print (d, o, p) =
    Printf.sprintf "(%s%s, %s, %s)" device_variants.(d).Device.name
      (if d mod 2 = 1 then " variant" else "")
      (fst (List.nth Gen.options_variants o))
      (Config.to_string points.(p))
  in
  QCheck.Test.make ~count:25
    ~name:"artifacts: a shared analysis evaluates like a fresh one"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map print l))
       QCheck.Gen.(list_size (int_range 2 6) step))
    (fun steps ->
      let eval a (d, o, p) =
        let d = device_variants.(d) in
        let options = snd (List.nth Gen.options_variants o) in
        let c = points.(p) in
        ( Model.estimate ~options d a c,
          Int64.bits_of_float (Model.lower_bound d a c),
          Flexcl_util.Json.to_string
            (Flexcl_util.Trace.to_json (snd (Model.explain ~options d a c))) )
      in
      (* the whole sequence on one analysis first, then each step alone *)
      let shared = List.map (eval (fresh_analysis name)) steps in
      List.for_all2
        (fun step (b, lb, tr) ->
          let b', lb', tr' = eval (fresh_analysis name) step in
          match Gen.field_diffs b' b with
          | [] when lb = lb' && tr = tr' -> true
          | ds ->
              QCheck.Test.fail_reportf "%s %s: shared differs from fresh [%s]%s%s"
                name (print step) (String.concat ", " ds)
                (if lb = lb' then "" else " lower bound")
                (if tr = tr' then "" else " trace"))
        steps shared)

(* Never inlined, so no stack slot of the caller keeps the analysis. *)
let[@inline never] exercise_and_drop (weak : Analysis.t Weak.t) =
  let name = "hotspot/hotspot" in
  let a = fresh_analysis name in
  Weak.set weak 0 (Some a);
  let c = cfg ~wg:64 ~pe:2 ~cu:2 ~pipe:true ~mode:Config.Pipeline_mode () in
  let space = Gen.space_of (Gen.find_workload name) in
  let oracle = Explore.specialized_model_oracle dev in
  ignore (Model.estimate dev a c);
  ignore (Model.explain dev a c);
  ignore (Model.lower_bound dev a c);
  ignore (Explore.exhaustive dev a space oracle);
  ignore (Heuristic.search_result dev a space oracle);
  ignore (Sysrun.run dev a c)

let test_analyses_are_freed () =
  let weak = Weak.create 1 in
  exercise_and_drop weak;
  Gc.full_major ();
  check Alcotest.bool "the analysis and its artifacts were collected" true
    (Option.is_none (Weak.get weak 0))

let artifacts_suite =
  [
    Alcotest.test_case "artifacts: same-name devices keep their own results"
      `Quick test_same_name_devices;
    QCheck_alcotest.to_alcotest prop_shared_equals_fresh;
    Alcotest.test_case "artifacts: analyses are freed" `Quick
      test_analyses_are_freed;
  ]

let suite = suite @ ablation_suite @ hbm_suite @ artifacts_suite
