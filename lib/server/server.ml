module Json = Flexcl_util.Json
module Diag = Flexcl_util.Diag
module Hash = Flexcl_util.Hash
module Metrics = Flexcl_util.Metrics
module Pool = Flexcl_util.Pool
module P = Protocol
module L = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Space = Flexcl_dse.Space
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module W = Flexcl_workloads.Workload
module Pipelines = Flexcl_workloads.Pipelines
module Graph = Flexcl_graph.Graph
module Learn = Flexcl_learn.Learn
open Flexcl_opencl

let default_cache_capacity = 256
let default_max_inflight = 128
let default_max_line_bytes = 1 lsl 20
let default_drain_timeout_ms = 5_000

(* Fuel per millisecond of "deadline_ms". Measured over the 238 launches
   a cold explore of the corpus profiles (15.5M steps, buffer
   materialization and tracing included, one core of a two-core x86-64
   VM), the interpreter runs 4.5-8M steps/s, so fuel from this rate
   runs out 2.5-4.5x later than the deadline; the wall-clock check of
   "deadline_ms" at admission and at compute start is what answers a
   late request early. The rate stays 20k: changing it would change
   which requests answer E-FUEL. *)
let steps_per_ms = 20_000

(* Raised (past every handler guard) by the chaos-only "panic" kind so
   the supervision path — worker domain death, Diag-bearing failure for
   the in-flight request, bounded respawn — can be exercised on demand. *)
exception Injected_fault

type t = {
  num_domains : int;
  metrics : Metrics.t;
  started_at : float;
  max_inflight : int;
  max_line_bytes : int;
  drain_timeout_ms : int;
  restart_budget : int;
  chaos : bool;
  (* learned-residual model loaded at startup (--model); calibrated
     predictions are refused with E-NOMODEL when absent *)
  model : Learn.model option;
  parse_cache : (string, (Ast.kernel, Diag.t list) result) Cache.t;
  analysis_cache : (string, Analysis.t) Cache.t;
  predict_cache : (string, Json.t) Cache.t;
  (* analyzed kernel graphs for the pipeline kind: stage profiling is
     the expensive part and depends only on the graph name *)
  graph_cache : (string, Graph.analyzed) Cache.t;
  (* admission control: requests admitted to compute but not yet
     answered, bounded by [max_inflight]; past the mark new work is shed
     with E-OVERLOAD instead of queueing unboundedly. *)
  adm_mutex : Mutex.t;
  mutable inflight : int;
  mutable ema_us : float;  (* smoothed request latency, for retry hints *)
  shutting_down : bool Atomic.t;
}

let create ?num_domains ?(cache_capacity = default_cache_capacity)
    ?(max_inflight = default_max_inflight)
    ?(max_line_bytes = default_max_line_bytes)
    ?(drain_timeout_ms = default_drain_timeout_ms)
    ?(restart_budget = Pool.default_restart_budget) ?(chaos = false) ?model ()
    =
  let num_domains =
    match num_domains with
    | None -> Pool.default_num_domains ()
    | Some n ->
        if n < 0 then invalid_arg "Server.create: num_domains must be >= 0";
        n
  in
  if cache_capacity < 1 then
    invalid_arg "Server.create: cache_capacity must be >= 1";
  if max_inflight < 1 then
    invalid_arg "Server.create: max_inflight must be >= 1";
  if max_line_bytes < 64 then
    invalid_arg "Server.create: max_line_bytes must be >= 64";
  if drain_timeout_ms < 0 then
    invalid_arg "Server.create: drain_timeout_ms must be >= 0";
  if restart_budget < 0 then
    invalid_arg "Server.create: restart_budget must be >= 0";
  let metrics = Metrics.create () in
  (* overload/fault counters exist from the start, so `stats` shows an
     explicit 0 rather than omitting the key until the first incident *)
  List.iter
    (fun k -> Metrics.incr metrics ~by:0 k)
    [ "shed"; "deadline_expired"; "worker_restarts"; "requests.crashed" ];
  {
    num_domains;
    metrics;
    started_at = Unix.gettimeofday ();
    max_inflight;
    max_line_bytes;
    drain_timeout_ms;
    restart_budget;
    chaos;
    model;
    parse_cache = Cache.create ~capacity:cache_capacity ();
    analysis_cache = Cache.create ~capacity:cache_capacity ();
    predict_cache = Cache.create ~capacity:cache_capacity ();
    graph_cache = Cache.create ~capacity:cache_capacity ();
    adm_mutex = Mutex.create ();
    inflight = 0;
    ema_us = 0.0;
    shutting_down = Atomic.make false;
  }

let num_domains t = t.num_domains
let request_shutdown t = Atomic.set t.shutting_down true
let draining t = Atomic.get t.shutting_down

let inflight t =
  Mutex.lock t.adm_mutex;
  let n = t.inflight in
  Mutex.unlock t.adm_mutex;
  n

(* admitted → true plus the post-admission depth; shed → false plus the
   depth that triggered the shed (both feed the retry hint) *)
let try_admit t =
  Mutex.lock t.adm_mutex;
  let ok = t.inflight < t.max_inflight in
  if ok then t.inflight <- t.inflight + 1;
  let depth = t.inflight in
  Mutex.unlock t.adm_mutex;
  (ok, depth)

let release t n =
  Mutex.lock t.adm_mutex;
  t.inflight <- t.inflight - n;
  Mutex.unlock t.adm_mutex

(* How long a shed client should back off: the work already in flight,
   spread over the executors, at the smoothed per-request latency. *)
let retry_after_ms t ~depth =
  let per_req_ms = Float.max 1.0 (t.ema_us /. 1000.0) in
  let width = float_of_int (t.num_domains + 1) in
  let est = per_req_ms *. float_of_int depth /. width in
  max 1 (int_of_float (Float.min 60_000.0 (Float.ceil est)))

(* ------------------------------------------------------------------ *)
(* Result plumbing: handlers accumulate [Diag.t list] errors. *)

let ( let* ) r f = match r with Ok v -> f v | Error ds -> Error ds
let one r = Result.map_error (fun d -> [ d ]) r
let usage1 fmt = Printf.ksprintf (fun s -> [ P.usage "%s" s ]) fmt

(* [(was_hit, value)] of a cached artifact. Racing requests for one key
   compute it once (the others wait and hit) — the exact pattern (one
   hot kernel, many clients) the server exists to amortize. A failure
   is never stored: a request that ran out of fuel must not poison the
   key for a later one with more. *)
exception Uncached of Diag.t list

let cached cache key f =
  match
    Cache.find_or_add cache key (fun () ->
        match f () with Ok v -> v | Error ds -> raise (Uncached ds))
  with
  | hit_value -> Ok hit_value
  | exception Uncached ds -> Error ds

(* ------------------------------------------------------------------ *)
(* Launch synthesis (shared with bin/flexcl_cli.ml) *)

let launch_for_kernel (kernel : Ast.kernel) ~global ~wg ~buffer_size ~ints
    ~floats =
  let args =
    List.concat
      (List.mapi
         (fun i (p : Ast.param) ->
           let name = p.Ast.p_name in
           match p.Ast.p_type with
           | Types.Pipe _ -> [] (* channels take no launch argument *)
           | Types.Ptr _ ->
               [ ( name,
                   L.Buffer
                     { length = buffer_size; init = L.Random_floats (i + 1) } )
               ]
           | Types.Scalar s when Types.is_float s ->
               let v = Option.value (List.assoc_opt name floats) ~default:1.0 in
               [ (name, L.Scalar (L.Float v)) ]
           | _ ->
               let v =
                 Option.value (List.assoc_opt name ints) ~default:buffer_size
               in
               [ (name, L.Scalar (L.Int (Int64.of_int v))) ])
         kernel.Ast.k_params)
  in
  L.make_result ~global:(L.dim3 global) ~local:(L.dim3 wg) ~args

(* ------------------------------------------------------------------ *)
(* Request-field interpretation *)

let all_workloads = Flexcl_workloads.Rodinia.all @ Flexcl_workloads.Polybench.all

let device_of body =
  let* name = one (P.field_str body "device") in
  match name with
  | None | Some "virtex7" | Some "v7" | Some "xc7vx690t" -> Ok Device.virtex7
  | Some "ku060" | Some "xcku060" -> Ok Device.ku060
  | Some "ku060-2ddr" | Some "xcku060-2ddr" -> Ok Device.ku060_2ddr
  | Some "u280" | Some "xcu280" -> Ok Device.u280
  | Some other ->
      Error
        (usage1 "unknown device %S (virtex7 | ku060 | ku060-2ddr | xcu280)"
           other)

let fuel_of body =
  let* steps = one (P.field_int body "max_steps" ~default:0) in
  let* deadline = one (P.field_num body "deadline_ms") in
  if steps < 0 then Error (usage1 "field \"max_steps\" must be positive")
  else if steps > 0 then Ok (Some steps)
  else
    match deadline with
    | None -> Ok None
    | Some ms when ms > 0.0 && Float.is_finite ms ->
        Ok (Some (max 1000 (int_of_float (ms *. float_of_int steps_per_ms))))
    | Some _ -> Error (usage1 "field \"deadline_ms\" must be positive")

let config_of body ~wg =
  let* pe = one (P.field_int body "pe" ~default:1) in
  let* cu = one (P.field_int body "cu" ~default:1) in
  let* pipe = one (P.field_bool body "pipeline" ~default:false) in
  let* mode = one (P.field_str body "mode") in
  let* comm_mode =
    match mode with
    | None | Some "pipeline" -> Ok Config.Pipeline_mode
    | Some "barrier" -> Ok Config.Barrier_mode
    | Some other ->
        Error (usage1 "unknown mode %S (barrier | pipeline)" other)
  in
  let cfg =
    { Config.wg_size = wg; n_pe = pe; n_cu = cu; wi_pipeline = pipe;
      comm_mode }
  in
  match Config.validate cfg with
  | [] -> Ok cfg
  | problems ->
      Error (List.map (fun p -> Diag.error Diag.Config_invalid "%s" p) problems)

(* ------------------------------------------------------------------ *)
(* Content-addressed artifacts *)

let parse_cached t ~src ~src_hash =
  let _hit, r =
    Cache.find_or_add t.parse_cache src_hash (fun () ->
        Parser.parse_kernel_result src)
  in
  r

type resolved = {
  name : string;
  src_hash : string;
  kernel : Ast.kernel;
  launch : L.t;
}

(* Fields that shape the synthesized launch of an inline kernel; a
   workload brings its own launch, so combining them is a user error,
   not something to ignore silently. *)
let launch_fields =
  [ "global"; "wg"; "buffer_size"; "int_args"; "float_args" ]

let resolve t body =
  let* source = one (P.field_str body "source") in
  let* workload = one (P.field_str body "workload") in
  match (source, workload) with
  | Some _, Some _ ->
      Error (usage1 "\"source\" and \"workload\" are mutually exclusive")
  | None, None ->
      Error (usage1 "one of \"source\" or \"workload\" is required")
  | Some src, None ->
      let src_hash = Hash.to_hex (Hash.string src) in
      let* kernel = parse_cached t ~src ~src_hash in
      let* global = one (P.field_int body "global" ~default:4096) in
      let* wg = one (P.field_int body "wg" ~default:64) in
      let* buffer_size = one (P.field_int body "buffer_size" ~default:4096) in
      let* ints = one (P.field_int_assoc body "int_args") in
      let* floats = one (P.field_float_assoc body "float_args") in
      let* launch =
        match launch_for_kernel kernel ~global ~wg ~buffer_size ~ints ~floats
        with
        | Ok l -> Ok l
        | Error problems ->
            Error
              (List.map
                 (fun p -> Diag.error Diag.Launch_invalid "%s" p)
                 problems)
      in
      Ok { name = kernel.Ast.k_name; src_hash; kernel; launch }
  | None, Some name -> (
      match List.find_opt (fun f -> Json.member f body <> None) launch_fields
      with
      | Some f ->
          Error
            (usage1 "field %S does not apply to a workload request" f)
      | None -> (
          match List.find_opt (fun w -> W.name w = name) all_workloads with
          | None ->
              Error
                (usage1 "unknown workload %S (see the workloads list)" name)
          | Some w ->
              let src_hash = Hash.to_hex (Hash.string w.W.source) in
              let* kernel = parse_cached t ~src:w.W.source ~src_hash in
              Ok { name; src_hash; kernel; launch = w.W.launch }))

(* Buffer→channel placement: the "placement" request field is an object
   of channel indices by buffer name. It is validated against both the
   launch (buffer names) and the device (channel range), then folded
   into the launch so it reaches the fingerprint, the analysis cache key
   and the memory layout. *)
let resolve_placed t body ~dev =
  let* r = resolve t body in
  let* placement = one (P.field_int_assoc body "placement") in
  match placement with
  | [] -> Ok r
  | placement -> (
      match
        Flexcl_dram.Dram.placement_error dev.Device.dram placement
          ~buffers:(L.buffer_names r.launch)
      with
      | Some msg -> Error (usage1 "%s" msg)
      | None -> (
          match L.with_placement_result r.launch placement with
          | Ok launch -> Ok { r with launch }
          | Error problems ->
              Error
                (List.map
                   (fun p -> Diag.error Diag.Launch_invalid "%s" p)
                   problems)))

let analysis_cached t r ~max_steps =
  let key =
    Printf.sprintf "%s#%s#wg%d" r.src_hash (L.fingerprint r.launch)
      (L.wg_size r.launch)
  in
  Result.map snd
    (cached t.analysis_cache key (fun () ->
         Analysis.analyze_result ?max_steps r.kernel r.launch))

(* ------------------------------------------------------------------ *)
(* Handlers: each returns [(cached option, result object)] or diags. *)

let us dev cycles = Device.cycles_to_seconds dev cycles *. 1e6

let handle_parse t body =
  let* source = one (P.field_str body "source") in
  let* workload = one (P.field_str body "workload") in
  let* src =
    match (source, workload) with
    | Some _, Some _ ->
        Error (usage1 "\"source\" and \"workload\" are mutually exclusive")
    | None, None ->
        Error (usage1 "one of \"source\" or \"workload\" is required")
    | Some src, None -> Ok src
    | None, Some name -> (
        match List.find_opt (fun w -> W.name w = name) all_workloads with
        | Some w -> Ok w.W.source
        | None ->
            Error (usage1 "unknown workload %S (see the workloads list)" name))
  in
  let src_hash = Hash.to_hex (Hash.string src) in
  let* kernel = parse_cached t ~src ~src_hash in
  let params =
    List.map
      (fun (p : Ast.param) ->
        Json.Obj
          [
            ("name", Json.Str p.Ast.p_name);
            ("type", Json.Str (Types.to_string p.Ast.p_type));
          ])
      kernel.Ast.k_params
  in
  Ok
    ( None,
      Json.Obj
        [
          ("kernel", Json.Str kernel.Ast.k_name);
          ("params", Json.Arr params);
          ("source_hash", Json.Str src_hash);
        ] )

let breakdown_json dev name cfg (b : Model.breakdown) =
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("device", Json.Str dev.Device.name);
      ("config", Json.Str (Config.to_string cfg));
      ("ii_wi", Json.int b.Model.ii_wi);
      ("rec_mii", Json.int b.Model.rec_mii);
      ("res_mii", Json.int b.Model.res_mii);
      ("depth_pe", Json.int b.Model.depth_pe);
      ("l_pe", Json.Num b.Model.l_pe);
      ("n_pe_eff", Json.int b.Model.n_pe_eff);
      ("l_cu", Json.Num b.Model.l_cu);
      ("n_cu_eff", Json.int b.Model.n_cu_eff);
      ("l_comp_kernel", Json.Num b.Model.l_comp_kernel);
      ("l_mem_wi", Json.Num b.Model.l_mem_wi);
      ( "pattern_counts",
        Json.Obj
          (List.map
             (fun (p, c) -> (Flexcl_dram.Dram.pattern_name p, Json.Num c))
             b.Model.pattern_counts) );
      ("dsp_footprint", Json.int b.Model.dsp_footprint);
      ("cycles", Json.Num b.Model.cycles);
      ("us", Json.Num (b.Model.seconds *. 1e6));
      ("bottleneck", Json.Str (Model.bottleneck b));
    ]

let estimate_for ?(want_trace = false) t body ~resolved:r =
  let* fuel = fuel_of body in
  let* dev = device_of body in
  let* cfg = config_of body ~wg:(L.wg_size r.launch) in
  let* a = analysis_cached t r ~max_steps:fuel in
  if not (Model.feasible dev a cfg) then
    Error
      [
        Diag.error Diag.Config_invalid "design point %s exceeds %s resources"
          (Config.to_string cfg) dev.Device.name;
      ]
  else
    match Model.estimate_result dev a cfg with
    | Error d -> Error [ d ]
    | Ok b ->
        if not want_trace then Ok (dev, cfg, b, None)
        else (
          (* same validated inputs as the estimate, so explain cannot
             fail on anything the estimate did not *)
          match Model.explain dev a cfg with
          | _, tr -> Ok (dev, cfg, b, Some tr)
          | exception (Out_of_memory as e) -> raise e
          | exception exn -> Error [ Analysis.diag_of_exn exn ])

let handle_analyze t body =
  let* dev0 = device_of body in
  let* r = resolve_placed t body ~dev:dev0 in
  let* dev, cfg, b, _ = estimate_for t body ~resolved:r in
  Ok (None, breakdown_json dev r.name cfg b)

let predict_key ~resolved:r ~dev ~cfg =
  Printf.sprintf "%s#%s#%s#%s" r.src_hash (L.fingerprint r.launch)
    dev.Device.name (Config.to_string cfg)

let handle_predict t body =
  let* dev = device_of body in
  let* r = resolve_placed t body ~dev in
  let* cfg = config_of body ~wg:(L.wg_size r.launch) in
  let* want_trace = one (P.field_bool body "trace" ~default:false) in
  let* want_cal = one (P.field_bool body "calibrated" ~default:false) in
  let* model =
    match (want_cal, t.model) with
    | false, _ -> Ok None
    | true, Some m -> Ok (Some m)
    | true, None ->
        Error
          [
            Diag.error Diag.No_model
              "\"calibrated\":true but no learned-residual model is loaded \
               (start the server with --model FILE)";
          ]
  in
  if want_trace then Metrics.incr t.metrics "predict.trace";
  if want_cal then Metrics.incr t.metrics "predict.calibrated";
  (* traced / calibrated predictions are distinct cached artifacts: a
     plain predict must never pay for (or return) either decoration *)
  let key =
    predict_key ~resolved:r ~dev ~cfg
    ^ (if want_trace then "#trace" else "")
    ^ if want_cal then "#cal" else ""
  in
  let* hit, result =
    cached t.predict_cache key (fun () ->
      let* _, _, b, tr = estimate_for ~want_trace t body ~resolved:r in
      let* cal_fields =
        match model with
        | None -> Ok []
        | Some m ->
            (* the analysis is already warm from estimate_for *)
            let* fuel = fuel_of body in
            let* a = analysis_cached t r ~max_steps:fuel in
            let c =
              Learn.calibrate m ~device:dev ~est:b.Model.cycles
                (Learn.features a dev)
            in
            Ok
              [
                ("cycles_calibrated", Json.Num c.Learn.cycles);
                ( "ci",
                  Json.Obj
                    [
                      ("lo", Json.Num c.Learn.lo);
                      ("hi", Json.Num c.Learn.hi);
                    ] );
              ]
      in
      Ok
        (Json.Obj
           ([
              ("kernel", Json.Str r.name);
              ("device", Json.Str dev.Device.name);
              ("config", Json.Str (Config.to_string cfg));
              ("cycles", Json.Num b.Model.cycles);
              ("us", Json.Num (b.Model.seconds *. 1e6));
              ("bottleneck", Json.Str (Model.bottleneck b));
            ]
           @ cal_fields
           @
           match tr with
           | Some tr -> [ ("trace", Flexcl_util.Trace.to_json tr) ]
           | None -> [])))
  in
  Ok (Some hit, result)

let handle_explore t body =
  let* fuel = fuel_of body in
  let* dev = device_of body in
  let* top = one (P.field_int body "top" ~default:10) in
  let* r = resolve_placed t body ~dev in
  let* a = analysis_cached t r ~max_steps:fuel in
  let space =
    Space.default ~total_work_items:(L.n_work_items a.Analysis.launch)
  in
  (* requests already run concurrently on the pool; the sweep itself
     stays sequential so pools never nest *)
  let ranked =
    Explore.exhaustive ~num_domains:0 dev a space
      (Explore.specialized_model_oracle dev)
  in
  if ranked = [] then Error [ Explore.empty_space_diag ]
  else
    let point (e : Explore.evaluated) =
      Json.Obj
        [
          ("config", Json.Str (Config.to_string e.Explore.config));
          ("cycles", Json.Num e.Explore.cycles);
          ("us", Json.Num (us dev e.Explore.cycles));
        ]
    in
    let points =
      List.filteri (fun i _ -> i < top) ranked |> List.map point
    in
    let greedy =
      match
        Heuristic.search_result ~num_domains:0 dev a space
          (Explore.specialized_model_oracle dev)
      with
      | Ok e -> point e
      | Error _ -> Json.Null
    in
    Ok
      ( None,
        Json.Obj
          [
            ("kernel", Json.Str r.name);
            ("device", Json.Str dev.Device.name);
            ("feasible", Json.int (List.length ranked));
            ("points", Json.Arr points);
            ("greedy", greedy);
          ] )

(* ------------------------------------------------------------------ *)
(* Pipeline: estimate a bundled multi-kernel graph at its default joint
   design point (optionally with a uniform FIFO-depth override), with
   the same content-addressed caching discipline as predict — the
   analyzed graph (per-stage profiling, the expensive part) and the
   finished response are both cached, and concurrent misses on one key
   collapse to a single computation. *)

let handle_pipeline t body =
  let* gname =
    let* g = one (P.field_str body "graph") in
    match g with
    | Some g -> Ok g
    | None ->
        Error
          (usage1 "field \"graph\" is required (%s)"
             (String.concat " | "
                (List.map
                   (fun (p : Pipelines.t) -> p.Pipelines.name)
                   Pipelines.all)))
  in
  let* p =
    match Pipelines.find gname with
    | Some p -> Ok p
    | None ->
        Error
          (usage1 "unknown pipeline %S (%s)" gname
             (String.concat " | "
                (List.map
                   (fun (p : Pipelines.t) -> p.Pipelines.name)
                   Pipelines.all)))
  in
  let* dev = device_of body in
  let* depth = one (P.field_int body "depth" ~default:0) in
  let* want_trace = one (P.field_bool body "trace" ~default:false) in
  if depth < 0 then Error (usage1 "field \"depth\" must be positive")
  else
    let key =
      Printf.sprintf "pipeline#%s#%s#%d%s" gname dev.Device.name depth
        (if want_trace then "#trace" else "")
    in
    let* hit, result =
      cached t.predict_cache key (fun () ->
        let* _, g =
          cached t.graph_cache gname (fun () ->
              Graph.analyze (Pipelines.graph p))
        in
        let j0 = Graph.default_joint g in
        let j =
          if depth = 0 then j0
          else
            {
              j0 with
              Graph.depths =
                List.map (fun (c, _) -> (c, depth)) j0.Graph.depths;
            }
        in
        match Graph.estimate_result dev g j with
        | Error d -> Error [ d ]
        | Ok gb ->
            Ok
              (Json.Obj
                 ([
                    ("graph", Json.Str gname);
                    ("device", Json.Str dev.Device.name);
                    ("joint", Json.Str (Graph.joint_to_string j));
                    ( "stages",
                      Json.Arr
                        (List.map
                           (fun (s, (b : Model.breakdown)) ->
                             Json.Obj
                               [
                                 ("stage", Json.Str s);
                                 ("cycles", Json.Num b.Model.cycles);
                               ])
                           gb.Graph.per_stage) );
                    ("steady", Json.Num gb.Graph.steady);
                    ("fill", Json.Num gb.Graph.fill);
                    ("stall", Json.Num gb.Graph.stall);
                    ("cycles", Json.Num gb.Graph.cycles);
                    ("us", Json.Num (gb.Graph.seconds *. 1e6));
                    ("bottleneck", Json.Str (Graph.bottleneck gb));
                  ]
                 @
                 if not want_trace then []
                 else
                   let _, tr = Graph.explain dev g j in
                   [ ("trace", Flexcl_util.Trace.to_json tr) ])))
    in
    Ok (Some hit, result)

(* ------------------------------------------------------------------ *)
(* Stats *)

let cache_stats_json c =
  let s = Cache.stats c in
  let total = s.Cache.hits + s.Cache.misses in
  Json.Obj
    [
      ("hits", Json.int s.Cache.hits);
      ("misses", Json.int s.Cache.misses);
      ("evictions", Json.int s.Cache.evictions);
      ("size", Json.int s.Cache.size);
      ("capacity", Json.int s.Cache.capacity);
      ( "hit_rate",
        Json.Num
          (if total = 0 then 0.0
           else float_of_int s.Cache.hits /. float_of_int total) );
    ]

let stats_json t =
  Metrics.set_gauge t.metrics "uptime_ms"
    ((Unix.gettimeofday () -. t.started_at) *. 1000.0);
  Metrics.set_gauge t.metrics "inflight" (float_of_int (inflight t));
  let counters =
    List.map (fun (k, v) -> (k, Json.int v)) (Metrics.counters t.metrics)
  in
  let gauges =
    List.map (fun (k, v) -> (k, Json.Num v)) (Metrics.gauges t.metrics)
  in
  let summaries =
    List.map
      (fun (k, (s : Metrics.summary)) ->
        ( k,
          Json.Obj
            [
              ("count", Json.int s.Metrics.count);
              ("mean", Json.Num s.Metrics.mean);
              ("max", Json.Num s.Metrics.max);
              ("p50", Json.Num s.Metrics.p50);
              ("p95", Json.Num s.Metrics.p95);
              ("p99", Json.Num s.Metrics.p99);
            ] ))
      (Metrics.summaries t.metrics)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("latency_us", Json.Obj summaries);
      ( "cache",
        Json.Obj
          [
            ("parse", cache_stats_json t.parse_cache);
            ("analysis", cache_stats_json t.analysis_cache);
            ("predict", cache_stats_json t.predict_cache);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch *)

let known_kinds =
  [ "parse"; "analyze"; "predict"; "explore"; "pipeline"; "stats"; "shutdown" ]

let dispatch t (req : P.request) =
  match req.P.kind with
  | "parse" -> handle_parse t req.P.body
  | "analyze" -> handle_analyze t req.P.body
  | "predict" -> handle_predict t req.P.body
  | "explore" -> handle_explore t req.P.body
  | "pipeline" -> handle_pipeline t req.P.body
  | "stats" -> Ok (None, stats_json t)
  | "shutdown" ->
      request_shutdown t;
      Ok (None, Json.Obj [ ("draining", Json.Bool true) ])
  | other ->
      Error
        (usage1 "unknown request kind %S (parse | analyze | predict | explore \
                 | pipeline | stats | shutdown)"
           other)

let now_s () = Unix.gettimeofday ()

(* The wall-clock budget: [deadline_ms] counted from the request's
   arrival, as an absolute expiry instant. Type errors are left to
   {!fuel_of}, which reports them with the kind-specific handler. *)
let wall_deadline body ~arrival =
  match Json.member "deadline_ms" body with
  | Some v -> (
      match Json.to_float v with
      | Some ms when ms > 0.0 && Float.is_finite ms ->
          Some (arrival +. (ms /. 1000.0))
      | _ -> None)
  | None -> None

let deadline_response t ~id ~kind ~metric_kind ~stage =
  Metrics.incr t.metrics "deadline_expired";
  Metrics.incr t.metrics (Printf.sprintf "requests.%s.error" metric_kind);
  P.error_response ~id ~kind:(Json.Str kind)
    [
      Diag.error Diag.Deadline_expired
        "request \"deadline_ms\" budget exhausted before %s" stage;
    ]

let handle_value ?arrival t v =
  let t0 = now_s () in
  let arrival = Option.value arrival ~default:t0 in
  match P.request_of_value v with
  | Error d ->
      Metrics.incr t.metrics "requests.malformed";
      let id =
        Option.value (Json.member "id" v) ~default:Json.Null
      in
      let kind = Option.value (Json.member "kind" v) ~default:Json.Null in
      P.error_response ~id ~kind [ d ]
  | Ok req ->
      (* chaos-only: raise past every guard below, so the worker domain
         running this request genuinely dies (and supervision answers) *)
      if t.chaos && req.P.kind = "panic" then raise Injected_fault;
      let metric_kind =
        if List.mem req.P.kind known_kinds then req.P.kind else "unknown"
      in
      let expired =
        match wall_deadline req.P.body ~arrival with
        | Some d -> now_s () > d
        | None -> false
      in
      let resp =
        if expired then
          deadline_response t ~id:req.P.id ~kind:req.P.kind ~metric_kind
            ~stage:"compute started"
        else begin
          let outcome =
            (* the last line of defense: a handler bug must surface as an
               E-INTERNAL response, never as a dead server *)
            try dispatch t req
            with exn -> Error [ Analysis.diag_of_exn exn ]
          in
          match outcome with
          | Ok (cached, result) ->
              Metrics.incr t.metrics
                (Printf.sprintf "requests.%s.ok" metric_kind);
              P.ok_response ~id:req.P.id ~kind:req.P.kind ?cached result
          | Error diags ->
              Metrics.incr t.metrics
                (Printf.sprintf "requests.%s.error" metric_kind);
              P.error_response ~id:req.P.id ~kind:(Json.Str req.P.kind) diags
        end
      in
      let lat_us = (now_s () -. t0) *. 1e6 in
      Metrics.observe t.metrics metric_kind lat_us;
      Mutex.lock t.adm_mutex;
      t.ema_us <-
        (if t.ema_us = 0.0 then lat_us
         else (0.9 *. t.ema_us) +. (0.1 *. lat_us));
      Mutex.unlock t.adm_mutex;
      resp

(* ------------------------------------------------------------------ *)
(* Admission: every line becomes either an immediate response (malformed,
   shed, expired, draining) or admitted work for the compute stage. *)

type plan =
  | Immediate of Json.t
  | Work of Json.t * bool  (* parsed request, holds-an-admission-slot *)

(* stats/shutdown answer from state the server already holds; shedding
   them under load would blind the operator exactly when load matters *)
let admission_exempt = [ "stats"; "shutdown" ]

let id_kind_of_value v =
  ( Option.value (Json.member "id" v) ~default:Json.Null,
    Option.value (Json.member "kind" v) ~default:Json.Null )

let shutdown_plan t line =
  Metrics.incr t.metrics "rejected_shutdown";
  let id, kind =
    match Json.of_string line with
    | Ok v -> id_kind_of_value v
    | Error _ -> (Json.Null, Json.Null)
  in
  Immediate
    (P.error_response ~id ~kind
       [
         Diag.error Diag.Shutting_down
           "server is draining; no new work is accepted";
       ])

let plan_line t ~arrival line =
  if draining t then shutdown_plan t line
  else
    match Json.of_string line with
    | Error msg ->
        Metrics.incr t.metrics "requests.malformed";
        Immediate
          (P.error_response ~id:Json.Null ~kind:Json.Null
             [ P.usage "malformed JSON: %s" msg ])
    | Ok v -> (
        match P.request_of_value v with
        | Error _ ->
            (* handle_value reproduces the decode error response *)
            Work (v, false)
        | Ok req ->
            if List.mem req.P.kind admission_exempt then Work (v, false)
            else
              let metric_kind =
                if List.mem req.P.kind known_kinds then req.P.kind
                else "unknown"
              in
              let expired =
                match wall_deadline req.P.body ~arrival with
                | Some d -> now_s () > d
                | None -> false
              in
              if expired then
                Immediate
                  (deadline_response t ~id:req.P.id ~kind:req.P.kind
                     ~metric_kind ~stage:"admission")
              else
                let ok, depth = try_admit t in
                if ok then Work (v, true)
                else begin
                  Metrics.incr t.metrics "shed";
                  Immediate
                    (P.error_response
                       ~retry_after_ms:(retry_after_ms t ~depth)
                       ~id:req.P.id ~kind:(Json.Str req.P.kind)
                       [
                         Diag.error Diag.Overloaded
                           "server at max_inflight=%d; request shed"
                           t.max_inflight;
                       ])
                end)

let handle_line ?arrival t line =
  let arrival = Option.value arrival ~default:(now_s ()) in
  match plan_line t ~arrival line with
  | Immediate resp -> Json.to_string resp
  | Work (v, admitted) ->
      Fun.protect
        ~finally:(fun () -> if admitted then release t 1)
        (fun () -> Json.to_string (handle_value ~arrival t v))

(* ------------------------------------------------------------------ *)
(* The NDJSON loop *)

module Reader = struct
  (* Incremental, length-bounded line framing. A line longer than
     [max_line] is discarded up to its terminating newline and reported
     as [Oversized] (the stream then resyncs); an unterminated tail at
     EOF is [Truncated]. Both earn an E-FRAME response upstream. *)
  type event =
    | Line of string
    | Oversized of int  (* bytes discarded from the overlong line *)
    | Truncated of int  (* bytes of unterminated tail at EOF *)
    | Eof

  type t = {
    fd : Unix.file_descr;
    max_line : int;
    mutable buf : string;
    mutable pos : int;
    mutable eof : bool;
    mutable discarding : int;  (* > 0: inside an overlong line *)
  }

  let chunk = 65536

  let create ?(max_line = max_int) fd =
    { fd; max_line; buf = ""; pos = 0; eof = false; discarding = 0 }

  (* blocking read; EINTR retries, any other error ends the stream *)
  let refill t =
    let b = Bytes.create chunk in
    let rec read_retry () =
      try Unix.read t.fd b 0 chunk with
      | Unix.Unix_error (Unix.EINTR, _, _) -> read_retry ()
      | Unix.Unix_error (_, _, _) -> 0
    in
    let n = read_retry () in
    if n = 0 then t.eof <- true
    else begin
      let keep = String.sub t.buf t.pos (String.length t.buf - t.pos) in
      t.buf <- keep ^ Bytes.sub_string b 0 n;
      t.pos <- 0
    end

  (* next event derivable from the buffer alone; [None] needs more input *)
  let extract t =
    let len = String.length t.buf in
    if t.discarding > 0 then
      match String.index_from_opt t.buf t.pos '\n' with
      | Some i ->
          let dropped = t.discarding + (i - t.pos) in
          t.pos <- i + 1;
          t.discarding <- 0;
          Some (Oversized dropped)
      | None ->
          t.discarding <- t.discarding + (len - t.pos);
          t.buf <- "";
          t.pos <- 0;
          if t.eof then begin
            let dropped = t.discarding in
            t.discarding <- 0;
            Some (Oversized dropped)
          end
          else None
    else
      match String.index_from_opt t.buf t.pos '\n' with
      | Some i ->
          let n = i - t.pos in
          if n > t.max_line then begin
            t.pos <- i + 1;
            Some (Oversized n)
          end
          else begin
            let line = String.sub t.buf t.pos n in
            t.pos <- i + 1;
            Some (Line line)
          end
      | None ->
          let avail = len - t.pos in
          if avail > t.max_line then begin
            t.discarding <- avail;
            t.buf <- "";
            t.pos <- 0;
            None
          end
          else if t.eof then
            if avail > 0 then begin
              t.pos <- len;
              Some (Truncated avail)
            end
            else Some Eof
          else None

  let readable t timeout =
    try
      let r, _, _ = Unix.select [ t.fd ] [] [] timeout in
      r <> []
    with
    | Unix.Unix_error (Unix.EINTR, _, _) -> false
    | Unix.Unix_error (_, _, _) ->
        (* fd force-closed under us during drain: treat as end of stream *)
        t.eof <- true;
        true

  (* [block = true] waits for input, polling [stop] roughly every 200ms;
     [None] means [stop] fired (blocking) or nothing is buffered
     (non-blocking). At EOF the result is always [Some Eof]-terminated. *)
  let rec next ?(stop = fun () -> false) ~block t =
    match extract t with
    | Some ev -> Some ev
    | None ->
        if t.eof then next ~stop ~block t (* extract yields Some at eof *)
        else if block then
          if stop () then None
          else begin
            if readable t 0.2 then refill t;
            next ~stop ~block t
          end
        else if readable t 0.0 then begin
          refill t;
          next ~stop ~block t
        end
        else None
end

let blank line = String.trim line = ""

let frame_response t msg =
  Metrics.incr t.metrics "requests.frame_error";
  P.error_response ~id:Json.Null ~kind:Json.Null
    [ Diag.error Diag.Frame_error "%s" msg ]

(* A framing event becomes at most one planned response; blank lines
   vanish. During drain, frame errors still answer E-FRAME (the payload
   never existed, so E-SHUTDOWN would misreport it as a valid request). *)
let plan_event t ~arrival ev =
  match ev with
  | Reader.Line line -> if blank line then None else Some (plan_line t ~arrival line)
  | Reader.Oversized n ->
      Some
        (Immediate
           (frame_response t
              (Printf.sprintf
                 "frame exceeds max_line_bytes=%d (%d bytes discarded)"
                 t.max_line_bytes n)))
  | Reader.Truncated n ->
      Some
        (Immediate
           (frame_response t
              (Printf.sprintf "stream ended mid-line (%d bytes unterminated)"
                 n)))
  | Reader.Eof -> None

(* One connection's request/response loop, shared by stdin serving and
   socket connection threads. Admitted work runs on the shared
   supervised [pool]; a worker panic answers E-INTERNAL for exactly the
   request that crashed it. Returns when the stream ends, the peer stops
   accepting responses, or the server drains. *)
let serve_loop t pool rdr out ~max_batch =
  let stop () = draining t in
  let write_all resps =
    try
      List.iter
        (fun r ->
          output_string out r;
          output_char out '\n')
        resps;
      flush out;
      true
    with Sys_error _ -> false
  in
  let crash_response v exn =
    Metrics.incr t.metrics "requests.crashed";
    let id, kind = id_kind_of_value v in
    Json.to_string
      (P.error_response ~id ~kind
         [
           Diag.error Diag.Internal_error
             "request handler crashed: %s (worker respawned; request \
              answered, not retried)"
             (Printexc.to_string exn);
         ])
  in
  (* execute one planned batch, preserving input order in the output *)
  let run_batch ~arrival planned =
    let works =
      List.filter_map (function Work (v, _) -> Some v | _ -> None) planned
    in
    let results =
      Pool.run_results pool
        (List.map (fun v () -> Json.to_string (handle_value ~arrival t v))
           works)
    in
    let admitted =
      List.length (List.filter (function Work (_, true) -> true | _ -> false)
                     planned)
    in
    if admitted > 0 then release t admitted;
    let rec merge planned results =
      match (planned, results) with
      | [], _ -> []
      | Immediate resp :: rest, results ->
          Json.to_string resp :: merge rest results
      | Work (v, _) :: rest, r :: results ->
          (match r with Ok s -> s | Error exn -> crash_response v exn)
          :: merge rest results
      | Work _ :: _, [] -> assert false (* one result per work slot *)
    in
    merge planned results
  in
  let rec loop () =
    match Reader.next ~stop ~block:true rdr with
    | None ->
        (* drain: requests already buffered are answered E-SHUTDOWN (via
           [plan_line], which sheds everything once draining), then the
           connection closes *)
        let rec flush_buffered acc =
          match Reader.next ~block:false rdr with
          | None | Some Reader.Eof -> List.rev acc
          | Some ev -> (
              match plan_event t ~arrival:(now_s ()) ev with
              | None -> flush_buffered acc
              | Some p -> flush_buffered (p :: acc))
        in
        ignore (write_all (run_batch ~arrival:(now_s ()) (flush_buffered [])))
    | Some Reader.Eof -> ()
    | Some first -> (
        let arrival = now_s () in
        let rec gather acc n =
          if n >= max_batch then List.rev acc
          else
            match Reader.next ~block:false rdr with
            | None | Some Reader.Eof -> List.rev acc
            | Some ev -> (
                match plan_event t ~arrival ev with
                | None -> gather acc n
                | Some p -> gather (p :: acc) (n + 1))
        in
        let planned =
          match plan_event t ~arrival first with
          | None -> gather [] 0
          | Some p -> gather [ p ] 1
        in
        if planned = [] then loop ()
        else if write_all (run_batch ~arrival planned) then loop ()
        else () (* peer gone: stop reading, admitted work already done *))
  in
  loop ()

let default_max_batch t = max 1 (4 * (t.num_domains + 1))

let ignore_sigpipe () =
  (* a peer that disconnects mid-response must cost an EPIPE write error
     on one connection, never the process *)
  if Sys.unix then
    try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore) with _ -> ()

let serve_fd t ?max_batch fd out =
  ignore_sigpipe ();
  let max_batch =
    match max_batch with Some n -> max 1 n | None -> default_max_batch t
  in
  Pool.with_pool ~num_domains:t.num_domains
    ~restart_budget:t.restart_budget
    ~on_restart:(fun _ -> Metrics.incr t.metrics "worker_restarts")
    (fun pool ->
      serve_loop t pool (Reader.create ~max_line:t.max_line_bytes fd) out
        ~max_batch)

(* ------------------------------------------------------------------ *)
(* Socket serving: concurrent accept, one reader thread per connection,
   one shared supervised pool, graceful drain. *)

type conn = {
  c_fd : Unix.file_descr;
  mutable c_thread : Thread.t option;
  mutable c_done : bool;
}

let serve_unix_socket ?(backlog = 64) t path =
  ignore_sigpipe ();
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (match Unix.bind sock (Unix.ADDR_UNIX path) with
  | () -> ()
  | exception e ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      raise e);
  Unix.listen sock backlog;
  (* the pool spawns only after the socket is live: a bind failure must
     fail fast, with no domains to tear down *)
  let pool =
    Pool.create ~num_domains:t.num_domains ~restart_budget:t.restart_budget
      ~on_restart:(fun _ -> Metrics.incr t.metrics "worker_restarts")
      ()
  in
  let max_batch = default_max_batch t in
  let conn_mutex = Mutex.create () in
  let conns = ref [] in
  let spawn_conn client =
    Metrics.incr t.metrics "connections";
    let c = { c_fd = client; c_thread = None; c_done = false } in
    Mutex.lock conn_mutex;
    conns := c :: !conns;
    Mutex.unlock conn_mutex;
    let th =
      Thread.create
        (fun () ->
          let out = Unix.out_channel_of_descr client in
          (try
             serve_loop t pool
               (Reader.create ~max_line:t.max_line_bytes client)
               out ~max_batch
           with _ -> ());
          (* closing the channel closes the connection fd *)
          (try close_out out with _ -> ());
          c.c_done <- true)
        ()
    in
    c.c_thread <- Some th
  in
  let accept_readable timeout =
    try
      let r, _, _ = Unix.select [ sock ] [] [] timeout in
      r <> []
    with Unix.Unix_error (Unix.EINTR, _, _) -> false
  in
  while not (draining t) do
    if accept_readable 0.2 then
      match Unix.accept sock with
      | client, _ -> spawn_conn client
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (_, _, _) ->
          (* transient accept failure (EMFILE and kin): back off, retry *)
          Thread.delay 0.05
  done;
  (* graceful drain: no new connections, in-flight requests finish,
     idle/buffered requests answer E-SHUTDOWN, then force-close *)
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let snapshot () =
    Mutex.lock conn_mutex;
    let cs = !conns in
    Mutex.unlock conn_mutex;
    cs
  in
  let deadline = now_s () +. (float_of_int t.drain_timeout_ms /. 1000.0) in
  let all_done () = List.for_all (fun c -> c.c_done) (snapshot ()) in
  while (not (all_done ())) && now_s () < deadline do
    Thread.delay 0.01
  done;
  (* stragglers: sever the transport so their blocked reads/writes fail
     and the connection loops unwind; computes in flight still finish *)
  List.iter
    (fun c ->
      if not c.c_done then
        try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
        with Unix.Unix_error _ -> ())
    (snapshot ());
  List.iter
    (fun c -> match c.c_thread with Some th -> Thread.join th | None -> ())
    (snapshot ());
  Pool.shutdown pool
