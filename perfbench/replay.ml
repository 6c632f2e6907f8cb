(* In-process replays for the traced run. Each runs in a fresh process
   (the model's memos are process-global) and replays a plan's inputs,
   calling each layer's public function in the order the server does
   with a span around each call:

   - [cold_pipeline]: per kernel, the predict (parse, the analysis stage
     by stage, the first estimate) then the explore (re-analysis and
     specialization per work-group size, the sweep, the greedy search);
   - [serve_pipeline]: per request, the server's predict path (decode,
     fields, key, parse cache, predict-cache lookup, the miss path,
     encode);
   - [serve_server]: the same stream through [Server.handle_line] on an
     in-process server, untraced inside.

   The two serve passes digest every response; equal digests show the
   traced replica answers byte for byte what the server answers. *)

module Json = Flexcl_util.Json
module Hash = Flexcl_util.Hash
module Trace = Flexcl_util.Trace
module W = Flexcl_workloads.Workload
module L = Flexcl_ir.Launch
module Lower = Flexcl_ir.Lower
module Depend = Flexcl_ir.Depend
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Learn = Flexcl_learn.Learn
module Cache = Flexcl_server.Cache
module Protocol = Flexcl_server.Protocol
module Server = Flexcl_server.Server
module Explore = Flexcl_dse.Explore
module Heuristic = Flexcl_dse.Heuristic
module Parsweep = Flexcl_dse.Parsweep
module Space = Flexcl_dse.Space
module Interp = Flexcl_interp.Interp
module Dram = Flexcl_dram.Dram
open Flexcl_opencl

let ok_or what = function Ok v -> v | Error _ -> failwith (what ^ " failed")

type report = {
  spans : Spans.t;
  mutable counters : (string * float) list;
  mutable digest : Hash.t;
  mutable requests : int;
}

let report () = { spans = Spans.create (); counters = []; digest = Hash.init; requests = 0 }
let count r k v = r.counters <- (k, v) :: r.counters
let emit r out = r.digest <- Hash.add_string r.digest out

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let to_json ~problems r =
  Json.Obj
    [ ("spans", Json.Arr (List.map Spans.row_to_json (Spans.rows r.spans)));
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.counters));
      ("digest", Json.Str (Hash.to_hex r.digest));
      ("requests", Json.int r.requests);
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) problems)) ]

(* ------------------------------------------------------------------ *)
(* The server's predict path *)

type req = { w : W.t; dev : Device.t; cfg : Config.t; trace : bool; cal : bool }

type serve_state = {
  model : Learn.model option;
  parses : (string, Ast.kernel) Cache.t;
  analyses : (string, Analysis.t) Cache.t;
  predicts : (string, Json.t) Cache.t;
  estimated : (string, unit) Hashtbl.t;  (* analysis x device estimated once *)
}

let str v k = Option.bind (Json.member k v) Json.to_str
let int_field v k = Option.value ~default:1 (Option.bind (Json.member k v) Json.to_int)
let bool_field v k = Json.member k v = Some (Json.Bool true)

let miss st sp r ~src_hash ~kernel ~key =
  let parent = "server.miss" in
  let launch = r.w.W.launch in
  let akey = Printf.sprintf "%s#%s#wg%d" src_hash (L.fingerprint launch) (L.wg_size launch) in
  let a =
    Spans.time sp ~parent "core.analysis" (fun () ->
        match Cache.find st.analyses akey with
        | Some a -> a
        | None ->
            let a = ok_or "analysis" (Analysis.analyze_result kernel launch) in
            Cache.add st.analyses akey a;
            a)
  in
  if not (Spans.time sp ~parent "core.feasible" (fun () -> Model.feasible r.dev a r.cfg))
  then failwith "infeasible design point";
  let ekey = akey ^ "#" ^ r.dev.Device.name in
  let stage = if Hashtbl.mem st.estimated ekey then "core.estimate_warm" else "core.estimate_cold" in
  Hashtbl.replace st.estimated ekey ();
  let b = Spans.time sp ~parent stage (fun () -> ok_or "estimate" (Model.estimate_result r.dev a r.cfg)) in
  let tr =
    if r.trace then Some (Spans.time sp ~parent "core.explain" (fun () -> snd (Model.explain r.dev a r.cfg)))
    else None
  in
  let cal =
    match (r.cal, st.model) with
    | false, _ -> []
    | true, None -> failwith "calibrated request without a model"
    | true, Some m ->
        let c =
          Spans.time sp ~parent "learn.calibrate" (fun () ->
              Learn.calibrate m ~device:r.dev ~est:b.Model.cycles (Learn.features a r.dev))
        in
        [ ("cycles_calibrated", Json.Num c.Learn.cycles);
          ("ci", Json.Obj [ ("lo", Json.Num c.Learn.lo); ("hi", Json.Num c.Learn.hi) ]) ]
  in
  Spans.time sp ~parent "server.result" (fun () ->
      let result =
        Json.Obj
          ([ ("kernel", Json.Str (W.name r.w)); ("device", Json.Str r.dev.Device.name);
             ("config", Json.Str (Config.to_string r.cfg)); ("cycles", Json.Num b.Model.cycles);
             ("us", Json.Num (b.Model.seconds *. 1e6));
             ("bottleneck", Json.Str (Model.bottleneck b)) ]
          @ cal
          @ match tr with Some tr -> [ ("trace", Trace.to_json tr) ] | None -> [])
      in
      Cache.add st.predicts key result;
      result)

let predict st sp line =
  let parent = "request" in
  let v = Spans.time sp ~parent "util.json.decode" (fun () -> ok_or "decode" (Json.of_string line)) in
  let r =
    Spans.time sp ~parent "server.fields" (fun () ->
        let w = Plan.find_workload (Option.value ~default:"" (str v "workload")) in
        let dev = List.assoc (Option.value ~default:"virtex7" (str v "device")) Plan.devices in
        let cfg =
          { Config.wg_size = L.wg_size w.W.launch; n_pe = int_field v "pe";
            n_cu = int_field v "cu"; wi_pipeline = bool_field v "pipeline";
            comm_mode = Config.Pipeline_mode }
        in
        { w; dev; cfg; trace = bool_field v "trace"; cal = bool_field v "calibrated" })
  in
  let src_hash, key =
    Spans.time sp ~parent "server.key" (fun () ->
        let src_hash = Hash.to_hex (Hash.string r.w.W.source) in
        ( src_hash,
          Printf.sprintf "%s#%s#%s#%s%s%s" src_hash (L.fingerprint r.w.W.launch)
            r.dev.Device.name (Config.to_string r.cfg)
            (if r.trace then "#trace" else "")
            (if r.cal then "#cal" else "") ))
  in
  let kernel =
    Spans.time sp ~parent "server.parse_cache" (fun () ->
        snd
          (Cache.find_or_add st.parses src_hash (fun () ->
               ok_or "parse" (Parser.parse_kernel_result r.w.W.source))))
  in
  let cached, result =
    match Spans.time sp ~parent "server.lookup" (fun () -> Cache.find st.predicts key) with
    | Some res -> (true, res)
    | None -> (false, Spans.time sp ~parent "server.miss" (fun () -> miss st sp r ~src_hash ~kernel ~key))
  in
  Spans.time sp ~parent "util.json.encode" (fun () ->
      Json.to_string (Protocol.ok_response ~id:Json.Null ~kind:"predict" ~cached result))

let model_for (plan : Plan.t) =
  if plan.Plan.kind = Plan.Mixed_serve then Some (Plan.load_model ()) else None

let serve_pipeline (plan : Plan.t) ~stop =
  let rep = report () in
  let cap = Server.default_cache_capacity in
  let st =
    { model = model_for plan; parses = Cache.create ~capacity:cap ();
      analyses = Cache.create ~capacity:cap (); predicts = Cache.create ~capacity:cap ();
      estimated = Hashtbl.create 256 }
  in
  (* set-up is one span; its per-layer detail is not kept *)
  let scratch = Spans.create () in
  Spans.time rep.spans ~parent:"" "setup" (fun () ->
      List.iter (fun l -> emit rep (predict st scratch l)) plan.Plan.setup);
  let sample = Plan.sampler ~seed:plan.Plan.seed plan.Plan.kind (Array.length plan.Plan.universe) in
  let bytes = ref 0 in
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  Spans.time rep.spans ~parent:"" "timed" (fun () ->
      while not (stop rep.requests t0) do
        let line = plan.Plan.universe.(sample ()) in
        let out = Spans.time rep.spans ~parent:"timed" "request" (fun () -> predict st rep.spans line) in
        bytes := !bytes + String.length out;
        emit rep out;
        rep.requests <- rep.requests + 1
      done);
  let g1 = Gc.quick_stat () in
  let n = float_of_int (max 1 rep.requests) in
  count rep "util.json.bytes" (float_of_int !bytes /. n);
  count rep "gc.minor_words_per_req" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. n);
  count rep "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  count rep "gc.live_mb_after" (live_mb ());
  rep

let serve_server (plan : Plan.t) ~stop =
  let rep = report () in
  let srv = Server.create ~num_domains:0 ?model:(model_for plan) () in
  Spans.time rep.spans ~parent:"" "setup" (fun () ->
      List.iter (fun l -> emit rep (Server.handle_line srv l)) plan.Plan.setup);
  let sample = Plan.sampler ~seed:plan.Plan.seed plan.Plan.kind (Array.length plan.Plan.universe) in
  let t0 = Spans.now_ns () in
  Spans.time rep.spans ~parent:"" "timed" (fun () ->
      while not (stop rep.requests t0) do
        let line = plan.Plan.universe.(sample ()) in
        let t = Spans.now_ns () in
        let out = Server.handle_line srv line in
        let ns = Spans.since_ns t in
        Spans.record rep.spans ~parent:"timed"
          (if Wire.contains out {|"cached":true|} then "server.handle_hit" else "server.handle_miss")
          ns;
        emit rep out;
        rep.requests <- rep.requests + 1
      done);
  rep

(* ------------------------------------------------------------------ *)
(* The paper's flow: predict then explore on kernels never seen before *)

let buffer_layout (kernel : Ast.kernel) (launch : L.t) =
  List.filter_map
    (fun (p : Ast.param) ->
      match L.find_arg launch p.Ast.p_name with
      | Some (L.Buffer { length; _ }) ->
          let bits =
            match Types.elem p.Ast.p_type with Types.Scalar s -> Types.scalar_bits s | _ -> 32
          in
          Some (p.Ast.p_name, length * (bits / 8))
      | Some (L.Scalar _) | None -> None)
    kernel.Ast.k_params
  |> Dram.layout ~placement:launch.L.placement

(* Analysis.analyze, stage by stage *)
let staged_analysis sp (kernel : Ast.kernel) (launch : L.t) =
  let parent = "core.analysis" in
  let sema = Spans.time sp ~parent "opencl.sema" (fun () -> Sema.analyze kernel) in
  let cdfg = Spans.time sp ~parent "ir.lower" (fun () -> Lower.lower kernel sema launch) in
  let profile =
    Spans.time sp ~parent "interp.profile" (fun () -> Interp.run ~max_work_groups:3 kernel sema launch)
  in
  let wi_recurrences, loop_recurrences =
    Spans.time sp ~parent "ir.depend" (fun () ->
        (Depend.work_item_recurrences cdfg launch, Depend.loop_recurrences cdfg launch))
  in
  { Analysis.kernel; sema; launch; cdfg; profile; wi_recurrences; loop_recurrences;
    layout = buffer_layout kernel launch }

let cold_pipeline (plan : Plan.t) =
  let rep = report () in
  let sp = rep.spans in
  let golden = Plan.golden_rows () in
  let dev = Device.virtex7 in
  let oracle = Explore.specialized_model_oracle dev in
  let accesses = ref 0 and pruned = ref 0 and total = ref 0 in
  let names =
    List.filter_map
      (fun l -> if Plan.field l "kind" = Some "predict" then Plan.field l "workload" else None)
      (Array.to_list plan.Plan.universe)
  in
  let g0 = Gc.quick_stat () in
  let kernel_flow name =
    let w = Plan.find_workload name in
    let src = w.W.source in
    (* the server lexes inside the parser; this extra call splits it out *)
    ignore (Spans.time sp ~parent:"replay" "opencl.lexer" (fun () -> Lexer.tokenize src));
    let a =
      Spans.time sp ~parent:"replay" "predict" (fun () ->
          let kernel =
            Spans.time sp ~parent:"predict" "opencl.parser" (fun () ->
                ok_or "parse" (Parser.parse_kernel_result src))
          in
          let a = Spans.time sp ~parent:"predict" "core.analysis" (fun () -> staged_analysis sp kernel w.W.launch) in
          let cfg = Plan.config_of a ~pe:1 ~cu:1 ~pipeline:false in
          ignore
            (Spans.time sp ~parent:"predict" "core.estimate_cold" (fun () ->
                 ok_or "estimate" (Model.estimate_result dev a cfg)));
          a)
    in
    rep.requests <- rep.requests + 2;
    accesses :=
      !accesses + Array.fold_left (fun n t -> n + List.length t) 0 a.Analysis.profile.Interp.wi_traces;
    let space = Space.default ~total_work_items:(L.n_work_items a.Analysis.launch) in
    (* which work-group sizes the sweep will analyze *)
    let feasible = Spans.time sp ~parent:"replay" "dse.feasible" (fun () -> Space.feasible_points dev a space) in
    let wgs = List.sort_uniq compare (List.map (fun (c : Config.t) -> c.Config.wg_size) feasible) in
    let ranked =
      Spans.time sp ~parent:"replay" "explore" (fun () ->
          List.iter
            (fun wg ->
              let a' =
                if wg = L.wg_size a.Analysis.launch then a
                else Spans.time sp ~parent:"explore" "dse.reanalysis" (fun () -> Explore.analysis_for a wg)
              in
              ignore (Spans.time sp ~parent:"explore" "core.specialize" (fun () -> Explore.specialized_for dev a')))
            wgs;
          let ranked =
            Spans.time sp ~parent:"explore" "dse.sweep" (fun () ->
                Explore.exhaustive ~num_domains:0 dev a space oracle)
          in
          ignore
            (Spans.time sp ~parent:"explore" "dse.heuristic" (fun () ->
                 Heuristic.search_result ~num_domains:0 dev a space oracle));
          ranked)
    in
    let expect = List.assoc name golden in
    let golden_ok (e : Explore.evaluated) =
      (Config.to_string e.Explore.config, Printf.sprintf "%.17g" e.Explore.cycles) = expect
    in
    (match ranked with
    | top :: _ when golden_ok top -> ()
    | _ -> failwith (name ^ ": explore top differs from cycles.golden"));
    (* per-point costs and what a bounded search would prune, timed apart
       from the server's path *)
    Spans.time sp ~parent:"replay" "side" (fun () ->
        List.iter
          (fun wg ->
            let staged = Explore.specialized_for dev (Explore.analysis_for a wg) in
            let cfgs = List.filter (fun (c : Config.t) -> c.Config.wg_size = wg) feasible in
            let calls = List.length cfgs in
            let batch name f =
              let t0 = Spans.now_ns () in
              List.iter (fun c -> ignore (f staged c)) cfgs;
              if calls > 0 then Spans.record sp ~calls ~parent:"side" name (Spans.since_ns t0)
            in
            batch "core.point" Model.specialized_estimate;
            batch "core.lower_bound" Model.specialized_lower_bound)
          wgs;
        let best, prog =
          Spans.time sp ~parent:"side" "dse.best_pruned" (fun () ->
              Parsweep.best ~num_domains:0 ~bound:(Explore.specialized_bound dev) dev a space oracle)
        in
        pruned := !pruned + prog.Parsweep.pruned;
        total := !total + prog.Parsweep.total;
        match best with
        | Some e when golden_ok e -> ()
        | _ -> failwith (name ^ ": pruned best differs from cycles.golden"))
  in
  Spans.time sp ~parent:"" "replay" (fun () -> List.iter kernel_flow names);
  let g1 = Gc.quick_stat () in
  count rep "interp.profile.accesses" (float_of_int !accesses);
  count rep "dse.pruned_ratio"
    (if !total = 0 then 0.0 else float_of_int !pruned /. float_of_int !total);
  count rep "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  count rep "gc.live_mb_after" (live_mb ());
  rep
