module Diag = Flexcl_util.Diag
module Hash = Flexcl_util.Hash
module Json = Flexcl_util.Json
module Trace = Flexcl_util.Trace
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
open Flexcl_opencl

let ( let* ) r f = match r with Ok v -> f v | Error ds -> Error ds
let misuse fmt = Printf.ksprintf (fun s -> Diag.error Diag.Usage_error "%s" s) fmt

type ('k, 'a) memo =
  'k -> (unit -> ('a, Diag.t list) result) -> ('a, Diag.t list) result

let direct _ compute = compute ()

(* ------------------------------------------------------------------ *)
(* Names *)

let device = function
  | "virtex7" | "v7" | "xc7vx690t" -> Ok Device.virtex7
  | "ku060" | "xcku060" -> Ok Device.ku060
  | "ku060-2ddr" | "xcku060-2ddr" -> Ok Device.ku060_2ddr
  | "u280" | "xcu280" -> Ok Device.u280
  | s ->
      Error
        (misuse "unknown device %S (virtex7 | ku060 | ku060-2ddr | xcu280)" s)

let mode = function
  | "pipeline" -> Ok Config.Pipeline_mode
  | "barrier" -> Ok Config.Barrier_mode
  | s -> Error (misuse "unknown mode %S (barrier | pipeline)" s)

let workloads = Flexcl_workloads.Rodinia.all @ Flexcl_workloads.Polybench.all

(* Names are unique, and the table is only read once built, so domains
   share it safely. *)
let by_name =
  Hashtbl.of_seq (List.to_seq (List.map (fun w -> (W.name w, w)) workloads))

let workload name =
  match Hashtbl.find_opt by_name name with
  | Some w -> Ok w
  | None -> Error [ misuse "unknown workload %S (see the workloads list)" name ]

let graph_names =
  String.concat " | "
    (List.map (fun (p : Pipelines.t) -> p.Pipelines.name) Pipelines.all)

(* ------------------------------------------------------------------ *)
(* Single-kernel requests *)

type launch = {
  global : int option;
  wg : int option;
  buffer_size : int option;
  ints : (string * int) list;
  floats : (string * float) list;
}

type source = Text of string * launch | Workload of string

type kernel = {
  source : source;
  placement : (string * int) list;
  device : Device.t;
  fuel : int option;
}

type point = { pe : int; cu : int; pipeline : bool; mode : Config.comm_mode }

type resolved = {
  name : string;
  src_hash : string;
  ast : Ast.kernel;
  launch : L.t;
  device : Device.t;
  fuel : int option;
}

type config = Config.t

let parse ?(parses = direct) text =
  let src_hash = Hash.to_hex (Hash.string text) in
  let* ast = parses src_hash (fun () -> Parser.parse_kernel_result text) in
  Ok (src_hash, ast)

let synthesize (ast : Ast.kernel) (l : launch) =
  let buffer_size = Option.value l.buffer_size ~default:4096 in
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
               let v = Option.value (List.assoc_opt name l.floats) ~default:1.0 in
               [ (name, L.Scalar (L.Float v)) ]
           | _ ->
               let v =
                 Option.value (List.assoc_opt name l.ints) ~default:buffer_size
               in
               [ (name, L.Scalar (L.Int (Int64.of_int v))) ])
         ast.Ast.k_params)
  in
  match
    L.make_result
      ~global:(L.dim3 (Option.value l.global ~default:4096))
      ~local:(L.dim3 (Option.value l.wg ~default:64))
      ~args
  with
  | Ok launch -> Ok launch
  | Error problems ->
      Error (List.map (fun p -> Diag.error Diag.Launch_invalid "%s" p) problems)

(* The placement is checked against the launch's buffers and the
   device's channels, then folded into the launch so it reaches the
   fingerprint, the analysis and the memory layout. *)
let place (dev : Device.t) placement launch =
  if placement = [] then Ok launch
  else
    match
      Flexcl_dram.Dram.placement_error dev.Device.dram placement
        ~buffers:(L.buffer_names launch)
    with
    | Some msg -> Error [ misuse "%s" msg ]
    | None -> (
        match L.with_placement_result launch placement with
        | Ok launch -> Ok launch
        | Error problems -> Error (List.map (misuse "%s") problems))

let resolve ?parses (k : kernel) =
  let* name, src_hash, ast, launch =
    match k.source with
    | Workload name ->
        let* w = workload name in
        let* src_hash, ast = parse ?parses w.W.source in
        Ok (name, src_hash, ast, w.W.launch)
    | Text (text, l) ->
        let* src_hash, ast = parse ?parses text in
        let* launch = synthesize ast l in
        Ok (ast.Ast.k_name, src_hash, ast, launch)
  in
  let* launch = place k.device k.placement launch in
  Ok { name; src_hash; ast; launch; device = k.device; fuel = k.fuel }

let config r (p : point) =
  let cfg =
    { Config.wg_size = L.wg_size r.launch; n_pe = p.pe; n_cu = p.cu;
      wi_pipeline = p.pipeline; comm_mode = p.mode }
  in
  match Config.validate cfg with
  | [] -> Ok cfg
  | problems ->
      Error (List.map (fun p -> Diag.error Diag.Config_invalid "%s" p) problems)

let analysis ?(analyses = direct) r =
  analyses r (fun () -> Analysis.analyze_result ?max_steps:r.fuel r.ast r.launch)

let estimate ?analyses r cfg =
  let* a = analysis ?analyses r in
  if not (Model.feasible r.device a cfg) then
    Error
      [
        Diag.error Diag.Config_invalid "design point %s exceeds %s resources"
          (Config.to_string cfg) r.device.Device.name;
      ]
  else
    match Model.estimate_result r.device a cfg with
    | Ok b -> Ok (a, b)
    | Error d -> Error [ d ]

let explain r a cfg = snd (Model.explain r.device a cfg)

(* A trace that fails a check is a model bug, not an input problem. *)
let check_trace ~cycles (tr : Trace.t) =
  let fail fmt =
    Printf.ksprintf (fun s -> Error [ Diag.error Diag.Internal_error "%s" s ]) fmt
  in
  match Trace.check tr with
  | Error e -> fail "trace conservation violated: %s" e
  | Ok () ->
      if
        Float.abs (tr.Trace.cycles -. cycles)
        > 1e-9 *. Float.max 1.0 (Float.abs cycles)
      then
        fail "trace root %.17g disagrees with the prediction %.17g"
          tr.Trace.cycles cycles
      else
        let j = Trace.to_json tr in
        match Result.bind (Json.of_string (Json.to_string j)) Trace.of_json with
        | Error e -> fail "trace does not survive a JSON round-trip: %s" e
        | Ok tr' when tr' <> tr -> fail "trace JSON round-trip is lossy"
        | Ok _ -> Ok j

let explore ?num_domains ?analyses r =
  let* a = analysis ?analyses r in
  let space =
    Space.default ~total_work_items:(L.n_work_items a.Analysis.launch)
  in
  let oracle = Explore.specialized_model_oracle r.device in
  match Explore.exhaustive ?num_domains r.device a space oracle with
  | [] -> Error [ Explore.empty_space_diag ]
  | ranked ->
      Ok (ranked, Heuristic.search_result ?num_domains r.device a space oracle)

(* ------------------------------------------------------------------ *)
(* Pipeline-graph requests *)

type pipeline = { graph : string; device : Device.t; depth : int }

let graph ?(graphs = direct) name =
  match Pipelines.find name with
  | None -> Error [ misuse "unknown pipeline %S (%s)" name graph_names ]
  | Some p -> graphs name (fun () -> Graph.analyze (Pipelines.graph p))

let pipeline ?graphs (q : pipeline) =
  let* g = graph ?graphs q.graph in
  let j0 = Graph.default_joint g in
  let j =
    if q.depth = 0 then j0
    else
      {
        j0 with
        Graph.depths = List.map (fun (c, _) -> (c, q.depth)) j0.Graph.depths;
      }
  in
  match Graph.estimate_result q.device g j with
  | Ok gb -> Ok (g, j, gb)
  | Error d -> Error [ d ]
