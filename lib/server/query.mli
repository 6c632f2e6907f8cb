(** The request layer behind both [flexcl <cmd>] and [flexcl serve].

    Each front end decodes argv or one JSON request into the typed
    requests below, and this module resolves, validates and runs them,
    so the same input gets the same verdict from either. A front end
    keeps its decoding (with the diagnostics that name its own flags or
    fields), reading a kernel file, its renderers and, in serve, the
    artifact caches, which come in as {!memo} hooks. Names, placements
    and fields the caller got wrong are [E-USAGE] diagnostics. *)

module Diag = Flexcl_util.Diag
module Device = Flexcl_device.Device
module Config = Flexcl_core.Config
module Analysis = Flexcl_core.Analysis
module Graph = Flexcl_graph.Graph

val device : string -> (Device.t, Diag.t) result
(** [virtex7] ([v7], [xc7vx690t]), [ku060] ([xcku060]), [ku060-2ddr]
    ([xcku060-2ddr]) or [xcu280] ([u280]). *)

val mode : string -> (Config.comm_mode, Diag.t) result
(** [barrier] or [pipeline]. *)

val workloads : Flexcl_workloads.Workload.t list
(** The bundled corpus: Rodinia, then PolyBench. *)

val workload : string -> (Flexcl_workloads.Workload.t, Diag.t list) result

val graph_names : string
(** The bundled pipeline graphs' names, [" | "]-separated. *)

type ('k, 'a) memo =
  'k -> (unit -> ('a, Diag.t list) result) -> ('a, Diag.t list) result
(** [memo key compute] returns [compute ()] or an outcome stored earlier
    under [key]. Without one, every step runs directly. *)

(** {1 Single kernels} *)

type launch = {
  global : int option;  (** NDRange size; default 4096. *)
  wg : int option;  (** work-group size; default 64. *)
  buffer_size : int option;  (** elements per buffer; default 4096. *)
  ints : (string * int) list;
  floats : (string * float) list;
}
(** The launch made for source text: pointer parameters become
    deterministic random buffers (seeded by parameter position), float
    scalars default to 1.0 and integer scalars to [buffer_size];
    [ints] and [floats] pin scalars by name. *)

type source =
  | Text of string * launch  (** OpenCL source with exactly one kernel. *)
  | Workload of string  (** a bundled workload; it brings its launch. *)

type kernel = {
  source : source;
  placement : (string * int) list;  (** buffer → DRAM channel. *)
  device : Device.t;
  fuel : int option;  (** profiling step budget. *)
}

type point = { pe : int; cu : int; pipeline : bool; mode : Config.comm_mode }
(** A design point; its work-group size is the launch's. *)

type resolved = {
  name : string;  (** the workload's name, or the kernel's own. *)
  src_hash : string;  (** hex content hash of the source text. *)
  ast : Flexcl_opencl.Ast.kernel;
  launch : Flexcl_ir.Launch.t;  (** with the placement folded in. *)
  device : Device.t;
  fuel : int option;
}

type config = private Config.t
(** A design point that passed {!Config.validate}. Only {!config} makes
    one, so no profiling starts on a malformed point. *)

val parse :
  ?parses:(string, Flexcl_opencl.Ast.kernel) memo ->
  string ->
  (string * Flexcl_opencl.Ast.kernel, Diag.t list) result
(** Source hash and kernel; [parses] is keyed on the hash. *)

val resolve :
  ?parses:(string, Flexcl_opencl.Ast.kernel) memo ->
  kernel ->
  (resolved, Diag.t list) result
(** Workload lookup, parse, launch and placement, which is checked
    against the launch's buffers and the device's channels. *)

val config : resolved -> point -> (config, Diag.t list) result

val estimate :
  ?analyses:(resolved, Analysis.t) memo ->
  resolved ->
  config ->
  (Analysis.t * Flexcl_core.Model.breakdown, Diag.t list) result
(** The analysis, the point's feasibility on the device, the estimate. *)

val explain : resolved -> Analysis.t -> config -> Flexcl_util.Trace.t
(** The cycle-attribution trace of a point {!estimate} accepted. *)

val check_trace :
  cycles:float ->
  Flexcl_util.Trace.t ->
  (Flexcl_util.Json.t, Diag.t list) result
(** The JSON form of a trace fit to return for a prediction of [cycles]
    cycles: it conserves cycles ({!Flexcl_util.Trace.check}), its root
    equals [cycles] within a relative 1e-9, and its JSON form reads back
    to the same trace. A trace that fails is a model bug: [E-INTERNAL],
    naming the first check that failed. *)

val explore :
  ?num_domains:int ->
  ?analyses:(resolved, Analysis.t) memo ->
  resolved ->
  ( Flexcl_dse.Explore.evaluated list
    * (Flexcl_dse.Explore.evaluated, Diag.t) result,
    Diag.t list )
  result
(** The exhaustive sweep of the default space, fastest first, and the
    greedy heuristic's pick; [E-SPACE] when no point is feasible. *)

(** {1 Pipeline graphs} *)

type pipeline = {
  graph : string;
  device : Device.t;
  depth : int;
      (** FIFO depth of every channel; 0 keeps the declared depths, and
          a negative one reaches the model's own check. *)
}

val graph :
  ?graphs:(string, Graph.analyzed) memo ->
  string ->
  (Graph.analyzed, Diag.t list) result
(** A bundled graph, analyzed; [graphs] is keyed on its name. *)

val pipeline :
  ?graphs:(string, Graph.analyzed) memo ->
  pipeline ->
  (Graph.analyzed * Graph.joint * Graph.gbreakdown, Diag.t list) result
(** The default joint point with the depth override, and its estimate. *)
