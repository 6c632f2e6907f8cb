(** The kernel-graph analytical model (DESIGN.md §14).

    A resolved multi-kernel pipeline estimates as

    {v L_graph = L_steady + L_fill + L_stall                (Eq. G1) v}

    - [L_steady]: the pipeline advances at the slowest stage's rate —
      the max over stages of the single-kernel model's cycles (Eq. G2);
    - [L_fill]: fill/drain latency — the max over source-to-sink paths
      of the sum of one CU pass ([L_CU], Eq. 5) of every stage on the
      path except the sink (Eq. G3);
    - [L_stall]: channel backpressure — a channel whose depth is below
      the producer/consumer burst skew per work-group round pays the
      channel round-trip per excess packet per round (Eq. G4).

    {!estimate} and {!explain} share one compute path: the explain trace
    root carries exactly [cycles] and every level recomposes bitwise
    (the totals are the same left folds [Trace.check] re-runs). A graph
    of one kernel degenerates to [fill = stall = 0] and reproduces
    {!Model.estimate} bitwise. *)

module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Trace = Flexcl_util.Trace
module Diag = Flexcl_util.Diag

type analyzed = {
  resolved : Gdef.resolved;
  stage_analyses : (string * Analysis.t) list;
      (** per stage, topological order. *)
}

val analyze :
  ?max_work_groups:int ->
  ?max_steps:int ->
  Gdef.t ->
  (analyzed, Diag.t list) result
(** {!Gdef.resolve} plus a full single-kernel {!Analysis.analyze} per
    stage (profiling included); stage diagnostics are tagged with the
    stage name. *)

val name : analyzed -> string

val stage_analysis : analyzed -> string -> Analysis.t
(** Raises [Invalid_argument] on an unknown stage name. *)

(** {2 Joint design points} *)

type joint = {
  stage_configs : (string * Config.t) list;
      (** one design point per stage (every stage must appear). *)
  depths : (string * int) list;
      (** per-channel FIFO depth overrides; a channel not listed keeps
          its {!Gdef.channel} depth. *)
}

val default_joint : analyzed -> joint
(** [Config.default] per stage at the stage launch's work-group size
    (pipeline communication mode), graph-declared depths. *)

val joint_to_string : joint -> string

val compare_joint : joint -> joint -> int

val config_of : joint -> string -> Config.t
(** Raises [Invalid_argument] on an unknown stage. *)

val depth_of : joint -> Gdef.channel -> int

val feasible : Device.t -> analyzed -> joint -> bool
(** Every stage's point passes {!Model.feasible} and every depth is
    positive. *)

(** {2 Estimation} *)

type gbreakdown = {
  per_stage : (string * Model.breakdown) list;
  steady : float;        (** Eq. G2. *)
  fill : float;          (** Eq. G3. *)
  stall : float;         (** Eq. G4, summed over channels. *)
  per_edge_stall : (string * float) list;
      (** per channel, declaration order. *)
  bottleneck_stage : string;
  critical_path : string list;  (** the fill path, source to sink. *)
  cycles : float;        (** Eq. G1: [steady + fill + stall]. *)
  seconds : float;
}

val estimate :
  ?options:Model.options -> Device.t -> analyzed -> joint -> gbreakdown
(** Raises [Invalid_argument] (with a ["Pipeline."] prefix, classified
    as [Config_invalid]) when the joint point misses a stage or has a
    non-positive depth. Stage points whose [wg_size] differs from the
    stage launch run on the stage analysis's re-analysis at that size
    ({!Flexcl_core.Analysis.with_wg_size}). *)

val cycles : Device.t -> analyzed -> joint -> float

val explain :
  ?options:Model.options ->
  Device.t ->
  analyzed ->
  joint ->
  gbreakdown * Trace.t
(** {!estimate} plus the conservation-checked attribution trace: the
    root carries exactly [cycles]; its three children are the steady
    (embedding the bottleneck stage's full {!Model.explain} subtree,
    other stages as 0-cycle alternatives), fill (one leaf per
    critical-path stage) and stall (one leaf per channel) terms. *)

val estimate_result :
  ?options:Model.options ->
  Device.t ->
  analyzed ->
  joint ->
  (gbreakdown, Diag.t) result
(** Total variant of {!estimate}. *)

val lower_bound : Device.t -> analyzed -> joint -> float
(** Max over stages of {!Model.lower_bound} — a true lower bound of
    {!cycles} ([cycles >= steady >= max stage cycles]). *)

val bottleneck : gbreakdown -> string
(** Human-readable dominant term: the bottleneck stage's single-kernel
    bottleneck, channel backpressure, or fill/drain. *)

(** {2 Joint design-space exploration}

    The joint space crosses per-stage knobs (the DSP share: PE and CU
    replication, work-item pipelining) with per-channel FIFO depths.
    {!explore} stages every stage's model once ({!Model.specialization}
    via {!Flexcl_dse.Explore.specialized_for}), evaluates stage candidates
    through {!Flexcl_dse.Parsweep.eval_batch}, and ranks joint points
    with the shared graph tail — bitwise identical to the unstaged
    {!explore_reference} (the differential tests pin this). *)

type jspace = {
  pe_counts : int list;
  cu_counts : int list;
  pipeline_choices : bool list;
  comm_modes : Config.comm_mode list;
  depth_choices : int list;
}

val default_jspace : jspace
(** PE {1,2,4} x CU {1,2} x pipelining on x pipeline mode x depths
    {1,4,16} — a few thousand joint points on a three-stage graph. *)

type jevaluated = { joint : joint; jcycles : float }

val joint_points : Device.t -> analyzed -> jspace -> joint list
(** Every joint assignment of per-stage feasible candidates and
    per-channel depths, deterministic order. *)

val explore : ?num_domains:int -> Device.t -> analyzed -> jspace -> jevaluated list
(** All joint points ranked fastest-first (ties by {!compare_joint}),
    through the staged per-stage oracles. Default model options. *)

val explore_reference : Device.t -> analyzed -> jspace -> jevaluated list
(** The unstaged reference sweep (direct {!Model.estimate} per stage per
    point): same ranking as {!explore}, bitwise. *)

type jprogress = { jtotal : int; jevaluated : int; jpruned : int }

val best :
  ?num_domains:int ->
  Device.t ->
  analyzed ->
  jspace ->
  (jevaluated * jprogress) option
(** The fastest joint point under bound-based pruning: a point whose
    graph lower bound (max over stages of the staged
    {!Model.specialized_lower_bound}) strictly exceeds the incumbent is
    skipped without evaluating the tail. Agrees with
    [List.hd (explore ...)]; [None] when no stage has a feasible
    candidate. *)

(** {2 Placement-aware joint DSE (DESIGN.md §15)}

    On a multi-channel device each stage's buffer→channel placement is a
    further joint knob. A stage's placement affects only that stage's
    own memory roofline — the fill term (Eq. 5's [L_CU]) and the stall
    term are placement-independent and the steady term is monotone in
    each stage's cycles — so the joint optimum resolves placement per
    (stage, config) independently: for every stage candidate the
    placement (from {!Flexcl_dse.Explore.placement_candidates})
    minimizing that stage's cycles is kept, and the joint sweep runs
    over the resolved tables. *)

type pevaluated = {
  pjoint : joint;
  placements : (string * (string * int) list) list;
      (** chosen buffer→channel placement per stage, topological order. *)
  pcycles : float;
}

val explore_placed : Device.t -> analyzed -> jspace -> pevaluated list
(** Every joint point with its per-stage placements resolved, ranked
    fastest-first (ties by {!compare_joint}), through the staged
    per-stage models. On a 1-channel device the only candidate placement
    is empty and the ranking degenerates to {!explore}'s. *)

val explore_placed_reference : Device.t -> analyzed -> jspace -> pevaluated list
(** The unstaged reference (direct {!Model.estimate} on each placed
    analysis): same ranking as {!explore_placed}, bitwise — the
    differential tests pin this. *)

val best_placed :
  Device.t -> analyzed -> jspace -> (pevaluated * jprogress) option
(** The fastest placement-resolved joint point under bound pruning. The
    single-kernel lower bound is placement-independent (the memory floor
    is the 1/N_chan stream floor, valid for every placement), so the
    bound staged on the base analyses soundly prunes placement-resolved
    points. Agrees with [List.hd (explore_placed ...)]. *)
