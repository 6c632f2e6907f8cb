(** Design-space exploration (§4.3).

    [exhaustive] sweeps every feasible point through a cost oracle;
    FlexCL's oracle is the analytical model (seconds for hundreds of
    points), System Run's is the cycle-level simulator (the stand-in for
    hours-per-point synthesis). Sweeps run through the parallel engine
    ({!Parsweep}): points are chunked by work-group size over a domain
    pool, and each size is re-analyzed once per analysis
    ({!Analysis.with_wg_size}). Results are bit-for-bit independent of
    [num_domains]. *)

module Config = Flexcl_core.Config
module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis

type evaluated = Parsweep.evaluated = { config : Config.t; cycles : float }

type oracle = Parsweep.oracle
(** Cost of one design point, given an analysis whose launch already has
    the point's work-group size. *)

val model_oracle : Model.Device.t -> oracle
(** FlexCL's analytical estimate, one {!Model.estimate} per point. Kept
    as the per-point reference the differential suite compares
    {!specialized_model_oracle} against. *)

val specialized_model_oracle : Model.Device.t -> oracle
(** The analytical estimate on {!Model.specialization} (DESIGN.md §11):
    the first point of each (analysis, device) stages every
    config-invariant model term; subsequent points cost only the
    closed-form Eq. 5–12 tail. Returns bitwise-identical cycles to
    {!model_oracle} on every point, so sweeps, rankings and pruning
    behave identically — just faster. Partially applying the oracle to
    an analysis resolves the specialization once; {!Parsweep} does this
    per chunk. *)

val specialized_bound : Model.Device.t -> oracle
(** {!Model.lower_bound} on the same staged invariants (for
    [Parsweep.best ?bound] pruning alongside
    {!specialized_model_oracle}); bitwise equal to the unspecialized
    bound. *)

val specialized_for : Model.Device.t -> Analysis.t -> Model.specialized
(** The specialization behind the oracle, {!Model.specialization} under
    default options (exposed for benches and tests). *)

val sysrun_oracle : ?seed:int -> Model.Device.t -> oracle
(** Ground truth via the cycle-level simulator. *)

val sdaccel_oracle : Model.Device.t -> oracle
(** Baseline estimator; design points it fails on get [infinity] (which
    the sweep then filters out, so failures never rank). *)

val exhaustive :
  ?num_domains:int ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle -> evaluated list
(** Every feasible point with a finite cost, sorted fastest-first.
    [num_domains] (default [Domain.recommended_domain_count () - 1])
    sizes the worker pool; [0] runs sequentially. *)

val best :
  ?num_domains:int ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle -> evaluated
(** Minimum of {!exhaustive}; raises [Invalid_argument] when no point is
    rankable (empty feasible space, or every oracle call failed). *)

val best_result :
  ?num_domains:int ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle ->
  (evaluated, Flexcl_util.Diag.t) result
(** Total variant of {!best}: an empty feasible space, an all-failures
    sweep (see {!all_failed_diag}) or any sweep exception becomes a
    structured diagnostic instead of raising. *)

(** {2 Buffer→channel placement co-optimization (DESIGN.md §15)}

    On a multi-channel device ({!Flexcl_dram.Dram.config.n_channels}
    [> 1]) the memory roofline depends on which channel each buffer is
    bound to. These sweeps co-optimize the placement with the design
    point: each candidate placement gets a full (pruned) sweep over the
    space, and the candidates are ranked by their best point. *)

type placed = { placement : (string * int) list; best_point : evaluated }

val placement_candidates :
  Analysis.t -> n_channels:int -> (string * int) list list
(** The deterministic candidate set: the empty placement (all buffers on
    channel 0), every power-of-two spreading granularity (group size 1 =
    round robin), and every single-buffer isolation — [O(n_buffers)]
    structurally distinct candidates out of the
    [n_channels ^ n_buffers] full space. [[ [] ]] when
    [n_channels <= 1]. *)

val explore_placements :
  ?num_domains:int ->
  Model.Device.t -> Analysis.t -> Space.t -> placed list
(** Candidates ranked by their best design point (ties by config, then
    placement), each found by a {!Parsweep.best} sweep through the
    staged oracle with {!specialized_bound} pruning — sound across
    placements because the memory lower bound is placement-independent
    (the 1/N_chan stream floor holds for every placement). A candidate
    with no rankable point is dropped. *)

val explore_placements_reference :
  ?num_domains:int ->
  Model.Device.t -> Analysis.t -> Space.t -> placed list
(** The unstaged, unpruned reference ({!model_oracle} per point): the
    differential tests pin that {!explore_placements} ranks identically,
    bitwise. *)

val quality_vs_optimal :
  picked:Config.t ->
  truth:(Config.t -> float) ->
  all:Config.t list ->
  float
(** How far the picked point is from the true optimum, in percent:
    [100 * (truth picked - min truth) / min truth]. *)

val analysis_for : Analysis.t -> int -> Analysis.t
(** {!Analysis.with_wg_size}, kept under this name for existing
    callers. *)

val empty_space_diag : Flexcl_util.Diag.t
(** The diagnostic reported when no design point is feasible. *)

val all_failed_diag : Flexcl_util.Diag.t
(** The diagnostic reported when feasible points exist but every oracle
    evaluation returned a non-finite cost. *)
