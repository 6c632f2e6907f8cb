(** Parallel memoized design-space sweep engine.

    FlexCL's headline claim is exploration speed: the analytical model
    sweeps thousand-point design spaces in seconds (§4.3, Table 2). This
    engine makes the sweep scale with cores and prune dominated points:

    {ul
    {- points are chunked by work-group size and distributed over a
       {!Flexcl_util.Pool} of domains, so each chunk reuses one
       {!Analysis.with_wg_size} re-analysis, computed once per
       (analysis, size) and shared by every sweep on that analysis;}
    {- [best]-mode sweeps can skip a point whose
       {!Flexcl_core.Model.lower_bound} already exceeds the incumbent;}
    {- a [?progress] callback reports points evaluated/pruned/failed.}}

    {b Determinism.} Oracles are pure per (analysis, config), every
    point's cost is independent of evaluation order, and the final
    ranking sorts on [(cycles, config)] — so [sweep] returns bit-for-bit
    the same list at any [num_domains] (including the [0] sequential
    fallback), and [best] with pruning returns exactly the [best] without
    (the pruner only skips points whose bound strictly exceeds the
    incumbent, plus a rounding margin, so ties are always evaluated).
    The differential tests in [test/test_parsweep.ml] pin this. *)

module Config = Flexcl_core.Config
module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis

type evaluated = { config : Config.t; cycles : float }

type oracle = Analysis.t -> Config.t -> float
(** Cost of one design point, given an analysis whose launch already has
    the point's work-group size. Must be pure and domain-safe. The
    engine partially applies an oracle to its analysis once per chunk,
    so per-analysis setup work (e.g. the staged-specialization lookup in
    {!Explore.specialized_model_oracle}) is paid per chunk, not per
    point. *)

type progress = {
  total : int;      (** feasible points in the sweep. *)
  evaluated : int;  (** oracle calls that returned a finite cost. *)
  pruned : int;     (** points skipped by bound-based pruning. *)
  failed : int;     (** oracle calls that returned a non-finite cost. *)
}

val sweep :
  ?num_domains:int ->
  ?progress:(progress -> unit) ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle -> evaluated list
(** Every feasible point with a finite cost, sorted fastest-first
    (ties broken by config). [num_domains] defaults to
    [Domain.recommended_domain_count () - 1]; [0] runs sequentially on
    the calling domain. Non-finite costs (a failing oracle, e.g. the
    SDAccel baseline) are dropped, never ranked. The [progress] callback
    runs after every point, serialized under the engine's lock (it may be
    invoked from worker domains). *)

val sweep_stats :
  ?num_domains:int ->
  ?progress:(progress -> unit) ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle ->
  evaluated list * progress
(** {!sweep} plus the final counters. *)

val best :
  ?num_domains:int ->
  ?progress:(progress -> unit) ->
  ?bound:(Analysis.t -> Config.t -> float) ->
  Model.Device.t -> Analysis.t -> Space.t -> oracle ->
  evaluated option * progress
(** Minimum-cost point (by [(cycles, config)]), or [None] if the space
    has no feasible point with a finite cost. When [bound] is given
    (e.g. [Model.lower_bound dev] for the model oracle), points whose
    bound strictly exceeds the incumbent's cost are skipped without
    calling the oracle; the bound must be a true lower bound of the
    oracle or pruning may discard the optimum. *)

val eval_batch :
  ?num_domains:int -> Analysis.t -> Config.t list -> oracle -> evaluated list
(** Evaluate an explicit list of points (no feasibility filter, no cost
    filter, no ranking), preserving input order. Used by the greedy
    heuristic to evaluate one knob's candidate list as a parallel batch. *)
