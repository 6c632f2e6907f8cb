(** The FlexCL analytical performance model (paper §3).

    [estimate] composes, for one design point:
    {ul
    {- the PE model — per-block resource-aware list scheduling, work-item
       initiation interval [II_comp^wi = max(RecMII, ResMII)] refined by
       modulo scheduling, pipeline depth [D_comp^PE] (Eq. 1–4);}
    {- the CU model — effective PE parallelism under shared local-memory
       ports and DSPs (Eq. 5–6);}
    {- the kernel model — effective CU parallelism under the work-group
       scheduling overhead (Eq. 7–8);}
    {- the global-memory model — profiled per-work-item pattern counts ×
       micro-benchmarked pattern latencies (Eq. 9);}
    {- barrier- or pipeline-mode integration (Eq. 10–12).}} *)

module Device = Flexcl_device.Device
module Dram = Flexcl_dram.Dram

(** Ablation switches for the refinements documented in DESIGN.md §4b.
    All on by default; the bench's ablation experiment turns them off one
    at a time to quantify each one's contribution to accuracy. *)
type options = {
  cross_wi_coalescing : bool;
      (** coalesce across the work-item pipeline (off: per-work-item
          runs only). *)
  warm_classification : bool;
      (** measure the steady state of the row buffers (off: cold
          banks). *)
  bus_roofline : bool;
      (** floor estimates by the shared-bus bandwidth (off: Eq. 10/11
          literal). *)
  multi_cu_dram_replay : bool;
      (** derive multi-CU barrier memory from the calibrated DRAM state
          machine (off: divide serialized memory by [N_CU]). *)
  vector_width : int;
      (** kernel vectorization via OpenCL vector types, modeled as PE
          parallelism per the paper's footnote 1: one [intN]-wide PE
          behaves as [N] scalar PEs. Default 1 (scalar). *)
}

val default_options : options

type breakdown = {
  ii_wi : int;          (** [II_comp^wi]. *)
  depth_pe : int;       (** [D_comp^PE]. *)
  rec_mii : int;
  res_mii : int;
  l_pe : float;         (** Eq. 1. *)
  n_pe_eff : int;       (** Eq. 6. *)
  l_cu : float;         (** Eq. 5. *)
  n_cu_eff : int;       (** Eq. 8. *)
  l_comp_kernel : float;(** Eq. 7. *)
  l_mem_wi : float;     (** Eq. 9. *)
  pattern_counts : (Dram.pattern * float) list;
      (** mean per-work-item coalesced transactions per Table-1 pattern. *)
  dsp_footprint : int;  (** spatial DSP cost of one PE. *)
  cycles : float;       (** Eq. 10 (barrier) or Eq. 11 (pipeline). *)
  seconds : float;
}

val estimate :
  ?options:options -> Device.t -> Analysis.t -> Config.t -> breakdown
(** Cycle estimate for a design point: {!specialized_estimate} on a
    one-point {!specialize} of the analysis at the configuration's
    [wg_size] (re-analyzed with [Analysis.with_wg_size] when it differs
    from the launch). *)

val cycles : Device.t -> Analysis.t -> Config.t -> float
(** Shorthand for [(estimate _ _ _).cycles]. *)

val explain :
  ?options:options ->
  Device.t ->
  Analysis.t ->
  Config.t ->
  breakdown * Flexcl_util.Trace.t
(** Like {!estimate}, plus a cycle-attribution trace (DESIGN.md §10): a
    tree whose root carries exactly [breakdown.cycles] and whose every
    level decomposes its parent — kernel into memory and compute terms,
    compute into work-group rounds and dispatch overhead, the PE depth
    into per-basic-block schedule contributions, memory into per-Table-1
    pattern [count × latency] products. Conservation holds at every
    node: the children of a node sum to its cycles within [Trace.check]'s
    tolerance ([max] alternatives keep the winning branch; losers appear
    as 0-cycle leaves annotated with the cycles they would have cost).
    The breakdown and the trace come from one evaluation of the staged
    tail {!specialized_estimate} runs, so the root is the estimate by
    construction; the trace reuses the stage's block schedules and is
    memoized per (kernel, device, design point, options): the first call
    pays one region traversal, repeat calls cost a hash lookup. *)

val estimate_result :
  ?options:options ->
  Device.t ->
  Analysis.t ->
  Config.t ->
  (breakdown, Flexcl_util.Diag.t) result
(** Total variant of {!estimate}: validates the device and design point
    (including the [wg_size]-matches-launch precondition) and converts
    any scheduler/model exception into a structured diagnostic instead
    of raising. *)

val feasible : Device.t -> Analysis.t -> Config.t -> bool
(** Resource check: DSP footprint × PE × CU within the device budget,
    local memory × CU within BRAM, CU count within the practical bound,
    and [n_pe <= wg_size]. *)

val lower_bound : Device.t -> Analysis.t -> Config.t -> float
(** Cheap cycles lower bound for a design point, used by the DSE engine's
    bound-based pruning: [lower_bound dev a cfg <= cycles dev a cfg] (up
    to float rounding) under {!default_options}. Built from the
    dependence-only critical path of the kernel body (no list/modulo
    scheduling), the shared-bus memory floor [txns/WI ⋅ N_wi ⋅ t_bus],
    and the work-group dispatch floor — each a provable underestimate of
    the corresponding {!estimate} term. The bound is {e not} valid for
    other oracles (the simulator, the SDAccel baseline) or non-default
    ablation options. It is {!specialized_lower_bound} on a one-point
    {!specialize}, like {!estimate}. *)

(** {2 Staged specialization for DSE sweeps (DESIGN.md §11)}

    A sweep evaluates one [(device, analysis)] pair at thousands of
    design points. {!specialize} performs the config-invariant work once
    — per-block list schedules, the SMS-refined [II_comp^wi] and
    [D_comp^PE] (staged per distinct DSP share, the scheduler's only
    PE/CU-knob dependence), Table-1 pattern counts and the Eq. 9
    per-work-item latency, bus-roofline totals, DSP/port footprints, and
    the lower bound's critical path — so each subsequent point costs only
    the closed-form Eq. 5–12 tail (~50 float operations). That tail is
    the model's only implementation of Eq. 5–12: {!estimate}, {!explain}
    and {!lower_bound} run it on a one-point specialization. *)

type specialized
(** A model staged on [(device, analysis, options)]; evaluate with
    {!specialized_estimate}. Values are cheap to hold and domain-safe:
    the per-DSP-share schedule stage lives in a [Flexcl_util.Memo]. *)

val specialize : ?options:options -> Device.t -> Analysis.t -> specialized
(** Stage every config-invariant model term for this analysis. One
    specialization serves any number of design points: its per-DSP-share
    schedule stage is computed on first use and shared, so a reused
    specialization gives, bit for bit, what a fresh one gives
    ([test/test_specialize.ml] checks this over the whole default space
    under every options ablation). *)

val specialized_estimate : specialized -> Config.t -> breakdown
(** Evaluate one design point on the staged model. A point whose
    [wg_size] differs from the specialized launch is evaluated on a
    one-point specialization of the re-analyzed kernel, exactly as
    {!estimate} would. *)

val specialized_cycles : specialized -> Config.t -> float
(** Shorthand for [(specialized_estimate _ _).cycles]. *)

val specialized_lower_bound : specialized -> Config.t -> float
(** The pruning bound on the staged invariants (critical path and the
    default-options memory floors are staged whatever options the model
    was specialized with; the per-point part is a few float operations).
    {!lower_bound} is this function on a one-point specialization; a
    [wg_size] mismatch re-specializes like {!specialized_estimate}. *)

val specialized_options : specialized -> options
(** The options the model was staged with. *)

val specialized_analysis : specialized -> Analysis.t
(** The analysis the model was staged on. *)

val bottleneck : breakdown -> string
(** Human-readable dominant term ("global memory", "recurrence",
    "local-memory ports", "DSP", "compute depth", "scheduling overhead")
    — the code-restructuring hint the paper's introduction promises. *)

(** {2 Hooks for the ground-truth simulator}

    The simulator shares the model's structural composition but injects
    realized (per-instance) block latencies and recomputes memory timing
    through the stateful DRAM simulator, so the two diverge exactly where
    real systems diverge from the analytical average. *)

val region_latency_with :
  ?block_lat:(Flexcl_ir.Dfg.t -> int) ->
  Device.t ->
  Analysis.t ->
  Config.t ->
  Flexcl_ir.Cdfg.region ->
  float
(** Latency of a region; [block_lat] overrides per-block latencies. *)

val dsp_share_of : Device.t -> Config.t -> int
(** DSP slots one PE may occupy at a design point,
    [max 8 (dsp_total / (n_pe · n_cu))]: the scheduler's only dependence
    on the PE/CU knobs. *)

val mean_pattern_counts :
  ?options:options -> Analysis.t -> Device.t -> (Dram.pattern * float) list
(** Mean per-work-item coalesced transaction counts per pattern. *)

val mean_pattern_counts_by_channel :
  ?options:options -> Analysis.t -> Device.t -> (Dram.pattern * float) list array
(** Per-channel mean per-work-item pattern counts (index = channel);
    their elementwise sum equals {!mean_pattern_counts}. Cached like
    {!mean_pattern_counts}. *)

val channel_demands :
  ?options:options -> Analysis.t -> Device.t -> n_wi_f:float -> float array
(** Per-channel demanded service cycles of the whole NDRange (DESIGN.md
    §15, Eq. R1): transactions bound to the channel × max(t_bus, mean
    pattern latency / queue_depth). Empty demand = 0. *)

val channel_roofline :
  ?options:options -> Analysis.t -> Device.t -> n_wi_f:float -> float
(** The memory-bound path: max over {!channel_demands} (the slowest
    channel binds). On [n_channels > 1] devices this replaces the
    single shared-bus floor inside {!estimate}. *)

val pattern_latencies : Device.t -> (Dram.pattern * float) list
(** Micro-benchmark pattern latency table of a device (cached). *)
