open Flexcl_opencl
open Flexcl_ir

(** Kernel analysis (§3.2): parse → type-check → lower to the simplified
    CDFG → dynamically profile a few work-groups. The result is shared by
    the analytical model, the ground-truth simulator and the baseline
    estimator, and is independent of the PE/CU/pipeline knobs (only the
    work-group size changes it, through the launch). *)

type t = {
  kernel : Ast.kernel;
  sema : Sema.info;
  launch : Launch.t;
  cdfg : Cdfg.t;
  profile : Flexcl_interp.Interp.profile;
      (** the profiling run, without its final buffer contents
          ([buffers = []]): no model reads them, and every cached
          analysis would keep them alive. {!Flexcl_interp.Interp.run}
          returns them. *)
  wi_recurrences : Depend.recurrence list;
  loop_recurrences : (int * Depend.recurrence list) list;
  layout : Flexcl_dram.Dram.layout;
      (** global buffers placed in DRAM in declaration order. *)
}

val analyze : ?max_work_groups:int -> ?max_steps:int -> Ast.kernel -> Launch.t -> t
(** Raises {!Sema.Error} on ill-typed kernels,
    {!Flexcl_interp.Interp.Runtime_error} on faulting profiling runs and
    {!Flexcl_interp.Interp.Profile_budget_exceeded} when profiling
    exhausts its [max_steps] fuel (default
    {!Flexcl_interp.Interp.default_max_steps}). *)

val of_source : ?max_work_groups:int -> ?max_steps:int -> string -> Launch.t -> t
(** Parse a single-kernel source and analyze it. *)

val analyze_result :
  ?max_work_groups:int ->
  ?max_steps:int ->
  Ast.kernel ->
  Launch.t ->
  (t, Flexcl_util.Diag.t list) result
(** Total pipeline entry point: validates the launch, then runs
    {!analyze} with every stage exception (sema, lowering, profiling,
    fuel exhaustion, internal invariants) converted to a structured
    diagnostic. Never raises (except [Out_of_memory], which is not
    maskable meaningfully). *)

val of_source_result :
  ?max_work_groups:int ->
  ?max_steps:int ->
  ?file:string ->
  string ->
  Launch.t ->
  (t, Flexcl_util.Diag.t list) result
(** {!analyze_result} from source text. Parsing uses error recovery, so
    a syntactically broken kernel reports {e all} its syntax errors
    (each with line/column), not just the first. [file] tags the
    diagnostics for rendering. *)

val diag_of_exn : exn -> Flexcl_util.Diag.t
(** The exception-to-diagnostic mapping used by the [_result] API:
    frontend errors keep their source spans, [Invalid_argument]/
    [Failure] payloads are classified by their ["Module.fn:"] prefix,
    anything unrecognized becomes [Internal_error]. *)

val pipe_accesses : t -> (string * (float * float)) list
(** Profiled pipe traffic: per [pipe] parameter, mean (reads, writes)
    per work-item. The graph layer derives producer/consumer burst
    rates — and channel-depth stall terms — from these counts. *)

val trip : t -> Cdfg.loop_info -> float
(** Trip count of a loop: static when known, otherwise the profiled
    average; 0 when the loop never executes. *)

val with_wg_size : t -> int -> t
(** Re-analyze with a different work-group size (keeps total NDRange and
    arguments). The new size must divide the total 1-D work-item count;
    multi-dimensional launches redistribute the local size along x. The
    analysis itself at its own size; otherwise computed once per size
    and owned by [t] (see {!artifacts}). *)

val with_placement : t -> (string * int) list -> t
(** The same analysis with a different buffer→channel placement. Cheap
    and exact: placement relocates buffers in the DRAM address space and
    nothing else, so only [layout] (and the launch) changes — sema, the
    CDFG, the profile and the recurrences are shared. The placement is
    not validated here; see {!Flexcl_ir.Launch.with_placement_result}
    and {!Flexcl_dram.Dram.placement_error}. *)

(** {2 Artifacts owned by an analysis}

    What is derived from an analysis (re-analyses, the model's pattern
    counts, replay spans, specializations, traces) lives in side tables
    keyed on the analysis's physical identity, so it is computed once
    per analysis and freed with it: no kernel-name key, no capacity.
    [t] keeps its fields; a copy such as {!with_placement}'s is a new
    owner with empty tables. *)

type ('k, 'v) artifacts

val artifacts : unit -> ('k, 'v) artifacts
(** A new side table. Domain-safe. *)

val artifact : ('k, 'v) artifacts -> t -> 'k -> (unit -> 'v) -> 'v
(** The analysis's value for the key, computed single-flight on a miss
    ({!Flexcl_util.Cache.memo}). *)
