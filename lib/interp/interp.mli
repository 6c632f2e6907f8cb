open Flexcl_opencl
open Flexcl_ir

(** Interpreter and dynamic profiler for the OpenCL subset.

    Plays the role of the paper's CPU/GPU profiling run (§3.2): a few
    work-groups of the kernel are executed to collect loop trip counts
    and the global-memory access trace; it also produces functional
    results used to validate the workload kernels.

    Compile, then run: once per {!run}, the kernel body is turned into
    OCaml closures with every variable resolved to a slot in a per
    work-item array, every builtin call to its implementation, every
    array access to its address space, element width and dimensions
    (and a global one to its numbered site, see {!site}), and every
    loop to its id. The compiled kernel closes over the run's
    own state, so concurrent runs on several domains share nothing.
    Execution is exactly what a direct walk of the syntax tree would do:
    operands, call arguments and indices evaluate left to right, an
    array store evaluates its value before its indices, one step of
    fuel is spent per executed statement (loop initializer and step
    included) and per loop iteration, [max_trips] leaves out loops that
    never iterated, a [return] out of a loop records no trip for it, and
    an unbound name, a non-array, an unknown function or a wrong arity
    raises only when that node executes. test/goldens/profiles.golden
    pins every bundled profile bitwise.

    Work-group barrier semantics: when every [barrier()] sits at the top
    level of the kernel body, the body is split at barriers and each
    phase runs for all work-items of the group before the next phase
    starts, so producer/consumer communication through [__local] memory
    is exact. Kernels with barriers nested in control flow are executed
    one work-item at a time (trip counts and traces remain usable; local
    data exchange between work-items is then approximate). *)

exception Runtime_error of string

exception Profile_budget_exceeded of int
(** Raised when a profiling run exhausts its step budget (the argument):
    the kernel is almost certainly non-terminating under the given
    launch. One step is one executed statement or loop iteration. *)

val default_max_steps : int
(** Fuel given to a profiling run unless overridden: 10 million steps,
    enough for every bundled workload with two orders of magnitude of
    slack, small enough to cut an infinite loop off in well under a
    second. *)

type value = I of int64 | F of float

val to_float : value -> float
val to_int : value -> int64

(** {2 Global-memory traces}

    A profiled access is one immediate int that packs the element
    index with the number of its {e site}: one (buffer, kind, element
    width) triple. A run numbers its sites from 0 as it compiles the
    access nodes that name them, and lists them in {!profile.sites}.
    The index takes the low {!index_bits} = 28 bits: every index is
    below its buffer's length, which a valid launch bounds by 2{^28}
    ([Flexcl_ir.Launch]'s buffer-length limit), and a run raises
    {!Runtime_error} on a longer buffer. The site takes the 34 bits
    above it, so an access is a non-negative int; a run that needs more
    sites raises {!Runtime_error} rather than wrap. Only this module
    packs or unpacks an access. *)

type site = {
  array : string;
  kind : [ `Read | `Write ];
  elem_bits : int;  (** element width, for coalescing and bank mapping. *)
}

type access [@@immediate]
(** One profiled global-memory access: a site number and an element
    index, packed into an immediate int. *)

val index_bits : int
(** Bits of an access that hold its element index (28). *)

val access : site:int -> int -> access
(** [access ~site i] is an access to element [i] (below
    [2{^index_bits}]) through site number [site]. *)

val access_site : access -> int
(** The site number: an index into the profile's {!profile.sites}. *)

val access_index : access -> int
(** The element index within the site's buffer. *)

type buffer
(** A global buffer's final contents, stored unboxed by element type. *)

val buffer_values : buffer -> value array
(** Every element, as the kernel would read it: [F] for a float or
    double buffer, [I] (all 64 bits) for an integer one. *)

type profile = {
  avg_trips : (int * float) list;
      (** loop id -> mean iterations per loop entry. *)
  max_trips : (int * int) list;
  wi_traces : access list array;
      (** global-memory accesses per profiled work-item, program order. *)
  sites : site array;
      (** the run's site table: entry [n] is site number [n]. *)
  n_work_items_profiled : int;
  buffers : (string * buffer) list;
      (** final buffer contents (global arguments only). Only {!run}
          and {!run_all} fill this in; the profile an analysis keeps
          ([Flexcl_core.Analysis.t]) has [buffers = []]. *)
  pipe_counts : (string * (float * float)) list;
      (** per [pipe] parameter, (reads, writes) per profiled work-item.
          Reads yield a deterministic ramp (the i-th packet read is i). *)
  steps : int;
      (** fuel the run spent: [max_steps] minus the fuel left, which is
          the least [max_steps] the same run succeeds with. *)
}

val trip_of : profile -> int -> float
(** Average trip count of a loop id; 0. when the loop never ran. *)

val run :
  ?max_work_groups:int ->
  ?max_steps:int ->
  Ast.kernel ->
  Sema.info ->
  Launch.t ->
  profile
(** Execute up to [max_work_groups] (default 2) work-groups. Buffers are
    materialized from the launch description (deterministically seeded);
    indices out of bounds raise {!Runtime_error}. The whole run is
    bounded by [max_steps] fuel (default {!default_max_steps}); crossing
    it raises {!Profile_budget_exceeded}. *)

val run_all : ?max_steps:int -> Ast.kernel -> Sema.info -> Launch.t -> profile
(** Execute every work-group (functional validation of small launches). *)
