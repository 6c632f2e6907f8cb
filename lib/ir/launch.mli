(** Kernel launch configuration: NDRange geometry and argument values.

    FlexCL needs concrete argument values for its dynamic profiling step
    (trip counts, memory traces), exactly like the paper's CPU/GPU
    profiling run. Buffers are described by a length and a deterministic
    initialization recipe so the whole pipeline stays reproducible. *)

type dim3 = { x : int; y : int; z : int }

val dim3 : ?y:int -> ?z:int -> int -> dim3
(** [dim3 x] is [{x; y = 1; z = 1}] unless overridden. *)

val volume : dim3 -> int

type scalar_value = Int of int64 | Float of float

type buffer_init =
  | Zeros
  | Ramp  (** element [i] gets value [i] (as the element type). *)
  | Const_init of float
  | Random_floats of int  (** seed; uniform in [\[0, 1)]. *)
  | Random_ints of int * int  (** seed, exclusive bound. *)

type arg =
  | Scalar of scalar_value
  | Buffer of { length : int; init : buffer_init }

type t = {
  global : dim3;  (** total work-items per dimension (NDRange). *)
  local : dim3;   (** work-items per work-group per dimension. *)
  args : (string * arg) list;  (** by parameter name. *)
  placement : (string * int) list;
      (** buffer name → DRAM channel binding; [[]] places every buffer
          on channel 0 (the only channel of classic DDR devices). *)
}

val make :
  global:dim3 -> local:dim3 -> args:(string * arg) list -> t
(** Validates that each local dimension divides the global one and is
    positive; raises [Invalid_argument] otherwise. The placement starts
    empty; see {!with_placement_result}. *)

val make_result :
  global:dim3 -> local:dim3 -> args:(string * arg) list ->
  (t, string list) result
(** Total variant of {!make}: [Error problems] lists every violated
    invariant (non-positive or non-dividing dimensions, NDRange volume
    or buffer length beyond the supported bounds, duplicate or NaN
    arguments) instead of raising. *)

val validate : t -> string list
(** All invariant violations of an already-built value (a record
    assembled by hand can bypass {!make}); [[]] means well-formed. *)

val n_work_items : t -> int
val wg_size : t -> int
val n_work_groups : t -> int

val find_arg : t -> string -> arg option

val scalar_env : t -> (string * int64) list
(** Integer-valued scalar arguments, for static trip-count evaluation. *)

val work_groups : t -> dim3 list
(** All work-group ids in dispatch (row-major) order. *)

val local_ids : t -> dim3 list
(** All local ids within one work-group, row-major. *)

val fingerprint : t -> string
(** Stable content hash (hex, via {!Flexcl_util.Hash}) of the NDRange,
    the full argument recipe and the buffer→channel placement —
    everything that determines analysis results {e except} the local
    size. An empty placement hashes to the pre-placement fingerprint.
    Cache keys (the serve caches, the simulator's deep profiles) pair
    the fingerprint with the launch's [wg_size]. *)

val buffer_names : t -> string list
(** Names of the buffer-typed arguments, in declaration order. *)

val with_placement : t -> (string * int) list -> t
(** Same launch with a different buffer→channel placement (not
    re-validated; pair with {!validate} or
    {!Flexcl_dram.Dram.placement_error} as appropriate). *)

val with_placement_result : t -> (string * int) list -> (t, string list) result
(** {!with_placement} + {!validate}: [Error problems] when the placement
    names unknown or scalar arguments, repeats a buffer, or uses a
    negative channel. Whether a placed channel exists on the target
    device is checked where the device is known
    ({!Flexcl_dram.Dram.placement_error}). *)

val round_robin_placement : t -> n_channels:int -> (string * int) list
(** Buffer [i] → channel [i mod n_channels]; [[]] when [n_channels <= 1].
    The default placement heuristic for multi-channel devices. *)
