(** Learned residual calibration (DESIGN.md §16).

    FlexCL's analytical estimate is closed-form, so its residual against
    the simrtl ground truth is systematic and learnable (Johnston et
    al., PAPERS.md). This module fits a pure-OCaml ridge regression to
    the log-ratio [ln (sim / est)] over the suite's
    architecture-independent feature vector expanded with device
    descriptors and multichannel interaction terms, entirely
    closed-form: standardized features, normal equations, Cholesky
    solve — no RNG anywhere in the fit path, so the same samples
    produce the same model bytes.

    Hyperparameters (the ridge strength λ and a prediction shrinkage α)
    are selected on a fixed grid by leave-one-kernel-out (LOKO)
    cross-validation: every fold holds out all rows of one workload, so
    the reported MAPE is a generalization claim, not a training score.
    The empirical prediction interval comes from the 5%/95% quantiles
    of the held-out log-residual errors. *)

module Device = Flexcl_device.Device
module Analysis = Flexcl_core.Analysis
module Config = Flexcl_core.Config
module Diag = Flexcl_util.Diag
module Json = Flexcl_util.Json

val schema_version : int
val kind : string
(** Model-artifact identity ([{"kind":"flexcl-learn-model",...}]). *)

(* ------------------------------------------------------------------ *)
(** {1 Features} *)

val features : Analysis.t -> Device.t -> (string * float) list
(** Architecture-independent workload descriptors (Johnston et al.):
    launch geometry, op mix, loop/barrier structure and per-pattern
    Table-1 memory transaction counts. This is the vector the suite
    records per entry in [BENCH_suite.json] (the device is consulted
    only for transaction coalescing, it contributes no fields). *)

val expand : device:Device.t -> (string * float) list -> (string * float) list
(** The derived regression inputs, sorted by name: [log1p] of every
    recorded feature, per-op intensity ratios, device descriptors
    (clock, DSP/BRAM budgets, channel count) and
    multichannel × memory-pattern interaction terms. Total over any
    input; unknown features simply contribute their transform. *)

(* ------------------------------------------------------------------ *)
(** {1 Samples} *)

type sample = {
  workload : string;       (** LOKO grouping key ["benchmark/kernel"]. *)
  device : Device.t;
  est_cycles : float;      (** analytical estimate (> 0 to be usable). *)
  sim_cycles : float;      (** simrtl ground truth (> 0 to be usable). *)
  features : (string * float) list;  (** recorded vector, un-expanded. *)
}

val residual : sample -> float
(** The regression target [ln (sim_cycles /. est_cycles)]. *)

(* ------------------------------------------------------------------ *)
(** {1 Linear algebra (exposed for the property suite)} *)

val cholesky : float array array -> (float array array, string) result
(** Lower-triangular L with [L L^T = A] for a symmetric positive
    definite [A]; [Error] if a pivot is not strictly positive. *)

val solve_spd : float array array -> float array -> (float array, string) result
(** [solve_spd a b] solves [A x = b] by {!cholesky} plus forward and
    back substitution. *)

type standardizer = { mu : float array; sigma : float array }

val standardizer_of : float array array -> standardizer
(** Per-column mean and population stddev over the rows; a constant
    column gets [sigma = 1] so standardization stays total. *)

val standardize : standardizer -> float array -> float array
val unstandardize : standardizer -> float array -> float array
(** [unstandardize s (standardize s x) = x] elementwise. *)

(* ------------------------------------------------------------------ *)
(** {1 The model artifact} *)

type model = {
  feature_names : string array;  (** sorted; parallel to the arrays. *)
  mu : float array;
  sigma : float array;
  weights : float array;         (** pre-scaled by [alpha]. *)
  intercept : float;             (** pre-scaled by [alpha]. *)
  lambda : float;
  alpha : float;                 (** prediction shrinkage in (0, 1]. *)
  q_lo : float;                  (** empirical log-residual quantiles *)
  q_hi : float;                  (** bounding the prediction interval. *)
  nominal_coverage : float;
  n_train : int;
  kernels : string list;         (** sorted distinct training workloads. *)
}

val model_to_json : model -> Json.t
val model_to_string : model -> string
(** Canonical bytes: fixed field order, features sorted by name,
    deterministic float printing; [model_of_string |> model_to_string]
    is the identity on bytes. *)

val model_of_json : Json.t -> (model, Diag.t) result
val model_of_string : string -> (model, Diag.t) result
(** Total decoders; foreign [kind]s, unknown [schema_version]s and
    malformed fields are rejected with a [Diag] naming the offense. *)

(* ------------------------------------------------------------------ *)
(** {1 Fitting and cross-validation} *)

val lambda_grid : float list
val alpha_grid : float list
(** The fixed hyperparameter grids LOKO selection searches (ascending;
    ties keep the earliest grid point, so selection is deterministic). *)

val loko_folds : sample list -> (string * sample list * sample list) list
(** [(kernel, train, held_out)] per distinct workload, sorted by
    kernel: every sample of the kernel is in [held_out] and none in
    [train], and each kernel appears exactly once. *)

val fit :
  ?lambda:float ->
  ?alpha:float ->
  ?coverage:float ->
  sample list ->
  (model, Diag.t) result
(** Fit on every usable sample (both cycle counts strictly positive).
    Unset hyperparameters are selected by LOKO grid search when the
    samples span at least two workloads, otherwise they fall back to
    deterministic defaults. The prediction interval uses held-out
    errors when LOKO ran, training errors otherwise. [Error] when no
    usable sample remains. *)

type fold_report = {
  kernel : string;
  rows : int;
  raw_mape : float;  (** mean [err_pct] of the held-out rows. *)
  cal_mape : float;  (** mean calibrated error of the held-out rows. *)
}

type cv = {
  cv_lambda : float;
  cv_alpha : float;
  cv_coverage : float;           (** nominal. *)
  achieved_coverage : float;     (** share of held-out errors inside
                                     [[cv_q_lo, cv_q_hi]]. *)
  cv_q_lo : float;
  cv_q_hi : float;
  n : int;                       (** usable rows. *)
  n_kernels : int;
  mean_raw_mape : float;         (** over rows, uncalibrated. *)
  mean_cal_mape : float;         (** over rows, per-kernel-held-out. *)
  folds : fold_report list;      (** sorted by kernel. *)
}

val crossval :
  ?lambda:float ->
  ?alpha:float ->
  ?coverage:float ->
  sample list ->
  (cv, Diag.t) result
(** Leave-one-kernel-out report over the usable samples; every
    calibrated error is computed by a model that never saw the row's
    workload. [Error] (usage) when fewer than two distinct workloads
    remain. *)

val cv_to_json : cv -> Json.t
val cv_to_string : cv -> string
(** Canonical bytes (same discipline as the model artifact). *)

(* ------------------------------------------------------------------ *)
(** {1 Prediction} *)

type calibrated = {
  raw : float;     (** the uncalibrated analytical estimate. *)
  cycles : float;  (** [raw *. exp predicted_residual]. *)
  lo : float;      (** interval endpoints from the stored quantiles; *)
  hi : float;      (** [lo <= cycles <= hi] always holds. *)
}

val predict_residual : model -> device:Device.t -> (string * float) list -> float
(** Predicted log-residual for a recorded (un-expanded) feature
    vector; features the model never saw are ignored, features it saw
    but the vector lacks count as zero. *)

val calibrate :
  model -> device:Device.t -> est:float -> (string * float) list -> calibrated

val calibrated_estimate :
  model -> Device.t -> Analysis.t -> Config.t -> (calibrated, Diag.t) result
(** The one calibration path: [flexcl predict --calibrated] and
    serve's ["calibrated":true] predictions both call it on a point
    the request layer has already estimated. It runs the sequential
    analytical estimate, then {!calibrate} over {!features}. *)
