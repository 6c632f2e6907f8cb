(* flexcl — command-line front end.

   Subcommands:
     flexcl analyze   (--kernel FILE | --workload NAME) [launch/design flags]
     flexcl explain   (--kernel FILE | --workload NAME) [launch/design flags]
                      [--json] [--max-depth N]
     flexcl simulate  (--kernel FILE | --workload NAME) [launch/design flags]
     flexcl explore   (--kernel FILE | --workload NAME) [--top N]
     flexcl workloads [--suite rodinia|polybench]
     flexcl pipeline  list | analyze | explain | explore | cosim
                      [--graph NAME] [--depth N] [...]
     flexcl predict   (--kernel FILE | --workload NAME) [launch/design flags]
                      [--calibrated MODEL]
     flexcl suite     [--list] [--smoke] [--filter SUBSTR] [--out FILE]
                      [--compare BASELINE] [--repeat N] [--warmup N]
                      [--seed N] [--quiet] [--model MODEL] [--fit FILE]
     flexcl fit       --from REPORT [--out MODEL] [--lambda F] [--alpha F]
     flexcl crossval  --from REPORT [--gate] [--lambda F] [--alpha F]
     flexcl serve     [--jobs N] [--cache N] [--socket PATH]
                      [--max-inflight N] [--max-line-bytes N]
                      [--drain-timeout-ms MS] [--model MODEL]

   For a kernel file, pointer parameters become deterministic random
   buffers of --buffer-size elements; integer scalars default to
   --buffer-size and can be pinned with --int-arg name=value. Every
   request is resolved, validated and run through Flexcl_server.Query,
   as serve's are. *)

open Cmdliner
module L = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Explore = Flexcl_dse.Explore
module Sysrun = Flexcl_simrtl.Sysrun
module W = Flexcl_workloads.Workload
module Table = Flexcl_util.Table
module Diag = Flexcl_util.Diag
module Json = Flexcl_util.Json
module Server = Flexcl_server.Server
module Query = Flexcl_server.Query
module Learn = Flexcl_learn.Learn

(* Exit codes (documented in README "Error handling"): 0 success,
   1 input error (bad kernel/launch/design point), 2 usage error,
   3 internal error. *)
let exit_input_error = 1
let exit_usage_error = 2
let exit_internal_error = 3
let ( let* ) = Result.bind

let print_diags ?source diags =
  prerr_endline (Diag.render_all ?source diags)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
      (* Sys_error already leads with the path; the Diag carries it *)
      let prefix = path ^ ": " in
      let n = String.length prefix in
      Error
        (if String.length msg >= n && String.sub msg 0 n = prefix then
           String.sub msg n (String.length msg - n)
         else msg)
  | s -> Ok s

(* Last line of defense: a subcommand must never escape with an
   exception — report it as an internal diagnostic and exit 3. *)
let guarded f =
  try f () with
  | exn ->
      print_diags [ Analysis.diag_of_exn exn ];
      exit_internal_error

(* ------------------------------------------------------------------ *)
(* Shared options *)

let name_conv lookup name_of =
  let parse s = Result.map_error (fun d -> `Msg d.Diag.message) (lookup s) in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name_of v))

let device_arg =
  Arg.(
    value
    & opt
        (name_conv Query.device (fun (d : Device.t) -> d.Device.name))
        Device.virtex7
    & info [ "device" ] ~docv:"NAME"
        ~doc:"Target FPGA: virtex7, ku060, ku060-2ddr or xcu280.")

let kernel_file =
  Arg.(
    value
    (* a plain string, not [non_dir_file]: unreadable files are reported
       through the E-IO diagnostic path with exit code 1 *)
    & opt (some string) None
    & info [ "kernel"; "k" ] ~docv:"FILE" ~doc:"OpenCL kernel source file.")

let workload_name =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:"Built-in workload, e.g. hotspot/hotspot (see 'flexcl workloads').")

(* The launch flags shape the launch made for a --kernel file; a
   workload carries its own launch, so they are optional and apply to
   --kernel only. *)
let global_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "global" ] ~docv:"N"
        ~doc:"NDRange size (with --kernel; default 4096).")

let wg_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "wg" ] ~docv:"N"
        ~doc:"Work-group size (with --kernel; default 64).")

let n_pe = Arg.(value & opt int 1 & info [ "pe" ] ~docv:"N" ~doc:"PEs per CU.")
let n_cu = Arg.(value & opt int 1 & info [ "cu" ] ~docv:"N" ~doc:"Compute units.")

let pipeline =
  Arg.(value & flag & info [ "pipeline" ] ~doc:"Enable work-item pipelining.")

let comm_mode =
  let name_of = function
    | Config.Barrier_mode -> "barrier"
    | Config.Pipeline_mode -> "pipeline"
  in
  Arg.(
    value
    & opt (name_conv Query.mode name_of) Config.Pipeline_mode
    & info [ "mode" ] ~docv:"MODE" ~doc:"Communication mode: barrier or pipeline.")

let buffer_size =
  Arg.(
    value
    & opt (some int) None
    & info [ "buffer-size" ] ~docv:"N"
        ~doc:"Elements per buffer argument (with --kernel; default 4096).")

let int_args =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "int-arg" ] ~docv:"NAME=V" ~doc:"Pin an integer scalar argument.")

let float_args =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string float) []
    & info [ "float-arg" ] ~docv:"NAME=V" ~doc:"Pin a float scalar argument.")

let placement_args =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "placement" ] ~docv:"BUF=CHAN"
        ~doc:
          "Bind buffer $(b,BUF) to DRAM channel $(b,CHAN) (repeatable; only \
           meaningful on multi-channel devices such as xcu280).")

(* ------------------------------------------------------------------ *)
(* argv → Query *)

(* The kernel term every single-kernel command shares. It yields a
   thunk, so a command can check its own flags (a --calibrated model,
   --jobs) before the kernel file is read. [`Usage] is caller misuse
   (exit 2); [`Io] an unreadable file (exit 1); [Ok] carries the name
   the output shows, the source text when it came from a file, and the
   request. *)
let kernel_term =
  let decode device file workload global wg buffer_size ints floats placement
      () =
    let request source = { Query.source; placement; device; fuel = None } in
    match (file, workload) with
    | Some _, Some _ ->
        Error (`Usage "--kernel and --workload are mutually exclusive")
    | None, None ->
        Error (`Usage "one of --kernel FILE or --workload NAME is required")
    | Some f, None -> (
        match read_file f with
        | Error msg -> Error (`Io (Diag.make ~file:f Diag.Io_error msg))
        | Ok text ->
            let launch = { Query.global; wg; buffer_size; ints; floats } in
            Ok (f, Some text, request (Query.Text (text, launch))))
    | None, Some name -> (
        (* like serve's E-USAGE on these fields: never ignore them silently *)
        let given =
          [
            ("--global", global <> None);
            ("--wg", wg <> None);
            ("--buffer-size", buffer_size <> None);
            ("--int-arg", ints <> []);
            ("--float-arg", floats <> []);
          ]
        in
        match List.find_opt snd given with
        | Some (flag, _) ->
            Error
              (`Usage
                (flag
               ^ " does not apply to --workload (a workload carries its own \
                  launch)"))
        | None -> Ok (name, None, request (Query.Workload name)))
  in
  Term.(
    const decode $ device_arg $ kernel_file $ workload_name $ global_size
    $ wg_size $ buffer_size $ int_args $ float_args $ placement_args)

let point_term =
  Term.(
    const (fun pe cu pipeline mode -> { Query.pe; cu; pipeline; mode })
    $ n_pe $ n_cu $ pipeline $ comm_mode)

(* Query's diagnostics: usage errors exit 2, the rest 1. Those about
   the kernel's source name the file (or workload) it came from; those
   about flags and design points do not. *)
let report ?name ?source diags =
  let about_flags =
    Diag.[ Usage_error; Launch_invalid; Config_invalid; Empty_design_space ]
  in
  let locate d =
    match name with
    | Some n when not (List.mem d.Diag.code about_flags) -> Diag.with_file n d
    | _ -> d
  in
  print_diags ?source (List.map locate diags);
  if List.exists (fun d -> d.Diag.code = Diag.Usage_error) diags then
    exit_usage_error
  else exit_input_error

let with_query decode f =
  guarded (fun () ->
      match decode () with
      | Error (`Usage msg) ->
          prerr_endline ("flexcl: " ^ msg);
          exit_usage_error
      | Error (`Io d) ->
          print_diags [ d ];
          exit_input_error
      | Ok (name, source, q) -> (
          match f name q with
          | Ok code -> code
          | Error diags -> report ~name ?source diags))

let with_estimate decode point f =
  with_query decode (fun name q ->
      let* r = Query.resolve q in
      let* cfg = Query.config r point in
      let* a, b = Query.estimate r cfg in
      f name r a cfg b)

(* ------------------------------------------------------------------ *)
(* analyze *)

let print_breakdown dev name cfg (b : Model.breakdown) =
  Printf.printf "kernel        : %s on %s\n" name dev.Device.name;
  Printf.printf "design point  : %s\n" (Config.to_string cfg);
  Printf.printf "II work-item  : %d (RecMII %d, ResMII %d)\n" b.Model.ii_wi
    b.Model.rec_mii b.Model.res_mii;
  Printf.printf "depth         : %d cycles\n" b.Model.depth_pe;
  Printf.printf "L_PE          : %.0f cycles\n" b.Model.l_pe;
  Printf.printf "L_CU          : %.0f cycles (N_PE eff %d)\n" b.Model.l_cu
    b.Model.n_pe_eff;
  Printf.printf "L_comp kernel : %.0f cycles (N_CU eff %d)\n" b.Model.l_comp_kernel
    b.Model.n_cu_eff;
  Printf.printf "L_mem / WI    : %.2f cycles\n" b.Model.l_mem_wi;
  List.iter
    (fun (p, c) ->
      if c > 0.004 then
        Printf.printf "  %-10s %.3f txns/WI\n" (Flexcl_dram.Dram.pattern_name p) c)
    b.Model.pattern_counts;
  Printf.printf "DSP footprint : %d per PE\n" b.Model.dsp_footprint;
  Printf.printf "TOTAL         : %.0f cycles = %.2f us\n" b.Model.cycles
    (b.Model.seconds *. 1e6);
  Printf.printf "bottleneck    : %s\n" (Model.bottleneck b)

module Trace = Flexcl_util.Trace

(* A trace is only printed after Query.check_trace accepts it; a
   violation is a model bug, not an input problem, so it exits 3. *)
let with_checked_trace ~cycles tr f =
  match Query.check_trace ~cycles tr with
  | Error diags ->
      print_diags diags;
      Ok exit_internal_error
  | Ok trace_json -> f trace_json

let analyze_cmd =
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Also print the cycle-attribution trace (see 'flexcl explain').")
  in
  let run kernel point trace =
    with_estimate kernel point (fun name r a cfg b ->
        print_breakdown r.Query.device name (cfg :> Config.t) b;
        if not trace then Ok 0
        else
          let tr = Query.explain r a cfg in
          with_checked_trace ~cycles:b.Model.cycles tr (fun _ ->
              print_newline ();
              print_endline (Trace.render tr);
              Ok 0))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Estimate a kernel's performance analytically.")
    Term.(const run $ kernel_term $ point_term $ trace_flag)

(* ------------------------------------------------------------------ *)
(* explain *)

(* --json and --max-depth, shared with 'pipeline explain' *)
let trace_json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the trace as JSON instead of a tree.")

let max_depth_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Truncate the printed tree below depth $(docv) (text mode only).")

let explain_cmd =
  let run kernel point json max_depth =
    with_estimate kernel point (fun name r a cfg b ->
        let dev = r.Query.device and cfg' = (cfg :> Config.t) in
        let tr = Query.explain r a cfg in
        with_checked_trace ~cycles:b.Model.cycles tr (fun trace_json ->
            if json then (
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("kernel", Json.Str name);
                        ("device", Json.Str dev.Device.name);
                        ("config", Json.Str (Config.to_string cfg'));
                        ("cycles", Json.Num b.Model.cycles);
                        ("trace", trace_json);
                      ]));
              Ok 0)
            else begin
              Printf.printf "kernel       : %s on %s\n" name dev.Device.name;
              Printf.printf "design point : %s\n" (Config.to_string cfg');
              Printf.printf "prediction   : %.0f cycles = %.2f us\n\n"
                b.Model.cycles (b.Model.seconds *. 1e6);
              print_endline (Trace.render ?max_depth tr);
              Ok 0
            end))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every predicted cycle to a model term: a conservation-\
          checked tree from the kernel total down to per-block schedules \
          and per-pattern DRAM costs.")
    Term.(
      const run $ kernel_term $ point_term $ trace_json_flag $ max_depth_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let run kernel point =
    with_estimate kernel point (fun name r a cfg b ->
        let dev = r.Query.device and cfg = (cfg :> Config.t) in
        let s = Sysrun.run dev a cfg in
        Printf.printf "kernel    : %s on %s (%s)\n" name dev.Device.name
          (Config.to_string cfg);
        Printf.printf "model     : %.0f cycles\n" b.Model.cycles;
        Printf.printf "simulator : %.0f cycles (%d DRAM transactions)\n"
          s.Sysrun.cycles s.Sysrun.mem_transactions;
        if s.Sysrun.cycles = 0.0 then
          Printf.printf "error     : n/a (simulator reported 0 cycles)\n"
        else
          Printf.printf "error     : %.1f%%\n"
            (100.0
            *. Float.abs (b.Model.cycles -. s.Sysrun.cycles)
            /. s.Sysrun.cycles);
        Ok 0)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the cycle-level System-Run simulator and compare to the model.")
    Term.(const run $ kernel_term $ point_term)

(* ------------------------------------------------------------------ *)
(* explore *)

let explore_cmd =
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N best points.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel sweep engine (0 = sequential; \
             default: cores - 1). Results are identical at any N.")
  in
  let run kernel top jobs =
    match jobs with
    | Some n when n < 0 ->
        prerr_endline "flexcl: --jobs must be >= 0";
        exit_usage_error
    | _ ->
    with_query kernel (fun name q ->
        let* r = Query.resolve q in
        let* ranked, greedy = Query.explore ?num_domains:jobs r in
        let dev = r.Query.device in
        Printf.printf "%s: %d feasible design points\n\n" name
          (List.length ranked);
        let t =
          Table.create ~headers:[ "rank"; "configuration"; "cycles"; "us" ]
        in
        List.iteri
          (fun i (e : Explore.evaluated) ->
            if i < top then
              Table.add_row t
                [
                  string_of_int (i + 1);
                  Config.to_string e.Explore.config;
                  Printf.sprintf "%.0f" e.Explore.cycles;
                  Printf.sprintf "%.2f"
                    (Device.cycles_to_seconds dev e.Explore.cycles *. 1e6);
                ])
          ranked;
        print_string (Table.render t);
        (match greedy with
        | Ok greedy ->
            Printf.printf "\ngreedy heuristic [16] would pick %s (%.0f cycles)\n"
              (Config.to_string greedy.Explore.config) greedy.Explore.cycles
        | Error d ->
            Printf.printf "\ngreedy heuristic [16] found no feasible point (%s)\n"
              (Diag.code_name d.Diag.code));
        Ok 0)
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Exhaustively explore the optimization design space.")
    Term.(const run $ kernel_term $ top $ jobs)

(* ------------------------------------------------------------------ *)
(* Learned-residual calibration: shared loaders.

   A bad --calibrated / --model file is caller misuse (exit 2, like any
   bad flag value): the model is a flag-supplied artifact, not the input
   under analysis. A bad --from report, by contrast, is the input (exit
   1). *)

let load_model path =
  match read_file path with
  | Error msg ->
      Error
        [
          Diag.make ~file:path Diag.Usage_error
            (Printf.sprintf "cannot read model: %s" msg);
        ]
  | Ok s -> (
      match Learn.model_of_string s with
      | Ok m -> Ok m
      | Error d -> Error [ Diag.with_file path d ])

let load_suite_report path =
  match read_file path with
  | Error msg -> Error [ Diag.make ~file:path Diag.Io_error msg ]
  | Ok s -> (
      match Flexcl_suite.Report.of_string s with
      | Ok r -> Ok r
      | Error e ->
          Error
            [
              Diag.error ~file:path Diag.Parse_error "invalid suite report: %s"
                e;
            ])

let calibrated_model_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "calibrated" ] ~docv:"MODEL"
        ~doc:
          "Also report the calibrated estimate and its empirical \
           prediction interval using the learned-residual model at \
           $(docv) (written by 'flexcl fit' or 'flexcl suite --fit').")

(* ------------------------------------------------------------------ *)
(* predict *)

let predict_cmd =
  let run kernel point calibrated =
    (* the model loads before the (possibly expensive) analysis, so a
       missing or corrupt --calibrated file fails fast as usage *)
    let model =
      match calibrated with
      | None -> Ok None
      | Some path -> Result.map Option.some (load_model path)
    in
    match model with
    | Error diags ->
        print_diags diags;
        exit_usage_error
    | Ok model ->
        with_estimate kernel point (fun name r a cfg b ->
            let dev = r.Query.device and cfg = (cfg :> Config.t) in
            Printf.printf "kernel       : %s on %s\n" name dev.Device.name;
            Printf.printf "design point : %s\n" (Config.to_string cfg);
            Printf.printf "prediction   : %.0f cycles = %.2f us\n"
              b.Model.cycles (b.Model.seconds *. 1e6);
            match model with
            | None -> Ok 0
            | Some m ->
                let* c =
                  Result.map_error (fun d -> [ d ])
                    (Learn.calibrated_estimate m dev a cfg)
                in
                Printf.printf
                  "calibrated   : %.0f cycles  [%.0f, %.0f] (%.0f%% empirical \
                   interval)\n"
                  c.Learn.cycles c.Learn.lo c.Learn.hi
                  (100.0 *. m.Learn.nominal_coverage);
                Ok 0)
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict a kernel's cycle count; with --calibrated MODEL, also \
          apply the learned residual correction and report its empirical \
          prediction interval.")
    Term.(const run $ kernel_term $ point_term $ calibrated_model_arg)

(* ------------------------------------------------------------------ *)
(* fit / crossval *)

let from_report_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "from" ] ~docv:"REPORT"
        ~doc:
          "The BENCH_suite.json report (from 'flexcl suite') supplying \
           training samples: per-entry features, analytical estimate and \
           simrtl ground truth.")

let lambda_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "lambda" ] ~docv:"F"
        ~doc:
          "Pin the ridge strength instead of selecting it by \
           leave-one-kernel-out grid search.")

let alpha_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "alpha" ] ~docv:"F"
        ~doc:
          "Pin the prediction shrinkage in (0, 1] instead of selecting \
           it by leave-one-kernel-out grid search.")

let fit_cmd =
  let out_arg =
    Arg.(
      value & opt string "model.json"
      & info [ "out"; "o" ] ~docv:"MODEL"
          ~doc:"Where to write the model artifact.")
  in
  let run from out lambda alpha =
    guarded (fun () ->
        match load_suite_report from with
        | Error diags ->
            print_diags diags;
            exit_input_error
        | Ok r -> (
            let samples =
              Flexcl_suite.Runner.samples_of_report r
            in
            match Learn.fit ?lambda ?alpha samples with
            | Error d ->
                print_diags [ d ];
                exit_input_error
            | Ok m ->
                Out_channel.with_open_bin out (fun oc ->
                    output_string oc (Learn.model_to_string m));
                Printf.printf
                  "fit: %d samples over %d kernels (lambda %g, alpha %g)\n"
                  m.Learn.n_train
                  (List.length m.Learn.kernels)
                  m.Learn.lambda m.Learn.alpha;
                Printf.printf "wrote %s\n" out;
                0))
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:
         "Fit the learned-residual ridge model on a suite report and \
          write the byte-deterministic model artifact (hyperparameters \
          selected by leave-one-kernel-out cross-validation unless \
          pinned).")
    Term.(const run $ from_report_arg $ out_arg $ lambda_arg $ alpha_arg)

let crossval_cmd =
  let gate_flag =
    Arg.(
      value & flag
      & info [ "gate" ]
          ~doc:
            "Exit 1 unless the per-kernel-held-out calibrated mean error \
             strictly beats the raw analytical mean (the acceptance claim \
             of the calibration subsystem).")
  in
  let run from gate lambda alpha =
    guarded (fun () ->
        match load_suite_report from with
        | Error diags ->
            print_diags diags;
            exit_input_error
        | Ok r -> (
            match
              Learn.crossval ?lambda ?alpha
                (Flexcl_suite.Runner.samples_of_report r)
            with
            | Error d ->
                print_diags [ d ];
                exit_input_error
            | Ok cv ->
                print_string (Learn.cv_to_string cv);
                if not gate then 0
                else if cv.Learn.mean_cal_mape < cv.Learn.mean_raw_mape then
                  0
                else begin
                  Printf.eprintf
                    "crossval gate: FAIL (held-out calibrated mean %.3f%% \
                     does not beat raw %.3f%%)\n"
                    cv.Learn.mean_cal_mape cv.Learn.mean_raw_mape;
                  exit_input_error
                end))
  in
  Cmd.v
    (Cmd.info "crossval"
       ~doc:
         "Leave-one-kernel-out cross-validation of the learned-residual \
          model over a suite report: per-held-out-kernel MAPE, the \
          empirical prediction interval and its achieved coverage, as \
          canonical JSON on stdout (byte-deterministic).")
    Term.(const run $ from_report_arg $ gate_flag $ lambda_arg $ alpha_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains handling requests concurrently (0 = handle on \
             the serving domain; default: cores - 1).")
  in
  let cache =
    Arg.(
      value
      & opt int Server.default_cache_capacity
      & info [ "cache" ] ~docv:"N"
          ~doc:"Capacity of each artifact cache (parse/analysis/predict).")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve a Unix-domain socket at $(docv) instead of \
             stdin/stdout; each accepted connection gets its own \
             thread against one shared worker pool.")
  in
  let max_inflight =
    Arg.(
      value
      & opt int Server.default_max_inflight
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission high-water mark: requests in compute at once; \
             beyond it new work is shed with E-OVERLOAD and a \
             retry_after_ms hint.")
  in
  let max_line_bytes =
    Arg.(
      value
      & opt int Server.default_max_line_bytes
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Frame bound: a request line longer than $(docv) is \
             discarded and answered with E-FRAME.")
  in
  let drain_timeout_ms =
    Arg.(
      value
      & opt int Server.default_drain_timeout_ms
      & info [ "drain-timeout-ms" ] ~docv:"MS"
          ~doc:
            "On shutdown (SIGTERM, SIGINT or a shutdown request), how \
             long open connections get to wind down before being \
             severed.")
  in
  let model_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Load the learned-residual model at $(docv) at startup so \
             requests may ask for \"calibrated\":true; without it such \
             requests answer E-NOMODEL.")
  in
  let run jobs cache socket max_inflight max_line_bytes drain_timeout_ms
      model_path =
    match jobs with
    | Some n when n < 0 ->
        prerr_endline "flexcl: --jobs must be >= 0";
        exit_usage_error
    | _ when cache < 1 ->
        prerr_endline "flexcl: --cache must be >= 1";
        exit_usage_error
    | _ when max_inflight < 1 ->
        prerr_endline "flexcl: --max-inflight must be >= 1";
        exit_usage_error
    | _ when max_line_bytes < 64 ->
        prerr_endline "flexcl: --max-line-bytes must be >= 64";
        exit_usage_error
    | _ when drain_timeout_ms < 0 ->
        prerr_endline "flexcl: --drain-timeout-ms must be >= 0";
        exit_usage_error
    | _ -> (
        let model =
          match model_path with
          | None -> Ok None
          | Some path -> Result.map Option.some (load_model path)
        in
        match model with
        | Error diags ->
            print_diags diags;
            exit_usage_error
        | Ok model ->
        guarded (fun () ->
            let server =
              Server.create ?num_domains:jobs ~cache_capacity:cache
                ~max_inflight ~max_line_bytes ~drain_timeout_ms ?model ()
            in
            (* SIGTERM/SIGINT start a graceful drain: in-flight requests
               finish, new ones answer E-SHUTDOWN, then the loops return
               and the final stats land on stderr *)
            let graceful =
              Sys.Signal_handle (fun _ -> Server.request_shutdown server)
            in
            (try Sys.set_signal Sys.sigterm graceful with _ -> ());
            (try Sys.set_signal Sys.sigint graceful with _ -> ());
            (match socket with
            | Some path -> Server.serve_unix_socket server path
            | None -> Server.serve_fd server Unix.stdin stdout);
            (* final metrics dump, stderr so it never interleaves with
               the NDJSON response stream *)
            prerr_endline (Json.to_string (Server.stats_json server));
            0))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived analysis service (newline-delimited JSON \
          requests on stdin, one response per line on stdout; see the \
          README for the protocol).")
    Term.(
      const run $ jobs $ cache $ socket $ max_inflight $ max_line_bytes
      $ drain_timeout_ms $ model_arg)

(* ------------------------------------------------------------------ *)
(* workloads *)

let workloads_cmd =
  let suite =
    Arg.(
      value
      & opt (some string) None
      & info [ "suite" ] ~docv:"NAME" ~doc:"Filter: rodinia or polybench.")
  in
  let run suite =
    (* an unknown suite name silently printing an empty table would hide
       typos from scripts; it is CLI misuse, diagnosed and exited 2 *)
    let known =
      List.sort_uniq compare (List.map (fun w -> w.W.suite) Query.workloads)
    in
    match suite with
    | Some s when not (List.mem s known) ->
        print_diags
          [
            Diag.error Diag.Cli_error "unknown suite %S (%s)" s
              (String.concat " | " known);
          ];
        exit_usage_error
    | _ ->
        let t = Table.create ~headers:[ "name"; "suite"; "work-items"; "wg" ] in
        List.iter
          (fun w ->
            if suite = None || suite = Some w.W.suite then
              Table.add_row t
                [
                  W.name w;
                  w.W.suite;
                  string_of_int (L.n_work_items w.W.launch);
                  string_of_int (L.wg_size w.W.launch);
                ])
          Query.workloads;
        print_string (Table.render t);
        0
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the built-in Rodinia/PolyBench kernels.")
    Term.(const run $ suite)

(* ------------------------------------------------------------------ *)
(* pipeline *)

module Graph = Flexcl_graph.Graph
module Gdef = Flexcl_graph.Gdef
module GCosim = Flexcl_graph.Cosim
module Pipelines = Flexcl_workloads.Pipelines

(* A missing --graph is CLI misuse (exit 2); every other diagnostic
   comes from Query and goes through [report]. *)
let with_graph graph f =
  guarded (fun () ->
      match graph with
      | None ->
          prerr_endline
            "flexcl: --graph NAME is required (see 'flexcl pipeline list')";
          exit_usage_error
      | Some name -> (
          match f name with Ok code -> code | Error diags -> report diags))

let graph_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "graph"; "g" ] ~docv:"NAME"
        ~doc:
          "Built-in pipeline graph, e.g. stream/produce-filter-consume \
           (see 'flexcl pipeline list').")

let gdepth_arg =
  Arg.(
    value & opt int 0
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Uniform FIFO depth override for every channel (0 keeps the \
           graph's declared depths).")

let print_gbreakdown dev gname j (gb : Graph.gbreakdown) =
  Printf.printf "graph       : %s on %s\n" gname dev.Device.name;
  Printf.printf "joint point : %s\n" (Graph.joint_to_string j);
  List.iter
    (fun (s, (b : Model.breakdown)) ->
      Printf.printf "  stage %-10s %8.0f cycles  (%s)\n" s b.Model.cycles
        (Model.bottleneck b))
    gb.Graph.per_stage;
  Printf.printf "L_steady    : %.0f cycles (stage %s)\n" gb.Graph.steady
    gb.Graph.bottleneck_stage;
  Printf.printf "L_fill      : %.0f cycles (path %s)\n" gb.Graph.fill
    (String.concat " -> " gb.Graph.critical_path);
  Printf.printf "L_stall     : %.0f cycles\n" gb.Graph.stall;
  List.iter
    (fun (c, s) ->
      if s > 0.0 then Printf.printf "  channel %-8s %8.0f cycles\n" c s)
    gb.Graph.per_edge_stall;
  Printf.printf "TOTAL       : %.0f cycles = %.2f us\n" gb.Graph.cycles
    (gb.Graph.seconds *. 1e6);
  Printf.printf "bottleneck  : %s\n" (Graph.bottleneck gb)

let pipeline_list_cmd =
  let run () =
    guarded (fun () ->
        let t =
          Table.create
            ~headers:[ "name"; "stages"; "channels"; "work-items"; "depth" ]
        in
        List.iter
          (fun (p : Pipelines.t) ->
            let g = Pipelines.graph p in
            Table.add_row t
              [
                p.Pipelines.name;
                string_of_int (List.length g.Gdef.stages);
                string_of_int (List.length g.Gdef.channels);
                string_of_int
                  (List.fold_left
                     (fun acc (_, _, l) -> acc + L.n_work_items l)
                     0 p.Pipelines.stages);
                string_of_int p.Pipelines.default_depth;
              ])
          Pipelines.all;
        print_string (Table.render t);
        0)
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the bundled multi-kernel pipeline graphs.")
    Term.(const run $ const ())

let pipeline_analyze_cmd =
  let run device graph depth =
    with_graph graph (fun graph ->
        let* _, j, gb = Query.pipeline { Query.graph; device; depth } in
        print_gbreakdown device graph j gb;
        Ok 0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Estimate a kernel graph analytically: per-stage cycles plus the \
          steady/fill/stall decomposition (Eq. G1).")
    Term.(const run $ device_arg $ graph_arg $ gdepth_arg)

let pipeline_explain_cmd =
  let run dev graph depth json max_depth =
    with_graph graph (fun gname ->
        let* g, j, gb =
          Query.pipeline { Query.graph = gname; device = dev; depth }
        in
        let _, tr = Graph.explain dev g j in
        with_checked_trace ~cycles:gb.Graph.cycles tr (fun trace_json ->
            if json then (
              print_endline
                (Json.to_string
                   (Json.Obj
                      [
                        ("graph", Json.Str gname);
                        ("device", Json.Str dev.Device.name);
                        ("joint", Json.Str (Graph.joint_to_string j));
                        ("cycles", Json.Num gb.Graph.cycles);
                        ("trace", trace_json);
                      ]));
              Ok 0)
            else begin
              Printf.printf "graph       : %s on %s\n" gname dev.Device.name;
              Printf.printf "joint point : %s\n" (Graph.joint_to_string j);
              Printf.printf "prediction  : %.0f cycles = %.2f us\n\n"
                gb.Graph.cycles (gb.Graph.seconds *. 1e6);
              print_endline (Trace.render ?max_depth tr);
              Ok 0
            end))
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Attribute every predicted graph cycle to a model term: the \
          conservation-checked tree from L_graph down through \
          steady/fill/stall (Eq. G1-G4) into the bottleneck stage's \
          single-kernel schedule.")
    Term.(
      const run $ device_arg $ graph_arg $ gdepth_arg $ trace_json_flag
      $ max_depth_arg)

let pipeline_explore_cmd =
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Show the N best joint points.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the staged sweep (0 = sequential; \
             default: cores - 1). Results are identical at any N.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the ranking as JSON instead of a table.")
  in
  let run dev graph top jobs json =
    match jobs with
    | Some n when n < 0 ->
        prerr_endline "flexcl: --jobs must be >= 0";
        exit_usage_error
    | _ ->
        with_graph graph (fun gname ->
            let* g = Query.graph gname in
            let space = Graph.default_jspace in
            let ranked = Graph.explore ?num_domains:jobs dev g space in
            if ranked = [] then
              Error
                [
                  Diag.error Diag.Config_invalid
                    "no feasible joint design point for %S on %s" gname
                    dev.Device.name;
                ]
            else begin
              let prog =
                match Graph.best ?num_domains:jobs dev g space with
                | Some (_, prog) -> prog
                | None -> assert false (* ranked <> [] *)
              in
              if json then (
                let take n xs =
                  List.filteri (fun i _ -> i < n) xs
                in
                print_endline
                  (Json.to_string
                     (Json.Obj
                        [
                          ("graph", Json.Str gname);
                          ("device", Json.Str dev.Device.name);
                          ("points", Json.Num (float_of_int (List.length ranked)));
                          ("pruned", Json.Num (float_of_int prog.Graph.jpruned));
                          ( "top",
                            Json.Arr
                              (List.map
                                 (fun (e : Graph.jevaluated) ->
                                   Json.Obj
                                     [
                                       ( "joint",
                                         Json.Str
                                           (Graph.joint_to_string
                                              e.Graph.joint) );
                                       ("cycles", Json.Num e.Graph.jcycles);
                                     ])
                                 (take top ranked)) );
                        ]));
                Ok 0)
              else begin
                Printf.printf "%s: %d joint design points\n\n" gname
                  (List.length ranked);
                let t =
                  Table.create
                    ~headers:[ "rank"; "joint point"; "cycles"; "us" ]
                in
                List.iteri
                  (fun i (e : Graph.jevaluated) ->
                    if i < top then
                      Table.add_row t
                        [
                          string_of_int (i + 1);
                          Graph.joint_to_string e.Graph.joint;
                          Printf.sprintf "%.0f" e.Graph.jcycles;
                          Printf.sprintf "%.2f"
                            (Device.cycles_to_seconds dev e.Graph.jcycles
                            *. 1e6);
                        ])
                  ranked;
                print_string (Table.render t);
                Printf.printf
                  "\nbound-pruned search: %d/%d points evaluated (%d pruned)\n"
                  prog.Graph.jevaluated prog.Graph.jtotal prog.Graph.jpruned;
                Ok 0
              end
            end)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Explore the joint design space (per-stage DSP share x \
          per-channel FIFO depth) through the staged per-stage oracles.")
    Term.(const run $ device_arg $ graph_arg $ top $ jobs $ json_flag)

let pipeline_cosim_cmd =
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N" ~doc:"Per-stage simulator seed.")
  in
  let rounds =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string int) []
      & info [ "rounds" ] ~docv:"STAGE=N"
          ~doc:
            "Reschedule $(i,STAGE) for $(i,N) work-group rounds at its \
             measured service time (a sizing sensitivity knob; an \
             unbalanced override can deadlock the DES, reported as an \
             internal error).")
  in
  let run dev graph depth seed rounds =
    with_graph graph (fun gname ->
        let* g, j, gb =
          Query.pipeline { Query.graph = gname; device = dev; depth }
        in
        let r = GCosim.run ?seed ~rounds_override:rounds dev g j in
        Printf.printf "graph     : %s on %s\n" gname dev.Device.name;
        Printf.printf "joint     : %s\n" (Graph.joint_to_string j);
        Printf.printf "model     : %.0f cycles\n" gb.Graph.cycles;
        Printf.printf "co-sim    : %.0f cycles (%d work-group rounds)\n"
          r.GCosim.cycles r.GCosim.rounds;
        if r.GCosim.cycles = 0.0 then
          Printf.printf "error     : n/a (co-sim reported 0 cycles)\n"
        else
          Printf.printf "error     : %.1f%%\n"
            (100.0
            *. Float.abs (gb.Graph.cycles -. r.GCosim.cycles)
            /. r.GCosim.cycles);
        Ok 0)
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Run the work-group-granular co-simulation over bounded channels \
          and compare it to the analytical graph estimate.")
    Term.(const run $ device_arg $ graph_arg $ gdepth_arg $ seed $ rounds)

let pipeline_cmd =
  Cmd.group
    (Cmd.info "pipeline"
       ~doc:
         "Model multi-kernel pipe-connected pipelines: analyze, explain, \
          co-simulate and jointly explore the bundled kernel graphs.")
    [
      pipeline_list_cmd; pipeline_analyze_cmd; pipeline_explain_cmd;
      pipeline_explore_cmd; pipeline_cosim_cmd;
    ]

(* ------------------------------------------------------------------ *)
(* suite *)

module Suite_def = Flexcl_suite.Sdef
module Suite_runner = Flexcl_suite.Runner
module Suite_report = Flexcl_suite.Report
module Suite_gate = Flexcl_suite.Gate

let suite_cmd =
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the entry matrix without running it.")
  in
  let smoke_flag =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Run the fast smoke subset (the one gating 'make check') \
             instead of the full matrix.")
  in
  let filter_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "filter" ] ~docv:"SUBSTR"
          ~doc:
            "Keep only entries whose id (suite/benchmark/kernel\\@device) \
             contains $(docv).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_suite.json"
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Where to write the normalized report.")
  in
  let compare_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "compare" ] ~docv:"BASELINE"
          ~doc:
            "After running, gate this run against the baseline report at \
             $(docv); regressions beyond the noise band exit 1.")
  in
  let repeat_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "repeat" ] ~docv:"N" ~doc:"Timed samples per entry.")
  in
  let warmup_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "warmup" ] ~docv:"N" ~doc:"Discarded warmup samples per entry.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:"Simulator and bootstrap-resampling seed.")
  in
  let quiet_flag =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Suppress per-entry progress lines.")
  in
  let suite_model_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            "Annotate every entry with the calibrated-error column \
             computed through the learned-residual model at $(docv); the \
             gate then compares (and requires) those columns.")
  in
  let fit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fit" ] ~docv:"MODEL"
          ~doc:
            "After the run, fit the learned-residual model on this run's \
             rows and write the byte-deterministic artifact to $(docv).")
  in
  let print_summary (r : Suite_report.t) =
    let t =
      Table.create
        ~headers:[ "suite"; "entries"; "mean err%"; "max err%" ]
    in
    List.iter
      (fun (s : Suite_report.suite_summary) ->
        Table.add_row t
          [
            s.Suite_report.suite_name;
            string_of_int s.Suite_report.entries;
            Printf.sprintf "%.2f" s.Suite_report.mean_err_pct;
            Printf.sprintf "%.2f" s.Suite_report.max_err_pct;
          ])
      r.Suite_report.summaries;
    print_string (Table.render t);
    (let cal_rows =
       List.filter
         (fun (e : Suite_report.entry) ->
           Option.is_some e.Suite_report.cal_err_pct)
         r.Suite_report.rows
     in
     if cal_rows <> [] then
       let mean f =
         List.fold_left (fun acc e -> acc +. f e) 0.0 cal_rows
         /. float_of_int (List.length cal_rows)
       in
       Printf.printf "calibrated mean err%%    : %.2f (raw %.2f, %d rows)\n"
         (mean (fun (e : Suite_report.entry) ->
              Option.value e.Suite_report.cal_err_pct ~default:0.0))
         (mean (fun (e : Suite_report.entry) -> e.Suite_report.err_pct))
         (List.length cal_rows));
    Printf.printf "analysis cache hit rate : %.0f%%\n"
      (100.0 *. Suite_report.hit_rate r.Suite_report.analysis_cache);
    Printf.printf "engines bitwise identical: %s\n"
      (if
         List.for_all
           (fun (e : Suite_report.entry) -> e.Suite_report.engines_identical)
           r.Suite_report.rows
       then "yes (all entries)"
       else "NO")
  in
  let run list smoke filter out compare repeat warmup seed quiet model_path
      fit_path =
    guarded (fun () ->
        let entries =
          if smoke then Suite_def.smoke () else Suite_def.full ()
        in
        let entries, zero_match =
          match filter with
          | None -> (entries, false)
          | Some pat ->
              let kept = Suite_def.filter pat entries in
              (kept, kept = [])
        in
        if zero_match then begin
          print_diags
            [
              Diag.error Diag.Cli_error
                "--filter %S matches no suite entry (try 'flexcl suite \
                 --list')"
                (Option.get filter);
            ];
          exit_usage_error
        end
        else if list then begin
          let t =
            Table.create ~headers:[ "entry"; "work-items"; "wg" ]
          in
          List.iter
            (fun (e : Suite_def.entry) ->
              Table.add_row t
                [
                  Suite_def.id e;
                  string_of_int (Suite_def.work_items e);
                  string_of_int (Suite_def.wg e);
                ])
            entries;
          print_string (Table.render t);
          Printf.printf "%d entries\n" (List.length entries);
          0
        end
        else begin
          (* load the model and baseline BEFORE the (expensive) run, so
             a missing or corrupt file fails fast *)
          match
            match model_path with
            | None -> Ok None
            | Some path -> Result.map Option.some (load_model path)
          with
          | Error diags ->
              print_diags diags;
              exit_usage_error
          | Ok model ->
          let baseline =
            match compare with
            | None -> Ok None
            | Some path -> (
                match In_channel.with_open_bin path In_channel.input_all with
                | exception Sys_error msg ->
                    Error [ Diag.make Diag.Io_error msg ]
                | s -> (
                    match Suite_report.of_string s with
                    | Ok b -> Ok (Some b)
                    | Error e ->
                        Error
                          [
                            Diag.error ~file:path Diag.Parse_error
                              "invalid baseline report: %s" e;
                          ]))
          in
          match baseline with
          | Error diags ->
              print_diags diags;
              exit_input_error
          | Ok baseline -> (
              let opts =
                let base =
                  if smoke then Suite_runner.smoke_opts
                  else Suite_runner.default_opts
                in
                {
                  base with
                  Suite_runner.repeat =
                    Option.value repeat ~default:base.Suite_runner.repeat;
                  warmup =
                    Option.value warmup ~default:base.Suite_runner.warmup;
                  seed = Option.value seed ~default:base.Suite_runner.seed;
                }
              in
              let progress =
                if quiet then fun _ -> () else fun s -> Printf.printf "%s\n%!" s
              in
              let report = Suite_runner.run ?model ~progress opts entries in
              Out_channel.with_open_text out (fun oc ->
                  output_string oc (Suite_report.to_string report);
                  output_char oc '\n');
              print_summary report;
              Printf.printf "wrote %s\n" out;
              let fit_failed =
                match fit_path with
                | None -> false
                | Some path -> (
                    match
                      Learn.fit (Suite_runner.samples_of_report report)
                    with
                    | Error d ->
                        print_diags [ d ];
                        true
                    | Ok m ->
                        Out_channel.with_open_bin path (fun oc ->
                            output_string oc (Learn.model_to_string m));
                        Printf.printf "wrote %s\n" path;
                        false)
              in
              if fit_failed then exit_input_error
              else
              match baseline with
              | None -> 0
              | Some baseline ->
                  let offenses =
                    Suite_gate.gate ~baseline ~current:report ()
                  in
                  if offenses = [] then begin
                    Printf.printf
                      "gate: PASS (no regression beyond the noise band)\n";
                    0
                  end
                  else begin
                    prerr_endline (Suite_gate.render offenses);
                    Printf.eprintf "gate: FAIL (%d regression%s)\n"
                      (List.length offenses)
                      (if List.length offenses = 1 then "" else "s");
                    exit_input_error
                  end)
        end)
  in
  Cmd.v
    (Cmd.info "suite"
       ~doc:
         "Run the declarative benchmark-suite matrix (every workload x \
          device through the estimate engines and the simrtl ground \
          truth) with warmup, repetition and bootstrap confidence \
          intervals; write a normalized BENCH_suite.json; optionally \
          gate against a committed baseline.")
    Term.(
      const run $ list_flag $ smoke_flag $ filter_arg $ out_arg $ compare_arg
      $ repeat_arg $ warmup_arg $ seed_arg $ quiet_flag $ suite_model_arg
      $ fit_arg)

let () =
  let info =
    Cmd.info "flexcl" ~version:"1.0.0"
      ~doc:"Analytical performance model for OpenCL workloads on FPGAs."
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           analyze_cmd; explain_cmd; simulate_cmd; predict_cmd; explore_cmd;
           workloads_cmd; pipeline_cmd; suite_cmd; serve_cmd; fit_cmd;
           crossval_cmd;
         ])
  in
  (* cmdliner signals its own parse errors (unknown flag, bad value)
     with 124: fold them into the documented usage-error code *)
  exit (if code = Cmd.Exit.cli_error then exit_usage_error else code)
