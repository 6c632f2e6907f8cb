open Flexcl_opencl
open Flexcl_ir
module Interp = Flexcl_interp.Interp
module Dram = Flexcl_dram.Dram
module Diag = Flexcl_util.Diag

type t = {
  kernel : Ast.kernel;
  sema : Sema.info;
  launch : Launch.t;
  cdfg : Cdfg.t;
  profile : Interp.profile;
  wi_recurrences : Depend.recurrence list;
  loop_recurrences : (int * Depend.recurrence list) list;
  layout : Dram.layout;
}

(* Side tables keyed on an analysis's physical identity; the kernel name
   only spreads analyses over buckets. *)
type ('k, 'v) artifacts = t -> ('k, 'v) Flexcl_util.Cache.t

let artifacts () =
  Flexcl_util.Cache.owned ~hash:(fun a -> Hashtbl.hash a.kernel.Ast.k_name) ()

let artifact tbl a k f = Flexcl_util.Cache.memo (tbl a) k f

let buffer_layout (kernel : Ast.kernel) (launch : Launch.t) =
  let sized =
    List.filter_map
      (fun (p : Ast.param) ->
        match Launch.find_arg launch p.Ast.p_name with
        | Some (Launch.Buffer { length; _ }) ->
            let bits =
              match Types.elem p.Ast.p_type with
              | Types.Scalar s -> Types.scalar_bits s
              | _ -> 32
            in
            Some (p.Ast.p_name, length * (bits / 8))
        | Some (Launch.Scalar _) | None -> None)
      kernel.Ast.k_params
  in
  Dram.layout ~placement:launch.Launch.placement sized

let analyze ?(max_work_groups = 3) ?max_steps (kernel : Ast.kernel)
    (launch : Launch.t) =
  let sema = Sema.analyze kernel in
  let cdfg = Lower.lower kernel sema launch in
  (* the final buffer contents only serve functional checks of the run;
     no model reads them, and every cached analysis would keep them alive *)
  let profile =
    { (Interp.run ~max_work_groups ?max_steps kernel sema launch) with
      Interp.buffers = [] }
  in
  {
    kernel;
    sema;
    launch;
    cdfg;
    profile;
    wi_recurrences = Depend.work_item_recurrences cdfg launch;
    loop_recurrences = Depend.loop_recurrences cdfg launch;
    layout = buffer_layout kernel launch;
  }

let of_source ?max_work_groups ?max_steps src launch =
  analyze ?max_work_groups ?max_steps (Parser.parse_kernel src) launch

(* Placement relocates buffers in the DRAM address space and nothing
   else: sema, the CDFG, the interpreter profile and the recurrences are
   all placement-independent, so re-placing costs one [Dram.layout]. *)
let with_placement t placement =
  let launch = Launch.with_placement t.launch placement in
  { t with launch; layout = buffer_layout t.kernel launch }

(* ------------------------------------------------------------------ *)
(* Total pipeline: every deep-layer exception becomes a diagnostic. *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [Invalid_argument]/[Failure] payloads follow the "Module.fn: reason"
   convention throughout the code base; the prefix names the stage. *)
let classify_message msg =
  if starts_with "Launch." msg || starts_with "Analysis." msg then
    Diag.Launch_invalid
  else if starts_with "Pipeline." msg then Diag.Config_invalid
  else if starts_with "Lower." msg then Diag.Lower_error
  else if
    starts_with "Sms" msg || starts_with "Listsched" msg
    || starts_with "Graph." msg
  then Diag.Sched_error
  else if starts_with "Explore." msg then Diag.Empty_design_space
  else if starts_with "Types." msg then Diag.Sema_error
  else if starts_with "Dram." msg || starts_with "Model." msg then
    Diag.Model_error
  else Diag.Internal_error

let diag_of_exn = function
  | Lexer.Error (msg, line, col) ->
      Diag.error ~span:{ Diag.line; col } Diag.Lex_error "%s" msg
  | Parser.Error (msg, line, col) ->
      Diag.error ~span:{ Diag.line; col } Diag.Parse_error "%s" msg
  | Sema.Error msg -> Diag.error Diag.Sema_error "%s" msg
  | Sema.Error_at (msg, line, col) ->
      Diag.error ~span:{ Diag.line; col } Diag.Sema_error "%s" msg
  | Interp.Runtime_error msg -> Diag.error Diag.Profile_error "profiling failed: %s" msg
  | Interp.Profile_budget_exceeded budget ->
      Diag.error Diag.Profile_budget_exceeded
        "profiling exceeded its %d-step budget (non-terminating kernel?)" budget
  | Invalid_argument msg | Failure msg ->
      Diag.error (classify_message msg) "%s" msg
  | Division_by_zero -> Diag.error Diag.Internal_error "division by zero"
  | Stack_overflow ->
      Diag.error Diag.Internal_error "stack overflow (input too deeply nested?)"
  | Not_found -> Diag.error Diag.Internal_error "internal lookup failed"
  | Assert_failure (file, line, col) ->
      Diag.error Diag.Internal_error "assertion failed at %s:%d:%d" file line col
  | exn -> Diag.error Diag.Internal_error "%s" (Printexc.to_string exn)

let analyze_result ?max_work_groups ?max_steps kernel launch =
  match Launch.validate launch with
  | _ :: _ as problems ->
      Error (List.map (fun p -> Diag.error Diag.Launch_invalid "%s" p) problems)
  | [] -> (
      match analyze ?max_work_groups ?max_steps kernel launch with
      | t -> Ok t
      | exception (Out_of_memory as e) -> raise e
      | exception exn -> Error [ diag_of_exn exn ])

let of_source_result ?max_work_groups ?max_steps ?file src launch =
  let tag diags =
    match file with
    | Some f -> List.map (Diag.with_file f) diags
    | None -> diags
  in
  match Parser.parse_kernel_result src with
  | Error diags -> Error (tag diags)
  | Ok kernel ->
      Result.map_error tag (analyze_result ?max_work_groups ?max_steps kernel launch)

let pipe_accesses t = t.profile.Interp.pipe_counts

let trip t (info : Cdfg.loop_info) =
  match info.Cdfg.static_trip with
  | Some n -> float_of_int n
  | None -> Interp.trip_of t.profile info.Cdfg.loop_id

let divisors n =
  List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))

(* Re-analyses are owned by the analysis they were derived from: a sweep
   asks for each work-group size from every chunk (and every domain) of
   that size, and they are dropped with it. *)
let reanalyses : (int, t) artifacts = artifacts ()

let reanalyze t wg_size =
  let g = t.launch.Launch.global in
  let candidates =
    List.concat_map
      (fun lx ->
        if wg_size mod lx <> 0 then []
        else
          List.filter_map
            (fun ly ->
              let rest = wg_size / lx in
              if rest mod ly <> 0 then None
              else
                let lz = rest / ly in
                if g.Launch.z mod lz = 0 then Some (lx, ly, lz) else None)
            (divisors (min g.Launch.y (wg_size / lx))))
      (divisors (min g.Launch.x wg_size))
  in
  (* prefer wide-x shapes, matching how the paper's kernels are launched *)
  match List.sort (fun (a, _, _) (b, _, _) -> compare b a) candidates with
  | [] ->
      invalid_arg
        (Printf.sprintf "Analysis.with_wg_size: %d does not tile the NDRange"
           wg_size)
  | (lx, ly, lz) :: _ ->
      let launch =
        Launch.with_placement
          (Launch.make ~global:g
             ~local:{ Launch.x = lx; y = ly; z = lz }
             ~args:t.launch.Launch.args)
          t.launch.Launch.placement
      in
      analyze t.kernel launch

let with_wg_size t wg_size =
  if wg_size = Launch.wg_size t.launch then t
  else artifact reanalyses t wg_size (fun () -> reanalyze t wg_size)
