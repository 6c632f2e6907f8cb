module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Dram = Flexcl_dram.Dram
module Listsched = Flexcl_sched.Listsched
module Prng = Flexcl_util.Prng
open Flexcl_ir

let has_data_dependent_global_index (analysis : Analysis.t) =
  let launch = analysis.Analysis.launch in
  Cdfg.fold_blocks
    (fun acc d ->
      acc
      || List.exists
           (fun (n : Dfg.node) ->
             Opcode.is_global_access n.Dfg.op
             &&
             match n.Dfg.index with
             | None -> false
             | Some idx ->
                 Depend.affine_probe launch
                   ~subst:(fun _ -> None)
                   ~carried:`Work_item idx
                 = None)
           (Dfg.nodes d))
    false analysis.Analysis.cdfg.Cdfg.body

let uses_local (analysis : Analysis.t) =
  analysis.Analysis.sema.Flexcl_opencl.Sema.local_arrays <> []

let supported (analysis : Analysis.t) (cfg : Config.t) =
  let salt =
    Prng.hash_mix
      (Hashtbl.hash analysis.Analysis.cdfg.Cdfg.kernel_name)
      (Hashtbl.hash (Config.to_string cfg))
  in
  not
    (cfg.Config.n_pe > 4
    || (cfg.Config.n_cu > 2 && uses_local analysis)
    || (cfg.Config.n_cu > 1 && has_data_dependent_global_index analysis)
    || salt mod 100 < 15 (* long-running syntheses killed after an hour *))

(* Simplified region latency: critical path only, branches summed
   (conservative control estimation), loops fully sequential. *)
let rec naive_latency lat (analysis : Analysis.t) (r : Cdfg.region) : float =
  match r with
  | Cdfg.Straight d -> float_of_int (Listsched.critical_path d ~lat)
  | Cdfg.Seq rs ->
      List.fold_left (fun acc r -> acc +. naive_latency lat analysis r) 0.0 rs
  | Cdfg.Branch { cond; then_; else_ } ->
      float_of_int (Listsched.critical_path cond ~lat)
      +. naive_latency lat analysis then_
      +. naive_latency lat analysis else_
  | Cdfg.Loop { info; header; body } ->
      let trip = Analysis.trip analysis info in
      if trip <= 0.0 then 0.0
      else
        let u =
          match info.Cdfg.attrs.Flexcl_opencl.Ast.unroll with
          | Some u -> float_of_int (max 1 u)
          | None -> 1.0
        in
        Float.ceil (trip /. u)
        *. (float_of_int (Listsched.critical_path header ~lat)
           +. naive_latency lat analysis body)

let estimate (dev : Device.t) (analysis : Analysis.t) (cfg : Config.t) =
  if not (supported analysis cfg) then None
  else begin
    let analysis = Analysis.with_wg_size analysis cfg.Config.wg_size in
    let dram = dev.Device.dram in
    let lat (op : Opcode.t) =
      match op with
      (* every global access assumed a streaming row-buffer hit *)
      | Opcode.Load Opcode.Global_mem -> dram.Dram.t_cas + dram.Dram.t_bus
      | Opcode.Store Opcode.Global_mem -> dram.Dram.t_bus
      | other -> Device.op_latency dev other
    in
    let depth = naive_latency lat analysis analysis.Analysis.cdfg.Cdfg.body in
    let wg = cfg.Config.wg_size in
    let ii = if cfg.Config.wi_pipeline then 1.0 else Float.max 1.0 depth in
    (* memory: transaction count x bus transfer only *)
    let txns =
      List.fold_left
        (fun acc (_, c) -> acc +. c)
        0.0
        (Model.mean_pattern_counts analysis dev)
    in
    let l_mem = txns *. float_of_int dram.Dram.t_bus in
    let lanes = max 1 cfg.Config.n_pe in
    let waves = float_of_int ((max 0 (wg - lanes) + lanes - 1) / lanes) in
    let n_wi = Launch.n_work_items analysis.Analysis.launch in
    let n_wg = (n_wi + wg - 1) / wg in
    (* every CU assumed fully parallel, dispatch assumed free *)
    let wg_rounds = Float.ceil (float_of_int n_wg /. float_of_int cfg.Config.n_cu) in
    let cycles =
      match cfg.Config.comm_mode with
      | Config.Barrier_mode ->
          (l_mem *. float_of_int n_wi) +. (((ii *. waves) +. depth) *. wg_rounds)
      | Config.Pipeline_mode ->
          ((Float.max ii l_mem *. waves) +. depth) *. wg_rounds
    in
    Some cycles
  end
