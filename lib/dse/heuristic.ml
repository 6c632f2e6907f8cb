module Config = Flexcl_core.Config
module Model = Flexcl_core.Model

let knob_order = [ "wg_size"; "wi_pipeline"; "n_pe"; "n_cu"; "comm_mode" ]

let search ?num_domains dev (base : Flexcl_core.Analysis.t) (space : Space.t)
    (oracle : Explore.oracle) =
  (* Each knob's candidate list is evaluated as one batch through the
     sweep engine (shared re-analyses, optional domain parallelism).
     Feasibility is judged against the base analysis, as the sequential
     version did, and infeasible points cost infinity so they never
     outrank feasible ones. *)
  let costs cfgs =
    let tagged = List.map (fun c -> (c, Model.feasible dev base c)) cfgs in
    let feas = List.filter_map (fun (c, ok) -> if ok then Some c else None) tagged in
    let evals = Parsweep.eval_batch ?num_domains base feas oracle in
    let rec merge tagged evals =
      match (tagged, evals) with
      | [], [] -> []
      | (_, false) :: t, es -> infinity :: merge t es
      | (_, true) :: t, (e : Parsweep.evaluated) :: es ->
          e.Parsweep.cycles :: merge t es
      | _ -> assert false
    in
    merge tagged evals
  in
  (* strict <, fold order and current-first evaluation all match the
     original greedy loop, so picks are identical *)
  let pick candidates current =
    match costs (current :: candidates) with
    | current_cost :: candidate_costs ->
        List.fold_left2
          (fun (best_cfg, best_cost) cfg c ->
            if c < best_cost then (cfg, c) else (best_cfg, best_cost))
          (current, current_cost) candidates candidate_costs
    | [] -> assert false
  in
  let start =
    {
      Config.wg_size = List.hd space.Space.wg_sizes;
      n_pe = List.hd space.Space.pe_counts;
      n_cu = List.hd space.Space.cu_counts;
      wi_pipeline = List.hd space.Space.pipeline_choices;
      comm_mode = List.hd space.Space.comm_modes;
    }
  in
  let cfg, _ =
    pick
      (List.map (fun w -> { start with Config.wg_size = w }) space.Space.wg_sizes)
      start
  in
  let cfg, _ =
    pick
      (List.map
         (fun p -> { cfg with Config.wi_pipeline = p })
         space.Space.pipeline_choices)
      cfg
  in
  let cfg, _ =
    pick (List.map (fun p -> { cfg with Config.n_pe = p }) space.Space.pe_counts) cfg
  in
  let cfg, _ =
    pick (List.map (fun c -> { cfg with Config.n_cu = c }) space.Space.cu_counts) cfg
  in
  let cfg, cost =
    pick
      (List.map (fun m -> { cfg with Config.comm_mode = m }) space.Space.comm_modes)
      cfg
  in
  { Explore.config = cfg; cycles = cost }

let search_result ?num_domains dev base space oracle =
  let module Diag = Flexcl_util.Diag in
  if
    space.Space.wg_sizes = [] || space.Space.pe_counts = []
    || space.Space.cu_counts = []
    || space.Space.pipeline_choices = []
    || space.Space.comm_modes = []
  then
    Error
      (Diag.error Diag.Empty_design_space
         "heuristic search requires a non-empty candidate list for every knob")
  else
    match search ?num_domains dev base space oracle with
    | e when e.Explore.cycles = infinity -> Error Explore.empty_space_diag
    | e -> Ok e
    | exception (Out_of_memory as exn) -> raise exn
    | exception exn -> Error (Flexcl_core.Analysis.diag_of_exn exn)
