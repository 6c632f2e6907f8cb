(* The kernel-graph analytical model (DESIGN.md §14).

   A resolved graph estimates as

     L_graph = L_steady + L_fill + L_stall                      (Eq. G1)

   - L_steady: in steady state the pipeline advances at the rate of the
     slowest stage, so the steady term is the max over stages of the
     single-kernel model's cycles (Eq. 10/11 per stage); the losing
     stages appear as 0-cycle alternatives, exactly like the model's
     roofline max.                                              (Eq. G2)
   - L_fill: before the sink reaches steady state every upstream stage
     on the critical path must produce its first results; fill is the
     max over source-to-sink paths of the sum of one CU pass (Eq. 5's
     L_CU) of every stage on the path except the sink.          (Eq. G3)
   - L_stall: a channel whose depth is smaller than the burst skew
     between its producer and consumer (|writes - reads| per work-group
     round) backpressures the pipeline: every work-group round pays the
     channel round-trip for each packet beyond the FIFO capacity.
                                                                (Eq. G4)

   The three terms decompose into a conservation-checked trace whose
   root recomposes bitwise ([estimate] and [explain] share one compute
   path, and all sums are the same left folds [Trace.check] uses).

   Errors raised here use the "Pipeline." message prefix (the "Graph."
   prefix belongs to Flexcl_util.Graph and classifies as a scheduler
   error). *)

module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Launch = Flexcl_ir.Launch
module Opcode = Flexcl_ir.Opcode
module Trace = Flexcl_util.Trace
module Diag = Flexcl_util.Diag
module Explore = Flexcl_dse.Explore
module Parsweep = Flexcl_dse.Parsweep

type analyzed = {
  resolved : Gdef.resolved;
  stage_analyses : (string * Analysis.t) list;  (* topo order *)
}

let name t = t.resolved.Gdef.graph.Gdef.g_name

let stage_analysis t stage =
  match List.assoc_opt stage t.stage_analyses with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Pipeline.stage_analysis: no stage %S" stage)

let analyze ?max_work_groups ?max_steps (g : Gdef.t) =
  match Gdef.resolve g with
  | Error ds -> Error ds
  | Ok resolved -> (
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (r : Gdef.resolved_stage) :: rest -> (
            match
              Analysis.analyze_result ?max_work_groups ?max_steps r.Gdef.r_kernel
                r.Gdef.r_stage.Gdef.s_launch
            with
            | Ok a -> go ((r.Gdef.r_stage.Gdef.s_name, a) :: acc) rest
            | Error ds ->
                Error
                  (List.map (Diag.with_file r.Gdef.r_stage.Gdef.s_name) ds))
      in
      match go [] resolved.Gdef.rstages with
      | Error ds -> Error ds
      | Ok stage_analyses -> Ok { resolved; stage_analyses })

(* ------------------------------------------------------------------ *)
(* Joint design points *)

type joint = {
  stage_configs : (string * Config.t) list;  (* every stage, topo order *)
  depths : (string * int) list;              (* every channel *)
}

let default_joint t =
  {
    stage_configs =
      List.map
        (fun (s, a) ->
          ( s,
            {
              Config.default with
              Config.wg_size = Launch.wg_size a.Analysis.launch;
              comm_mode = Config.Pipeline_mode;
            } ))
        t.stage_analyses;
    depths =
      List.map
        (fun (c : Gdef.channel) -> (c.Gdef.c_name, c.Gdef.depth))
        t.resolved.Gdef.graph.Gdef.channels;
  }

let joint_to_string j =
  String.concat "; "
    (List.map
       (fun (s, cfg) -> Printf.sprintf "%s[%s]" s (Config.to_string cfg))
       j.stage_configs)
  ^
  match j.depths with
  | [] -> ""
  | ds ->
      "; "
      ^ String.concat " "
          (List.map (fun (c, d) -> Printf.sprintf "%s:d%d" c d) ds)

let compare_joint a b =
  let c =
    List.compare
      (fun (s1, c1) (s2, c2) ->
        match String.compare s1 s2 with
        | 0 -> Config.compare c1 c2
        | n -> n)
      a.stage_configs b.stage_configs
  in
  if c <> 0 then c else compare a.depths b.depths

let config_of j stage =
  match List.assoc_opt stage j.stage_configs with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Pipeline.config_of: no stage %S" stage)

let depth_of j (c : Gdef.channel) =
  match List.assoc_opt c.Gdef.c_name j.depths with
  | Some d -> d
  | None -> c.Gdef.depth

(* Analysis at the joint point's work-group size (memoized re-analysis
   shared with the DSE engine when sizes differ from the launch). *)
let analysis_at t stage (cfg : Config.t) =
  let a = stage_analysis t stage in
  if Launch.wg_size a.Analysis.launch = cfg.Config.wg_size then a
  else Explore.analysis_for a cfg.Config.wg_size

let validate_joint t j =
  let stages = List.map fst t.stage_analyses in
  let missing =
    List.filter (fun s -> not (List.mem_assoc s j.stage_configs)) stages
  in
  if missing <> [] then
    invalid_arg
      (Printf.sprintf "Pipeline.estimate: joint point misses stages %s"
         (String.concat ", " missing));
  List.iter
    (fun (c, d) ->
      if d < 1 then
        invalid_arg
          (Printf.sprintf "Pipeline.estimate: channel %S depth %d < 1" c d))
    j.depths

let feasible dev t j =
  List.for_all
    (fun (s, _) ->
      let cfg = config_of j s in
      Model.feasible dev (analysis_at t s cfg) cfg)
    t.stage_analyses
  && List.for_all (fun (_, d) -> d >= 1) j.depths
  && List.for_all (fun (s, _) -> List.mem_assoc s t.stage_analyses)
       j.stage_configs

(* ------------------------------------------------------------------ *)
(* The estimate: one compute path for estimate and explain, so the two
   agree bitwise and the trace's conservation is exact by construction
   (every reported total is the same left-fold the checker re-runs). *)

type gbreakdown = {
  per_stage : (string * Model.breakdown) list;
  steady : float;
  fill : float;
  stall : float;
  per_edge_stall : (string * float) list;
  bottleneck_stage : string;
  critical_path : string list;
  cycles : float;
  seconds : float;
}

let fold_sum xs = List.fold_left (fun acc x -> acc +. x) 0.0 xs

(* Per-edge stall (Eq. G4): burst skew beyond the FIFO depth, paid once
   per work-group round at the channel round-trip latency. *)
let edge_stall dev t j (c : Gdef.channel) =
  let pstage = c.Gdef.producer.Gdef.e_stage
  and cstage = c.Gdef.consumer.Gdef.e_stage in
  let pa = analysis_at t pstage (config_of j pstage)
  and ca = analysis_at t cstage (config_of j cstage) in
  let writes_per_wi =
    match List.assoc_opt c.Gdef.producer.Gdef.e_param (Analysis.pipe_accesses pa) with
    | Some (_, w) -> w
    | None -> 0.0
  in
  let reads_per_wi =
    match List.assoc_opt c.Gdef.consumer.Gdef.e_param (Analysis.pipe_accesses ca) with
    | Some (r, _) -> r
    | None -> 0.0
  in
  let w_wg = writes_per_wi *. float_of_int (Launch.wg_size pa.Analysis.launch) in
  let r_wg = reads_per_wi *. float_of_int (Launch.wg_size ca.Analysis.launch) in
  let skew = Float.abs (w_wg -. r_wg) in
  let depth = float_of_int (depth_of j c) in
  if depth >= skew then (0.0, skew)
  else
    let rounds =
      float_of_int
        (min
           (Launch.n_work_groups pa.Analysis.launch)
           (Launch.n_work_groups ca.Analysis.launch))
    in
    let round_trip =
      float_of_int
        (Device.op_latency dev Opcode.Pipe_write_op
        + Device.op_latency dev Opcode.Pipe_read_op)
    in
    ((skew -. depth) *. rounds *. round_trip, skew)

let compute ?options ~breakdown_of ~want_trace dev t j =
  validate_joint t j;
  let graph = t.resolved.Gdef.graph in
  let stages = List.map fst t.stage_analyses in
  (* per-stage single-kernel estimates *)
  let per_stage =
    List.map
      (fun s ->
        let cfg = config_of j s in
        (s, (breakdown_of s (analysis_at t s cfg) cfg : Model.breakdown)))
      stages
  in
  (* Eq. G2: steady state = slowest stage; first of ties wins. *)
  let bottleneck_stage, steady =
    List.fold_left
      (fun (bs, bc) (s, (b : Model.breakdown)) ->
        if b.Model.cycles > bc then (s, b.Model.cycles) else (bs, bc))
      (fst (List.hd per_stage), (snd (List.hd per_stage)).Model.cycles)
      (List.tl per_stage)
  in
  (* Eq. G3: fill along the critical path. [best] accumulates by the
     same left-association as summing the recovered path's
     contributions, so the trace children recompose [fill] bitwise. *)
  let fill_contrib s = (List.assoc s per_stage).Model.l_cu in
  let best : (string, float * string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let from_pred =
        List.filter_map
          (fun (c : Gdef.channel) ->
            let p = c.Gdef.producer.Gdef.e_stage in
            match Hashtbl.find_opt best p with
            | Some (cost, path) ->
                Some (cost +. fill_contrib p, path @ [ p ])
            | None -> None)
          (Gdef.in_edges graph s)
      in
      let b =
        List.fold_left
          (fun (bc, bp) (c, p) -> if c > bc then (c, p) else (bc, bp))
          (0.0, []) from_pred
      in
      Hashtbl.replace best s b)
    t.resolved.Gdef.order;
  let fill, fill_path =
    List.fold_left
      (fun (bc, bp) s ->
        match Hashtbl.find_opt best s with
        | Some (c, p) when c > bc -> (c, p @ [ s ])
        | _ -> (bc, bp))
      (0.0, []) t.resolved.Gdef.order
  in
  let critical_path =
    match fill_path with [] -> [ bottleneck_stage ] | p -> p
  in
  (* the sink closes the path but contributes no fill cycles *)
  let fill_stages =
    match List.rev critical_path with
    | [] | [ _ ] -> []
    | _sink :: rest -> List.rev rest
  in
  (* Eq. G4: per-channel stalls, in channel declaration order. *)
  let per_edge =
    List.map
      (fun (c : Gdef.channel) ->
        let stall, skew = edge_stall dev t j c in
        (c, stall, skew))
      graph.Gdef.channels
  in
  let per_edge_stall =
    List.map (fun ((c : Gdef.channel), s, _) -> (c.Gdef.c_name, s)) per_edge
  in
  let stall = fold_sum (List.map (fun (_, s, _) -> s) per_edge) in
  let cycles = fold_sum [ steady; fill; stall ] in
  let b =
    {
      per_stage;
      steady;
      fill;
      stall;
      per_edge_stall;
      bottleneck_stage;
      critical_path;
      cycles;
      seconds = Device.cycles_to_seconds dev cycles;
    }
  in
  let trace =
    if not want_trace then None
    else
      let steady_children =
        List.map
          (fun (s, (sb : Model.breakdown)) ->
            if s = bottleneck_stage then
              let _, tr =
                Model.explain ?options dev
                  (analysis_at t s (config_of j s))
                  (config_of j s)
              in
              Trace.node_at ~eq:"Eq.G2" ("stage " ^ s) sb.Model.cycles
                [ tr ]
            else
              Trace.leaf ~eq:"Eq.G2"
                ~notes:[ ("cycles", sb.Model.cycles) ]
                ("stage " ^ s) 0.0)
          per_stage
      in
      let fill_children =
        List.map
          (fun s ->
            Trace.leaf ~eq:"Eq.G3"
              ~notes:[ ("l_cu", fill_contrib s) ]
              ("fill " ^ s) (fill_contrib s))
          fill_stages
      in
      let stall_children =
        List.map
          (fun ((c : Gdef.channel), stall, skew) ->
            Trace.leaf ~eq:"Eq.G4"
              ~notes:
                [
                  ("depth", float_of_int (depth_of j c)); ("skew", skew);
                ]
              ("channel " ^ c.Gdef.c_name) stall)
          per_edge
      in
      Some
        (Trace.node ~eq:"Eq.G1"
           ~notes:[ ("stages", float_of_int (List.length stages)) ]
           ("pipeline " ^ graph.Gdef.g_name)
           [
             Trace.node_at ~eq:"Eq.G2" "steady state" steady steady_children;
             Trace.node_at ~eq:"Eq.G3" "fill/drain" fill fill_children;
             Trace.node_at ~eq:"Eq.G4" "channel stalls" stall stall_children;
           ])
  in
  (b, trace)

let model_breakdown ?options dev _stage a cfg = Model.estimate ?options dev a cfg

let estimate ?options dev t j =
  fst (compute ?options ~breakdown_of:(model_breakdown ?options dev) ~want_trace:false dev t j)

let cycles dev t j = (estimate dev t j).cycles

let explain ?options dev t j =
  match
    compute ?options ~breakdown_of:(model_breakdown ?options dev) ~want_trace:true dev t j
  with
  | b, Some trace -> (b, trace)
  | _, None -> assert false

let estimate_result ?options dev t j =
  match estimate ?options dev t j with
  | b -> Ok b
  | exception (Out_of_memory as e) -> raise e
  | exception exn -> Error (Analysis.diag_of_exn exn)

let lower_bound dev t j =
  validate_joint t j;
  List.fold_left
    (fun acc (s, _) ->
      let cfg = config_of j s in
      Float.max acc (Model.lower_bound dev (analysis_at t s cfg) cfg))
    0.0 t.stage_analyses

let bottleneck (b : gbreakdown) =
  let stage_share = if b.cycles > 0.0 then b.steady /. b.cycles else 1.0 in
  if b.stall > b.fill && b.stall > b.steady *. 0.25 then
    "channel backpressure (deepen FIFOs)"
  else if stage_share < 0.5 then "pipeline fill/drain (fuse or shorten stages)"
  else
    Printf.sprintf "stage %s: %s" b.bottleneck_stage
      (Model.bottleneck (List.assoc b.bottleneck_stage b.per_stage))

(* ------------------------------------------------------------------ *)
(* Joint design-space exploration (per-stage DSP share x per-edge
   depth), staged through the specialized single-kernel oracles. *)

type jspace = {
  pe_counts : int list;
  cu_counts : int list;
  pipeline_choices : bool list;
  comm_modes : Config.comm_mode list;
  depth_choices : int list;
}

let default_jspace =
  {
    pe_counts = [ 1; 2; 4 ];
    cu_counts = [ 1; 2 ];
    pipeline_choices = [ true ];
    comm_modes = [ Config.Pipeline_mode ];
    depth_choices = [ 1; 4; 16 ];
  }

type jevaluated = { joint : joint; jcycles : float }

let stage_candidates t sp stage =
  let a = stage_analysis t stage in
  let wg_size = Launch.wg_size a.Analysis.launch in
  List.concat_map
    (fun n_pe ->
      List.concat_map
        (fun n_cu ->
          List.concat_map
            (fun wi_pipeline ->
              List.map
                (fun comm_mode ->
                  { Config.wg_size; n_pe; n_cu; wi_pipeline; comm_mode })
                sp.comm_modes)
            sp.pipeline_choices)
        sp.cu_counts)
    sp.pe_counts

let cross lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    lists [ [] ]

let joint_points dev t sp =
  let stages = List.map fst t.stage_analyses in
  let per_stage_feasible =
    List.map
      (fun s ->
        let a = stage_analysis t s in
        List.map
          (fun cfg -> (s, cfg))
          (List.filter (fun cfg -> Model.feasible dev a cfg)
             (stage_candidates t sp s)))
      stages
  in
  let channels = t.resolved.Gdef.graph.Gdef.channels in
  let depth_assignments =
    cross
      (List.map
         (fun (c : Gdef.channel) ->
           List.map (fun d -> (c.Gdef.c_name, d)) sp.depth_choices)
         channels)
  in
  List.concat_map
    (fun stage_configs ->
      List.map (fun depths -> { stage_configs; depths }) depth_assignments)
    (cross per_stage_feasible)

(* The graph tail shared by the staged sweep and the unstaged reference:
   both feed per-stage breakdowns through [compute], so rankings are
   bitwise identical whenever the per-stage breakdowns are — which
   [Model.specialize]'s bitwise contract guarantees. *)
let explore_with ~breakdown_of dev t sp =
  let points = joint_points dev t sp in
  let evaluated =
    List.map
      (fun j ->
        {
          joint = j;
          jcycles =
            (fst (compute ~breakdown_of ~want_trace:false dev t j)).cycles;
        })
      points
  in
  List.sort
    (fun a b ->
      match Float.compare a.jcycles b.jcycles with
      | 0 -> compare_joint a.joint b.joint
      | n -> n)
    evaluated

(* Stage the single-kernel model once per (device, stage): every
   stage's feasible candidates go through [Parsweep.eval_batch] with
   the specialized oracle (parallel domains), and the full breakdowns
   the graph tail needs come from the same staged model — the two are
   cross-checked bitwise per point. *)
let staged_tables ~num_domains dev t sp =
  List.map
    (fun (s, a) ->
      let sm = Explore.specialized_for dev a in
      let candidates =
        List.filter
          (fun cfg -> Model.feasible dev a cfg)
          (stage_candidates t sp s)
      in
      let batch =
        Parsweep.eval_batch ~num_domains a candidates
          (Explore.specialized_model_oracle dev)
      in
      let table = Hashtbl.create 16 in
      List.iter2
        (fun cfg (e : Parsweep.evaluated) ->
          let b = Model.specialized_estimate sm cfg in
          if
            Int64.bits_of_float b.Model.cycles
            <> Int64.bits_of_float e.Parsweep.cycles
          then
            invalid_arg
              (Printf.sprintf
                 "Pipeline.explore: staged oracle diverged on %s at %s" s
                 (Config.to_string cfg));
          Hashtbl.replace table cfg b)
        candidates batch;
      (s, (sm, table)))
    t.stage_analyses

let table_breakdown tables s (_ : Analysis.t) cfg =
  let sm, table = List.assoc s tables in
  match Hashtbl.find_opt table cfg with
  | Some b -> b
  | None -> Model.specialized_estimate sm cfg

let explore ?(num_domains = 0) dev t sp =
  let tables = staged_tables ~num_domains dev t sp in
  explore_with ~breakdown_of:(table_breakdown tables) dev t sp

(* Unstaged reference sweep: direct [Model.estimate] per joint point,
   no specialization, no parallel batch. The differential tests pin
   that [explore] ranks identically, bitwise. *)
let explore_reference dev t sp =
  explore_with ~breakdown_of:(model_breakdown dev) dev t sp

type jprogress = { jtotal : int; jevaluated : int; jpruned : int }

(* The incumbent-and-prune fold behind [best] and [best_placed]: a joint
   point whose [bound] already exceeds the incumbent (strictly, so ties
   are always evaluated) is skipped without computing the graph tail;
   the fastest evaluated point wins, ties broken by [compare_joint]. *)
let pruned_best ~breakdown_of ~bound dev t sp =
  let points = joint_points dev t sp in
  List.fold_left
    (fun (inc, stats) j ->
      let prune =
        match inc with
        | Some (_, c) -> bound j > c +. (1e-9 *. Float.max c 1.0)
        | None -> false
      in
      if prune then (inc, { stats with jpruned = stats.jpruned + 1 })
      else
        let c = (fst (compute ~breakdown_of ~want_trace:false dev t j)).cycles in
        let stats = { stats with jevaluated = stats.jevaluated + 1 } in
        match inc with
        | Some (jb, cb) when cb < c || (cb = c && compare_joint jb j <= 0) ->
            (inc, stats)
        | _ -> (Some (j, c), stats))
    (None, { jtotal = List.length points; jevaluated = 0; jpruned = 0 })
    points

(* Best joint point under bound pruning: the graph lower bound — max
   over stages of the staged single-kernel lower bound, a true bound
   because cycles >= steady >= max stage cycles >= max stage bound —
   skips a point when it already exceeds the incumbent. *)
let best ?(num_domains = 0) dev t sp =
  let tables = staged_tables ~num_domains dev t sp in
  let breakdown_of = table_breakdown tables in
  let bound j =
    List.fold_left
      (fun acc (s, (sm, _)) ->
        Float.max acc (Model.specialized_lower_bound sm (config_of j s)))
      0.0 tables
  in
  let incumbent, stats = pruned_best ~breakdown_of ~bound dev t sp in
  Option.map
    (fun (j, c) -> ({ joint = j; jcycles = c }, stats))
    incumbent

(* ------------------------------------------------------------------ *)
(* Buffer→channel placement co-optimization (DESIGN.md §15).

   A stage's placement affects only that stage's own memory roofline:
   L_CU (the fill term) is the compute path and the stall term is round
   geometry, both placement-independent, and the steady term is the max
   over stage cycles — monotone in each of them. The joint optimum over
   placements therefore resolves per (stage, config) independently: for
   every stage candidate keep the placement minimizing that stage's
   cycles, and sweep the joint space over the resolved tables. *)

type pevaluated = {
  pjoint : joint;
  placements : (string * (string * int) list) list;  (* per stage *)
  pcycles : float;
}

(* [breakdown_on] is called on the *placed* analysis, so the staged and
   reference variants differ only in how a breakdown is produced —
   tie-breaks (first placement in candidate order wins a cycle tie) are
   shared, which is what makes the two rankings bitwise comparable. *)
let placed_tables_with ~breakdown_on dev t sp =
  let n_channels =
    dev.Device.dram.Flexcl_dram.Dram.n_channels
  in
  List.map
    (fun (s, a) ->
      let candidates =
        List.filter (fun cfg -> Model.feasible dev a cfg) (stage_candidates t sp s)
      in
      let table : (Config.t, (string * int) list * Model.breakdown) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun p ->
          let ap = if p = [] then a else Analysis.with_placement a p in
          List.iter
            (fun cfg ->
              let b = breakdown_on ap cfg in
              match Hashtbl.find_opt table cfg with
              | Some (_, (bb : Model.breakdown))
                when bb.Model.cycles <= b.Model.cycles ->
                  ()
              | _ -> Hashtbl.replace table cfg (p, b))
            candidates)
        (Explore.placement_candidates a ~n_channels);
      (s, table))
    t.stage_analyses

let explore_placed_with ~breakdown_on dev t sp =
  let tables = placed_tables_with ~breakdown_on dev t sp in
  let breakdown_of s (_ : Analysis.t) cfg =
    snd (Hashtbl.find (List.assoc s tables) cfg)
  in
  let placements_of j =
    List.map
      (fun (s, cfg) -> (s, fst (Hashtbl.find (List.assoc s tables) cfg)))
      j.stage_configs
  in
  joint_points dev t sp
  |> List.map (fun j ->
         {
           pjoint = j;
           placements = placements_of j;
           pcycles =
             (fst (compute ~breakdown_of ~want_trace:false dev t j)).cycles;
         })
  |> List.sort (fun a b ->
         match Float.compare a.pcycles b.pcycles with
         | 0 -> compare_joint a.pjoint b.pjoint
         | n -> n)

let explore_placed dev t sp =
  explore_placed_with dev t sp ~breakdown_on:(fun ap cfg ->
      Model.specialized_estimate (Explore.specialized_for dev ap) cfg)

let explore_placed_reference dev t sp =
  explore_placed_with dev t sp ~breakdown_on:(fun ap cfg ->
      Model.estimate dev ap cfg)

(* Best placed joint point under bound pruning. The single-kernel lower
   bound is placement-independent (critical path and total transaction
   counts do not move with buffers; the memory floor is the 1/N_chan
   stream floor, valid for every placement), so the bound staged on the
   *base* analyses is a true bound for every placement-resolved point. *)
let best_placed dev t sp =
  let tables =
    placed_tables_with dev t sp ~breakdown_on:(fun ap cfg ->
        Model.specialized_estimate (Explore.specialized_for dev ap) cfg)
  in
  let breakdown_of s (_ : Analysis.t) cfg =
    snd (Hashtbl.find (List.assoc s tables) cfg)
  in
  let bound j =
    List.fold_left
      (fun acc (s, a) ->
        Float.max acc
          (Model.specialized_lower_bound
             (Explore.specialized_for dev a)
             (config_of j s)))
      0.0 t.stage_analyses
  in
  let incumbent, stats = pruned_best ~breakdown_of ~bound dev t sp in
  Option.map
    (fun (j, c) ->
      let placements =
        List.map
          (fun (s, cfg) -> (s, fst (Hashtbl.find (List.assoc s tables) cfg)))
          j.stage_configs
      in
      ({ pjoint = j; placements; pcycles = c }, stats))
    incumbent
