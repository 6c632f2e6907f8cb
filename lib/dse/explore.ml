module Config = Flexcl_core.Config
module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis
module Sysrun = Flexcl_simrtl.Sysrun
module Sdaccel = Flexcl_simrtl.Sdaccel_estimate

type evaluated = Parsweep.evaluated = { config : Config.t; cycles : float }

type oracle = Parsweep.oracle

let analysis_for = Analysis.with_wg_size

let model_oracle dev : oracle = fun analysis cfg -> Model.cycles dev analysis cfg

(* ------------------------------------------------------------------ *)
(* Staged model oracle (DESIGN.md §11): every design point of a sweep
   chunk runs the closed-form tail on the analysis's own specialization,
   the one [Model.estimate] uses too. *)

let specialized_for dev analysis = Model.specialization dev analysis

let specialized_model_oracle dev : oracle =
 fun analysis ->
  let sp = specialized_for dev analysis in
  Model.specialized_cycles sp

let specialized_bound dev : oracle =
 fun analysis ->
  let sp = specialized_for dev analysis in
  Model.specialized_lower_bound sp

let sysrun_oracle ?seed dev : oracle =
 fun analysis cfg -> (Sysrun.run ?seed dev analysis cfg).Sysrun.cycles

let sdaccel_oracle dev : oracle =
 fun analysis cfg ->
  match Sdaccel.estimate dev analysis cfg with
  | Some c -> c
  | None -> infinity

let exhaustive ?num_domains dev (base : Analysis.t) space (oracle : oracle) =
  Parsweep.sweep ?num_domains dev base space oracle

let empty_space_diag =
  Flexcl_util.Diag.error Flexcl_util.Diag.Empty_design_space
    "no feasible design point: every configuration exceeds the device resources"

let all_failed_diag =
  Flexcl_util.Diag.error Flexcl_util.Diag.Empty_design_space
    "every feasible design point failed its cost oracle (non-finite cost)"

let best ?num_domains dev base space oracle =
  match Parsweep.best ?num_domains dev base space oracle with
  | Some e, _ -> e
  | None, _ -> invalid_arg "Explore.best: no rankable design point"

let best_result ?num_domains dev base space oracle =
  match Parsweep.best ?num_domains dev base space oracle with
  | Some e, _ -> Ok e
  | None, st -> Error (if st.Parsweep.total > 0 then all_failed_diag else empty_space_diag)
  | exception (Out_of_memory as e) -> raise e
  | exception exn -> Error (Analysis.diag_of_exn exn)

(* ------------------------------------------------------------------ *)
(* Buffer→channel placement co-optimization (DESIGN.md §15).

   On a multi-channel device the memory roofline depends on which
   channel each buffer is bound to. The full placement space is
   [n_channels ^ n_buffers]; the candidate set below covers its
   structurally distinct corners — every spreading granularity plus
   every single-buffer isolation — in O(n_buffers) sweeps. Pruning
   inside each sweep stays sound because the model's memory lower bound
   is placement-independent (the 1/N_chan floor of the stream holds for
   every placement), so one bound serves all candidates. *)

type placed = { placement : (string * int) list; best_point : evaluated }

let placement_candidates (a : Analysis.t) ~n_channels =
  if n_channels <= 1 then [ [] ]
  else
    let buffers = Flexcl_ir.Launch.buffer_names a.Analysis.launch in
    let n = List.length buffers in
    (* group size g: buffers i, i+1, .., i+g-1 share channel (i/g) mod N;
       g = 1 is round robin, g >= n degenerates to all-on-0 *)
    let spread g = List.mapi (fun i b -> (b, i / g mod n_channels)) buffers in
    let rec spreads g acc =
      if g >= max 1 n then List.rev acc else spreads (2 * g) (spread g :: acc)
    in
    (* isolate buffer j on channel 1, everything else on channel 0 *)
    let isolate j = List.mapi (fun i b -> (b, if i = j then 1 else 0)) buffers in
    let nonzero p = List.exists (fun (_, c) -> c <> 0) p in
    let dedup ps =
      List.rev
        (List.fold_left
           (fun acc p -> if List.mem p acc then acc else p :: acc)
           [] ps)
    in
    [] :: dedup (List.filter nonzero (spreads 1 [] @ List.init n isolate))

let rank_placed =
  List.sort (fun a b ->
      match
        compare
          (a.best_point.cycles, a.best_point.config)
          (b.best_point.cycles, b.best_point.config)
      with
      | 0 -> compare a.placement b.placement
      | n -> n)

let explore_placements_with ~oracle ~bound ?num_domains dev (base : Analysis.t)
    space =
  let n_channels = dev.Flexcl_device.Device.dram.Flexcl_dram.Dram.n_channels in
  List.filter_map
    (fun placement ->
      let a =
        if placement = [] then base else Analysis.with_placement base placement
      in
      match Parsweep.best ?num_domains ?bound dev a space oracle with
      | Some e, _ -> Some { placement; best_point = e }
      | None, _ -> None)
    (placement_candidates base ~n_channels)
  |> rank_placed

let explore_placements ?num_domains dev base space =
  explore_placements_with ?num_domains dev base space
    ~oracle:(specialized_model_oracle dev)
    ~bound:(Some (specialized_bound dev))

let explore_placements_reference ?num_domains dev base space =
  explore_placements_with ?num_domains dev base space ~oracle:(model_oracle dev)
    ~bound:None

let quality_vs_optimal ~picked ~truth ~all =
  match all with
  | [] -> invalid_arg "Explore.quality_vs_optimal: empty space"
  | _ ->
      let opt = List.fold_left (fun acc c -> Float.min acc (truth c)) infinity all in
      if opt <= 0.0 then 0.0 else 100.0 *. (truth picked -. opt) /. opt
