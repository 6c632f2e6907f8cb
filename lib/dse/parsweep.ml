module Config = Flexcl_core.Config
module Model = Flexcl_core.Model
module Analysis = Flexcl_core.Analysis
module Pool = Flexcl_util.Pool

type evaluated = { config : Config.t; cycles : float }

type oracle = Analysis.t -> Config.t -> float

type progress = { total : int; evaluated : int; pruned : int; failed : int }

(* ------------------------------------------------------------------ *)
(* Chunking: group points by work-group size (so a chunk needs exactly
   one memoized analysis), then split large groups so the pool has a few
   tasks per executor to balance. *)

let split_chunks size items =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 items

let chunks ?num_domains ~wg_of items =
  let d =
    match num_domains with Some d -> d | None -> Pool.default_num_domains ()
  in
  let total = List.length items in
  let target_tasks = max 1 (4 * (d + 1)) in
  let size = max 1 ((total + target_tasks - 1) / target_tasks) in
  (* group by wg size, preserving first-appearance order of sizes and
     point order within a size *)
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun x ->
      let wg = wg_of x in
      match Hashtbl.find_opt tbl wg with
      | Some l -> l := x :: !l
      | None ->
          let l = ref [ x ] in
          Hashtbl.replace tbl wg l;
          order := wg :: !order)
    items;
  List.rev !order
  |> List.concat_map (fun wg ->
         let group = List.rev !(Hashtbl.find tbl wg) in
         List.map (fun sub -> (wg, sub)) (split_chunks size group))

let rank =
  List.sort (fun a b -> compare (a.cycles, a.config) (b.cycles, b.config))

(* ------------------------------------------------------------------ *)

let sweep_stats ?num_domains ?progress dev (base : Analysis.t) space oracle =
  let points = Space.feasible_points dev base space in
  let total = List.length points in
  let mutex = Mutex.create () in
  let st = ref { total; evaluated = 0; pruned = 0; failed = 0 } in
  let bump update =
    Mutex.lock mutex;
    st := update !st;
    (match progress with Some f -> f !st | None -> ());
    Mutex.unlock mutex
  in
  let tasks =
    chunks ?num_domains ~wg_of:(fun (c : Config.t) -> c.Config.wg_size) points
    |> List.map (fun (wg, cfgs) () ->
           let analysis = Analysis.with_wg_size base wg in
           (* partially apply once per chunk: a staged oracle (e.g.
              [Explore.specialized_model_oracle]) resolves its
              specialization here, not per point *)
           let eval = oracle analysis in
           List.filter_map
             (fun cfg ->
               let c = eval cfg in
               if Float.is_finite c then begin
                 bump (fun s -> { s with evaluated = s.evaluated + 1 });
                 Some { config = cfg; cycles = c }
               end
               else begin
                 (* a failing oracle (SDAccel maps failures to infinity)
                    must never rank among real estimates *)
                 bump (fun s -> { s with failed = s.failed + 1 });
                 None
               end)
             cfgs)
  in
  let results = Pool.with_pool ?num_domains (fun pool -> Pool.run pool tasks) in
  (rank (List.concat results), !st)

let sweep ?num_domains ?progress dev base space oracle =
  fst (sweep_stats ?num_domains ?progress dev base space oracle)

(* Pruning threshold: skip only when the bound exceeds the incumbent by
   more than a rounding margin, so a point whose true cost ties the
   incumbent (and could win the config tie-break) is always evaluated. *)
let prune_threshold c = c +. (Float.abs c *. 1e-9) +. 1e-6

let best ?num_domains ?progress ?bound dev (base : Analysis.t) space oracle =
  let points = Space.feasible_points dev base space in
  let total = List.length points in
  let mutex = Mutex.create () in
  let st = ref { total; evaluated = 0; pruned = 0; failed = 0 } in
  let incumbent = ref None in
  let bump update =
    st := update !st;
    match progress with Some f -> f !st | None -> ()
  in
  let beats a b = compare (a.cycles, a.config) (b.cycles, b.config) < 0 in
  let tasks =
    chunks ?num_domains ~wg_of:(fun (c : Config.t) -> c.Config.wg_size) points
    |> List.map (fun (wg, cfgs) () ->
           let analysis = Analysis.with_wg_size base wg in
           let eval = oracle analysis in
           let lb_eval =
             match bound with None -> None | Some lb -> Some (lb analysis)
           in
           List.iter
             (fun cfg ->
               let skip =
                 match lb_eval with
                 | None -> false
                 | Some lb -> (
                     let b = lb cfg in
                     Mutex.lock mutex;
                     let s =
                       match !incumbent with
                       | Some e -> b > prune_threshold e.cycles
                       | None -> false
                     in
                     if s then bump (fun st -> { st with pruned = st.pruned + 1 });
                     Mutex.unlock mutex;
                     s)
               in
               if not skip then begin
                 let c = eval cfg in
                 Mutex.lock mutex;
                 if Float.is_finite c then begin
                   let e = { config = cfg; cycles = c } in
                   (match !incumbent with
                   | Some cur when not (beats e cur) -> ()
                   | _ -> incumbent := Some e);
                   bump (fun st -> { st with evaluated = st.evaluated + 1 })
                 end
                 else bump (fun st -> { st with failed = st.failed + 1 });
                 Mutex.unlock mutex
               end)
             cfgs)
  in
  (match Pool.with_pool ?num_domains (fun pool -> Pool.run pool tasks) with
  | (_ : unit list) -> ());
  (!incumbent, !st)

let eval_batch ?num_domains (base : Analysis.t) cfgs oracle =
  let n = List.length cfgs in
  if n = 0 then []
  else begin
    let out = Array.make n None in
    let indexed = List.mapi (fun i c -> (i, c)) cfgs in
    let tasks =
      chunks ?num_domains
        ~wg_of:(fun (_, (c : Config.t)) -> c.Config.wg_size)
        indexed
      |> List.map (fun (wg, sub) () ->
             let analysis = Analysis.with_wg_size base wg in
             let eval = oracle analysis in
             List.iter
               (fun (i, cfg) ->
                 out.(i) <- Some { config = cfg; cycles = eval cfg })
               sub)
    in
    (match Pool.with_pool ?num_domains (fun pool -> Pool.run pool tasks) with
    | (_ : unit list) -> ());
    Array.to_list out
    |> List.map (function Some e -> e | None -> assert false)
  end
