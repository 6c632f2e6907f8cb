(* Workload generation: every request the benchmark sends is derived
   here from the seed, and every reference answer a response is checked
   against is computed here, outside any timed interval. *)

module Json = Flexcl_util.Json
module W = Flexcl_workloads.Workload
module L = Flexcl_ir.Launch
module Analysis = Flexcl_core.Analysis
module Model = Flexcl_core.Model
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Learn = Flexcl_learn.Learn

type workload = Hot_predict | Mixed_serve | Cold_explore

let workloads =
  [ ("hot-predict", Hot_predict); ("mixed-serve", Mixed_serve);
    ("cold-explore", Cold_explore) ]

let workload_name w = fst (List.find (fun (_, v) -> v = w) workloads)

(* the names the serve protocol accepts, paired with the model's devices *)
let devices =
  [ ("virtex7", Device.virtex7); ("ku060", Device.ku060);
    ("ku060-2ddr", Device.ku060_2ddr); ("xcu280", Device.u280) ]

let corpus = Flexcl_workloads.Rodinia.all @ Flexcl_workloads.Polybench.all
let find_workload name = List.find (fun w -> W.name w = name) corpus
let goldens = Filename.concat "test" "goldens"
let model_path = Filename.concat goldens "model.golden.json"
let golden_path = Filename.concat goldens "cycles.golden"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_model () =
  match Learn.model_of_string (read_file model_path) with
  | Ok m -> m
  | Error d -> failwith (model_path ^ ": " ^ d.Flexcl_util.Diag.message)

let field line k =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member k v) Json.to_str
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Predict points *)

type point = { workload : string; device : string; pe : int; cu : int; pipeline : bool }

let predict_line ?(trace = false) ?(calibrated = false) p =
  let flag name on = if on then [ (name, Json.Bool true) ] else [] in
  Json.to_string
    (Json.Obj
       ([ ("kind", Json.Str "predict"); ("workload", Json.Str p.workload);
          ("device", Json.Str p.device); ("pe", Json.int p.pe);
          ("cu", Json.int p.cu); ("pipeline", Json.Bool p.pipeline) ]
       @ flag "trace" trace @ flag "calibrated" calibrated))

(* the design point the server builds for a request: the launch's own
   work-group size and pipeline communication mode *)
let config_of (a : Analysis.t) ~pe ~cu ~pipeline =
  { Config.wg_size = L.wg_size a.Analysis.launch; n_pe = pe; n_cu = cu;
    wi_pipeline = pipeline; comm_mode = Config.Pipeline_mode }

let analyze name =
  let w = find_workload name in
  Analysis.analyze (W.parse w) w.W.launch

let analyze_corpus () = List.map (fun w -> (W.name w, analyze (W.name w))) corpus

(* Every point of workload x device x {pe 1,2,4} x {cu 1,2} x {pipeline
   off,on} the model accepts, with its reference cycles. *)
let feasible_points analyses =
  List.concat_map
    (fun (workload, a) ->
      List.concat_map
        (fun (device, dev) ->
          List.concat_map
            (fun pe ->
              List.concat_map
                (fun cu ->
                  List.filter_map
                    (fun pipeline ->
                      let cfg = config_of a ~pe ~cu ~pipeline in
                      if Config.validate cfg <> [] || not (Model.feasible dev a cfg)
                      then None
                      else
                        match Model.estimate_result dev a cfg with
                        | Ok b when Float.is_finite b.Model.cycles ->
                            Some ({ workload; device; pe; cu; pipeline }, b.Model.cycles)
                        | _ -> None)
                    [ false; true ])
                [ 1; 2 ])
            [ 1; 2; 4 ])
        devices)
    analyses

let calibrated_reference model analyses p =
  let a = List.assoc p.workload analyses in
  let cfg = config_of a ~pe:p.pe ~cu:p.cu ~pipeline:p.pipeline in
  match Learn.calibrated_estimate model (List.assoc p.device devices) a cfg with
  | Ok c -> c.Learn.cycles
  | Error _ -> Float.nan

(* ------------------------------------------------------------------ *)
(* Seeded draws *)

let rng seed salt = Random.State.make [| seed; salt |]

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* hot-predict: 64 distinct points covering every workload of the corpus,
   each first on virtex7 (so set-up profiles the same kernels on the same
   device whatever the seed), the rest drawn uniformly *)
let hot_points ~seed feasible =
  let pts = shuffle (rng seed 1) (Array.of_list (List.map fst feasible)) in
  let covered = Hashtbl.create 64 and chosen = Hashtbl.create 64 in
  let take p =
    Hashtbl.replace chosen p ();
    Hashtbl.replace covered p.workload ()
  in
  let cover pred = Array.iter (fun p -> if pred p && not (Hashtbl.mem covered p.workload) then take p) pts in
  cover (fun p -> p.device = "virtex7");
  cover (fun _ -> true);
  Array.iter (fun p -> if Hashtbl.length chosen < 64 then take p) pts;
  List.filter (Hashtbl.mem chosen) (Array.to_list pts)

(* mixed-serve set-up: one plain predict per (workload, device) pair,
   the virtex7 pairs first so each kernel's first touch is on the same
   device whatever the seed *)
let touch_points ~seed feasible =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun (p, _) ->
      if Hashtbl.mem seen (p.workload, p.device) then None
      else (
        Hashtbl.replace seen (p.workload, p.device) ();
        Some p))
    feasible
  |> Array.of_list |> shuffle (rng seed 2) |> Array.to_list
  |> List.stable_sort (fun a b -> compare (a.device <> "virtex7") (b.device <> "virtex7"))

(* mixed-serve keys: each point in four variants (plain, trace,
   calibrated, both) at index [4 * point + trace + 2 * calibrated] *)
let variants p =
  [ predict_line p; predict_line ~trace:true p; predict_line ~calibrated:true p;
    predict_line ~trace:true ~calibrated:true p ]

let trace_share = 0.10
let calibrated_share = 0.10
let zipf_exponent = 1.0

(* [sampler ~seed kind n] draws key indices into a universe of [n] keys:
   uniform for hot-predict; for mixed-serve a Zipf rank over the [n / 4]
   points (ranks assigned by a seeded permutation) with independent trace
   and calibrated flags. Pure in its arguments, so the socket run and the
   in-process replays draw the same stream. *)
let sampler ~seed kind n =
  let st = rng seed 3 in
  match kind with
  | Mixed_serve ->
      let np = n / 4 in
      let perm = shuffle st (Array.init np Fun.id) in
      let cdf = Array.make np 0.0 in
      let acc = ref 0.0 in
      for r = 0 to np - 1 do
        acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf_exponent));
        cdf.(r) <- !acc
      done;
      let total = !acc in
      fun () ->
        let u = Random.State.float st total in
        let lo = ref 0 and hi = ref (np - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) < u then lo := mid + 1 else hi := mid
        done;
        let t = if Random.State.float st 1.0 < trace_share then 1 else 0 in
        let c = if Random.State.float st 1.0 < calibrated_share then 2 else 0 in
        (4 * perm.(!lo)) + t + c
  | Hot_predict | Cold_explore -> fun () -> Random.State.int st n

(* ------------------------------------------------------------------ *)
(* Cold-explore: the kernels with a pinned best point, in seeded order *)

let golden_rows () =
  String.split_on_char '\n' (read_file golden_path)
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match List.map String.trim (String.split_on_char '|' line) with
           | [ name; cfg; cycles ] -> Some (name, (cfg, cycles))
           | _ -> failwith ("malformed golden row: " ^ line))

let cold_lines ~seed golden =
  shuffle (rng seed 4) (Array.of_list (List.map fst golden))
  |> Array.to_list
  |> List.concat_map (fun name ->
         [ Json.to_string
             (Json.Obj [ ("kind", Json.Str "predict"); ("workload", Json.Str name) ]);
           Json.to_string
             (Json.Obj
                [ ("kind", Json.Str "explore"); ("workload", Json.Str name);
                  ("top", Json.int 1) ]) ])

(* ------------------------------------------------------------------ *)
(* A plan: set-up lines plus the key universe the stream draws from
   (for cold-explore, the predict/explore lines in order). Written to a
   file for the replay processes, which must not profile anything before
   they replay. *)

type t = { kind : workload; seed : int; setup : string list; universe : string array }

let make ~seed kind feasible =
  match kind with
  | Cold_explore ->
      { kind; seed; setup = [];
        universe = Array.of_list (cold_lines ~seed (golden_rows ())) }
  | Hot_predict ->
      let pts = List.map predict_line (hot_points ~seed feasible) in
      { kind; seed; setup = pts; universe = Array.of_list pts }
  | Mixed_serve ->
      { kind; seed;
        setup = List.map predict_line (touch_points ~seed feasible);
        universe = Array.of_list (List.concat_map (fun (p, _) -> variants p) feasible) }

let write path t =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "%s %d\n" (workload_name t.kind) t.seed;
      List.iter (fun l -> Printf.fprintf oc "S\t%s\n" l) t.setup;
      Array.iter (fun l -> Printf.fprintf oc "U\t%s\n" l) t.universe)

let read path =
  match String.split_on_char '\n' (read_file path) with
  | header :: lines ->
      let kind, seed =
        Scanf.sscanf header "%s %d" (fun k s -> (List.assoc k workloads, s))
      in
      let tagged tag =
        List.filter_map
          (fun l ->
            if String.length l > 2 && l.[0] = tag then
              Some (String.sub l 2 (String.length l - 2))
            else None)
          lines
      in
      { kind; seed; setup = tagged 'S'; universe = Array.of_list (tagged 'U') }
  | [] -> failwith ("empty plan " ^ path)
