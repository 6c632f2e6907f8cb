(* FlexCL benchmark probe. Run it from the root of a FlexCL checkout;
   `python3 perfbench/run.py` builds it and passes the arguments.

   probe run --workload NAME --seed N --seconds S --trace 0|1 --cli EXE --dir DIR
     --trace 0: the workload against real `flexcl serve` processes;
       prints every end-to-end metric with its unit and sample count.
     --trace 1: the generated inputs of every workload replayed in
       processes of their own with a timer around each call into a
       layer; prints one span table per workload and the per-layer
       metrics.
     The last line of standard output is the JSON result.

   probe replay --plan FILE --pass pipeline|server (--seconds S | --count N)
     One in-process replay, spawned by the traced run. *)

module Json = Flexcl_util.Json
module Stats = Flexcl_util.Stats

let rec pairs = function
  | k :: v :: rest -> (k, v) :: pairs rest
  | [] -> []
  | [ k ] -> failwith ("no value for " ^ k)

let flag args name =
  match List.assoc_opt name args with Some v -> v | None -> failwith ("missing " ^ name)

let pct p xs = if xs = [] then 0.0 else Stats.percentile p xs

(* the highest of p99/p95/p90/p75 with at least ten samples beyond it *)
let tail xs =
  let n = float_of_int (List.length xs) in
  let p =
    Option.value ~default:50.0
      (List.find_opt (fun p -> n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.0; 95.0; 90.0; 75.0 ])
  in
  (p, pct p xs)

let print_metric (name, value, unit_, note) =
  Printf.printf "  %-26s %16.6g %-6s %s\n" name value unit_ note

(* the result line: non-finite values cannot be measurements *)
let emit (o : Measure.outcome) metrics =
  let finite = List.for_all (fun (_, v, _, _) -> Float.is_finite v) metrics in
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev o.Measure.problems);
  let m =
    List.map
      (fun (name, v, u, _) ->
        ( name,
          Json.Obj [ ("value", Json.Num (if Float.is_finite v then v else 0.0)); ("unit", Json.Str u) ] ))
      metrics
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (finite && o.Measure.failed = 0 && o.Measure.problems = []));
            ("attempted", Json.int o.Measure.attempted); ("failed", Json.int o.Measure.failed);
            ("metrics", Json.Obj m) ]))

let ok_rate (o : Measure.outcome) =
  ( "ok_rate",
    1.0 -. (float_of_int o.Measure.failed /. float_of_int (max 1 o.Measure.attempted)),
    "ratio",
    Printf.sprintf "%d failed of %d attempted" o.Measure.failed o.Measure.attempted )

let samples xs = Printf.sprintf "n=%d" (List.length xs)

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end metrics *)

let sum = Array.fold_left ( +. ) 0.0

(* The rounds replay one stream (see Measure.serve); for each chunk of
   it, its quickest round by wall time, by round-trip time and by
   median round trip. *)
let best_chunks (m : Measure.serve) =
  let n =
    match m.Measure.rtt_us with
    | [] -> 0
    | r :: rest -> List.fold_left (fun acc r -> min acc (Array.length r)) (Array.length r) rest
  in
  let rounds = List.combine m.Measure.rtt_us m.Measure.lag_us in
  List.init (n / Measure.chunk) (fun i ->
      let at a = Array.sub a (i * Measure.chunk) Measure.chunk in
      let best f = List.fold_left (fun acc (rtt, lag) -> Float.min acc (f (at rtt) (at lag))) infinity rounds in
      ( best (fun rtt lag -> sum rtt +. sum lag),
        best (fun rtt _ -> sum rtt),
        best (fun rtt _ -> pct 50.0 (Array.to_list rtt)) ))

let serve_metrics (m : Measure.serve) o =
  let all xs = List.concat_map Array.to_list xs in
  let rtt = all m.Measure.rtt_us and lag = all m.Measure.lag_us in
  let chunks = best_chunks m in
  let requests = float_of_int (List.length chunks * Measure.chunk) in
  let ok_share = float_of_int m.Measure.ok /. float_of_int (max 1 m.Measure.timed) in
  let total f = List.fold_left (fun acc c -> acc +. f c) 0.0 chunks /. 1e6 in
  let lp, lv = tail lag and tp, tv = tail rtt in
  Printf.printf "  generator lag behind the closed loop: p50 %.2f us, p%g %.2f us (%s)\n"
    (pct 50.0 lag) lp lv (samples lag);
  Printf.printf "  round trip over every round: p50 %.1f us, p%g %.1f us (%s)\n" (pct 50.0 rtt) tp tv
    (samples rtt);
  Printf.printf "  first_predict_p50_ms %.4f (%s kernels, quickest first predict of each over the set-ups)\n"
    (Stats.median m.Measure.first_ms) (samples m.Measure.first_ms);
  let note =
    Printf.sprintf "best of %d rounds per %d-request chunk, %d chunks"
      (List.length m.Measure.rtt_us) Measure.chunk (List.length chunks)
  in
  [ ("setup_s", Stats.median m.Measure.setup_s, "s", "median of " ^ samples m.Measure.setup_s ^ " set-ups");
    ( "throughput_rps", ok_share *. requests /. total (fun (d, _, _) -> d), "1/s",
      Printf.sprintf "%s; %d ok of %d timed responses in %.3f s" note m.Measure.ok m.Measure.timed
        m.Measure.wall_s );
    ("latency_p50_us", Stats.median (List.map (fun (_, _, p) -> p) chunks), "us", "median over chunks, " ^ note);
    ( "points_per_s", ok_share *. requests /. total (fun (_, r, _) -> r), "1/s",
      "predicted points per second of round trip, " ^ note );
    ("peak_rss_mb", m.Measure.peak_mb, "MB", "server VmHWM");
    ok_rate o ]

let cold_metrics (m : Measure.cold) o =
  let tp, tv = tail m.Measure.all_us in
  Printf.printf "  round trip of every request: p50 %.1f us, p%g %.1f us (%s)\n"
    (pct 50.0 m.Measure.all_us) tp tv (samples m.Measure.all_us);
  let best kind =
    Array.to_list m.Measure.best_ns
    |> List.filter_map (fun (line, ns) -> if Plan.field line "kind" = Some kind then Some ns else None)
  in
  let predict_ns = best "predict" and explore_ns = best "explore" in
  let total xs = List.fold_left ( +. ) 0.0 xs /. 1e9 in
  let pass_s = total (predict_ns @ explore_ns) in
  let ok_share = float_of_int m.Measure.c_ok /. float_of_int (max 1 m.Measure.c_attempted) in
  let ep, ev = tail explore_ns in
  let lp, lv = tail m.Measure.c_lag_us in
  Printf.printf "  %d pass(es) of %d kernels in %.3f s; per request the quickest pass: kernels_per_s %.4f; explore_p50_ms %.3f, p%g %.3f (%s)\n"
    m.Measure.passes m.Measure.kernels m.Measure.c_wall_s
    (float_of_int m.Measure.kernels /. pass_s)
    (pct 50.0 explore_ns /. 1e6) ep (ev /. 1e6) (samples explore_ns);
  Printf.printf "  generator lag behind the closed loop: p50 %.2f us, p%g %.2f us (%s)\n"
    (pct 50.0 m.Measure.c_lag_us) lp lv (samples m.Measure.c_lag_us);
  let note = Printf.sprintf "quickest of %d passes per request" m.Measure.passes in
  [ ("setup_s", Stats.median m.Measure.c_setup_s, "s", "median of " ^ samples m.Measure.c_setup_s ^ " server starts");
    ( "throughput_rps", ok_share *. float_of_int (Array.length m.Measure.best_ns) /. pass_s, "1/s",
      Printf.sprintf "%d ok of %d responses; %s" m.Measure.c_ok m.Measure.c_attempted note );
    ("latency_p50_us", pct 50.0 predict_ns /. 1e3, "us", samples predict_ns ^ " cold predicts, " ^ note);
    ( "points_per_s", ok_share *. float_of_int m.Measure.points /. total explore_ns, "1/s",
      Printf.sprintf "%d feasible points ranked per pass, %s" m.Measure.points note );
    ("peak_rss_mb", m.Measure.c_peak_mb, "MB", "max server VmHWM over passes");
    ok_rate o ]

let untraced ~cli ~dir ~seed ~seconds kind =
  let o = Measure.outcome () in
  Printf.printf "== %s, seed %d, end to end (no tracing) ==\n" (Plan.workload_name kind) seed;
  let metrics =
    match kind with
    | Plan.Cold_explore ->
        let plan = Plan.make ~seed kind [] in
        (* whole passes of about ten seconds each, at least three *)
        let passes = max 3 (int_of_float (Float.ceil (seconds /. 10.0))) in
        cold_metrics (Measure.cold ~cli ~dir ~rounds:15 ~passes o plan) o
    | Plan.Hot_predict | Plan.Mixed_serve ->
        let analyses = Plan.analyze_corpus () in
        let feasible = Plan.feasible_points analyses in
        let plan = Plan.make ~seed kind feasible in
        let expect = Measure.expectations analyses feasible in
        (* rounds of about six seconds each, at least three *)
        let rounds = max 3 (int_of_float (seconds /. 6.0)) in
        let m =
          Measure.serve ~cli ~dir ~rounds ~seconds ~model:(kind = Plan.Mixed_serve) o plan expect
        in
        serve_metrics m o
  in
  List.iter print_metric metrics;
  emit o metrics

(* ------------------------------------------------------------------ *)
(* Traced: replays in processes of their own *)

type replayed = {
  r_rows : Spans.row list;
  r_counters : (string * float) list;
  r_digest : string;
  r_requests : int;
  r_problems : string list;
}

let run_replay plan_file pass extra =
  let args = [ Sys.executable_name; "replay"; "--plan"; plan_file; "--pass"; pass ] @ extra in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' out)
  in
  match (status, Json.of_string last) with
  | Unix.WEXITED 0, Ok v ->
      let list k = Option.value ~default:[] (Option.bind (Json.member k v) Json.to_list) in
      let counters =
        match Json.member "counters" v with
        | Some (Json.Obj kv) -> List.map (fun (k, x) -> (k, Option.value ~default:0.0 (Json.to_float x))) kv
        | _ -> []
      in
      { r_rows = List.map Spans.row_of_json (list "spans"); r_counters = counters;
        r_digest = Option.value ~default:"" (Option.bind (Json.member "digest" v) Json.to_str);
        r_requests = Option.value ~default:0 (Option.bind (Json.member "requests" v) Json.to_int);
        r_problems = List.filter_map Json.to_str (list "problems") }
  | _ -> failwith (Printf.sprintf "replay %s %s failed" plan_file pass)

let row r name = List.find_opt (fun (x : Spans.row) -> x.Spans.name = name) r.r_rows
let total r name = Option.fold ~none:0.0 ~some:(fun x -> x.Spans.total_ns) (row r name)
let calls r name = Option.fold ~none:0.0 ~some:(fun x -> float_of_int x.Spans.calls) (row r name)
let p50 r name = Option.fold ~none:0.0 ~some:(fun x -> x.Spans.p50_ns) (row r name)
let mean r name = if calls r name = 0.0 then 0.0 else total r name /. calls r name
let counter r k = Option.value ~default:0.0 (List.assoc_opt k r.r_counters)

let traced ~cli ~dir ~seed ~seconds named =
  let o = Measure.outcome () in
  let analyses = Plan.analyze_corpus () in
  let feasible = Plan.feasible_points analyses in
  let plan k = Plan.make ~seed k feasible in
  let file k = Filename.concat dir (Plan.workload_name k ^ ".plan") in
  List.iter (fun (_, k) -> Plan.write (file k) (plan k)) Plan.workloads;
  (* the real server: client round trips on hot-predict, cache counters
     after mixed-serve *)
  let expect = Measure.expectations analyses feasible in
  let hot =
    Measure.serve ~cli ~dir ~rounds:1 ~seconds:(0.1 *. seconds) ~model:false o (plan Plan.Hot_predict) expect
  in
  let mixed =
    Measure.serve ~cli ~dir ~rounds:1 ~seconds:(0.15 *. seconds) ~model:true o (plan Plan.Mixed_serve) expect
  in
  let secs f = [ "--seconds"; Printf.sprintf "%g" (f *. seconds) ] in
  let replay k pass extra = run_replay (file k) pass extra in
  let cold = replay Plan.Cold_explore "pipeline" [ "--count"; "0" ] in
  let hot_p = replay Plan.Hot_predict "pipeline" (secs 0.1) in
  let hot_s = replay Plan.Hot_predict "server" [ "--count"; string_of_int hot_p.r_requests ] in
  let mixed_p = replay Plan.Mixed_serve "pipeline" (secs 0.15) in
  let mixed_s = replay Plan.Mixed_serve "server" [ "--count"; string_of_int mixed_p.r_requests ] in
  let tables =
    [ (Plan.Cold_explore, [ ("pipeline", cold) ]);
      (Plan.Hot_predict, [ ("pipeline", hot_p); ("server", hot_s) ]);
      (Plan.Mixed_serve, [ ("pipeline", mixed_p); ("server", mixed_s) ]) ]
  in
  let tables = List.filter (fun (k, _) -> k = named) tables @ List.filter (fun (k, _) -> k <> named) tables in
  List.iter
    (fun (k, passes) ->
      List.iter
        (fun (pass, r) ->
          Printf.printf "== traced replay: %s, %s pass, %d requests ==\n%s" (Plan.workload_name k) pass
            r.r_requests (Spans.render r.r_rows);
          o.Measure.attempted <- o.Measure.attempted + r.r_requests;
          List.iter (Measure.fail o) (Spans.check r.r_rows @ r.r_problems))
        passes)
    tables;
  List.iter
    (fun (w, p, s) ->
      if p.r_digest <> s.r_digest then
        Measure.problem o (w ^ ": traced replica answered differently from Server.handle_line"))
    [ ("hot-predict", hot_p, hot_s); ("mixed-serve", mixed_p, mixed_s) ];
  let us x = x /. 1e3 and ms x = x /. 1e6 in
  let hit_us = us (p50 hot_s "server.handle_hit") in
  Printf.printf "  tracing overhead (hot-predict): traced request p50 %.2f us vs untraced handle_line p50 %.2f us\n"
    (us (p50 hot_p "request")) hit_us;
  let cache kind k =
    match mixed.Measure.cache with
    | Some c -> Option.value ~default:0.0 (Option.bind (Option.bind (Json.member kind c) (Json.member k)) Json.to_float)
    | None -> 0.0
  in
  let cold_ms name = ("ms", ms (total cold name)) in
  let layers =
    [ ("interp.profile.ms", cold_ms "interp.profile");
      ("interp.profile.accesses", ("count", counter cold "interp.profile.accesses"));
      ("core.analysis.ms", cold_ms "core.analysis");
      ("dse.reanalysis.ms", cold_ms "dse.reanalysis");
      ("dse.reanalysis.calls", ("count", calls cold "dse.reanalysis"));
      ("core.estimate_cold.ms", cold_ms "core.estimate_cold");
      ("core.specialize.ms", cold_ms "core.specialize");
      ("core.specialize.calls", ("count", calls cold "core.specialize"));
      ("core.point.us", ("us", us (mean cold "core.point")));
      ("core.lower_bound.us", ("us", us (mean cold "core.lower_bound")));
      ("dse.sweep.ms", cold_ms "dse.sweep");
      ("dse.heuristic.ms", cold_ms "dse.heuristic");
      ("dse.pruned_ratio", ("ratio", counter cold "dse.pruned_ratio"));
      ("opencl.lexer.ms", cold_ms "opencl.lexer");
      ("opencl.parser.ms", cold_ms "opencl.parser");
      ("opencl.sema.ms", cold_ms "opencl.sema");
      ("ir.lower.ms", cold_ms "ir.lower");
      ("ir.depend.ms", cold_ms "ir.depend");
      ("util.json.decode_us", ("us", us (p50 hot_p "util.json.decode")));
      ("util.json.encode_us", ("us", us (p50 hot_p "util.json.encode")));
      ("util.json.bytes", ("bytes", counter hot_p "util.json.bytes"));
      ("server.key_us", ("us", us (p50 hot_p "server.key")));
      ("server.lookup_us", ("us", us (p50 hot_p "server.lookup")));
      ("server.handle_hit_us", ("us", hit_us));
      ("server.handle_miss_us", ("us", us (p50 mixed_s "server.handle_miss")));
      ("socket.overhead_us", ("us", pct 50.0 (List.concat_map Array.to_list hot.Measure.rtt_us) -. hit_us)) ]
    @ List.concat_map
        (fun kind ->
          [ ("server.cache." ^ kind ^ ".hit_rate", ("ratio", cache kind "hit_rate"));
            ("server.cache." ^ kind ^ ".evictions", ("count", cache kind "evictions")) ])
        [ "parse"; "analysis"; "predict" ]
    @ [ ("core.estimate_warm.us", ("us", us (p50 mixed_p "core.estimate_warm")));
        ("core.explain.us", ("us", us (p50 mixed_p "core.explain")));
        ("learn.calibrate.us", ("us", us (p50 mixed_p "learn.calibrate")));
        ("gc.minor_words_per_req", ("words", counter mixed_p "gc.minor_words_per_req"));
        ("gc.major_collections", ("count", counter mixed_p "gc.major_collections"));
        ("gc.live_mb_after", ("MB", counter mixed_p "gc.live_mb_after"));
        ("gc.cold.live_mb_after", ("MB", counter cold "gc.live_mb_after")) ]
  in
  let metrics = List.map (fun (n, (u, v)) -> (n, v, u, "")) layers in
  Printf.printf "== per-layer metrics ==\n";
  List.iter print_metric metrics;
  emit o metrics

(* ------------------------------------------------------------------ *)

let replay_main args =
  let plan = Plan.read (flag args "--plan") in
  let stop =
    match List.assoc_opt "--count" args with
    | Some n ->
        let n = int_of_string n in
        fun k _ -> k >= n
    | None ->
        let limit = float_of_string (flag args "--seconds") *. 1e9 in
        fun _ t0 -> Spans.since_ns t0 >= limit
  in
  let pass () =
    match (flag args "--pass", plan.Plan.kind) with
    | "pipeline", Plan.Cold_explore -> Replay.cold_pipeline plan
    | "pipeline", _ -> Replay.serve_pipeline plan ~stop
    | "server", _ -> Replay.serve_server plan ~stop
    | p, _ -> failwith ("unknown pass " ^ p)
  in
  let rep, problems =
    match pass () with
    | rep -> (rep, [])
    | exception e -> (Replay.report (), [ Printexc.to_string e ])
  in
  print_endline (Json.to_string (Replay.to_json ~problems rep))

let run_main args =
  let kind =
    match List.assoc_opt (flag args "--workload") Plan.workloads with
    | Some k -> k
    | None -> failwith ("unknown workload " ^ flag args "--workload")
  in
  let seed = int_of_string (flag args "--seed") in
  let seconds = float_of_string (flag args "--seconds") in
  let cli = flag args "--cli" and dir = flag args "--dir" in
  if flag args "--trace" = "1" then traced ~cli ~dir ~seed ~seconds kind
  else untraced ~cli ~dir ~seed ~seconds kind

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run_main (pairs rest)
  | _ :: "replay" :: rest -> replay_main (pairs rest)
  | _ ->
      prerr_endline "usage: probe run ... | probe replay ... (see perfbench/README.md)";
      exit 2
