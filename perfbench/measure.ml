(* The untraced runs against real `flexcl serve --socket --jobs 0`
   processes: requests run on the connection's own thread, because with
   a worker domain the cross-domain hand-off on two cores made throughput
   swing by half between runs. One connection in a closed loop: the next
   request goes out when the previous reply is in, as the CLI, DSE
   scripts and editors call the service. Responses are kept and checked after the timed
   interval; a failed check, an error response or a lost reply is a
   failure counted against the requests attempted. *)

module Json = Flexcl_util.Json
module Model = Flexcl_core.Model
module Device = Flexcl_device.Device

type outcome = { mutable attempted : int; mutable failed : int; mutable problems : string list }

let outcome () = { attempted = 0; failed = 0; problems = [] }

let problem o p = if List.length o.problems < 8 then o.problems <- p :: o.problems

let fail o p =
  o.failed <- o.failed + 1;
  problem o p

let lost o m =
  o.attempted <- o.attempted + 1;
  fail o m

(* the shutdown request is one more request: it must be answered, the
   server must exit 0 and remove its socket file *)
let check_exit o (r : Wire.exit_report) =
  o.attempted <- o.attempted + 1;
  if not (r.Wire.acked && r.Wire.clean && r.Wire.socket_removed) then
    fail o
      (Printf.sprintf "server stop: shutdown answered %b, exit 0 %b, socket removed %b"
         r.Wire.acked r.Wire.clean r.Wire.socket_removed)

let ns_between a b = Int64.to_float (Int64.sub b a)

(* ------------------------------------------------------------------ *)
(* hot-predict and mixed-serve *)

type serve = {
  setup_s : float list;  (* per set-up round: server start + prewarm *)
  first_ms : float list;  (* per kernel, its quickest first predict over the rounds *)
  rtt_us : float array list;  (* per round, its timed round trips in order *)
  lag_us : float array list;  (* per round, reply in -> next request out *)
  wall_s : float;
  ok : int;  (* timed responses that passed every check *)
  timed : int;  (* timed responses *)
  peak_mb : float;
  cache : Json.t option;  (* the final stats' cache counters *)
}

(* Every round starts a fresh server, sets it up (start + prewarm) and
   sends the same seeded stream: the first round for its share of
   [seconds], ending on a whole chunk, and the later rounds exactly as
   many requests. Chunk [i] of every round is then the same requests on
   a server in the same state, so the metrics can take, chunk by chunk,
   the round that ran it quickest: a neighbour that slows the machine
   for a while costs the chunks it overlaps in one round, not the run. *)
let chunk = 1000

let serve ~cli ~dir ~rounds ~seconds ~model o (plan : Plan.t) expect =
  let socket = Filename.concat dir "serve.sock" and log = Filename.concat dir "serve.log" in
  let setup =
    List.map (fun l -> (l, Option.value ~default:"" (Plan.field l "workload"))) plan.Plan.setup
  in
  let replies = ref [] and setups = ref [] and firsts = Hashtbl.create 64 in
  (* the loop allocates nothing that outlives it: round trips go into
     preallocated arrays and byte-identical replies are counted once, so
     the probe's own garbage collector stays out of the measurement *)
  let cap = 2_000_000 in
  let timed = Hashtbl.create 4096 and measured = ref [] in
  let wall = ref 0.0 and peak = ref 0.0 and cache = ref None in
  let measure c count =
    let sample = Plan.sampler ~seed:plan.Plan.seed plan.Plan.kind (Array.length plan.Plan.universe) in
    let size = Option.value ~default:cap count in
    let rtts = Array.make size 0.0 and lags = Array.make size 0.0 and n = ref 0 in
    let limit = seconds /. float_of_int rounds *. 1e9 in
    let more t0 =
      match count with
      | Some k -> !n < k
      | None -> !n < cap && (!n = 0 || !n mod chunk <> 0 || Spans.since_ns t0 < limit)
    in
    Gc.compact ();
    let t0 = Spans.now_ns () in
    let last = ref t0 in
    while more t0 do
      let line = plan.Plan.universe.(sample ()) in
      let ts = Spans.now_ns () in
      Wire.send c line;
      let resp = Wire.recv c in
      let te = Spans.now_ns () in
      lags.(!n) <- ns_between !last ts /. 1e3;
      rtts.(!n) <- ns_between ts te /. 1e3;
      incr n;
      last := te;
      match Hashtbl.find_opt timed (line, resp) with
      | Some k -> incr k
      | None -> Hashtbl.replace timed (line, resp) (ref 1)
    done;
    wall := !wall +. (Spans.since_ns t0 /. 1e9);
    (Array.sub rtts 0 !n, Array.sub lags 0 !n)
  in
  let prewarm c =
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (line, w) ->
        let resp, ns = Wire.round_trip c line in
        replies := (line, resp) :: !replies;
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.replace seen w ();
          let prev = Option.value ~default:infinity (Hashtbl.find_opt firsts w) in
          Hashtbl.replace firsts w (Float.min prev (ns /. 1e6))
        end)
      setup
  in
  let rec round i count =
    if i < rounds then begin
      let t0 = Spans.now_ns () in
      let s = Wire.spawn ~cli ~socket ~log ~model in
      match Wire.connect_when_ready s with
      | None ->
          lost o "server did not start";
          check_exit o (Wire.stop s None)
      | Some c -> (
          match
            prewarm c;
            setups := (Spans.since_ns t0 /. 1e9) :: !setups;
            let m = measure c count in
            if i + 1 = rounds then
              cache :=
                (match Check.result (fst (Wire.round_trip c {|{"kind":"stats"}|})) with
                | Ok r -> Json.member "cache" r
                | Error _ -> None);
            m
          with
          | (rtt, _) as m ->
              peak := Float.max !peak (Wire.peak_rss_mb s.Wire.pid);
              check_exit o (Wire.stop s (Some c));
              measured := m :: !measured;
              round (i + 1) (Some (Array.length rtt))
          | exception Wire.Lost m ->
              lost o m;
              check_exit o (Wire.stop s (Some c)))
    end
  in
  round 0 None;
  (* identical hits come back byte-identical: check each distinct reply once *)
  let memo = Hashtbl.create 4096 in
  let passes (line, resp) =
    o.attempted <- o.attempted + 1;
    let r =
      match Hashtbl.find_opt memo (line, resp) with
      | Some r -> r
      | None ->
          let r = Check.predict (expect line) resp in
          Hashtbl.replace memo (line, resp) r;
          r
    in
    match r with
    | Ok () -> true
    | Error m ->
        fail o m;
        false
  in
  List.iter (fun x -> ignore (passes x)) !replies;
  let ok = Hashtbl.fold (fun x k acc -> if passes x then acc + !k else acc) timed 0 in
  let rounds = List.rev !measured in
  { setup_s = !setups; first_ms = List.of_seq (Hashtbl.to_seq_values firsts);
    rtt_us = List.map fst rounds; lag_us = List.map snd rounds; wall_s = !wall; ok;
    timed = Hashtbl.fold (fun _ k acc -> acc + !k) timed 0; peak_mb = !peak; cache = !cache }

(* reference answers for every key of the hot-predict and mixed-serve
   universes *)
let expectations analyses feasible =
  let tbl = Hashtbl.create 16384 in
  List.iter
    (fun (p, cycles) ->
      List.iteri
        (fun i line -> Hashtbl.replace tbl line (p, cycles, i land 1 = 1, i land 2 = 2))
        (Plan.variants p))
    feasible;
  let model = lazy (Plan.load_model ()) and cal = Hashtbl.create 256 in
  fun line ->
    let p, cycles, trace, want_cal = Hashtbl.find tbl line in
    let calibrated =
      if not want_cal then None
      else
        match Hashtbl.find_opt cal p with
        | Some c -> Some c
        | None ->
            let c = Plan.calibrated_reference (Lazy.force model) analyses p in
            Hashtbl.replace cal p c;
            Some c
    in
    { Check.cycles; calibrated; trace }

(* ------------------------------------------------------------------ *)
(* cold-explore *)

type cold = {
  c_setup_s : float list;  (* server start until it accepts *)
  best_ns : (string * float) array;  (* each request of a pass, its quickest round trip over the passes *)
  all_us : float list;  (* every round trip *)
  c_wall_s : float;  (* the passes, server starts excluded *)
  c_ok : int;
  c_attempted : int;  (* pass requests checked *)
  points : int;  (* feasible points ranked by one pass's explores *)
  kernels : int;  (* explores in one pass *)
  passes : int;  (* whole passes *)
  c_peak_mb : float;
  c_lag_us : float list;
}

(* Every pass sends the same lines to a fresh server, so each request's
   quickest round trip over the passes is its cost on a quiet machine. *)
let cold ~cli ~dir ~rounds ~passes o (plan : Plan.t) =
  let socket = Filename.concat dir "serve.sock" and log = Filename.concat dir "serve.log" in
  let golden = Plan.golden_rows () in
  let lines = plan.Plan.universe in
  let start () =
    let t0 = Spans.now_ns () in
    let s = Wire.spawn ~cli ~socket ~log ~model:false in
    match Wire.connect_when_ready s with
    | Some c -> Some (s, c, Spans.since_ns t0 /. 1e9)
    | None ->
        lost o "server did not start";
        check_exit o (Wire.stop s None);
        None
  in
  let setups = ref [] in
  let rec setup_rounds i =
    match start () with
    | None -> None
    | Some (s, c, dt) ->
        setups := dt :: !setups;
        if i + 1 < rounds then begin
          check_exit o (Wire.stop s (Some c));
          setup_rounds (i + 1)
        end
        else Some (s, c)
  in
  let runs = ref [] and lags = ref [] and wall = ref 0.0 and peak = ref 0.0 in
  let pass (s, c) =
    let t0 = Spans.now_ns () in
    let last = ref t0 in
    let replies =
      try
        Some
          (Array.map
             (fun line ->
               let ts = Spans.now_ns () in
               lags := (ns_between !last ts /. 1e3) :: !lags;
               let r = Wire.round_trip c line in
               last := Spans.now_ns ();
               r)
             lines)
      with Wire.Lost m ->
        lost o ("pass: " ^ m);
        None
    in
    wall := !wall +. (Spans.since_ns t0 /. 1e9);
    peak := Float.max !peak (Wire.peak_rss_mb s.Wire.pid);
    check_exit o (Wire.stop s (Some c));
    Option.iter (fun r -> runs := r :: !runs) replies
  in
  (match setup_rounds 0 with
  | None -> ()
  | Some sc ->
      pass sc;
      let rec more i =
        if i < passes && o.failed = 0 then
          match start () with
          | Some (s, c, _) ->
              pass (s, c);
              more (i + 1)
          | None -> ()
      in
      more 1);
  (* references, computed after every server has stopped *)
  let refs = Hashtbl.create 64 in
  let predict_ref name =
    match Hashtbl.find_opt refs name with
    | Some c -> c
    | None ->
        let a = Plan.analyze name in
        let cfg = Plan.config_of a ~pe:1 ~cu:1 ~pipeline:false in
        let c =
          match Model.estimate_result Device.virtex7 a cfg with
          | Ok b -> b.Model.cycles
          | Error _ -> Float.nan
        in
        Hashtbl.replace refs name c;
        c
  in
  let runs = List.rev !runs in
  let ok = ref 0 and attempted = ref 0 and points = ref 0 and kernels = ref 0 in
  List.iteri
    (fun i replies ->
      Array.iteri
        (fun j (resp, _) ->
          incr attempted;
          o.attempted <- o.attempted + 1;
          let line = lines.(j) in
          let name = Option.value ~default:"" (Plan.field line "workload") in
          let verdict =
            if Plan.field line "kind" = Some "predict" then
              Check.predict { Check.cycles = predict_ref name; calibrated = None; trace = false } resp
            else
              match Check.explore (List.assoc name golden) resp with
              | Ok n ->
                  if i = 0 then begin
                    points := !points + n;
                    incr kernels
                  end;
                  Ok ()
              | Error m -> Error m
          in
          match verdict with Ok () -> incr ok | Error m -> fail o m)
        replies)
    runs;
  let best_ns =
    Array.mapi
      (fun j line ->
        (line, List.fold_left (fun acc r -> Float.min acc (snd r.(j))) infinity runs))
      lines
  in
  { c_setup_s = !setups; best_ns; c_wall_s = !wall; c_ok = !ok; c_attempted = !attempted;
    all_us = List.concat_map (fun r -> Array.to_list (Array.map (fun (_, ns) -> ns /. 1e3) r)) runs;
    points = !points; kernels = !kernels; passes = List.length runs; c_peak_mb = !peak;
    c_lag_us = !lags }
