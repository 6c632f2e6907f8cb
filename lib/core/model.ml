open Flexcl_opencl
open Flexcl_ir
module Device = Flexcl_device.Device
module Dram = Flexcl_dram.Dram
module Graph = Flexcl_util.Graph
module Cache = Flexcl_util.Cache
module Listsched = Flexcl_sched.Listsched
module Sms = Flexcl_sched.Sms
module Interp = Flexcl_interp.Interp
module Trace = Flexcl_util.Trace

(* Ablation switches for the refinements of DESIGN.md §4b; the bench's
   ablation experiment disables them one at a time. *)
type options = {
  cross_wi_coalescing : bool;
  warm_classification : bool;
  bus_roofline : bool;
  multi_cu_dram_replay : bool;
  vector_width : int;
}

let default_options =
  {
    cross_wi_coalescing = true;
    warm_classification = true;
    bus_roofline = true;
    multi_cu_dram_replay = true;
    vector_width = 1;
  }

type breakdown = {
  ii_wi : int;
  depth_pe : int;
  rec_mii : int;
  res_mii : int;
  l_pe : float;
  n_pe_eff : int;
  l_cu : float;
  n_cu_eff : int;
  l_comp_kernel : float;
  l_mem_wi : float;
  pattern_counts : (Dram.pattern * float) list;
  dsp_footprint : int;
  cycles : float;
  seconds : float;
}

let fceil x = Float.ceil x

let iceil_div a b = if b <= 0 then a else (a + b - 1) / b

(* ------------------------------------------------------------------ *)
(* Pattern-latency tables depend on the DRAM timing alone. Everything
   else the model caches is owned by its analysis ([Analysis.artifacts])
   and keyed on the whole [Device.t] plus the options it depends on. All
   caches are domain-safe: the DSE engine evaluates design points from
   several domains at once. *)

let latency_tables : (Dram.config, (Dram.pattern * float) list) Cache.t =
  Cache.create ()

let pattern_latencies (dev : Device.t) =
  Cache.memo latency_tables dev.Device.dram (fun () ->
      Dram.profile_latencies dev.Device.dram)

(* ------------------------------------------------------------------ *)
(* Computation model *)

type comp_env = {
  dev : Device.t;
  analysis : Analysis.t;
  cons : Listsched.constraints;
  lat : Opcode.t -> int;
  dsp : Opcode.t -> int;
  block_lat_override : (Dfg.t -> int) option;
      (** the simulator injects realized per-instance latencies here. *)
  mutable summaries : (Dfg.t * Listsched.summary) list;
      (** per-env schedule memo (physical keys): each block is list- and
          modulo-scheduled from several places per estimate (region
          latency, SMS macro nodes, the trace builder); one env never
          crosses domains, so a plain field suffices. *)
}

let block_summary env d =
  match List.find_opt (fun (d', _) -> d' == d) env.summaries with
  | Some (_, s) -> s
  | None ->
      let s =
        Listsched.summarize d ~lat:env.lat ~dsp_cost:env.dsp ~cons:env.cons
      in
      env.summaries <- (d, s) :: env.summaries;
      s

let block_latency env d =
  match env.block_lat_override with
  | Some f -> f d
  | None -> (block_summary env d).Listsched.latency

(* Conflict DAG of a list of sibling regions: siblings with disjoint
   read/write sets run as parallel circuits (§3.2); conflicting siblings
   order by program position. Shared by the latency computation and the
   trace builder so both walk the same critical path. *)
let seq_conflict_graph arr =
  let n = Array.length arr in
  let reads = Array.map Cdfg.region_reads arr in
  let writes = Array.map Cdfg.region_writes arr in
  let intersects a b = List.exists (fun x -> List.mem x b) a in
  let g = Graph.create n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let conflict =
        intersects writes.(i) reads.(j)
        || intersects writes.(i) writes.(j)
        || intersects reads.(i) writes.(j)
      in
      if conflict then Graph.add_edge g i j
    done
  done;
  g

(* longest path over float node weights; [dist.(v)] includes [lats.(v)] *)
let seq_dist g lats =
  let order = match Graph.topo_sort g with Some o -> o | None -> assert false in
  let dist = Array.copy lats in
  List.iter
    (fun u ->
      List.iter
        (fun (v, _) ->
          if dist.(u) +. lats.(v) > dist.(v) then dist.(v) <- dist.(u) +. lats.(v))
        (Graph.succs g u))
    order;
  dist

(* Dependence-ordered latency of a list of sibling regions. *)
let seq_latency child_lat children =
  let n = List.length children in
  if n = 0 then 0.0
  else begin
    let arr = Array.of_list children in
    let lats = Array.map child_lat arr in
    let dist = seq_dist (seq_conflict_graph arr) lats in
    Array.fold_left Float.max 0.0 dist
  end

(* RecMII of the recurrences inside a block: block DFG + back edges. *)
let block_rec_mii env (d : Dfg.t) (recs : Depend.recurrence list) =
  match recs with
  | [] -> 0
  | _ ->
      let src = Dfg.graph d in
      let g = Graph.create (Graph.n_nodes src) in
      for u = 0 to Graph.n_nodes src - 1 do
        List.iter (fun (v, _) -> Graph.add_edge ~weight:0 g u v) (Graph.succs src u)
      done;
      List.iter
        (fun (r : Depend.recurrence) ->
          Graph.add_edge ~weight:r.Depend.distance g r.Depend.store r.Depend.load)
        recs;
      let cost u = env.lat (Dfg.node d u).Dfg.op in
      (try Graph.max_cycle_ratio g ~cost with Invalid_argument _ -> 0)

let recurrences_of_block recs d =
  List.filter (fun (r : Depend.recurrence) -> r.Depend.block == d) recs

(* Loop pipelining: II of the loop body. *)
let loop_ii env (body : Cdfg.region) loop_recs =
  let rec_part =
    Cdfg.fold_blocks
      (fun acc d -> max acc (block_rec_mii env d (recurrences_of_block loop_recs d)))
      0 body
  in
  let reads =
    Cdfg.count_ops body
      (fun op -> op = Opcode.Load Opcode.Local_mem)
      ~trip:(fun _ -> 1)
  and writes =
    Cdfg.count_ops body
      (fun op -> op = Opcode.Store Opcode.Local_mem)
      ~trip:(fun _ -> 1)
  and dsps =
    Cdfg.fold_blocks
      (fun acc d ->
        List.fold_left (fun a (n : Dfg.node) -> a + env.dsp n.Dfg.op) acc (Dfg.nodes d))
      0 body
  in
  let cap total limit = if limit <= 0 then 1 else iceil_div total limit in
  let res_part =
    max
      (cap (int_of_float reads) env.cons.Listsched.read_ports)
      (max
         (cap (int_of_float writes) env.cons.Listsched.write_ports)
         (cap dsps env.cons.Listsched.dsp))
  in
  max 1 (max rec_part res_part)

let rec region_latency env (r : Cdfg.region) : float =
  match r with
  | Cdfg.Straight d -> float_of_int (block_latency env d)
  | Cdfg.Seq rs -> seq_latency (region_latency env) rs
  | Cdfg.Branch { cond; then_; else_ } ->
      float_of_int (block_latency env cond)
      +. Float.max (region_latency env then_) (region_latency env else_)
  | Cdfg.Loop { info; header; body } ->
      let trip = Analysis.trip env.analysis info in
      if trip <= 0.0 then 0.0
      else
        let header_lat = float_of_int (block_latency env header) in
        let body_lat = region_latency env body in
        let iter_lat = header_lat +. body_lat in
        let loop_recs =
          Option.value
            (List.assoc_opt info.Cdfg.loop_id env.analysis.Analysis.loop_recurrences)
            ~default:[]
        in
        if info.Cdfg.attrs.Ast.pipeline then
          let ii = float_of_int (loop_ii env body loop_recs) in
          (ii *. (trip -. 1.0)) +. iter_lat
        else
          let u =
            match info.Cdfg.attrs.Ast.unroll with
            | Some u -> float_of_int (min u (max 1 (int_of_float trip)))
            | None -> 1.0
          in
          if u <= 1.0 then trip *. iter_lat
          else
            let eff_trip = fceil (trip /. u) in
            let carried = loop_recs <> [] in
            let unrolled_iter =
              if carried then u *. iter_lat
              else
                (* independent copies share ports: extra copies cost their
                   initiation slot, bounded below by the body's ResMII *)
                let ii = float_of_int (loop_ii env body []) in
                iter_lat +. ((u -. 1.0) *. ii)
            in
            eff_trip *. unrolled_iter

(* ------------------------------------------------------------------ *)
(* Cycle-attribution trace of the computation model (DESIGN.md §10).

   [region_trace] mirrors [region_latency] case by case: additions happen
   in the same order, each [max] keeps only the winning alternative (the
   loser appears as a 0-cycle leaf annotated with the cycles it would
   have contributed), and the Seq case re-walks the same conflict-DAG
   critical path that [seq_latency] scored — so the trace root's cycles
   recompose the very float the estimate produced. Blocks are numbered
   [b0, b1, ...] in pre-order over the region tree. *)

let block_leaf env ~ctr d =
  let i = !ctr in
  incr ctr;
  let name = Printf.sprintf "block b%d" i in
  match env.block_lat_override with
  | Some f -> Trace.leaf ~eq:"Eq.1" name (float_of_int (f d))
  | None ->
      let s = block_summary env d in
      Trace.leaf ~eq:"Eq.1" name
        (float_of_int s.Listsched.latency)
        ~notes:
          [
            ("ops", float_of_int s.Listsched.n_ops);
            ("crit_path", float_of_int s.Listsched.crit_path);
            ("resource_delay", float_of_int s.Listsched.res_delay);
          ]

let rec region_trace env ~ctr (r : Cdfg.region) : Trace.t =
  match r with
  | Cdfg.Straight d -> block_leaf env ~ctr d
  | Cdfg.Seq [] -> Trace.leaf "empty sequence" 0.0
  | Cdfg.Seq rs ->
      let arr = Array.of_list rs in
      let subs = Array.make (Array.length arr) (Trace.leaf "" 0.0) in
      Array.iteri (fun i r -> subs.(i) <- region_trace env ~ctr r) arr;
      let lats = Array.map (fun (t : Trace.t) -> t.Trace.cycles) subs in
      let g = seq_conflict_graph arr in
      let dist = seq_dist g lats in
      let best = Array.fold_left Float.max 0.0 dist in
      (* reconstruct the critical circuit by exact-float backtracking:
         [dist.(v)] was assigned the very sum [dist.(u) +. lats.(v)], so
         equality identifies the predecessor that set it (or, when none
         matches, the path starts at [v] with [dist.(v) = lats.(v)]).
         Summing the on-path sibling latencies left to right then replays
         the identical chain of additions. *)
      let v_end =
        let rec go i = if dist.(i) = best then i else go (i + 1) in
        go 0
      in
      let rec back v acc =
        let acc = v :: acc in
        match
          List.find_opt
            (fun (u, _) -> dist.(u) +. lats.(v) = dist.(v))
            (Graph.preds g v)
        with
        | Some (u, _) -> back u acc
        | None -> acc
      in
      let on_path = back v_end [] in
      let off =
        List.filter_map
          (fun v ->
            if List.mem v on_path then None
            else
              Some
                (Trace.leaf
                   (Printf.sprintf "%s (overlapped)" subs.(v).Trace.name)
                   0.0
                   ~notes:[ ("parallel_circuit_cycles", lats.(v)) ]))
          (List.init (Array.length arr) Fun.id)
      in
      Trace.node "seq (parallel circuits)"
        (List.map (fun v -> subs.(v)) on_path @ off)
  | Cdfg.Branch { cond; then_; else_ } ->
      let cond_t = block_leaf env ~ctr cond in
      let then_t = region_trace env ~ctr then_ in
      let else_t = region_trace env ~ctr else_ in
      let then_wins = then_t.Trace.cycles >= else_t.Trace.cycles in
      let win, lose, lose_name =
        if then_wins then (then_t, else_t, "else") else (else_t, then_t, "then")
      in
      let win =
        {
          win with
          Trace.name =
            win.Trace.name ^ (if then_wins then " (then arm)" else " (else arm)");
        }
      in
      Trace.node "branch"
        [
          cond_t;
          win;
          Trace.leaf (lose_name ^ " arm (shorter)") 0.0
            ~notes:[ ("alternative_cycles", lose.Trace.cycles) ];
        ]
  | Cdfg.Loop { info; header; body } ->
      let trip = Analysis.trip env.analysis info in
      let header_t = block_leaf env ~ctr header in
      let body_t = region_trace env ~ctr body in
      let lname fmt = Printf.sprintf fmt info.Cdfg.loop_id in
      if trip <= 0.0 then
        Trace.leaf (lname "loop L%d (zero trip)") 0.0 ~notes:[ ("trip", trip) ]
      else
        let iter = Trace.node (lname "loop L%d iteration") [ header_t; body_t ] in
        let loop_recs =
          Option.value
            (List.assoc_opt info.Cdfg.loop_id env.analysis.Analysis.loop_recurrences)
            ~default:[]
        in
        if info.Cdfg.attrs.Ast.pipeline then
          let ii = float_of_int (loop_ii env body loop_recs) in
          Trace.node
            (lname "loop L%d (pipelined)")
            [
              Trace.leaf "pipeline ramp (II × (trip − 1))"
                (ii *. (trip -. 1.0))
                ~notes:[ ("ii", ii); ("trip", trip) ];
              iter;
            ]
        else
          let u =
            match info.Cdfg.attrs.Ast.unroll with
            | Some u -> float_of_int (min u (max 1 (int_of_float trip)))
            | None -> 1.0
          in
          if u <= 1.0 then
            let t = Trace.scale trip iter in
            {
              t with
              Trace.name = lname "loop L%d (sequential)";
              notes = [ ("trip", trip) ];
            }
          else
            let eff_trip = fceil (trip /. u) in
            let carried = loop_recs <> [] in
            let loop_notes =
              [ ("trip", trip); ("eff_trip", eff_trip); ("unroll", u) ]
            in
            if carried then
              let unrolled = Trace.scale u iter in
              let unrolled =
                {
                  unrolled with
                  Trace.name = "unrolled copies (carried, serialized)";
                  notes = [ ("unroll", u) ];
                }
              in
              let t = Trace.scale eff_trip unrolled in
              { t with Trace.name = lname "loop L%d (unrolled)"; notes = loop_notes }
            else
              let ii = float_of_int (loop_ii env body []) in
              let group =
                Trace.node "unrolled iteration group"
                  [
                    iter;
                    Trace.leaf "extra unrolled copies (initiation slots)"
                      ((u -. 1.0) *. ii)
                      ~notes:[ ("unroll", u); ("ii", ii) ];
                  ]
              in
              let t = Trace.scale eff_trip group in
              { t with Trace.name = lname "loop L%d (unrolled)"; notes = loop_notes }

(* ------------------------------------------------------------------ *)
(* Work-item II (Eq. 2–4 + SMS refinement) *)

let weighted_counts env =
  Cdfg.weighted_op_counts
    ~trip:(fun info -> int_of_float (fceil (Analysis.trip env.analysis info)))
    env.analysis.Analysis.cdfg.Cdfg.body

let count_of counts pred =
  List.fold_left (fun acc (op, c) -> if pred op then acc +. c else acc) 0.0 counts

let work_item_res_mii env counts =
  let reads = count_of counts (fun op -> op = Opcode.Load Opcode.Local_mem) in
  let writes = count_of counts (fun op -> op = Opcode.Store Opcode.Local_mem) in
  let dsps =
    List.fold_left
      (fun acc (op, c) -> acc +. (c *. float_of_int (env.dsp op)))
      0.0 counts
  in
  let cap total limit =
    if limit <= 0 || total <= 0.0 then 1
    else int_of_float (fceil (total /. float_of_int limit))
  in
  let mem =
    max
      (cap reads env.cons.Listsched.read_ports)
      (cap writes env.cons.Listsched.write_ports)
  in
  (* Eq. 3: ResMII = max(ResMII_mem, ResMII_dsp) *)
  max mem (cap dsps env.cons.Listsched.dsp)

let work_item_rec_mii env =
  Cdfg.fold_blocks
    (fun acc d ->
      max acc
        (block_rec_mii env d
           (recurrences_of_block env.analysis.Analysis.wi_recurrences d)))
    0 env.analysis.Analysis.cdfg.Cdfg.body

(* SMS refinement at block-macro granularity: every block is a node with
   its list-scheduled latency and aggregate port/DSP usage; sequential
   program order provides distance-0 edges. The modulo scheduler then
   reports the smallest II with a conflict-free reservation table. *)
let sms_refine env ~mii =
  let blocks =
    Cdfg.fold_blocks (fun acc d -> d :: acc) [] env.analysis.Analysis.cdfg.Cdfg.body
    |> List.rev
  in
  match blocks with
  | [] -> mii
  | _ ->
      let n = List.length blocks in
      let arr = Array.of_list blocks in
      let lat = Array.map (fun d -> block_latency env d) arr in
      let usage =
        Array.map
          (fun d ->
            {
              Sms.reads = Dfg.count d (fun op -> op = Opcode.Load Opcode.Local_mem);
              writes = Dfg.count d (fun op -> op = Opcode.Store Opcode.Local_mem);
              dsps =
                List.fold_left
                  (fun a (nd : Dfg.node) -> a + env.dsp nd.Dfg.op)
                  0 (Dfg.nodes d);
            })
          arr
      in
      let deps = List.init (n - 1) (fun i -> (i, i + 1, 0)) in
      let limits =
        {
          Sms.read_ports = env.cons.Listsched.read_ports;
          write_ports = env.cons.Listsched.write_ports;
          dsp_slots = env.cons.Listsched.dsp;
        }
      in
      let problem = { Sms.lat; usage; deps } in
      (try
         let r = Sms.schedule problem limits in
         max mii r.Sms.ii
       with Invalid_argument _ -> mii)

(* ------------------------------------------------------------------ *)
(* Memory model (Eq. 9) *)

(* Per-work-item pattern counts after coalescing across the work-item
   pipeline: each profiled work-group's traces are transposed site-major
   and merged (§3.4's automatic coalescing of consecutive accesses), then
   the per-bank pattern classification runs on the merged stream. *)
let compute_chunk_streams ~options (analysis : Analysis.t) (dev : Device.t) =
  let traces = analysis.Analysis.profile.Interp.wi_traces in
  let n = Array.length traces in
  let wg = max 1 (Launch.wg_size analysis.Analysis.launch) in
  let streams = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let len = min wg (n - !pos) in
    let chunk = Array.sub traces !pos len in
    let txns =
      if options.cross_wi_coalescing then
        Dram.coalesce_workgroup dev.Device.dram analysis.Analysis.layout chunk
      else
        (* ablation: per-work-item coalescing only *)
        List.concat_map
          (Dram.coalesce dev.Device.dram analysis.Analysis.layout)
          (Array.to_list chunk)
    in
    streams := txns :: !streams;
    pos := !pos + len
  done;
  List.rev !streams

(* coalescing the profiled traces is pure per (analysis, device,
   coalescing mode): cache it, since every estimate needs it *)
let streams : (Device.t * bool, Dram.txn list list) Analysis.artifacts =
  Analysis.artifacts ()

let chunk_streams ?(options = default_options) (analysis : Analysis.t)
    (dev : Device.t) =
  Analysis.artifact streams analysis (dev, options.cross_wi_coalescing)
    (fun () -> compute_chunk_streams ~options analysis dev)

let counts :
    (Device.t * bool * bool, (Dram.pattern * float) list) Analysis.artifacts =
  Analysis.artifacts ()

let compute_mean_pattern_counts ~options (analysis : Analysis.t)
    (dev : Device.t) =
  let n = Array.length analysis.Analysis.profile.Interp.wi_traces in
  if n = 0 then List.map (fun p -> (p, 0.0)) Dram.all_patterns
  else begin
    (* the bank state is continuous across the profiled groups, as on
       the device *)
    let all_txns = List.concat (chunk_streams ~options analysis dev) in
    (* warm-up pass: measure the steady state, not the cold banks *)
    let warmup = if options.warm_classification then all_txns else [] in
    List.map
      (fun (p, c) -> (p, float_of_int c /. float_of_int n))
      (Dram.pattern_counts ~warmup dev.Device.dram all_txns)
  end

let mean_pattern_counts ?(options = default_options) (analysis : Analysis.t)
    (dev : Device.t) =
  Analysis.artifact counts analysis
    (dev, options.cross_wi_coalescing, options.warm_classification)
    (fun () -> compute_mean_pattern_counts ~options analysis dev)

(* Memory span of one round of [k] concurrent work-groups in barrier
   mode: each profiled stream chains its transactions (one outstanding),
   the [k] streams contend for banks and the shared bus in the
   calibrated DRAM timing model (the micro-benchmark-derived state
   machine of the pattern table). A warm-up round brings the banks to
   steady state. This is a static computation over the profiled chunk
   streams — a few hundred transactions. *)
let compute_round_mem_span ~options (analysis : Analysis.t) (dev : Device.t)
    ~k ~lanes =
  let streams = chunk_streams ~options analysis dev in
  let k = max 1 (min k (List.length streams)) in
  let lanes = max 1 lanes in
  let arrs =
    Array.of_list
      (List.filteri (fun i _ -> i < k) streams |> List.map Array.of_list)
  in
  let sim = Dram.Sim.create dev.Device.dram in
  (* issue every transaction, each from the live stream whose next lane
     frees first (on a tie, the lowest-numbered stream) *)
  let drain start =
    let pos = Array.make (Array.length arrs) 0 in
    let clocks = Array.map (fun _ -> Array.make lanes start) arrs in
    let next_stream () =
      let best = ref (-1) and best_time = ref 0 in
      for s = 0 to Array.length arrs - 1 do
        let i = pos.(s) in
        if i < Array.length arrs.(s) then begin
          let t = clocks.(s).(i mod lanes) in
          if !best < 0 || t < !best_time then begin
            best := s;
            best_time := t
          end
        end
      done;
      !best
    in
    let last = ref start in
    let s = ref (next_stream ()) in
    while !s >= 0 do
      let i = pos.(!s) in
      let ln = clocks.(!s) in
      let lane = i mod lanes in
      let fin = Dram.Sim.access sim ~now:ln.(lane) arrs.(!s).(i) in
      ln.(lane) <- fin;
      if fin > !last then last := fin;
      pos.(!s) <- i + 1;
      s := next_stream ()
    done;
    !last
  in
  let warm_end = drain 0 in
  let measured_end = drain warm_end in
  float_of_int (max 0 (measured_end - warm_end))

(* The spans of one (analysis, device, coalescing mode), keyed by
   [(k, lanes)]. A specialization fetches its table once and holds it,
   so a design point's lookup hashes only [(k, lanes)]. *)
let span_tables :
    (Device.t * bool, (int * int, float) Cache.t) Analysis.artifacts =
  Analysis.artifacts ()

let mem_latency_wi (dev : Device.t) pattern_counts =
  let table = pattern_latencies dev in
  List.fold_left
    (fun acc (p, c) -> acc +. (c *. List.assoc p table))
    0.0 pattern_counts

(* ------------------------------------------------------------------ *)
(* Multi-channel bandwidth roofline (DESIGN.md §15).

   On devices with [n_channels > 1] the single shared-bus floor is
   replaced by a per-channel one: buffer placement splits the
   transaction stream across channels, each channel serves its share at
   a delivered rate bounded by its data bus (one transaction per
   [t_bus]) and by its bounded outstanding-transaction queue (Little's
   law: at most [queue_depth] in flight, each resident for the average
   pattern latency), and the memory-bound path of the kernel is the
   {e slowest channel}. 1-channel devices never reach this code, so
   their estimates stay bitwise identical to the single-bus model. *)

let chan_counts :
    (Device.t * bool * bool, (Dram.pattern * float) list array) Analysis.artifacts
    =
  Analysis.artifacts ()

let compute_mean_pattern_counts_by_channel ~options (analysis : Analysis.t)
    (dev : Device.t) =
  let n = Array.length analysis.Analysis.profile.Interp.wi_traces in
  let n_chans = max 1 dev.Device.dram.Dram.n_channels in
  if n = 0 then
    Array.init n_chans (fun _ ->
        List.map (fun p -> (p, 0.0)) Dram.all_patterns)
  else begin
    let all_txns = List.concat (chunk_streams ~options analysis dev) in
    let warmup = if options.warm_classification then all_txns else [] in
    Array.map
      (List.map (fun (p, c) -> (p, float_of_int c /. float_of_int n)))
      (Dram.pattern_counts_by_channel ~warmup dev.Device.dram all_txns)
  end

let mean_pattern_counts_by_channel ?(options = default_options)
    (analysis : Analysis.t) (dev : Device.t) =
  Analysis.artifact chan_counts analysis
    (dev, options.cross_wi_coalescing, options.warm_classification)
    (fun () -> compute_mean_pattern_counts_by_channel ~options analysis dev)

(* Demanded service cycles of one channel: it must move [txns_c × N_wi]
   coalesced transactions, each occupying the channel for at least
   [t_bus] cycles (data bus) and — with a bounded queue of depth Q — for
   at least [L̄_c / Q] cycles (Q outstanding slots, each resident for the
   channel's average pattern latency). *)
let channel_demand_cycles (dev : Device.t) counts_c ~n_wi_f =
  let txns_c = List.fold_left (fun acc (_, c) -> acc +. c) 0.0 counts_c in
  if txns_c <= 0.0 then 0.0
  else begin
    let t_bus_f = float_of_int dev.Device.dram.Dram.t_bus in
    let qd = dev.Device.dram.Dram.queue_depth in
    let per_txn =
      if qd > 0 then
        let l_mem_c = mem_latency_wi dev counts_c in
        Float.max t_bus_f (l_mem_c /. txns_c /. float_of_int qd)
      else t_bus_f
    in
    txns_c *. n_wi_f *. per_txn
  end

let channel_demands ?(options = default_options) (analysis : Analysis.t)
    (dev : Device.t) ~n_wi_f =
  Array.map
    (fun counts_c -> channel_demand_cycles dev counts_c ~n_wi_f)
    (mean_pattern_counts_by_channel ~options analysis dev)

let channel_roofline ?options (analysis : Analysis.t) (dev : Device.t) ~n_wi_f =
  Array.fold_left Float.max 0.0 (channel_demands ?options analysis dev ~n_wi_f)

(* ------------------------------------------------------------------ *)
(* DSP / BRAM footprints *)

let dsp_footprint_of env =
  Cdfg.fold_blocks
    (fun acc d ->
      List.fold_left (fun a (n : Dfg.node) -> a + env.dsp n.Dfg.op) acc (Dfg.nodes d))
    0 env.analysis.Analysis.cdfg.Cdfg.body

let local_bytes (analysis : Analysis.t) =
  List.fold_left
    (fun acc (_, ty) ->
      match ty with
      | Flexcl_opencl.Types.Array _ -> acc + (Flexcl_opencl.Types.bits ty / 8)
      | _ -> acc)
    0 analysis.Analysis.sema.Flexcl_opencl.Sema.local_arrays

(* ------------------------------------------------------------------ *)

(* The only PE/CU-knob dependence of the whole scheduling layer: the DSP
   share one PE may occupy. Every other schedule input is fixed by
   (device, analysis), which is what makes [specialize] below possible. *)
let dsp_share_of (dev : Device.t) (cfg : Config.t) =
  max 8 (dev.Device.dsp_total / max 1 (cfg.Config.n_pe * cfg.Config.n_cu))

let env_with_share ?block_lat (dev : Device.t) (analysis : Analysis.t)
    ~dsp_share =
  {
    dev;
    analysis;
    cons =
      {
        Listsched.read_ports = Device.local_read_ports dev;
        write_ports = Device.local_write_ports dev;
        dsp = dsp_share;
      };
    lat = Device.op_latency dev;
    dsp = Device.dsp_cost dev;
    block_lat_override = block_lat;
    summaries = [];
  }

let make_env ?block_lat (dev : Device.t) (analysis : Analysis.t) (cfg : Config.t) =
  env_with_share ?block_lat dev analysis ~dsp_share:(dsp_share_of dev cfg)

let region_latency_with ?block_lat dev analysis cfg region =
  region_latency (make_env ?block_lat dev analysis cfg) region

let feasible (dev : Device.t) (analysis : Analysis.t) (cfg : Config.t) =
  let env = make_env dev analysis cfg in
  let dsp_fp = dsp_footprint_of env in
  let bram_bytes = dev.Device.bram_blocks * 36 * 1024 / 8 in
  cfg.Config.n_cu >= 1
  && cfg.Config.n_cu <= dev.Device.max_cu
  && cfg.Config.n_pe >= 1
  && cfg.Config.n_pe <= cfg.Config.wg_size
  && dsp_fp * cfg.Config.n_pe * cfg.Config.n_cu <= dev.Device.dsp_total
  && local_bytes analysis * cfg.Config.n_cu <= bram_bytes

(* ------------------------------------------------------------------ *)
(* Critical path for the pruning bound.

   Structural critical path of a region: like [region_latency] but with
   each block at its dependence-only lower bound, pipelined loops at
   II = 1, and unrolled iterations at their single-copy cost. Fractional
   profiled trip counts below 1 make Eq. 1's pipelined-loop term shrink
   below one iteration, so those loops are bounded by 0. *)
let rec region_crit_path ~lat ~trip (r : Cdfg.region) : float =
  let block d = float_of_int (Listsched.critical_path d ~lat) in
  match r with
  | Cdfg.Straight d -> block d
  | Cdfg.Seq rs -> seq_latency (region_crit_path ~lat ~trip) rs
  | Cdfg.Branch { cond; then_; else_ } ->
      block cond
      +. Float.max
           (region_crit_path ~lat ~trip then_)
           (region_crit_path ~lat ~trip else_)
  | Cdfg.Loop { info; header; body } ->
      let n = trip info in
      if n <= 0.0 then 0.0
      else
        let iter = block header +. region_crit_path ~lat ~trip body in
        if info.Cdfg.attrs.Ast.pipeline then
          if n >= 1.0 then (n -. 1.0) +. iter else 0.0
        else
          let u =
            match info.Cdfg.attrs.Ast.unroll with
            | Some u -> float_of_int (min u (max 1 (int_of_float n)))
            | None -> 1.0
          in
          if u <= 1.0 then n *. iter else fceil (n /. u) *. iter

let crit_paths : (Device.t, float) Analysis.artifacts = Analysis.artifacts ()

let kernel_crit_path (dev : Device.t) (analysis : Analysis.t) =
  Analysis.artifact crit_paths analysis dev (fun () ->
      let lat = Device.op_latency dev in
      let trip = Analysis.trip analysis in
      region_crit_path ~lat ~trip analysis.Analysis.cdfg.Cdfg.body)

(* ------------------------------------------------------------------ *)
(* The staged model (DESIGN.md §11): the one implementation of Eq. 5–12
   and of the pruning bound.

   A design point's terms split by what they depend on:

   - stage 0 ([specialize], once per (device, analysis, options)):
     Table-1 pattern counts and the Eq. 9 per-work-item memory latency,
     the bus roofline total, the work-item recurrence MII, local-memory
     port demands, the DSP footprint of one PE, and the critical path
     and memory floors of the lower bound;
   - stage 1 ([stage_for], once per distinct DSP share): the per-block
     list schedules, D_comp^PE, ResMII and the SMS-refined pipelined II.
     The PE/CU knobs reach the scheduler only through [dsp_share_of],
     which collapses the whole knob grid onto a handful of distinct
     shares, each staged once in a domain-safe [Cache];
   - the tail ([tail], per point): the closed-form rest of Eq. 5–12.

   Each analysis owns one specialization per (device, options)
   ([specialization]). A sweep runs the tail per point on it, and
   [estimate], [explain] and [lower_bound] run the same tail on the
   specialization of the analysis at the point's work-group size, so
   there is no second copy of the arithmetic to keep in step. *)

type stage_pe = {
  st_share : int;          (* the DSP share this stage was scheduled at *)
  st_depth_pe : int;       (* D_comp^PE at this DSP share *)
  st_res_mii : int;        (* Eq. 3 *)
  st_ii_pipelined : int;   (* SMS-refined II_comp^wi (Eq. 2–4) *)
  st_summaries : (Dfg.t * Listsched.summary) list;
      (* the block schedules behind them, reused by [explain] *)
}

type specialized = {
  sp_dev : Device.t;
  sp_analysis : Analysis.t;
  sp_options : options;
  sp_wg : int;                     (* the specialized launch's wg size *)
  sp_counts : (Opcode.t * float) list;  (* trip-weighted op counts per WI *)
  sp_rec_mii : int;
  sp_reads : float;                (* local-memory port demands per WI *)
  sp_writes : float;
  sp_dsp_fp : int;
  sp_n_wi : int;
  sp_pattern_counts : (Dram.pattern * float) list;
  sp_l_mem_wi : float;
  sp_chan_demands : float array;   (* per-channel roofline; [||] on 1 channel *)
  sp_bus_total : float;            (* the bus roofline of Eq. 10/11 *)
  (* lower-bound invariants (always default options, like [lower_bound]) *)
  sp_crit_path : float;
  sp_lb_l_mem_wi : float;
  sp_lb_bus_total : float;
  sp_stages : (int, stage_pe) Cache.t;
  sp_spans : (int * int, float) Cache.t;  (* from [span_tables] *)
}

(* The shared data bus serves one coalesced transaction per t_bus
   regardless of how many CUs issue them: txns/WI ⋅ N_wi ⋅ t_bus. *)
let bus_floor (dev : Device.t) pattern_counts ~n_wi_f =
  let txns_per_wi =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 pattern_counts
  in
  txns_per_wi *. n_wi_f *. float_of_int dev.Device.dram.Dram.t_bus

let specialize ?(options = default_options) (dev : Device.t)
    (analysis : Analysis.t) =
  let env0 = env_with_share dev analysis ~dsp_share:8 in
  let counts = weighted_counts env0 in
  let pattern_counts = mean_pattern_counts ~options analysis dev in
  let lb_pattern_counts = mean_pattern_counts analysis dev in
  let n_wi = Launch.n_work_items analysis.Analysis.launch in
  let n_wi_f = float_of_int n_wi in
  let n_chans = dev.Device.dram.Dram.n_channels in
  (* on a multi-channel device the bus floor is the slowest channel's
     demanded service cycles (per-channel roofline over the buffer
     placement) *)
  let chan_demands =
    if n_chans > 1 then channel_demands ~options analysis dev ~n_wi_f else [||]
  in
  {
    sp_dev = dev;
    sp_analysis = analysis;
    sp_options = options;
    sp_wg = Launch.wg_size analysis.Analysis.launch;
    sp_counts = counts;
    sp_rec_mii = work_item_rec_mii env0;
    sp_reads = count_of counts (fun op -> op = Opcode.Load Opcode.Local_mem);
    sp_writes = count_of counts (fun op -> op = Opcode.Store Opcode.Local_mem);
    sp_dsp_fp = dsp_footprint_of env0;
    sp_n_wi = n_wi;
    sp_pattern_counts = pattern_counts;
    sp_l_mem_wi = mem_latency_wi dev pattern_counts;
    sp_chan_demands = chan_demands;
    sp_bus_total =
      (if n_chans > 1 then Array.fold_left Float.max 0.0 chan_demands
       else bus_floor dev pattern_counts ~n_wi_f);
    sp_crit_path = kernel_crit_path dev analysis;
    sp_lb_l_mem_wi = mem_latency_wi dev lb_pattern_counts;
    sp_lb_bus_total =
      (let raw = bus_floor dev lb_pattern_counts ~n_wi_f in
       (* placement-independent floor: at least one channel carries
          ≥ 1/n_channels of the stream, and the per-channel roofline
          charges at least t_bus per transaction — sound for every
          placement, which keeps cross-placement pruning sound *)
       if n_chans > 1 then raw /. float_of_int n_chans else raw);
    sp_stages = Cache.create ();
    sp_spans =
      Analysis.artifact span_tables analysis
        (dev, options.cross_wi_coalescing)
        Cache.create;
  }

let stage_for (sp : specialized) share =
  Cache.memo sp.sp_stages share (fun () ->
      let env = env_with_share sp.sp_dev sp.sp_analysis ~dsp_share:share in
      let depth_pe =
        int_of_float
          (fceil (region_latency env sp.sp_analysis.Analysis.cdfg.Cdfg.body))
      in
      let res_mii = work_item_res_mii env sp.sp_counts in
      let mii = max 1 (max sp.sp_rec_mii res_mii) in
      let ii_pipelined = sms_refine env ~mii in
      {
        st_share = share;
        st_depth_pe = depth_pe;
        st_res_mii = res_mii;
        st_ii_pipelined = ii_pipelined;
        st_summaries = env.summaries;
      })

let specialized_options (sp : specialized) = sp.sp_options
let specialized_analysis (sp : specialized) = sp.sp_analysis

let specializations : (Device.t * options, specialized) Analysis.artifacts =
  Analysis.artifacts ()

let specialization ?(options = default_options) dev analysis =
  Analysis.artifact specializations analysis (dev, options) (fun () ->
      specialize ~options dev analysis)

(* The specialization of the analysis at the point's work-group size. *)
let one_point ?options dev analysis (cfg : Config.t) =
  specialization ?options dev (Analysis.with_wg_size analysis cfg.Config.wg_size)

(* [sp] when it was staged at [cfg]'s work-group size; otherwise the
   specialization of the re-analyzed kernel. *)
let matching (sp : specialized) (cfg : Config.t) =
  if cfg.Config.wg_size = sp.sp_wg then sp
  else one_point ~options:sp.sp_options sp.sp_dev sp.sp_analysis cfg

(* ------------------------------------------------------------------ *)
(* The Eq. 5–12 tail. Besides the breakdown it hands over the
   intermediates [explain] attributes, so the trace recomposes the very
   floats the estimate produced. *)

type mode_terms =
  | Barrier_terms of { mem_total : float }
      (* Eq. 9 memory before the bus roofline *)
  | Pipeline_terms of {
      fill : float;
      eq11_round : float;
      eq11 : float;
      bus_bound : float;
    }

type tail = {
  breakdown : breakdown;
  stage : stage_pe;
  q_pe : int;               (* ⌈(wg − N_PE^eff) / N_PE^eff⌉ *)
  dl : float;               (* ΔL *)
  rounds : float;           (* ⌈N_wg / N_CU^eff⌉ *)
  span : float option;      (* multi-CU DRAM replay span, when it applies *)
  terms : mode_terms;
}

let round_mem_span (sp : specialized) ~k ~lanes =
  Cache.memo sp.sp_spans (k, lanes) (fun () ->
      compute_round_mem_span ~options:sp.sp_options sp.sp_analysis sp.sp_dev
        ~k ~lanes)

(* [sp] must be staged at [cfg]'s work-group size (see [matching]). *)
let tail (sp : specialized) (cfg : Config.t) =
  let options = sp.sp_options in
  let dev = sp.sp_dev in
  let cfg =
    if options.vector_width > 1 then
      { cfg with Config.n_pe = cfg.Config.n_pe * options.vector_width }
    else cfg
  in
  let st = stage_for sp (dsp_share_of dev cfg) in
  let depth_pe = st.st_depth_pe in
  let ii_wi =
    if cfg.Config.wi_pipeline then st.st_ii_pipelined else max 1 depth_pe
  in
  let wg = cfg.Config.wg_size in
  let l_pe =
    (float_of_int ii_wi *. float_of_int (wg - 1)) +. float_of_int depth_pe
  in
  (* Eq. 6: effective PE parallelism under shared ports and DSPs *)
  let dsp_fp = sp.sp_dsp_fp in
  let cap demand supply =
    if demand <= 0.0 then max_int
    else max 1 (int_of_float (float_of_int supply *. float_of_int ii_wi /. demand))
  in
  let n_pe_eff =
    min cfg.Config.n_pe
      (min
         (cap sp.sp_reads (Device.local_read_ports dev))
         (min
            (cap sp.sp_writes (Device.local_write_ports dev))
            (if dsp_fp = 0 then max_int
             else
               max 1
                 (dev.Device.dsp_total / max 1 cfg.Config.n_cu / max 1 dsp_fp))))
  in
  let q_pe = iceil_div (max 0 (wg - n_pe_eff)) n_pe_eff in
  let l_cu =
    (float_of_int ii_wi *. float_of_int q_pe) +. float_of_int depth_pe
  in
  let dl = float_of_int dev.Device.wg_dispatch_overhead in
  let n_cu_eff =
    min cfg.Config.n_cu (max 1 (int_of_float (fceil (l_cu /. dl))))
  in
  let n_wg = iceil_div sp.sp_n_wi wg in
  let rounds = fceil (float_of_int n_wg /. float_of_int n_cu_eff) in
  (* Eq. 7, with the dispatch-rate floor: when a work-group finishes
     faster than the scheduler can hand out the next one, ΔL bounds the
     round time. *)
  let l_comp_kernel =
    (Float.max l_cu dl *. rounds) +. (float_of_int cfg.Config.n_cu *. dl)
  in
  let l_mem_wi = sp.sp_l_mem_wi in
  let bus_total = sp.sp_bus_total in
  let depth_f = float_of_int depth_pe in
  let span, terms, cycles =
    match cfg.Config.comm_mode with
    | Config.Barrier_mode ->
        (* Eq. 10, refined for CU replication: each work-group's memory
           phase is a latency-chained stream. Streams of the [n_cu_eff]
           concurrent work-groups overlap through bank parallelism when
           their bank footprints are disjoint; correlated footprints
           serialize, but ride each other's open rows (captured by
           classifying the interleaved stream). Bounded below by the
           bus roofline. *)
        let span =
          if n_cu_eff > 1 && options.multi_cu_dram_replay then
            Some (round_mem_span sp ~k:n_cu_eff ~lanes:1)
          else None
        in
        let mem_total =
          match span with
          | Some span -> span *. rounds
          | None ->
              l_mem_wi *. float_of_int sp.sp_n_wi
              /. (if options.multi_cu_dram_replay then 1.0
                  else float_of_int n_cu_eff)
        in
        let mem_used =
          if options.bus_roofline then Float.max mem_total bus_total
          else mem_total
        in
        (span, Barrier_terms { mem_total }, mem_used +. l_comp_kernel)
    | Config.Pipeline_mode ->
        (* Eq. 11–12, with the multi-CU DRAM reality: the round takes as
           long as the slower of the compute pipeline (Eq. 11's term) and
           the concurrent memory streams draining through the calibrated
           DRAM state machine (PE lanes overlap within a work-group, CUs
           contend across). *)
        let ii = Float.max l_mem_wi (float_of_int ii_wi) in
        let fill = ii *. float_of_int q_pe in
        let eq11_round = Float.max (fill +. depth_f) dl in
        let span =
          if options.multi_cu_dram_replay && n_cu_eff > 1 then
            Some (round_mem_span sp ~k:n_cu_eff ~lanes:n_pe_eff)
          else None
        in
        let round =
          match span with
          | Some span -> Float.max eq11_round (span +. depth_f)
          | None -> eq11_round
        in
        let eq11 = round *. rounds in
        let bus_bound = bus_total +. (rounds *. (depth_f +. dl)) in
        ( span,
          Pipeline_terms { fill; eq11_round; eq11; bus_bound },
          if options.bus_roofline then Float.max eq11 bus_bound else eq11 )
  in
  {
    breakdown =
      {
        ii_wi;
        depth_pe;
        rec_mii = sp.sp_rec_mii;
        res_mii = st.st_res_mii;
        l_pe;
        n_pe_eff;
        l_cu;
        n_cu_eff;
        l_comp_kernel;
        l_mem_wi;
        pattern_counts = sp.sp_pattern_counts;
        dsp_footprint = dsp_fp;
        cycles;
        seconds = Device.cycles_to_seconds dev cycles;
      };
    stage = st;
    q_pe;
    dl;
    rounds;
    span;
    terms;
  }

let specialized_estimate sp cfg = (tail (matching sp cfg) cfg).breakdown

let specialized_cycles sp cfg = (specialized_estimate sp cfg).cycles

let estimate ?options dev analysis cfg =
  specialized_estimate (one_point ?options dev analysis cfg) cfg

let cycles dev analysis cfg = (estimate dev analysis cfg).cycles

(* ------------------------------------------------------------------ *)
(* The cycle-attribution trace of one tail evaluation (DESIGN.md §10).
   Every node recomposes the exact float of the quantity it names from
   the tail's own intermediates (see the [region_trace] comment for how
   [max]/Seq keep that exact). *)

let trace_of (sp : specialized) (cfg : Config.t) (t : tail) =
  let options = sp.sp_options in
  let dev = sp.sp_dev in
  let analysis = sp.sp_analysis in
  let b = t.breakdown in
  let ii_wi = b.ii_wi and q_pe = t.q_pe and dl = t.dl and rounds = t.rounds in
  let pattern_counts = sp.sp_pattern_counts in
  let txns_per_wi =
    List.fold_left (fun acc (_, c) -> acc +. c) 0.0 pattern_counts
  in
  let n_wi_f = float_of_int sp.sp_n_wi in
  let t_bus_f = float_of_int dev.Device.dram.Dram.t_bus in
  let n_chans = dev.Device.dram.Dram.n_channels in
  let chan_demands = sp.sp_chan_demands in
  let bus_total = sp.sp_bus_total in
  let depth_f = float_of_int b.depth_pe in
  let kname = analysis.Analysis.cdfg.Cdfg.kernel_name in
  let mem_notes () =
    let accesses_per_wi =
      let traces = analysis.Analysis.profile.Interp.wi_traces in
      let n = Array.length traces in
      if n = 0 then 0.0
      else
        float_of_int (Array.fold_left (fun a t -> a + List.length t) 0 traces)
        /. float_of_int n
    in
    if txns_per_wi > 0.0 then
      [
        ("txns_per_wi", txns_per_wi);
        ("coalescing_factor", accesses_per_wi /. txns_per_wi);
      ]
    else []
  in
  let pattern_leaves f =
    let table = pattern_latencies dev in
    List.filter_map
      (fun (p, c) ->
        if c = 0.0 then None
        else
          let l = List.assoc p table in
          Some
            (Trace.leaf ~eq:"Table-1" (Dram.pattern_name p) (f c l)
               ~notes:[ ("count_per_wi", c); ("avg_latency", l) ]))
      pattern_counts
  in
  (* Multi-channel roofline trace: the binding (slowest) channel carries
     the whole roofline term; every other demanded channel appears as a
     0-cycle leaf annotated with its demand and utilization, so the node
     recomposes exactly while still attributing per-channel pressure. *)
  let channel_roofline_node ~eq name ~extra_notes =
    let win = ref 0 in
    Array.iteri (fun i d -> if d > chan_demands.(!win) then win := i) chan_demands;
    let top = chan_demands.(!win) in
    let leaves =
      Array.to_list
        (Array.mapi
           (fun i d ->
             if d <= 0.0 then None
             else
               let util = if top > 0.0 then d /. top else 0.0 in
               Some
                 (Trace.leaf ~eq:"Eq.R1"
                    (Printf.sprintf "channel %d%s" i
                       (if i = !win then " (binding)" else ""))
                    (if i = !win then top else 0.0)
                    ~notes:[ ("demand_cycles", d); ("utilization", util) ]))
           chan_demands)
      |> List.filter_map Fun.id
    in
    Trace.node_at ~eq name top leaves
      ~notes:
        (("n_channels", float_of_int n_chans)
        :: ("queue_depth", float_of_int dev.Device.dram.Dram.queue_depth)
        :: extra_notes)
  in
  (* the roofline lost the max: record it as a 0-cycle sibling so the
     memory-bound path stays visible without disturbing conservation *)
  let channel_loser_leaf () =
    Trace.leaf ~eq:"Eq.R1" "channel roofline (not binding)" 0.0
      ~notes:
        [
          ("roofline_cycles", bus_total);
          ("n_channels", float_of_int n_chans);
        ]
  in
  let depth_trace () =
    let env =
      {
        (env_with_share dev analysis ~dsp_share:t.stage.st_share) with
        summaries = t.stage.st_summaries;
      }
    in
    let ctr = ref 0 in
    let body_t = region_trace env ~ctr analysis.Analysis.cdfg.Cdfg.body in
    (* ceil of Eq. 1's region latency; the fraction rounded up appears
       explicitly so the subtree still recomposes the integer depth *)
    let gap = depth_f -. body_t.Trace.cycles in
    Trace.node_at ~eq:"Eq.1" "PE depth (D_comp^PE)" depth_f
      [ body_t; Trace.leaf "schedule ceiling" gap ]
  in
  (* a per-round subtree scaled to its total over the rounds *)
  let over_rounds name node =
    let tr = Trace.scale rounds node in
    { tr with Trace.name; notes = ("rounds", rounds) :: tr.Trace.notes }
  in
  match t.terms with
  | Barrier_terms { mem_total } ->
      let mem_node =
        if options.bus_roofline && bus_total > mem_total then
          if n_chans > 1 then
            channel_roofline_node ~eq:"Eq.9" "memory (channel roofline)"
              ~extra_notes:(("latency_model_cycles", mem_total) :: mem_notes ())
          else
            Trace.node_at ~eq:"Eq.9" "memory (DRAM bus roofline)" bus_total
              (pattern_leaves (fun c _ -> c *. n_wi_f *. t_bus_f))
              ~notes:
                (("latency_model_cycles", mem_total)
                :: ("t_bus", t_bus_f)
                :: mem_notes ())
        else
          match t.span with
          | Some span ->
              Trace.leaf ~eq:"Eq.9" "memory (multi-CU DRAM replay)" mem_total
                ~notes:(("round_span", span) :: ("rounds", rounds) :: mem_notes ())
          | None ->
              Trace.node_at ~eq:"Eq.9" "memory (counts × latencies)" mem_total
                (pattern_leaves (fun c l ->
                     c *. l *. n_wi_f
                     /.
                     if options.multi_cu_dram_replay then 1.0
                     else float_of_int b.n_cu_eff))
                ~notes:(mem_notes ())
      in
      let wg_node =
        if b.l_cu >= dl then
          Trace.node ~eq:"Eq.5-6" "work-group"
            [
              Trace.leaf "PE fill (II^wi × ⌈(wg−N_PE^eff)/N_PE^eff⌉)"
                (float_of_int ii_wi *. float_of_int q_pe)
                ~notes:
                  [
                    ("ii_wi", float_of_int ii_wi);
                    ("queue", float_of_int q_pe);
                    ("n_pe_eff", float_of_int b.n_pe_eff);
                  ];
              depth_trace ();
            ]
        else
          Trace.leaf "dispatch-rate floor (ΔL)" dl
            ~notes:[ ("work_group_cycles", b.l_cu) ]
      in
      let comp_node =
        Trace.node ~eq:"Eq.7" "compute"
          [
            over_rounds "work-group rounds" wg_node;
            Trace.leaf "CU dispatch overhead (N_CU × ΔL)"
              (float_of_int cfg.Config.n_cu *. dl)
              ~notes:[ ("n_cu", float_of_int cfg.Config.n_cu); ("dl", dl) ];
          ]
      in
      let children =
        if n_chans > 1 && options.bus_roofline && not (bus_total > mem_total)
        then [ mem_node; channel_loser_leaf (); comp_node ]
        else [ mem_node; comp_node ]
      in
      Trace.node ~eq:"Eq.10"
        (Printf.sprintf "kernel %s (barrier mode)" kname)
        children
  | Pipeline_terms { fill; eq11_round; eq11; bus_bound } ->
      let l_mem_wi = b.l_mem_wi in
      let round_node =
        match t.span with
        | Some span when span +. depth_f > eq11_round ->
            Trace.node ~eq:"Eq.11" "round (multi-CU DRAM replay)"
              [
                Trace.leaf "concurrent memory streams span" span
                  ~notes:(("n_cu_eff", float_of_int b.n_cu_eff) :: mem_notes ());
                depth_trace ();
              ]
        | _ ->
            if fill +. depth_f >= dl then
              let fill_node =
                if l_mem_wi > float_of_int ii_wi then
                  Trace.node_at ~eq:"Eq.11" "memory-bound fill (L_mem^wi × q)"
                    fill
                    (pattern_leaves (fun c l -> c *. l *. float_of_int q_pe))
                    ~notes:
                      (("l_mem_wi", l_mem_wi)
                      :: ("ii_wi", float_of_int ii_wi)
                      :: ("queue", float_of_int q_pe)
                      :: mem_notes ())
                else
                  Trace.leaf ~eq:"Eq.11" "compute-bound fill (II^wi × q)" fill
                    ~notes:
                      [
                        ("ii_wi", float_of_int ii_wi);
                        ("l_mem_wi", l_mem_wi);
                        ("queue", float_of_int q_pe);
                      ]
              in
              Trace.node ~eq:"Eq.11" "round" [ fill_node; depth_trace () ]
            else
              Trace.leaf "dispatch-rate floor (ΔL)" dl
                ~notes:[ ("round_cycles", fill +. depth_f) ]
      in
      if options.bus_roofline && bus_bound > eq11 then
        let transfers_node =
          if n_chans > 1 then
            channel_roofline_node ~eq:"Eq.9" "channel roofline transfers"
              ~extra_notes:(("pipeline_cycles", eq11) :: mem_notes ())
          else
            Trace.node_at ~eq:"Eq.9" "DRAM bus transfers" bus_total
              (pattern_leaves (fun c _ -> c *. n_wi_f *. t_bus_f))
              ~notes:(("pipeline_cycles", eq11) :: mem_notes ())
        in
        Trace.node ~eq:"Eq.12"
          (Printf.sprintf "kernel %s (pipeline mode, bus roofline)" kname)
          [
            transfers_node;
            Trace.leaf "per-round drain + dispatch (rounds × (D + ΔL))"
              (rounds *. (depth_f +. dl))
              ~notes:[ ("rounds", rounds); ("depth_pe", depth_f); ("dl", dl) ];
          ]
      else
        let rounds_node = over_rounds "rounds" round_node in
        let children =
          if n_chans > 1 && options.bus_roofline then
            [ rounds_node; channel_loser_leaf () ]
          else [ rounds_node ]
        in
        Trace.node ~eq:"Eq.11-12"
          (Printf.sprintf "kernel %s (pipeline mode)" kname)
          children
          ~notes:
            (if options.bus_roofline then [ ("bus_roofline_cycles", bus_bound) ]
             else [])

(* The trace is pure per (analysis, device, design point, options), like
   the pattern-count tables above: memoize the built tree so a warm
   [explain] costs a hash lookup, not a region traversal — the serve
   layer and repeated CLI runs replay the same design points. *)
let traces :
    (Device.t * Config.t * options, breakdown * Trace.t) Analysis.artifacts =
  Analysis.artifacts ()

let explain ?(options = default_options) dev analysis cfg =
  Analysis.artifact traces analysis (dev, cfg, options) (fun () ->
      let sp = one_point ~options dev analysis cfg in
      let t = tail sp cfg in
      (t.breakdown, trace_of sp cfg t))

let estimate_result ?options (dev : Device.t) (analysis : Analysis.t)
    (cfg : Config.t) =
  let module Diag = Flexcl_util.Diag in
  match Device.validate dev with
  | p :: _ -> Error (Diag.error Diag.Device_invalid "device %s: %s" dev.Device.name p)
  | [] -> (
      match Config.validate cfg with
      | p :: _ ->
          Error
            (Diag.error Diag.Config_invalid "design point %s: %s"
               (Config.to_string cfg) p)
      | [] ->
          if cfg.Config.wg_size <> Launch.wg_size analysis.Analysis.launch then
            Error
              (Diag.error Diag.Config_invalid
                 "wg_size %d does not match the analysis launch (%d); re-analyze \
                  with Analysis.with_wg_size"
                 cfg.Config.wg_size
                 (Launch.wg_size analysis.Analysis.launch))
          else (
            match estimate ?options dev analysis cfg with
            | b -> Ok b
            | exception (Out_of_memory as e) -> raise e
            | exception exn -> Error (Analysis.diag_of_exn exn)))

(* ------------------------------------------------------------------ *)
(* Cheap cycles lower bound for bound-based pruning (DSE engine).

   [lower_bound dev a cfg <= (estimate dev a cfg).cycles] holds (up to
   float rounding) for the default options. The bound combines

   - the dependence-only critical path of the kernel body (no list
     scheduling, no modulo scheduling) as a stand-in for D_comp^PE,
   - the shared-bus roofline  txns/WI x N_wi x t_bus  (the L_mem^wi-based
     floor of Eq. 10/11; 1/n_channels of it on multi-channel devices),
   - the dispatch-rate floor  dL x ceil(N_wg / N_CU),

   all of which underestimate the corresponding terms of [estimate]:
   critical path <= scheduled latency, N_PE^eff <= N_PE, and
   N_CU^eff <= N_CU make every factor a lower bound. *)

(* [sp] must be staged at [cfg]'s work-group size (see [matching]). *)
let bound (sp : specialized) (cfg : Config.t) =
  let depth_lb = sp.sp_crit_path in
  let l_mem_wi = sp.sp_lb_l_mem_wi in
  let wg = cfg.Config.wg_size in
  let n_wg = iceil_div sp.sp_n_wi wg in
  let dl = float_of_int sp.sp_dev.Device.wg_dispatch_overhead in
  let rounds_lb = fceil (float_of_int n_wg /. float_of_int cfg.Config.n_cu) in
  let bus_total = sp.sp_lb_bus_total in
  match cfg.Config.comm_mode with
  | Config.Barrier_mode ->
      (* Eq. 10 >= bus floor + dispatch-floored compute tail *)
      bus_total
      +. (Float.max depth_lb dl *. rounds_lb)
      +. (float_of_int cfg.Config.n_cu *. dl)
  | Config.Pipeline_mode ->
      (* Eq. 11/12 >= max(per-round pipeline floor, bus floor) *)
      let q_lb =
        float_of_int
          (iceil_div (max 0 (wg - cfg.Config.n_pe)) (max 1 cfg.Config.n_pe))
      in
      let ii_lb =
        Float.max l_mem_wi
          (if cfg.Config.wi_pipeline then 1.0 else Float.max 1.0 depth_lb)
      in
      let eq11_lb = Float.max ((ii_lb *. q_lb) +. depth_lb) dl *. rounds_lb in
      let bus_lb = bus_total +. (rounds_lb *. (depth_lb +. dl)) in
      Float.max eq11_lb bus_lb

let specialized_lower_bound sp cfg = bound (matching sp cfg) cfg

let lower_bound dev analysis cfg = bound (one_point dev analysis cfg) cfg

let bottleneck (b : breakdown) =
  if b.l_mem_wi > float_of_int b.ii_wi && b.l_mem_wi > 2.0 then "global memory"
  else if b.rec_mii >= b.res_mii && b.rec_mii > 1 then "recurrence"
  else if b.res_mii > 1 then
    if b.n_pe_eff = 1 && b.dsp_footprint > 0 then "DSP" else "local-memory ports"
  else if
    (* dispatch slower than the work-group itself *)
    b.l_cu < float_of_int b.ii_wi *. 2.0 || b.l_cu <= 2.0 *. 24.0
  then "scheduling overhead"
  else "compute depth"
