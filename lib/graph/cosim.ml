(* Co-simulated ground truth for kernel graphs.

   Each stage runs through the cycle-level system simulator
   ([Sysrun.run], seeded) to get its per-work-group service time with
   all the physical effects the analytical model averages away (variant
   latencies, stateful DRAM, dispatch jitter). The stages are then
   composed by a discrete-event simulation at work-group granularity
   over bounded channels:

   - a consumer work-group may start only when its inbound channels
     hold enough packets (cumulative producer output covers its reads);
   - a producer work-group may start only when the channel has room —
     depth bounds how many producer rounds can run ahead of the
     consumer (at least one, so progress is always possible: packets
     transfer per work-group round, the granularity of this DES);
   - each stage processes its work-groups in order, one at a time.

   The DES is deterministic: stages start in topological order within a
   time step and completions pop smallest-time-first with topological
   tie-breaking. Errors use the "Pipeline." message prefix. *)

module Analysis = Flexcl_core.Analysis
module Config = Flexcl_core.Config
module Device = Flexcl_device.Device
module Launch = Flexcl_ir.Launch
module Sysrun = Flexcl_simrtl.Sysrun

type result = {
  cycles : float;
  seconds : float;
  per_stage : (string * Sysrun.result) list;
      (** the per-stage simulator runs (topological order). *)
  rounds : int;  (** work-group completions simulated by the DES. *)
}

type edge_state = {
  producer : int;  (* stage index *)
  consumer : int;
  w_wg : float;    (* packets produced per producer work-group *)
  r_wg : float;    (* packets consumed per consumer work-group *)
  cap_rounds : int;  (* producer rounds allowed ahead of the consumer *)
  mutable prod_done : int;
  mutable cons_done : int;
}

let run ?seed ?(rounds_override = []) dev (t : Graph.analyzed)
    (j : Graph.joint) =
  let graph = t.resolved.Gdef.graph in
  let stages = Array.of_list t.resolved.Gdef.order in
  let n = Array.length stages in
  let index s =
    let rec go i = if stages.(i) = s then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (s, r) ->
      if not (Array.exists (( = ) s) stages) then
        invalid_arg
          (Printf.sprintf "Pipeline.cosim: no stage %S in graph %S" s
             graph.Gdef.g_name)
      else if r < 1 then
        invalid_arg
          (Printf.sprintf
             "Pipeline.cosim: rounds override for %S must be >= 1" s))
    rounds_override;
  (* Per-stage ground truth and per-work-group service time. *)
  let sims =
    Array.map
      (fun s ->
        let cfg = Graph.config_of j s in
        let a =
          Analysis.with_wg_size (Graph.stage_analysis t s) cfg.Config.wg_size
        in
        let r = Sysrun.run ?seed dev a cfg in
        let launch_wgs = max 1 (Launch.n_work_groups a.Analysis.launch) in
        (* an override reschedules more or fewer rounds at the stage's
           measured per-work-group service time *)
        let sched_wgs =
          match List.assoc_opt s rounds_override with
          | Some k -> k
          | None -> launch_wgs
        in
        (a, r, sched_wgs, r.Sysrun.cycles /. float_of_int launch_wgs))
      stages
  in
  let analysis i = match sims.(i) with a, _, _, _ -> a in
  let n_wgs i = match sims.(i) with _, _, k, _ -> k in
  let service i = match sims.(i) with _, _, _, s -> s in
  (* Channel states. *)
  let edges =
    List.map
      (fun (c : Gdef.channel) ->
        let pi = index c.Gdef.producer.Gdef.e_stage
        and ci = index c.Gdef.consumer.Gdef.e_stage in
        let rate accesses param pick =
          match List.assoc_opt param accesses with
          | Some rw -> pick rw
          | None -> 0.0
        in
        let w_wg =
          rate
            (Analysis.pipe_accesses (analysis pi))
            c.Gdef.producer.Gdef.e_param snd
          *. float_of_int (Launch.wg_size (analysis pi).Analysis.launch)
        in
        let r_wg =
          rate
            (Analysis.pipe_accesses (analysis ci))
            c.Gdef.consumer.Gdef.e_param fst
          *. float_of_int (Launch.wg_size (analysis ci).Analysis.launch)
        in
        let cap_rounds =
          if r_wg <= 0.0 || w_wg <= 0.0 then max_int
          else
            max 1
              (int_of_float
                 (Float.floor (float_of_int c.Gdef.depth /. w_wg)))
        in
        {
          producer = pi;
          consumer = ci;
          w_wg;
          r_wg;
          cap_rounds;
          prod_done = 0;
          cons_done = 0;
        })
      graph.Gdef.channels
  in
  (* DES state. *)
  let next = Array.make n 0 in
  let busy_until = Array.make n neg_infinity in
  let running = Array.make n false in
  let rounds = ref 0 in
  let can_start i =
    (not running.(i))
    && next.(i) < n_wgs i
    && List.for_all
         (fun e ->
           if e.consumer = i && e.w_wg > 0.0 then
             (* enough packets produced for round [next.(i)] *)
             float_of_int e.prod_done *. e.w_wg
             >= (float_of_int (next.(i) + 1) *. e.r_wg) -. 1e-9
           else true)
         edges
    && List.for_all
         (fun e ->
           if e.producer = i && e.cap_rounds <> max_int then
             (* how many producer rounds the consumer has drained *)
             let drained =
               if e.w_wg <= 0.0 then e.prod_done
               else
                 int_of_float
                   (Float.floor
                      ((float_of_int e.cons_done *. e.r_wg) /. e.w_wg
                      +. 1e-9))
             in
             next.(i) - drained < e.cap_rounds
           else true)
         edges
  in
  let finished () =
    let ok = ref true in
    for i = 0 to n - 1 do
      if running.(i) || next.(i) < n_wgs i then ok := false
    done;
    !ok
  in
  let now = ref 0.0 in
  let total = ref 0.0 in
  (try
     while not (finished ()) do
       (* start every eligible stage at the current time, topo order *)
       for i = 0 to n - 1 do
         if can_start i then begin
           running.(i) <- true;
           busy_until.(i) <- !now +. service i
         end
       done;
       (* advance to the earliest completion *)
       let best = ref (-1) in
       for i = n - 1 downto 0 do
         if running.(i) && (!best < 0 || busy_until.(i) <= busy_until.(!best))
         then best := i
       done;
       if !best < 0 then
         failwith
           (Printf.sprintf
              "Pipeline.cosim: deadlock in graph %S (no stage can run)"
              graph.Gdef.g_name)
       else begin
         let i = !best in
         now := busy_until.(i);
         total := Float.max !total !now;
         running.(i) <- false;
         next.(i) <- next.(i) + 1;
         incr rounds;
         List.iter
           (fun e ->
             if e.producer = i then e.prod_done <- e.prod_done + 1;
             if e.consumer = i then e.cons_done <- e.cons_done + 1)
           edges
       end
     done
   with Stack_overflow -> failwith "Pipeline.cosim: internal overflow");
  {
    cycles = !total;
    seconds = Device.cycles_to_seconds dev !total;
    per_stage =
      Array.to_list
        (Array.mapi (fun i s -> (s, (fun (_, r, _, _) -> r) sims.(i))) stages);
    rounds = !rounds;
  }
