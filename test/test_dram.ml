(* DRAM model tests: layout, coalescing, pattern classification, timing
   and the stateful simulator, with the packed-stream replay and
   classification checked against txn-list references and coalescing
   against a record-list merge. *)

module Dram = Flexcl_dram.Dram
module Interp = Flexcl_interp.Interp

let check = Alcotest.check
let cfg = Dram.ddr3_config

(* One profiled access as the tests write it. *)
type ref_access = { r_array : string; r_write : bool; r_bits : int; r_index : int }

let acc ?(kind = `Read) ?(bits = 32) r_array r_index =
  { r_array; r_write = kind = `Write; r_bits = bits; r_index }

(* Traces as the interpreter records them: each access packed with the
   number of its (buffer, kind, width) site, numbered on first use, and
   the site table. *)
let interp_traces traces =
  let numbers = Hashtbl.create 8 in
  let site a =
    let s = { Interp.array = a.r_array; kind = (if a.r_write then `Write else `Read); elem_bits = a.r_bits } in
    match Hashtbl.find_opt numbers s with
    | Some n -> n
    | None ->
        let n = Hashtbl.length numbers in
        Hashtbl.add numbers s n;
        n
  in
  let packed = Array.map (List.map (fun a -> Interp.access ~site:(site a) a.r_index)) traces in
  let table = Array.make (Hashtbl.length numbers) { Interp.array = ""; kind = `Read; elem_bits = 0 } in
  Hashtbl.iter (fun s n -> table.(n) <- s) numbers;
  (table, packed)

(* The coalescer under test, as the model calls it: site-major across
   the work-group, or work-item by work-item for the ablation; as the
   transactions its merge hands over, or as the packed stream. *)
let transactions c l ~cross_wi traces =
  let sites, traces = interp_traces traces in
  let out = ref [] in
  Dram.merge c l sites ~cross_wi traces (fun addr t_kind bytes ->
      out := { Dram.addr; t_kind; bytes } :: !out);
  List.rev !out

let coalesced c l ~cross_wi traces =
  let sites, traces = interp_traces traces in
  Dram.coalesce c l sites ~cross_wi traces

(* One work-item's accesses merged on their own. *)
let coalesce c l accesses = transactions c l ~cross_wi:false [| accesses |]
let coalesce_workgroup c l traces = transactions c l ~cross_wi:true traces

let layout2 = Dram.layout [ ("a", 4096); ("b", 4096) ]

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_alignment () =
  let l = Dram.layout [ ("a", 100); ("b", 100) ] in
  check Alcotest.int "a at 0" 0 (Dram.base l "a");
  check Alcotest.int "b row-aligned" 1024 (Dram.base l "b")

let test_layout_unknown () =
  (* regression: used to escape as a bare Not_found, which the total
     Result API could not turn into a useful diagnostic *)
  Alcotest.check_raises "unknown buffer names itself and the layout"
    (Invalid_argument "Dram.base: unknown buffer \"zzz\" (layout has: a, b)")
    (fun () -> ignore (Dram.base layout2 "zzz"));
  Alcotest.check_raises "empty layout says so"
    (Invalid_argument "Dram.base: unknown buffer \"a\" (layout has: no buffers)")
    (fun () -> ignore (Dram.base (Dram.layout []) "a"))

let test_address () =
  check Alcotest.int "elem 3 of b" (4096 + 12)
    (Dram.address layout2 "b" ~elem_bits:32 3)

(* ------------------------------------------------------------------ *)
(* Coalescing *)

let test_coalesce_merges_consecutive () =
  (* 32 consecutive int reads, 512-bit unit: 16 elems per txn -> 2 txns *)
  let accesses = List.init 32 (fun i -> acc "a" i) in
  let txns = coalesce cfg layout2 accesses in
  check Alcotest.int "two transactions" 2 (List.length txns);
  List.iter
    (fun (t : Dram.txn) -> check Alcotest.int "full unit" 64 t.Dram.bytes)
    txns

let test_coalesce_factor_formula () =
  (* paper's example: f = 512/32 = 16; 1024 reads -> 64 transactions *)
  let accesses = List.init 1024 (fun i -> acc "a" i) in
  (* larger buffer for this test *)
  let l = Dram.layout [ ("a", 4096) ] in
  check Alcotest.int "64 txns" 64 (List.length (coalesce cfg l accesses))

let test_coalesce_breaks_on_kind () =
  let accesses = [ acc "a" 0; acc "a" 1; acc ~kind:`Write "a" 2; acc "a" 3 ] in
  check Alcotest.int "three txns" 3 (List.length (coalesce cfg layout2 accesses))

let test_coalesce_breaks_on_gap () =
  let accesses = [ acc "a" 0; acc "a" 2 ] in
  check Alcotest.int "two txns" 2 (List.length (coalesce cfg layout2 accesses))

let test_coalesce_breaks_on_array () =
  let accesses = [ acc "a" 0; acc "b" 1 ] in
  check Alcotest.int "two txns" 2 (List.length (coalesce cfg layout2 accesses))

let test_coalesce_workgroup_transposes () =
  (* 16 work-items each read a[gid]: one site, consecutive -> 1 txn *)
  let traces = Array.init 16 (fun wi -> [ acc "a" wi ]) in
  check Alcotest.int "one transaction" 1
    (List.length (coalesce_workgroup cfg layout2 traces))

let test_coalesce_workgroup_ragged () =
  (* work-item 0 skips its access: still close to one transaction *)
  let traces = Array.init 16 (fun wi -> if wi = 0 then [] else [ acc "a" wi ]) in
  check Alcotest.int "one transaction" 1
    (List.length (coalesce_workgroup cfg layout2 traces))

let test_coalesce_workgroup_two_sites () =
  (* each WI reads a[gid] then b[gid]: 2 sites -> 2 txns *)
  let traces = Array.init 16 (fun wi -> [ acc "a" wi; acc "b" wi ]) in
  check Alcotest.int "two transactions" 2
    (List.length (coalesce_workgroup cfg layout2 traces))

let test_coalesce_full_width_elements () =
  (* elem_bits = access_unit_bits: the coalescing factor degenerates to
     1 — every access is its own full-unit transaction, even when the
     indices are consecutive *)
  let accesses = List.init 8 (fun i -> acc ~bits:512 "a" i) in
  let txns = coalesce cfg layout2 accesses in
  check Alcotest.int "one txn per access" 8 (List.length txns);
  List.iter
    (fun (t : Dram.txn) -> check Alcotest.int "full unit" 64 t.Dram.bytes)
    txns

let test_coalesce_never_merges_nonconsecutive () =
  (* descending indices are not a consecutive run — no merge, even
     though both elements share one 512-bit access unit *)
  let txns = coalesce cfg layout2 [ acc "a" 1; acc "a" 0 ] in
  check Alcotest.int "descending pair stays split" 2 (List.length txns);
  (* two ascending runs separated by a gap never merge either, even when
     the union would fit in a single unit *)
  let txns2 =
    coalesce cfg layout2 [ acc "a" 0; acc "a" 1; acc "a" 4; acc "a" 5 ]
  in
  check Alcotest.int "two runs stay two txns" 2 (List.length txns2)

let test_coalesce_preserves_program_order () =
  (* transactions come out in the order the accesses were issued, not
     sorted by address — pattern classification depends on it *)
  let txns =
    coalesce cfg layout2 [ acc "b" 0; acc "a" 0; acc ~kind:`Write "b" 16 ]
  in
  check Alcotest.int "three txns" 3 (List.length txns);
  check
    (Alcotest.list Alcotest.int)
    "addresses in program order"
    [ 4096; 0; 4096 + 64 ]
    (List.map (fun (t : Dram.txn) -> t.Dram.addr) txns)

(* ------------------------------------------------------------------ *)
(* Banks, rows, patterns *)

let test_bank_mapping () =
  check Alcotest.int "addr 0 -> bank 0" 0 (Dram.bank_of cfg 0);
  check Alcotest.int "addr 64 -> bank 1" 1 (Dram.bank_of cfg 64);
  check Alcotest.int "wraps" 0 (Dram.bank_of cfg (64 * 8))

let test_row_mapping () =
  check Alcotest.int "row 0" 0 (Dram.row_of cfg 0);
  (* one row per bank spans row_bytes * n_banks of address space *)
  check Alcotest.int "next row" 1 (Dram.row_of cfg (1024 * 8))

let test_all_patterns_present () =
  check Alcotest.int "8 patterns" 8 (List.length Dram.all_patterns);
  check Alcotest.string "first name" "RAR.hit"
    (Dram.pattern_name (List.hd Dram.all_patterns))

let txn addr kind = { Dram.addr; t_kind = kind; bytes = 64 }

(* Classification of one transaction list (after an optional warmup
   list), each packed as one stream. *)
let packed ?warmup cfg txns =
  (Option.map (fun w -> [| Dram.pack cfg w |]) warmup, [| Dram.pack cfg txns |])

let pattern_counts ?warmup cfg txns =
  let warmup, streams = packed ?warmup cfg txns in
  Dram.pattern_counts ?warmup cfg streams

let pattern_counts_by_channel ?warmup cfg txns =
  let warmup, streams = packed ?warmup cfg txns in
  Dram.pattern_counts_by_channel ?warmup cfg streams

let test_pattern_classification () =
  (* same bank (stride 512 = 8 txns apart), same row: hit; row switch: miss *)
  let stream =
    [
      txn 0 Dram.Read (* cold: miss after (initial) read *);
      txn 0 Dram.Read (* same row: RAR hit *);
      txn (1024 * 8) Dram.Read (* row switch in bank 0: RAR miss *);
      txn (1024 * 8) Dram.Write (* WAR hit *);
      txn (1024 * 8) Dram.Read (* RAW hit *);
    ]
  in
  let counts = pattern_counts cfg stream in
  let get k p h =
    List.assoc { Dram.kind = k; prev = p; row_hit = h } counts
  in
  check Alcotest.int "RAR misses" 2 (get Dram.Read Dram.Read false);
  check Alcotest.int "RAR hits" 1 (get Dram.Read Dram.Read true);
  check Alcotest.int "WAR hits" 1 (get Dram.Write Dram.Read true);
  check Alcotest.int "RAW hits" 1 (get Dram.Read Dram.Write true)

let test_pattern_counts_conserve () =
  let stream = List.init 100 (fun i -> txn (i * 64) (if i mod 3 = 0 then Dram.Write else Dram.Read)) in
  let total =
    List.fold_left (fun a (_, c) -> a + c) 0 (pattern_counts cfg stream)
  in
  check Alcotest.int "every txn classified" 100 total

let test_warmup_shifts_to_hits () =
  let stream = List.init 8 (fun i -> txn (i * 64) Dram.Read) in
  let cold = pattern_counts cfg stream in
  let warm = pattern_counts ~warmup:stream cfg stream in
  let misses counts =
    List.fold_left
      (fun a ((p : Dram.pattern), c) -> if p.Dram.row_hit then a else a + c)
      0 counts
  in
  check Alcotest.int "cold all miss" 8 (misses cold);
  check Alcotest.int "warm all hit" 0 (misses warm)

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_pattern_latency_ordering () =
  List.iter
    (fun (p : Dram.pattern) ->
      let hit = Dram.pattern_latency cfg { p with Dram.row_hit = true } in
      let miss = Dram.pattern_latency cfg { p with Dram.row_hit = false } in
      check Alcotest.bool "miss costs more" true (miss > hit))
    Dram.all_patterns

let test_pattern_latency_turnaround () =
  let rar = Dram.pattern_latency cfg { Dram.kind = Dram.Read; prev = Dram.Read; row_hit = true } in
  let raw = Dram.pattern_latency cfg { Dram.kind = Dram.Read; prev = Dram.Write; row_hit = true } in
  check Alcotest.bool "write-to-read turnaround" true (raw > rar)

let test_pattern_latency_goldens () =
  (* Table-1 closed forms pinned exactly for the shipped DDR3 timing
     (t_cas=3 t_rcd=3 t_rp=3 t_bus=2 t_wtr=2 t_rtw=1):
       hit  = t_cas + t_bus            (+ turnaround)
       miss = t_rp + t_rcd + t_cas + t_bus (+ turnaround)
     with turnaround t_wtr on W→R and t_rtw on R→W. These are the
     latencies the trace layer's "Table-1" leaves multiply against. *)
  let goldens =
    [
      ("RAR.hit", 5); ("RAW.hit", 7); ("WAR.hit", 6); ("WAW.hit", 5);
      ("RAR.miss", 11); ("RAW.miss", 13); ("WAR.miss", 12); ("WAW.miss", 11);
    ]
  in
  check Alcotest.int "one golden per pattern" (List.length Dram.all_patterns)
    (List.length goldens);
  List.iter
    (fun (p : Dram.pattern) ->
      let name = Dram.pattern_name p in
      check Alcotest.int name (List.assoc name goldens)
        (Dram.pattern_latency cfg p))
    Dram.all_patterns

let test_profile_latencies_refresh_bound () =
  (* The micro-benchmark simulates real refresh, so each average sits at
     or above the closed form, and the excess is bounded by the refresh
     duty cycle: at most one t_rfc stall per refresh_interval of
     simulated time (pairs of prologue+measured transactions, each pair
     at most 2×13 + t_rfc cycles), plus one boundary refresh amortized
     over the 64 measured transactions. *)
  let t_rfc = float_of_int cfg.Dram.t_rfc in
  let pair_worst = (2.0 *. 13.0) +. t_rfc in
  let slack =
    (pair_worst *. t_rfc /. float_of_int cfg.Dram.refresh_interval)
    +. (t_rfc /. 64.0)
  in
  List.iter
    (fun ((p : Dram.pattern), avg) ->
      let closed = float_of_int (Dram.pattern_latency cfg p) in
      let name = Dram.pattern_name p in
      check Alcotest.bool (name ^ " not below closed form") true
        (avg >= closed);
      check Alcotest.bool (name ^ " within refresh overhead") true
        (avg <= closed +. slack))
    (Dram.profile_latencies cfg)

let test_profile_latencies_structure () =
  let table = Dram.profile_latencies cfg in
  check Alcotest.int "8 entries" 8 (List.length table);
  List.iter
    (fun ((p : Dram.pattern), avg) ->
      (* micro-benchmark averages stay near the closed form (refresh adds
         a little) *)
      let closed = float_of_int (Dram.pattern_latency cfg p) in
      check Alcotest.bool
        (Printf.sprintf "%s near closed form" (Dram.pattern_name p))
        true
        (avg >= closed -. 0.5 && avg <= closed +. 4.0))
    table

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_chained_latency () =
  let sim = Dram.Sim.create cfg in
  let t1 = Dram.Sim.access sim ~now:0 (txn 0 Dram.Read) in
  (* cold miss: rp + rcd + cas + bus = 11 *)
  check Alcotest.int "cold access" 11 t1;
  (* a transaction spanning two access units holds the bus twice *)
  let wide =
    Dram.Sim.access (Dram.Sim.create cfg) ~now:0
      { (txn 0 Dram.Read) with Dram.bytes = 128 }
  in
  check Alcotest.int "cold two-unit access" 13 wide;
  let t2 = Dram.Sim.access sim ~now:t1 (txn 64 Dram.Read) in
  (* different bank, but ~cold too; bus already free *)
  check Alcotest.bool "completes" true (t2 > t1)

let test_sim_row_hit_faster () =
  let sim = Dram.Sim.create cfg in
  let t1 = Dram.Sim.access sim ~now:0 (txn 0 Dram.Read) in
  let t2 = Dram.Sim.access sim ~now:t1 (txn 0 Dram.Read) in
  check Alcotest.bool "hit faster than miss" true (t2 - t1 < t1)

let test_sim_bus_throughput () =
  (* pipelined hits across banks: steady state ~ t_bus per txn *)
  let sim = Dram.Sim.create cfg in
  (* warm all banks *)
  let now = ref 0 in
  for i = 0 to 7 do
    now := Dram.Sim.access sim ~now:!now (txn (i * 64) Dram.Read)
  done;
  let start = !now in
  (* issue 64 warm transactions back-to-back (all at the same 'now') *)
  let finish = ref start in
  for i = 0 to 63 do
    let f = Dram.Sim.access sim ~now:start (txn (i * 64) Dram.Read) in
    if f > !finish then finish := f
  done;
  let span = !finish - start in
  check Alcotest.bool "bus limited" true
    (span >= 64 * cfg.Dram.t_bus && span <= (64 * cfg.Dram.t_bus) + 40)

let test_sim_counts () =
  let sim = Dram.Sim.create cfg in
  ignore (Dram.Sim.access sim ~now:0 (txn 0 Dram.Read));
  ignore (Dram.Sim.access sim ~now:0 (txn 64 Dram.Write));
  check Alcotest.int "reads" 1 (Dram.Sim.completed_reads sim);
  check Alcotest.int "writes" 1 (Dram.Sim.completed_writes sim)

let test_sim_refresh_stalls () =
  let sim = Dram.Sim.create cfg in
  (* an access arriving exactly at the refresh deadline waits t_rfc *)
  let fin = Dram.Sim.access sim ~now:cfg.Dram.refresh_interval (txn 0 Dram.Read) in
  check Alcotest.bool "delayed by refresh" true
    (fin >= cfg.Dram.refresh_interval + cfg.Dram.t_rfc)

(* qcheck: completion never precedes arrival; bus is exclusive *)
let prop_sim_monotone =
  QCheck.Test.make ~name:"sim completion never precedes issue" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 10000) bool))
    (fun raw ->
      let sim = Dram.Sim.create cfg in
      let now = ref 0 in
      List.for_all
        (fun (addr, is_write) ->
          let kind = if is_write then Dram.Write else Dram.Read in
          let fin = Dram.Sim.access sim ~now:!now (txn (addr * 64) kind) in
          let ok = fin >= !now + cfg.Dram.t_bus in
          now := fin;
          ok)
        raw)

let prop_coalesce_conserves_bytes =
  QCheck.Test.make
    ~name:"coalescing conserves bytes of the deduplicated stream" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 500))
    (fun idxs ->
      (* consecutive repeats of the same element are broadcasts and ride
         along for free; all other accesses carry their bytes *)
      let rec dedupe = function
        | a :: b :: rest when a = b -> dedupe (a :: rest)
        | a :: rest -> a :: dedupe rest
        | [] -> []
      in
      let accesses = List.map (fun i -> acc "a" i) idxs in
      let l = Dram.layout [ ("a", 4096) ] in
      let txns = coalesce cfg l accesses in
      List.fold_left (fun a (t : Dram.txn) -> a + t.Dram.bytes) 0 txns
      = 4 * List.length (dedupe idxs))

(* ------------------------------------------------------------------ *)
(* Multi-channel addressing, placement and classification (DESIGN.md §15) *)

let cfg2 = { cfg with Dram.n_channels = 2 }

let test_chan_decode () =
  check Alcotest.int "1-channel always 0" 0 (Dram.chan_of cfg (Dram.chan_region * 3));
  check Alcotest.int "low addresses on channel 0" 0 (Dram.chan_of cfg2 4096);
  check Alcotest.int "region 1 on channel 1" 1 (Dram.chan_of cfg2 Dram.chan_region);
  (* out-of-range regions clamp instead of wrapping silently *)
  check Alcotest.int "clamped" 1 (Dram.chan_of cfg2 (Dram.chan_region * 7));
  (* bank/row decoding ignores the channel bits: a channel-1 address
     decodes to the same bank and row as its channel-0 twin *)
  check Alcotest.int "bank is channel-local" (Dram.bank_of cfg2 192)
    (Dram.bank_of cfg2 (Dram.chan_region + 192));
  check Alcotest.int "row is channel-local" (Dram.row_of cfg2 (1024 * 8))
    (Dram.row_of cfg2 (Dram.chan_region + (1024 * 8)))

let test_placement_layout () =
  let l = Dram.layout ~placement:[ ("b", 1) ] [ ("a", 4096); ("b", 4096) ] in
  check Alcotest.int "a stays on channel 0" 0 (Dram.base l "a");
  check Alcotest.int "b at the start of region 1" Dram.chan_region
    (Dram.base l "b");
  (* the all-zeros placement reproduces the unplaced layout byte for byte *)
  let explicit = Dram.layout ~placement:[ ("a", 0); ("b", 0) ] [ ("a", 100); ("b", 100) ] in
  let plain = Dram.layout [ ("a", 100); ("b", 100) ] in
  List.iter
    (fun n -> check Alcotest.int (n ^ " identical") (Dram.base plain n) (Dram.base explicit n))
    [ "a"; "b" ]

let test_placement_error_messages () =
  let buffers = [ "a"; "b" ] in
  (match Dram.placement_error cfg2 [ ("zzz", 0) ] ~buffers with
  | Some msg ->
      check Alcotest.bool "names the unknown buffer" true
        (Thelpers.contains msg "zzz" && Thelpers.contains msg "a, b")
  | None -> Alcotest.fail "unknown buffer accepted");
  (match Dram.placement_error cfg2 [ ("a", 5) ] ~buffers with
  | Some msg ->
      check Alcotest.bool "names the channel range" true
        (Thelpers.contains msg "channel 5" && Thelpers.contains msg "0..1")
  | None -> Alcotest.fail "out-of-range channel accepted");
  (match Dram.placement_error cfg [ ("a", 1) ] ~buffers with
  | Some _ -> ()
  | None -> Alcotest.fail "channel 1 accepted on a 1-channel device");
  check Alcotest.bool "valid placement passes" true
    (Dram.placement_error cfg2 [ ("a", 0); ("b", 1) ] ~buffers = None)

let ctxn chan addr kind =
  { Dram.addr = (chan * Dram.chan_region) + addr; t_kind = kind; bytes = 64 }

let test_per_channel_first_access_miss () =
  (* each channel's banks start cold: the first access to a bank of
     every channel is a miss after read, even at the same bank offset *)
  let stream = [ ctxn 0 0 Dram.Read; ctxn 1 0 Dram.Read ] in
  let by_chan = pattern_counts_by_channel cfg2 stream in
  check Alcotest.int "two channels" 2 (Array.length by_chan);
  let miss counts =
    List.assoc { Dram.kind = Dram.Read; prev = Dram.Read; row_hit = false } counts
  in
  check Alcotest.int "channel 0 cold miss" 1 (miss by_chan.(0));
  check Alcotest.int "channel 1 cold miss" 1 (miss by_chan.(1));
  (* on one channel the same two accesses would be miss + row hit *)
  let one = pattern_counts cfg2 [ ctxn 0 0 Dram.Read; ctxn 0 0 Dram.Read ] in
  check Alcotest.int "same-channel pair hits" 1
    (List.assoc { Dram.kind = Dram.Read; prev = Dram.Read; row_hit = true } one)

let test_warmup_replay_per_channel () =
  (* regression: warmup must warm each channel's banks independently — a
     warmup touching only channel 0 leaves channel 1 cold *)
  let warmup = [ ctxn 0 0 Dram.Read ] in
  let stream = [ ctxn 0 0 Dram.Read; ctxn 1 0 Dram.Read ] in
  let by_chan = pattern_counts_by_channel ~warmup cfg2 stream in
  let hit counts =
    List.assoc { Dram.kind = Dram.Read; prev = Dram.Read; row_hit = true } counts
  and miss counts =
    List.assoc { Dram.kind = Dram.Read; prev = Dram.Read; row_hit = false } counts
  in
  check Alcotest.int "warmed channel hits" 1 (hit by_chan.(0));
  check Alcotest.int "unwarmed channel still misses" 1 (miss by_chan.(1));
  (* warming both channels turns both accesses into hits *)
  let warm2 = pattern_counts_by_channel ~warmup:stream cfg2 stream in
  check Alcotest.int "both warm" 2 (hit warm2.(0) + hit warm2.(1))

let test_single_channel_counts_degenerate () =
  (* on a 1-channel config the by-channel view is a single stream equal
     to the aggregate *)
  let stream = List.init 40 (fun i -> txn (i * 64) (if i mod 3 = 0 then Dram.Write else Dram.Read)) in
  let by_chan = pattern_counts_by_channel cfg stream in
  check Alcotest.int "one channel" 1 (Array.length by_chan);
  check Alcotest.bool "identical to the aggregate" true
    (by_chan.(0) = pattern_counts cfg stream)

let test_sim_channels_independent () =
  (* the same bank-0 row-miss pair is serialized on one channel but
     overlaps when split across channels *)
  let run stream =
    let sim = Dram.Sim.create cfg2 in
    List.fold_left (fun latest t -> max latest (Dram.Sim.access sim ~now:0 t)) 0 stream
  in
  let same_chan = run [ ctxn 0 0 Dram.Read; ctxn 0 (1024 * 8) Dram.Read ] in
  let split = run [ ctxn 0 0 Dram.Read; ctxn 1 (1024 * 8) Dram.Read ] in
  check Alcotest.bool
    (Printf.sprintf "split %d < serialized %d" split same_chan)
    true (split < same_chan)

(* qcheck: per-channel counts always sum (pattern by pattern) to the
   aggregate classification, warm or cold *)
let prop_counts_by_channel_sum =
  let cfg4 = { cfg with Dram.n_channels = 4 } in
  QCheck.Test.make ~name:"per-channel pattern counts sum to the aggregate"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 30) (triple (int_range 0 3) (int_range 0 200) bool))
        (list_of_size Gen.(int_range 0 10) (triple (int_range 0 3) (int_range 0 200) bool)))
    (fun (raw, raw_warmup) ->
      let stream_of = List.map (fun (chan, slot, w) ->
          ctxn chan (slot * 64) (if w then Dram.Write else Dram.Read))
      in
      let stream = stream_of raw and warmup = stream_of raw_warmup in
      let total = pattern_counts ~warmup cfg4 stream in
      let by_chan = pattern_counts_by_channel ~warmup cfg4 stream in
      Array.length by_chan = 4
      && List.for_all
           (fun p ->
             List.assoc p total
             = Array.fold_left (fun acc c -> acc + List.assoc p c) 0 by_chan)
           Dram.all_patterns)

(* qcheck: widening the per-channel outstanding-transaction queue never
   delays any transaction's completion *)
let prop_sim_queue_monotone =
  QCheck.Test.make ~name:"sim completion monotone in queue depth" ~count:200
    QCheck.(
      pair (int_range 1 6)
        (list_of_size Gen.(int_range 1 40)
           (triple (int_range 0 1) (int_range 0 300) bool)))
    (fun (depth, raw) ->
      let finishes qd =
        let sim = Dram.Sim.create { cfg2 with Dram.queue_depth = qd } in
        List.map
          (fun (chan, slot, w) ->
            Dram.Sim.access sim ~now:0
              (ctxn chan (slot * 64) (if w then Dram.Write else Dram.Read)))
          raw
      in
      List.for_all2 (fun deep shallow -> deep <= shallow)
        (finishes (depth + 1)) (finishes depth))

(* ------------------------------------------------------------------ *)
(* Packed streams against txn-list references *)

(* The configurations the model and simulator replay on: one DDR3
   channel with an unbounded queue, two channels with 16-deep queues,
   and 32 HBM2 channels with 8-deep queues. *)
let replay_configs =
  [
    ("ddr3", cfg);
    ("2ch-q16", { cfg with Dram.n_channels = 2; queue_depth = 16 });
    ("hbm2", Dram.hbm2_config);
  ]

(* A transaction on a few channels, banks and rows (so streams collide),
   at any column, of either kind, one byte to two access units long. *)
let gen_txn (c : Dram.config) =
  let open QCheck.Gen in
  let cols = c.Dram.row_bytes / c.Dram.interleave_bytes in
  let unit_bytes = c.Dram.access_unit_bits / 8 in
  let* chan = int_range 0 (min 3 (c.Dram.n_channels - 1)) in
  let* bank = int_range 0 (min 3 (c.Dram.n_banks - 1)) in
  let* row = int_range 0 3 in
  let* col = int_range 0 (cols - 1) in
  let* write = bool in
  let+ bytes = int_range 1 (2 * unit_bytes) in
  {
    Dram.addr =
      (chan * Dram.chan_region)
      + (((((row * cols) + col) * c.Dram.n_banks) + bank) * c.Dram.interleave_bytes);
    t_kind = (if write then Dram.Write else Dram.Read);
    bytes;
  }

(* (config name, config, lanes, [(start, transactions)] per stream);
   starts are often near-equal, so streams tie on their issue cycles,
   and sometimes far apart, across refresh deadlines *)
let gen_streams_case =
  let open QCheck.Gen in
  let* name, c = oneofl replay_configs in
  let* lanes = int_range 1 8 in
  let+ streams =
    list_size (int_range 1 4)
      (pair
         (oneof [ int_range 0 2; int_range 0 3000 ])
         (list_size (int_range 0 30) (gen_txn c)))
  in
  (name, c, lanes, streams)

let print_streams_case (name, _, lanes, streams) =
  let txn (t : Dram.txn) =
    Printf.sprintf "%c%d/%d"
      (match t.Dram.t_kind with Dram.Read -> 'r' | Dram.Write -> 'w')
      t.Dram.addr t.Dram.bytes
  in
  Printf.sprintf "%s lanes=%d %s" name lanes
    (String.concat " | "
       (List.map
          (fun (start, txns) ->
            Printf.sprintf "@%d: %s" start (String.concat " " (List.map txn txns)))
          streams))

let arb_streams_case = QCheck.make ~print:print_streams_case gen_streams_case

(* Reference drain over transaction lists: at every step, scan all
   streams and issue from the unfinished one whose next lane
   ([i mod lanes]) frees first, the lowest-numbered on a tie, through
   [Sim.access]. *)
let reference_drain sim ~lanes ~starts (streams : Dram.txn list array) =
  let arrs = Array.map Array.of_list streams in
  let n = Array.length arrs in
  let pos = Array.make n 0 in
  let clocks = Array.map (fun start -> Array.make lanes start) starts in
  let last = Array.copy starts in
  let next_time s = clocks.(s).(pos.(s) mod lanes) in
  let rec go () =
    let best = ref (-1) in
    for s = 0 to n - 1 do
      if pos.(s) < Array.length arrs.(s)
         && (!best < 0 || next_time s < next_time !best)
      then best := s
    done;
    if !best >= 0 then begin
      let s = !best in
      let lane = pos.(s) mod lanes in
      let fin = Dram.Sim.access sim ~now:clocks.(s).(lane) arrs.(s).(pos.(s)) in
      clocks.(s).(lane) <- fin;
      if fin > last.(s) then last.(s) <- fin;
      pos.(s) <- pos.(s) + 1;
      go ()
    end
  in
  go ();
  last

let prop_replay_matches_reference =
  QCheck.Test.make ~name:"packed replay equals the txn-list drain" ~count:300
    arb_streams_case (fun (_, c, lanes, streams) ->
      let starts = Array.of_list (List.map fst streams) in
      let txns = Array.of_list (List.map snd streams) in
      let packed = Array.map (Dram.pack c) txns in
      let sim = Dram.Sim.create c and ref_sim = Dram.Sim.create c in
      (* two drains on one simulator, the second after the first ends,
         like the model's warm-up and measured rounds *)
      let round starts =
        let got = Dram.Sim.replay sim ~lanes ~starts packed in
        let expect = reference_drain ref_sim ~lanes ~starts txns in
        if got <> expect then QCheck.Test.fail_report "completion cycles differ";
        Array.fold_left max 0 got
      in
      let warm_end = round starts in
      ignore (round (Array.map (( + ) warm_end) starts));
      Dram.Sim.completed_reads sim = Dram.Sim.completed_reads ref_sim
      && Dram.Sim.completed_writes sim = Dram.Sim.completed_writes ref_sim)

(* Table 1 the direct way: per (channel, bank) open row and last kind,
   the first access to a bank a miss after read, pattern records
   counted per channel. *)
let reference_counts ~warmup (c : Dram.config) txns =
  let state = Hashtbl.create 16 in
  let counts = Array.init (max 1 c.Dram.n_channels) (fun _ -> Hashtbl.create 8) in
  let visit ~count (t : Dram.txn) =
    let chan = Dram.chan_of c t.Dram.addr in
    let key = (chan, Dram.bank_of c t.Dram.addr) in
    let open_row, last =
      Option.value (Hashtbl.find_opt state key) ~default:(-1, Dram.Read)
    in
    let row = Dram.row_of c t.Dram.addr in
    if count then begin
      let p = { Dram.kind = t.Dram.t_kind; prev = last; row_hit = open_row = row } in
      let h = counts.(chan) in
      Hashtbl.replace h p (1 + Option.value (Hashtbl.find_opt h p) ~default:0)
    end;
    Hashtbl.replace state key (row, t.Dram.t_kind)
  in
  List.iter (visit ~count:false) warmup;
  List.iter (visit ~count:true) txns;
  Array.map
    (fun h ->
      List.map
        (fun p -> (p, Option.value (Hashtbl.find_opt h p) ~default:0))
        Dram.all_patterns)
    counts

let prop_classification_matches_reference =
  QCheck.Test.make ~name:"packed classification equals the reference"
    ~count:300 arb_streams_case (fun (_, c, _, streams) ->
      let txns = List.map snd streams in
      let packed = Array.of_list (List.map (Dram.pack c) txns) in
      let all = List.concat txns in
      List.for_all
        (fun warm ->
          let warmup = if warm then packed else [||] in
          let expect =
            reference_counts ~warmup:(if warm then all else []) c all
          in
          let total =
            List.map
              (fun p ->
                (p, Array.fold_left (fun a l -> a + List.assoc p l) 0 expect))
              Dram.all_patterns
          in
          Dram.pattern_counts_by_channel ~warmup c packed = expect
          && Dram.pattern_counts ~warmup c packed = total)
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Coalescing against a record-list reference *)

(* The merge rule on record lists: a transaction starts at an access and
   absorbs each following access of the same kind to the same buffer
   name that either repeats the last element (a broadcast) or lies one
   element past the end, the latter adding the first access's width
   while the transaction fits the access unit. Anything else ends it. *)
let reference_merge (c : Dram.config) l accesses =
  let unit_bytes = c.Dram.access_unit_bits / 8 in
  let rec go acc = function
    | [] -> List.rev acc
    | a :: rest ->
        let eb = a.r_bits / 8 in
        let addr = Dram.address l a.r_array ~elem_bits:a.r_bits a.r_index in
        let same b = b.r_write = a.r_write && b.r_array = a.r_array in
        let rec absorb bytes next = function
          | b :: more when same b && b.r_index = next - 1 -> absorb bytes next more
          | b :: more when same b && b.r_index = next && bytes + eb <= unit_bytes ->
              absorb (bytes + eb) (next + 1) more
          | rest -> (bytes, rest)
        in
        let bytes, rest = absorb eb (a.r_index + 1) rest in
        let t_kind = if a.r_write then Dram.Write else Dram.Read in
        go ({ Dram.addr; t_kind; bytes } :: acc) rest
  in
  go [] accesses

(* The i-th access of every work-item back to back, work-items that
   have run out of accesses skipped. *)
let site_major traces =
  let arrs = Array.map Array.of_list traces in
  let max_len = Array.fold_left (fun m a -> max m (Array.length a)) 0 arrs in
  List.concat
    (List.init max_len (fun i ->
         List.filter_map
           (fun a -> if i < Array.length a then Some a.(i) else None)
           (Array.to_list arrs)))

let reference_stream c l ~cross_wi traces =
  Dram.pack c
    (if cross_wi then reference_merge c l (site_major traces)
     else List.concat_map (reference_merge c l) (Array.to_list traces))

(* Every case runs on one DDR3 channel, two channels with "b" placed on
   the second, and HBM2 (256-bit access unit) with two buffers placed. *)
let coalesce_configs =
  let buffers = [ ("a", 32768); ("b", 32768); ("c", 32768) ] in
  [
    ("ddr3", cfg, Dram.layout buffers);
    ("2ch", cfg2, Dram.layout ~placement:[ ("b", 1) ] buffers);
    ("hbm2", Dram.hbm2_config, Dram.layout ~placement:[ ("a", 3); ("c", 17) ] buffers);
  ]

(* A ragged work-group: 1-3 buffers, each with its own element width,
   and a program of up to 30 access sites. Site [i] names a buffer, a
   kind and a width (usually the buffer's own, sometimes another, so one
   buffer name can carry several widths) and an index that ascends,
   repeats or descends across work-items, starting next to, on or
   anywhere near the previous site's. Each of 0-40 work-items runs the
   first 0-30 sites, skipping some. *)
let gen_coalesce_case =
  let open QCheck.Gen in
  let widths = [ 8; 32; 64; 512 ] in
  let* n_buf = int_range 1 3 in
  let* own = array_repeat n_buf (oneofl widths) in
  let site =
    let* buf = int_range 0 (n_buf - 1) in
    let* write = frequency [ (3, return false); (1, return true) ] in
    let* bits = frequency [ (4, return own.(buf)); (1, oneofl widths) ] in
    let* step = oneofl [ `Next; `Same; `Prev; `Any ] in
    let* any = int_range 40 200 in
    let+ stride = oneofl [ 1; 1; 0; -1; 2 ] in
    (String.make 1 "abc".[buf], write, bits, step, any, stride)
  in
  let* program = list_size (int_range 0 30) site in
  let program =
    let clamp i = max 40 (min 200 i) in
    List.rev
      (snd
         (List.fold_left
            (fun (prev, acc) (array, write, bits, step, any, stride) ->
              let base =
                match step with
                | `Next -> clamp (prev + 1)
                | `Same -> prev
                | `Prev -> clamp (prev - 1)
                | `Any -> any
              in
              (base, (array, write, bits, base, stride) :: acc))
            (100, []) program))
  in
  let* n_wi = int_range 0 40 in
  let+ shapes =
    list_repeat n_wi (pair (int_range 0 30) (list_repeat 30 (frequency [ (7, return true); (1, return false) ])))
  in
  Array.of_list
    (List.mapi
       (fun w (len, keep) ->
         List.filteri (fun i _ -> i < len && List.nth keep i) program
         |> List.map (fun (r_array, r_write, r_bits, base, stride) ->
                { r_array; r_write; r_bits; r_index = base + (stride * w) }))
       shapes)

let print_coalesce_case traces =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun w t ->
            Printf.sprintf "wi %d: %s" w
              (String.concat " "
                 (List.map
                    (fun a ->
                      Printf.sprintf "%c%s[%d]/%d"
                        (if a.r_write then 'w' else 'r')
                        a.r_array a.r_index a.r_bits)
                    t)))
          traces))

let prop_coalesce_matches_reference =
  QCheck.Test.make ~name:"coalesced streams equal the record-list merge"
    ~count:300
    (QCheck.make ~print:print_coalesce_case gen_coalesce_case)
    (fun traces ->
      List.for_all
        (fun (name, c, l) ->
          List.for_all
            (fun cross_wi ->
              coalesced c l ~cross_wi traces = reference_stream c l ~cross_wi traces
              || QCheck.Test.fail_reportf "%s, cross_wi=%b: streams differ" name
                   cross_wi)
            [ true; false ])
        coalesce_configs)

let test_coalesce_ragged_by_site () =
  (* work-item 0 reads a[0] then a[1], work-item 1 reads a[2]: site-major
     order is a[0] a[2] a[1], three transactions; concatenating the
     work-items instead (a[0] a[1] a[2]) would give one *)
  check
    (Alcotest.list Alcotest.int)
    "three transactions, site by site" [ 0; 8; 4 ]
    (List.map
       (fun (t : Dram.txn) -> t.Dram.addr)
       (coalesce_workgroup cfg layout2 [| [ acc "a" 0; acc "a" 1 ]; [ acc "a" 2 ] |]))

let test_coalesce_unknown_buffer () =
  Alcotest.check_raises "names the buffer and the layout"
    (Invalid_argument "Dram.base: unknown buffer \"zzz\" (layout has: a, b)")
    (fun () ->
      ignore
        (coalesced cfg layout2 ~cross_wi:true
           [| [ acc "a" 0 ]; [ acc "zzz" 0 ] |]))

let suite =
  [
    Alcotest.test_case "dram: layout alignment" `Quick test_layout_alignment;
    Alcotest.test_case "dram: layout unknown" `Quick test_layout_unknown;
    Alcotest.test_case "dram: addresses" `Quick test_address;
    Alcotest.test_case "dram: coalesce merges" `Quick test_coalesce_merges_consecutive;
    Alcotest.test_case "dram: coalescing factor (paper example)" `Quick
      test_coalesce_factor_formula;
    Alcotest.test_case "dram: coalesce kind break" `Quick test_coalesce_breaks_on_kind;
    Alcotest.test_case "dram: coalesce gap break" `Quick test_coalesce_breaks_on_gap;
    Alcotest.test_case "dram: coalesce array break" `Quick test_coalesce_breaks_on_array;
    Alcotest.test_case "dram: workgroup transpose" `Quick
      test_coalesce_workgroup_transposes;
    Alcotest.test_case "dram: workgroup ragged traces" `Quick
      test_coalesce_workgroup_ragged;
    Alcotest.test_case "dram: workgroup two sites" `Quick
      test_coalesce_workgroup_two_sites;
    Alcotest.test_case "dram: full-width elements coalesce to factor 1" `Quick
      test_coalesce_full_width_elements;
    Alcotest.test_case "dram: non-consecutive runs never merge" `Quick
      test_coalesce_never_merges_nonconsecutive;
    Alcotest.test_case "dram: coalescing preserves program order" `Quick
      test_coalesce_preserves_program_order;
    Alcotest.test_case "dram: bank mapping" `Quick test_bank_mapping;
    Alcotest.test_case "dram: row mapping" `Quick test_row_mapping;
    Alcotest.test_case "dram: table 1 patterns" `Quick test_all_patterns_present;
    Alcotest.test_case "dram: classification" `Quick test_pattern_classification;
    Alcotest.test_case "dram: counts conserve" `Quick test_pattern_counts_conserve;
    Alcotest.test_case "dram: warmup steady state" `Quick test_warmup_shifts_to_hits;
    Alcotest.test_case "dram: miss > hit latency" `Quick test_pattern_latency_ordering;
    Alcotest.test_case "dram: turnaround latency" `Quick test_pattern_latency_turnaround;
    Alcotest.test_case "dram: Table-1 closed-form goldens" `Quick
      test_pattern_latency_goldens;
    Alcotest.test_case "dram: micro-benchmark refresh bound" `Quick
      test_profile_latencies_refresh_bound;
    Alcotest.test_case "dram: micro-benchmark table" `Quick
      test_profile_latencies_structure;
    Alcotest.test_case "sim: chained latency" `Quick test_sim_chained_latency;
    Alcotest.test_case "sim: row hits faster" `Quick test_sim_row_hit_faster;
    Alcotest.test_case "sim: bus throughput" `Quick test_sim_bus_throughput;
    Alcotest.test_case "sim: access counters" `Quick test_sim_counts;
    Alcotest.test_case "sim: refresh stalls" `Quick test_sim_refresh_stalls;
    Alcotest.test_case "chan: address decode" `Quick test_chan_decode;
    Alcotest.test_case "chan: placement layout" `Quick test_placement_layout;
    Alcotest.test_case "chan: placement diagnostics" `Quick
      test_placement_error_messages;
    Alcotest.test_case "chan: first access misses per channel" `Quick
      test_per_channel_first_access_miss;
    Alcotest.test_case "chan: warmup replays per channel" `Quick
      test_warmup_replay_per_channel;
    Alcotest.test_case "chan: 1-channel counts degenerate" `Quick
      test_single_channel_counts_degenerate;
    Alcotest.test_case "sim: channels overlap" `Quick test_sim_channels_independent;
    QCheck_alcotest.to_alcotest prop_sim_monotone;
    QCheck_alcotest.to_alcotest prop_coalesce_conserves_bytes;
    QCheck_alcotest.to_alcotest prop_counts_by_channel_sum;
    QCheck_alcotest.to_alcotest prop_sim_queue_monotone;
    QCheck_alcotest.to_alcotest prop_replay_matches_reference;
    QCheck_alcotest.to_alcotest prop_classification_matches_reference;
    Alcotest.test_case "dram: ragged traces interleave by site" `Quick
      test_coalesce_ragged_by_site;
    Alcotest.test_case "dram: coalescing an unknown buffer names it" `Quick
      test_coalesce_unknown_buffer;
    QCheck_alcotest.to_alcotest prop_coalesce_matches_reference;
  ]
