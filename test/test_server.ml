(* Serve subsystem tests: JSON codec goldens and a round-trip property,
   content-hash and launch-fingerprint stability, LRU cache and metrics
   unit tests, protocol goldens (one NDJSON request line → the exact
   response line) for every request kind, a malformed-request fuzz pass
   in the style of test_robustness, the ≥99% cache hit-rate acceptance
   criterion, and request-order preservation for concurrent batches
   served over a real file descriptor. *)

module Json = Flexcl_util.Json
module Hash = Flexcl_util.Hash
module Metrics = Flexcl_util.Metrics
module Prng = Flexcl_util.Prng
module Launch = Flexcl_ir.Launch
module Cache = Flexcl_server.Cache
module Server = Flexcl_server.Server
module Client = Flexcl_server.Client

let check = Alcotest.check

(* descend through nested objects, failing loudly on a missing field *)
let jpath v path =
  List.fold_left
    (fun v k ->
      match Json.member k v with
      | Some v -> v
      | None -> Alcotest.failf "missing field %S in %s" k (Json.to_string v))
    v path

let jint v path =
  match Json.to_int (jpath v path) with
  | Some i -> i
  | None -> Alcotest.failf "field %s is not an int" (String.concat "." path)

(* ------------------------------------------------------------------ *)
(* JSON codec goldens *)

let test_json_print () =
  let v =
    Json.Obj
      [
        ("a", Json.int 1);
        ("b", Json.Arr [ Json.Null; Json.Bool true; Json.Str "x\n\"y" ]);
        ("c", Json.Num 12.72);
      ]
  in
  check Alcotest.string "composite"
    {|{"a":1,"b":[null,true,"x\n\"y"],"c":12.72}|} (Json.to_string v);
  check Alcotest.string "integral without fraction" "2544"
    (Json.to_string (Json.Num 2544.0));
  check Alcotest.string "shortest round-trip" "0.1"
    (Json.to_string (Json.Num 0.1));
  check Alcotest.string "huge integral uses %g" "1e+300"
    (Json.to_string (Json.Num 1e300));
  check Alcotest.string "nan prints null" "null"
    (Json.to_string (Json.Num Float.nan));
  check Alcotest.string "infinity prints null" "null"
    (Json.to_string (Json.Num Float.infinity));
  check Alcotest.string "control chars escaped" {|"\f"|}
    (Json.to_string (Json.Str "\012"));
  check Alcotest.string "low control chars use \\u" {|"\u0001"|}
    (Json.to_string (Json.Str "\001"))

let test_json_parse () =
  (match Json.of_string {| { "k" : [ 1 , 2.5e1 , "A😀" ] } |} with
  | Ok v ->
      check Alcotest.bool "structure" true
        (Json.equal v
           (Json.Obj
              [
                ( "k",
                  Json.Arr
                    [
                      Json.int 1; Json.Num 25.0; Json.Str "A\xf0\x9f\x98\x80";
                    ] );
              ]))
  | Error e -> Alcotest.failf "parse failed: %s" e);
  let rejects what s =
    match Json.of_string s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%s accepted as %s" what (Json.to_string v)
  in
  rejects "leading zero" "01";
  rejects "trailing input" "1 2";
  rejects "bad escape" {|"\q"|};
  rejects "trailing array comma" "[1,]";
  rejects "trailing object comma" {|{"a":1,}|};
  rejects "truncated literal" "nul";
  rejects "lone high surrogate" {|"\ud800"|};
  rejects "raw control character" "\"\001\"";
  rejects "bare minus" "-";
  rejects "unterminated object" {|{"a":1|};
  rejects "empty input" "";
  (* the exact message the malformed-request golden below relies on *)
  check Alcotest.string "error names the byte offset"
    "byte 0: invalid literal (expected true)"
    (match Json.of_string "this is not json" with
    | Error e -> e
    | Ok _ -> "accepted")

let gen_json =
  let open QCheck.Gen in
  let gen_str =
    string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 10)
  in
  let gen_num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        (* non-finite floats print as null and cannot round-trip *)
        map (fun f -> if Float.is_finite f then f else 0.0) float;
      ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) gen_num;
        map (fun s -> Json.Str s) gen_str;
      ]
  in
  fix
    (fun self depth ->
      if depth <= 0 then scalar
      else
        frequency
          [
            (2, scalar);
            ( 1,
              map
                (fun l -> Json.Arr l)
                (list_size (int_range 0 4) (self (depth - 1))) );
            ( 1,
              map
                (fun l -> Json.Obj l)
                (list_size (int_range 0 4) (pair gen_str (self (depth - 1))))
            );
          ])
    3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"codec round-trips every finite tree" ~count:500
    (QCheck.make gen_json) (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> Json.equal v v'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Content hashing *)

let test_hash_separators () =
  (* add_string must be injective over the split point *)
  check Alcotest.bool "ab|c differs from a|bc" true
    (Hash.(add_string (add_string init "ab") "c")
    <> Hash.(add_string (add_string init "a") "bc"));
  check Alcotest.bool "distinct strings hash apart" true
    (Hash.string "wg64" <> Hash.string "wg65");
  check Alcotest.int "hex width" 16
    (String.length (Hash.to_hex (Hash.string "x")))

let test_launch_fingerprint () =
  let args = [ ("a", Launch.Buffer { length = 64; init = Launch.Zeros }) ] in
  let l1 =
    Launch.make ~global:(Launch.dim3 256) ~local:(Launch.dim3 16) ~args
  in
  let l2 =
    Launch.make ~global:(Launch.dim3 256) ~local:(Launch.dim3 64) ~args
  in
  let l3 =
    Launch.make ~global:(Launch.dim3 512) ~local:(Launch.dim3 16) ~args
  in
  let l4 =
    Launch.make ~global:(Launch.dim3 256) ~local:(Launch.dim3 16)
      ~args:[ ("a", Launch.Buffer { length = 64; init = Launch.Random_floats 1 }) ]
  in
  check Alcotest.bool "local size excluded (cache keys pair it with wg)" true
    (Launch.fingerprint l1 = Launch.fingerprint l2);
  check Alcotest.bool "global size included" true
    (Launch.fingerprint l1 <> Launch.fingerprint l3);
  check Alcotest.bool "buffer init recipe included" true
    (Launch.fingerprint l1 <> Launch.fingerprint l4)

(* ------------------------------------------------------------------ *)
(* LRU cache and metrics *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check Alcotest.bool "a present" true (Cache.find c "a" = Some 1);
  (* the find above made "b" the LRU entry, so a third insert drops it *)
  Cache.add c "c" 3;
  check Alcotest.bool "b evicted" true (Cache.find c "b" = None);
  check Alcotest.bool "a survives" true (Cache.find c "a" = Some 1);
  let st = Cache.stats c in
  check Alcotest.int "evictions" 1 st.Cache.evictions;
  check Alcotest.int "size" 2 st.Cache.size;
  check Alcotest.int "capacity" 2 st.Cache.capacity;
  check Alcotest.int "hits" 2 st.Cache.hits;
  check Alcotest.int "misses" 1 st.Cache.misses;
  let hit, v = Cache.find_or_add c "a" (fun () -> 99) in
  check Alcotest.bool "find_or_add hit" true hit;
  check Alcotest.int "cached value wins" 1 v;
  let hit, v = Cache.find_or_add c "d" (fun () -> 4) in
  check Alcotest.bool "find_or_add miss" false hit;
  check Alcotest.int "produced value" 4 v;
  Cache.clear c;
  check Alcotest.int "clear drops entries" 0 (Cache.stats c).Cache.size

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:3 "a";
  Metrics.incr m "b";
  check
    Alcotest.(list (pair string int))
    "counters sorted"
    [ ("a", 4); ("b", 1) ]
    (Metrics.counters m);
  Metrics.observe m "lat" 100.0;
  Metrics.observe m "lat" 1000.0;
  (match Metrics.summaries m with
  | [ ("lat", s) ] ->
      check Alcotest.int "count" 2 s.Metrics.count;
      check (Alcotest.float 1e-9) "mean" 550.0 s.Metrics.mean;
      check (Alcotest.float 1e-9) "max exact" 1000.0 s.Metrics.max;
      check Alcotest.bool "quantiles ordered" true
        (s.Metrics.p50 <= s.Metrics.p95 && s.Metrics.p95 <= s.Metrics.p99);
      check Alcotest.bool "p50 within a factor of two" true
        (s.Metrics.p50 >= 100.0 && s.Metrics.p50 <= 200.0);
      check Alcotest.bool "p99 capped by the exact max" true
        (s.Metrics.p99 <= 1000.0)
  | l -> Alcotest.failf "expected one histogram, got %d" (List.length l));
  Metrics.reset m;
  check Alcotest.int "reset" 0 (List.length (Metrics.counters m))

(* ------------------------------------------------------------------ *)
(* Protocol goldens: request line → exact response line. The list runs
   in order on one client, so the second predict exercises the warm
   path ("cached":true) with an otherwise byte-identical result. *)

let predict_req =
  {|{"id":1,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true}|}

let protocol_goldens : (string * string * string) list =
  [
    ( "predict cold",
      predict_req,
      {|{"id":1,"ok":true,"kind":"predict","cached":false,"result":{"kernel":"hotspot/hotspot","device":"xc7vx690t","config":"wg64 pe2 cu2 pipe pipeline","cycles":2544,"us":12.72,"bottleneck":"global memory"}}|}
    );
    ( "predict warm",
      predict_req,
      {|{"id":1,"ok":true,"kind":"predict","cached":true,"result":{"kernel":"hotspot/hotspot","device":"xc7vx690t","config":"wg64 pe2 cu2 pipe pipeline","cycles":2544,"us":12.72,"bottleneck":"global memory"}}|}
    );
    ( "parse",
      {|{"id":3,"kind":"parse","source":"__kernel void f(__global float* a, int n) { a[0] = 1.0f; }"}|},
      {|{"id":3,"ok":true,"kind":"parse","result":{"kernel":"f","params":[{"name":"a","type":"__global float*"},{"name":"n","type":"int"}],"source_hash":"9992a2be6c24186d"}}|}
    );
    ( "analyze",
      {|{"id":4,"kind":"analyze","workload":"hotspot/hotspot"}|},
      {|{"id":4,"ok":true,"kind":"analyze","result":{"kernel":"hotspot/hotspot","device":"xc7vx690t","config":"wg64 pe1 cu1 nopipe pipeline","ii_wi":71,"rec_mii":0,"res_mii":1,"depth_pe":71,"l_pe":4544,"n_pe_eff":1,"l_cu":4544,"n_cu_eff":1,"l_comp_kernel":72728,"l_mem_wi":4.225016276041667,"pattern_counts":{"RAR.hit":0.3541666666666667,"RAW.hit":0,"WAR.hit":0,"WAW.hit":0.03125,"RAR.miss":0,"RAW.miss":0.08854166666666667,"WAR.miss":0.08854166666666667,"WAW.miss":0},"dsp_footprint":42,"cycles":72704,"us":363.52,"bottleneck":"compute depth"}}|}
    );
    ( "explore",
      {|{"id":5,"kind":"explore","workload":"nn/nn","device":"v7","top":3}|},
      {|{"id":5,"ok":true,"kind":"explore","result":{"kernel":"nn/nn","device":"xc7vx690t","feasible":192,"points":[{"config":"wg256 pe4 cu1 pipe pipeline","cycles":4504,"us":22.52},{"config":"wg256 pe8 cu1 pipe pipeline","cycles":4504,"us":22.52},{"config":"wg128 pe4 cu1 pipe pipeline","cycles":4784,"us":23.92}],"greedy":{"config":"wg256 pe8 cu4 pipe pipeline","cycles":7789,"us":38.945}}}|}
    );
    ( "predict with buffer placement on the HBM device",
      {|{"id":12,"kind":"predict","workload":"bfs/bfs_1","device":"xcu280","pe":2,"cu":2,"pipeline":true,"placement":{"edges":1,"cost":2}}|},
      {|{"id":12,"ok":true,"kind":"predict","cached":false,"result":{"kernel":"bfs/bfs_1","device":"xcu280","config":"wg64 pe2 cu2 pipe pipeline","cycles":15112,"us":50.373333333333335,"bottleneck":"global memory"}}|}
    );
    ( "placement naming an unknown buffer",
      {|{"id":13,"kind":"predict","workload":"bfs/bfs_1","device":"xcu280","placement":{"zzz":0}}|},
      {|{"id":13,"ok":false,"kind":"predict","errors":[{"code":"E-USAGE","severity":"error","message":"unknown buffer \"zzz\" in placement (kernel buffers: node_start, node_len, edges, mask, updating, visited, cost)"}]}|}
    );
    ( "placement outside the device's channels",
      {|{"id":14,"kind":"predict","workload":"bfs/bfs_1","device":"v7","placement":{"edges":1}}|},
      {|{"id":14,"ok":false,"kind":"predict","errors":[{"code":"E-USAGE","severity":"error","message":"buffer \"edges\" placed on channel 1, but device has 1 channel (valid: 0..0)"}]}|}
    );
    ( "pipeline",
      {|{"id":8,"kind":"pipeline","graph":"stencil/blur-sharpen"}|},
      {|{"id":8,"ok":true,"kind":"pipeline","cached":false,"result":{"graph":"stencil/blur-sharpen","device":"xc7vx690t","joint":"blur[wg64 pe1 cu1 nopipe pipeline]; sharpen[wg64 pe1 cu1 nopipe pipeline]; smooth:d8","stages":[{"stage":"blur","cycles":12800},{"stage":"sharpen","cycles":12288}],"steady":12800,"fill":1600,"stall":0,"cycles":14400,"us":72,"bottleneck":"stage blur: compute depth"}}|}
    );
    ( "pipeline missing graph",
      {|{"id":9,"kind":"pipeline"}|},
      {|{"id":9,"ok":false,"kind":"pipeline","errors":[{"code":"E-USAGE","severity":"error","message":"field \"graph\" is required (stream/produce-filter-consume | stencil/blur-sharpen)"}]}|}
    );
    ( "unknown kind",
      {|{"id":6,"kind":"frobnicate"}|},
      {|{"id":6,"ok":false,"kind":"frobnicate","errors":[{"code":"E-USAGE","severity":"error","message":"unknown request kind \"frobnicate\" (parse | analyze | predict | explore | pipeline | stats | shutdown)"}]}|}
    );
    ( "missing source",
      {|{"id":7,"kind":"predict"}|},
      {|{"id":7,"ok":false,"kind":"predict","errors":[{"code":"E-USAGE","severity":"error","message":"one of \"source\" or \"workload\" is required"}]}|}
    );
    ( "launch field on a workload request",
      {|{"id":8,"kind":"predict","workload":"hotspot/hotspot","global":128}|},
      {|{"id":8,"ok":false,"kind":"predict","errors":[{"code":"E-USAGE","severity":"error","message":"field \"global\" does not apply to a workload request"}]}|}
    );
    ( "unknown workload",
      {|{"id":9,"kind":"predict","workload":"nosuch/x"}|},
      {|{"id":9,"ok":false,"kind":"predict","errors":[{"code":"E-USAGE","severity":"error","message":"unknown workload \"nosuch/x\" (see the workloads list)"}]}|}
    );
    ( "deadline maps to fuel",
      {|{"id":10,"kind":"predict","source":"__kernel void spin(int n) { while (1) { n = n + 1; } }","deadline_ms":1}|},
      {|{"id":10,"ok":false,"kind":"predict","errors":[{"code":"E-FUEL","severity":"error","message":"profiling exceeded its 20000-step budget (non-terminating kernel?)"}]}|}
    );
    ( "broken kernel carries the parse span",
      {|{"id":11,"kind":"predict","source":"__kernel void f(__global float* a, int n) { a[0] = ; }"}|},
      {|{"id":11,"ok":false,"kind":"predict","errors":[{"code":"E-PARSE","severity":"error","message":"unexpected token ; in expression","line":1,"col":52}]}|}
    );
    ( "malformed JSON",
      "this is not json",
      {|{"id":null,"ok":false,"kind":null,"errors":[{"code":"E-USAGE","severity":"error","message":"malformed JSON: byte 0: invalid literal (expected true)"}]}|}
    );
  ]

let test_protocol_goldens () =
  let c = Client.create ~num_domains:0 () in
  List.iter
    (fun (what, req, want) ->
      check Alcotest.string what want (Client.request_line c req))
    protocol_goldens

let test_explore_deterministic () =
  let c = Client.create ~num_domains:0 () in
  let req = {|{"id":1,"kind":"explore","workload":"nn/nn","top":5}|} in
  let first = Client.request_line c req in
  check Alcotest.string "repeat explore is byte-identical" first
    (Client.request_line c req)

let test_stats_shape () =
  let c = Client.create ~num_domains:0 () in
  ignore (Client.request_line c predict_req);
  ignore (Client.request_line c predict_req);
  ignore (Client.request_line c {|{"id":1,"kind":"frobnicate"}|});
  let s = Client.stats c in
  check Alcotest.int "predict ok counter" 2
    (jint s [ "counters"; "requests.predict.ok" ]);
  check Alcotest.int "unknown kind counted as error" 1
    (jint s [ "counters"; "requests.unknown.error" ]);
  check Alcotest.int "latency histogram count" 2
    (jint s [ "latency_us"; "predict"; "count" ]);
  check Alcotest.int "predict cache hit" 1 (jint s [ "cache"; "predict"; "hits" ]);
  check Alcotest.int "predict cache miss" 1
    (jint s [ "cache"; "predict"; "misses" ]);
  check Alcotest.int "analysis cached across predicts" 1
    (jint s [ "cache"; "analysis"; "misses" ])

(* ------------------------------------------------------------------ *)
(* Trace over the wire: "trace":true on a predict returns the cycle
   attribution as a "trace" member of the result. The trace must parse
   back through Trace.of_json, satisfy conservation, carry the golden
   cycle total at its root, and come back byte-identical from the cache
   (traced and untraced predictions are distinct cache entries, so a
   plain predict never pays for or returns a trace). *)

module Trace = Flexcl_util.Trace

let traced_predict_req =
  {|{"id":20,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true,"trace":true}|}

let test_predict_trace () =
  let c = Client.create ~num_domains:0 () in
  let ask req =
    match Json.of_string (Client.request_line c req) with
    | Ok v -> v
    | Error e -> Alcotest.failf "response not JSON: %s" e
  in
  let cold = ask traced_predict_req in
  check Alcotest.bool "cold miss" false
    (Option.get (Json.to_bool (jpath cold [ "cached" ])));
  let trace_json = jpath cold [ "result"; "trace" ] in
  let tr =
    match Trace.of_json trace_json with
    | Ok t -> t
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  (match Trace.check tr with
  | Ok () -> ()
  | Error e -> Alcotest.failf "conservation violated over the wire: %s" e);
  (* root total = the golden predict cycles for this design point *)
  check (Alcotest.float 1e-9) "root cycles match the predict golden" 2544.0
    tr.Trace.cycles;
  (* warm: served from cache, trace byte-identical to the cold miss *)
  let warm = ask traced_predict_req in
  check Alcotest.bool "warm hit" true
    (Option.get (Json.to_bool (jpath warm [ "cached" ])));
  check Alcotest.string "trace byte-identical on a cache hit"
    (Json.to_string trace_json)
    (Json.to_string (jpath warm [ "result"; "trace" ]));
  (* a plain predict of the same point carries no trace and is its own
     (cold) cache entry — the traced result never leaks into it *)
  let plain =
    ask
      {|{"id":21,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true}|}
  in
  check Alcotest.bool "plain predict has no trace member" true
    (Json.member "trace" (jpath plain [ "result" ]) = None);
  check Alcotest.bool "plain predict misses the traced entry" false
    (Option.get (Json.to_bool (jpath plain [ "cached" ])));
  (* "trace":false is the default spelled out — same entry as plain *)
  let explicit_false =
    ask
      {|{"id":22,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true,"trace":false}|}
  in
  check Alcotest.bool "trace:false shares the untraced entry" true
    (Option.get (Json.to_bool (jpath explicit_false [ "cached" ])));
  (* the metrics layer counts traced predictions separately *)
  let s = Client.stats c in
  check Alcotest.int "predict.trace counter" 2
    (jint s [ "counters"; "predict.trace" ])

let test_predict_trace_source_kernel () =
  (* trace on an inline-source predict (exercises analyze-then-trace on
     a kernel that is not in the workload library) *)
  let c = Client.create ~num_domains:0 () in
  let req =
    {|{"id":23,"kind":"predict","source":"__kernel void axpy(__global float* x, __global float* y, float a, int n) { int i = get_global_id(0); if (i < n) y[i] = a * x[i] + y[i]; }","global":256,"local":64,"trace":true}|}
  in
  match Json.of_string (Client.request_line c req) with
  | Error e -> Alcotest.failf "response not JSON: %s" e
  | Ok v -> (
      check Alcotest.bool "ok" true
        (Option.get (Json.to_bool (jpath v [ "ok" ])));
      let cycles =
        match Json.to_float (jpath v [ "result"; "cycles" ]) with
        | Some f -> f
        | None -> Alcotest.fail "cycles missing"
      in
      match Trace.of_json (jpath v [ "result"; "trace" ]) with
      | Error e -> Alcotest.failf "trace does not parse: %s" e
      | Ok tr ->
          (match Trace.check tr with
          | Ok () -> ()
          | Error e -> Alcotest.failf "conservation violated: %s" e);
          check (Alcotest.float 1e-9) "trace root = reported cycles" cycles
            tr.Trace.cycles)

(* ------------------------------------------------------------------ *)
(* Calibrated predictions ("calibrated":true, DESIGN.md §16): response
   shape pinned against the committed model golden, calibrated and raw
   predictions as distinct cache entries with byte-identical warm hits,
   and E-NOMODEL when no model is loaded. *)

module Learn = Flexcl_learn.Learn

let golden_model_path =
  let candidates =
    [
      Filename.concat "goldens" "model.golden.json";
      Filename.concat (Filename.concat "test" "goldens") "model.golden.json";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.hd candidates

let load_golden_model () =
  let s = In_channel.with_open_bin golden_model_path In_channel.input_all in
  match Learn.model_of_string s with
  | Ok m -> m
  | Error d ->
      Alcotest.failf "committed model unreadable: %s" (Flexcl_util.Diag.render d)

let calibrated_req =
  {|{"id":30,"kind":"predict","workload":"hotspot/hotspot","pe":2,"cu":2,"pipeline":true,"calibrated":true}|}

let test_calibrated_response_shape () =
  let c = Client.create ~num_domains:0 ~model:(load_golden_model ()) () in
  (* exact bytes against the committed model golden: the raw fields stay
     untouched (cycles matches the uncalibrated predict golden), with
     cycles_calibrated and the empirical interval appended after the
     bottleneck; regenerate with `make promote-model` when the fixture
     legitimately moves *)
  let cold = Client.request_line c calibrated_req in
  check Alcotest.string "calibrated cold golden"
    {|{"id":30,"ok":true,"kind":"predict","cached":false,"result":{"kernel":"hotspot/hotspot","device":"xc7vx690t","config":"wg64 pe2 cu2 pipe pipeline","cycles":2544,"us":12.72,"bottleneck":"global memory","cycles_calibrated":2556.812398033061,"ci":{"lo":2314.0853484436593,"hi":3095.831838234368}}}|}
    cold;
  match Json.of_string cold with
  | Error e -> Alcotest.failf "response not JSON: %s" e
  | Ok v ->
      let f path =
        match Json.to_float (jpath v path) with
        | Some x -> x
        | None -> Alcotest.failf "field %s not a number" (String.concat "." path)
      in
      let cal = f [ "result"; "cycles_calibrated" ] in
      check Alcotest.bool "interval brackets the calibrated point" true
        (f [ "result"; "ci"; "lo" ] <= cal && cal <= f [ "result"; "ci"; "hi" ])

let test_calibrated_cache_distinct () =
  let c = Client.create ~num_domains:0 ~model:(load_golden_model ()) () in
  (* a raw predict warms the raw entry only: the first calibrated
     request still misses, and vice versa *)
  let raw1 = Client.request_line c predict_req in
  let cal1 = Client.request_line c calibrated_req in
  let cal2 = Client.request_line c calibrated_req in
  let raw2 = Client.request_line c predict_req in
  let cached line =
    match Json.of_string line with
    | Ok v -> Option.get (Json.to_bool (jpath v [ "cached" ]))
    | Error e -> Alcotest.failf "bad response: %s" e
  in
  check Alcotest.bool "raw cold" false (cached raw1);
  check Alcotest.bool "calibrated misses the raw entry" false (cached cal1);
  check Alcotest.bool "calibrated warm" true (cached cal2);
  check Alcotest.bool "raw warm" true (cached raw2);
  (* the warm hit differs from the cold response only in "cached" *)
  let flip line =
    let sub = {|"cached":false|} and by = {|"cached":true|} in
    let n = String.length line and m = String.length sub in
    let rec find i =
      if i + m > n then line
      else if String.sub line i m = sub then
        String.sub line 0 i ^ by ^ String.sub line (i + m) (n - i - m)
      else find (i + 1)
    in
    find 0
  in
  check Alcotest.string "warm body = cold body" (flip cal1) cal2;
  check Alcotest.string "warm calibrated hit is byte-identical" cal2
    (Client.request_line c calibrated_req);
  let s = Client.stats c in
  check Alcotest.int "predict.calibrated counter" 3
    (jint s [ "counters"; "predict.calibrated" ])

let test_calibrated_without_model () =
  let c = Client.create ~num_domains:0 () in
  check Alcotest.string "E-NOMODEL without --model"
    {|{"id":30,"ok":false,"kind":"predict","errors":[{"code":"E-NOMODEL","severity":"error","message":"\"calibrated\":true but no learned-residual model is loaded (start the server with --model FILE)"}]}|}
    (Client.request_line c calibrated_req)

(* ------------------------------------------------------------------ *)
(* Fuzz: garbage bytes and mutated request lines must always come back
   as one well-formed error-or-ok response — never an exception. *)

let json_flip_chars = [| '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '0'; 'e'; ' ' |]

let mutate rng src =
  let n = String.length src in
  if n < 4 then src
  else
    match Prng.int rng 3 with
    | 0 -> String.sub src 0 (1 + Prng.int rng (n - 1))
    | 1 ->
        let b = Bytes.of_string src in
        for _ = 1 to 1 + Prng.int rng 4 do
          Bytes.set b (Prng.int rng n) (Prng.choose rng json_flip_chars)
        done;
        Bytes.to_string b
    | _ ->
        let start = Prng.int rng n in
        let len = min (1 + Prng.int rng 12) (n - start) in
        String.sub src 0 start ^ String.sub src (start + len) (n - start - len)

let fuzz_trials = 400

let test_fuzz_requests () =
  let c = Client.create ~num_domains:0 () in
  let rng = Prng.create 0x5E21E in
  let garbage () =
    String.init (Prng.int rng 40) (fun _ ->
        match Char.chr (1 + Prng.int rng 255) with
        | '\n' -> ' ' (* the record separator cannot appear in a line *)
        | ch -> ch)
  in
  let base =
    Array.of_list
      (List.map (fun (_, req, _) -> req) protocol_goldens
      @ [ traced_predict_req; calibrated_req ])
  in
  let ok = ref 0 and err = ref 0 in
  let escaped = ref [] in
  for i = 0 to fuzz_trials - 1 do
    let line =
      if i mod 3 = 0 then garbage ()
      else mutate rng base.(i mod Array.length base)
    in
    match Client.request_line c line with
    | resp -> (
        match Json.of_string resp with
        | Error e ->
            escaped :=
              Printf.sprintf "trial %d: response not JSON (%s)" i e :: !escaped
        | Ok v -> (
            match Option.bind (Json.member "ok" v) Json.to_bool with
            | Some true -> incr ok
            | Some false -> incr err
            | None ->
                escaped :=
                  Printf.sprintf "trial %d: response lacks \"ok\"" i :: !escaped
            ))
    | exception exn ->
        escaped :=
          Printf.sprintf "trial %d: escaped %s" i (Printexc.to_string exn)
          :: !escaped
  done;
  (match !escaped with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "%d bad trial(s); first: %s" (List.length !escaped) e);
  check Alcotest.int "every trial answered" fuzz_trials (!ok + !err);
  check Alcotest.bool "error paths exercised" true (!err > 0)

(* ------------------------------------------------------------------ *)
(* Acceptance: 100 repeated predicts, ≥ 99% served from cache. *)

let test_cache_hit_rate () =
  let c = Client.create ~num_domains:0 () in
  let cached = ref 0 in
  for _ = 1 to 100 do
    let r =
      match Json.of_string (Client.request_line c predict_req) with
      | Ok v -> v
      | Error e -> Alcotest.failf "bad response: %s" e
    in
    match Option.bind (Json.member "cached" r) Json.to_bool with
    | Some true -> incr cached
    | Some false -> ()
    | None -> Alcotest.fail "predict response lacks \"cached\""
  done;
  check Alcotest.int "99 of 100 responses from cache" 99 !cached;
  let s = Client.stats c in
  check Alcotest.int "stats hits" 99 (jint s [ "cache"; "predict"; "hits" ]);
  check Alcotest.int "stats misses" 1 (jint s [ "cache"; "predict"; "misses" ]);
  match Json.to_float (jpath s [ "cache"; "predict"; "hit_rate" ]) with
  | Some rate -> check Alcotest.bool "hit rate >= 99%" true (rate >= 0.99)
  | None -> Alcotest.fail "hit_rate missing"

(* ------------------------------------------------------------------ *)
(* serve_fd: a concurrent batch over a real pipe answers in request
   order, byte-identical to a sequential client, with blank lines
   skipped and the malformed line answered in place. *)

let batch_requests =
  [
    predict_req;
    {|{"id":2,"kind":"parse","source":"__kernel void f(__global float* a, int n) { a[0] = 1.0f; }"}|};
    "definitely not json";
    {|{"id":4,"kind":"predict","workload":"nn/nn"}|};
    {|{"id":5,"kind":"analyze","workload":"hotspot/hotspot"}|};
    {|{"id":6,"kind":"frobnicate"}|};
    {|{"id":7,"kind":"predict","workload":"hotspot/hotspot","pe":4}|};
  ]

let test_serve_fd_batch () =
  let seq = Client.create ~num_domains:0 () in
  let expected = List.map (Client.request_line seq) batch_requests in
  let r, w = Unix.pipe () in
  let wc = Unix.out_channel_of_descr w in
  List.iter (fun l -> output_string wc (l ^ "\n")) batch_requests;
  output_string wc "\n";
  (* trailing blank line: skipped *)
  close_out wc;
  let tmp = Filename.temp_file "flexcl_serve" ".ndjson" in
  let out = open_out tmp in
  let srv = Server.create ~num_domains:2 () in
  Server.serve_fd srv r out;
  close_out out;
  Unix.close r;
  let ic = open_in tmp in
  let got = ref [] in
  (try
     while true do
       got := input_line ic :: !got
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  let got = List.rev !got in
  check Alcotest.int "one response per request" (List.length batch_requests)
    (List.length got);
  List.iteri
    (fun i (want, have) ->
      check Alcotest.string (Printf.sprintf "response %d in order" i) want have)
    (List.combine expected got)

(* ------------------------------------------------------------------ *)
(* Failure semantics: framing, deadlines, admission, drain. Each test
   pins one taxon of DESIGN.md §12 deterministically; the probabilistic
   mix lives in the chaos harness (test_chaos.ml, `make chaos`). *)

(* run one raw byte stream through serve_fd, collect response lines *)
let serve_raw ?max_batch srv raw =
  let r, w = Unix.pipe () in
  let wc = Unix.out_channel_of_descr w in
  output_string wc raw;
  close_out wc;
  let tmp = Filename.temp_file "flexcl_serve" ".ndjson" in
  let out = open_out tmp in
  Server.serve_fd srv ?max_batch r out;
  close_out out;
  Unix.close r;
  let ic = open_in tmp in
  let got = ref [] in
  (try
     while true do
       got := input_line ic :: !got
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  List.rev !got

let first_code line =
  match Json.of_string line with
  | Error e -> Alcotest.failf "unparsable response %S (%s)" line e
  | Ok v -> (
      match Json.member "errors" v with
      | Some (Json.Arr (e :: _)) -> (
          match Option.bind (Json.member "code" e) Json.to_str with
          | Some c -> c
          | None -> Alcotest.failf "error without code: %s" line)
      | _ -> Alcotest.failf "response has no errors array: %s" line)

let response_ok line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "ok" v) Json.to_bool = Some true
  | Error _ -> false

let test_frame_errors () =
  let srv = Server.create ~num_domains:0 ~max_line_bytes:128 () in
  let oversized =
    {|{"id":1,"kind":"predict","pad":"|} ^ String.make 300 'x' ^ {|"}|}
  in
  let raw =
    String.concat ""
      [
        oversized ^ "\n";
        {|{"id":2,"kind":"stats"}|} ^ "\n";
        {|{"id":3,"kind":"sta|} (* stream dies mid-line *);
      ]
  in
  let got = serve_raw srv raw in
  check Alcotest.int "three frames, three responses" 3 (List.length got);
  (match got with
  | [ a; b; c ] ->
      check Alcotest.string "oversized line answers E-FRAME" "E-FRAME"
        (first_code a);
      check Alcotest.bool "stream resyncs after the oversized line" true
        (response_ok b);
      check Alcotest.string "EOF mid-line answers E-FRAME" "E-FRAME"
        (first_code c)
  | _ -> assert false);
  let s = Server.stats_json srv in
  check Alcotest.int "frame errors counted" 2
    (jint s [ "counters"; "requests.frame_error" ])

let test_deadline_expired () =
  let srv = Server.create ~num_domains:0 () in
  let req =
    {|{"id":1,"kind":"predict","workload":"nn/nn","deadline_ms":100}|}
  in
  let past = Unix.gettimeofday () -. 10.0 in
  (* admission-stage check (handle_line plans before computing) *)
  let resp = Server.handle_line ~arrival:past srv req in
  check Alcotest.string "expired budget answers E-DEADLINE" "E-DEADLINE"
    (first_code resp);
  (* compute-stage check (handle_value re-checks at dispatch) *)
  let resp2 =
    match Json.of_string req with
    | Ok v -> Json.to_string (Server.handle_value ~arrival:past srv v)
    | Error _ -> assert false
  in
  check Alcotest.string "compute-stage check also fires" "E-DEADLINE"
    (first_code resp2);
  let s = Server.stats_json srv in
  check Alcotest.int "deadline_expired counted" 2
    (jint s [ "counters"; "deadline_expired" ]);
  (* an ample budget sails through *)
  let ok = Server.handle_line srv req in
  check Alcotest.bool "unexpired deadline serves normally" true
    (response_ok ok)

let test_overload_shed () =
  (* one admission slot, three compute requests in one batch: admission
     happens when the batch is planned, release when it completes, so
     exactly the requests past the high-water mark shed *)
  let srv = Server.create ~num_domains:0 ~max_inflight:1 () in
  let req = {|{"id":1,"kind":"predict","workload":"nn/nn"}|} in
  let raw = String.concat "" [ req; "\n"; req; "\n"; req; "\n" ] in
  let got = serve_raw ~max_batch:8 srv raw in
  check Alcotest.int "three requests, three responses" 3 (List.length got);
  (match got with
  | [ a; b; c ] ->
      check Alcotest.bool "first request admitted" true (response_ok a);
      check Alcotest.string "second sheds E-OVERLOAD" "E-OVERLOAD"
        (first_code b);
      check Alcotest.string "third sheds E-OVERLOAD" "E-OVERLOAD"
        (first_code c);
      (* the shed carries a positive retry hint *)
      (match Json.of_string b with
      | Ok v -> (
          match
            Option.bind (Json.member "retry_after_ms" v) Json.to_int
          with
          | Some ms ->
              check Alcotest.bool "retry_after_ms > 0" true (ms > 0)
          | None -> Alcotest.fail "shed response lacks retry_after_ms")
      | Error _ -> assert false)
  | _ -> assert false);
  let s = Server.stats_json srv in
  check Alcotest.int "sheds counted" 2 (jint s [ "counters"; "shed" ]);
  (* slots released: a lone request is admitted again *)
  check Alcotest.bool "inflight released after the batch" true
    (response_ok (Server.handle_line srv req))

let test_shutdown_drain () =
  let srv = Server.create ~num_domains:0 () in
  let resp = Server.handle_line srv {|{"id":1,"kind":"shutdown"}|} in
  check Alcotest.bool "shutdown acknowledged" true (response_ok resp);
  check Alcotest.bool "server marked draining" true (Server.draining srv);
  let rejected =
    Server.handle_line srv {|{"id":2,"kind":"predict","workload":"nn/nn"}|}
  in
  check Alcotest.string "new work answers E-SHUTDOWN" "E-SHUTDOWN"
    (first_code rejected)

(* ------------------------------------------------------------------ *)
(* Single-flight under a miss storm: N clients racing the same cold
   fingerprint compute it exactly once; everyone else finds it warm. *)

let storm_barrier n =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let arrived = ref 0 in
  fun () ->
    Mutex.lock m;
    incr arrived;
    if !arrived >= n then Condition.broadcast cv
    else
      while !arrived < n do
        Condition.wait cv m
      done;
    Mutex.unlock m

let test_single_flight_storm () =
  let c = Client.create ~num_domains:0 () in
  let n = 8 in
  let wait_all = storm_barrier n in
  let results = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            wait_all ();
            results.(i) <- Client.request_line c predict_req)
          ())
  in
  List.iter Thread.join threads;
  let cold = ref 0 in
  Array.iter
    (fun r ->
      check Alcotest.bool "storm response ok" true (response_ok r);
      match Json.of_string r with
      | Ok v -> (
          match Option.bind (Json.member "cached" v) Json.to_bool with
          | Some false -> incr cold
          | Some true -> ()
          | None -> Alcotest.fail "predict response lacks \"cached\"")
      | Error _ -> assert false)
    results;
  check Alcotest.int "exactly one racer computed" 1 !cold;
  let s = Client.stats c in
  check Alcotest.int "one predict-cache miss" 1
    (jint s [ "cache"; "predict"; "misses" ]);
  check Alcotest.int "everyone else hit" (n - 1)
    (jint s [ "cache"; "predict"; "hits" ])

(* Eviction racing an in-flight computation: the producer's slot can be
   recycled under it (capacity 1) without corrupting the cache — its
   value still lands, LRU size stays bounded. *)
let test_cache_eviction_during_flight () =
  let c = Cache.create ~capacity:1 () in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let state = ref `Init in
  let set s =
    Mutex.lock m;
    state := s;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  let wait_for s =
    Mutex.lock m;
    while !state <> s do
      Condition.wait cv m
    done;
    Mutex.unlock m
  in
  let producer =
    Thread.create
      (fun () ->
        ignore
          (Cache.find_or_add c "hot" (fun () ->
               set `Producing;
               wait_for `Churned;
               42)))
      ()
  in
  wait_for `Producing;
  (* churn the single slot while "hot" is still being produced *)
  Cache.add c "cold1" 1;
  Cache.add c "cold2" 2;
  set `Churned;
  Thread.join producer;
  let s = Cache.stats c in
  check Alcotest.int "size bounded by capacity" 1 s.Cache.size;
  check
    Alcotest.(option int)
    "in-flight value landed intact" (Some 42) (Cache.find c "hot")

(* ------------------------------------------------------------------ *)
(* A failure is never cached: a request that ran out of fuel leaves its
   key free for one with more fuel, and racers on a failing key all get
   the failure, none a stored result. *)

let fuel_req ?max_steps () =
  let src =
    "__kernel void fuel(__global float* a) { int i = get_global_id(0); \
     a[i] = a[i] + 1.0f; }"
  in
  Printf.sprintf {|{"id":1,"kind":"predict","source":%s%s}|}
    (Json.to_string (Json.Str src))
    (match max_steps with
    | Some n -> Printf.sprintf {|,"max_steps":%d|} n
    | None -> "")

let cached_flag line =
  match Json.of_string line with
  | Ok v -> Option.bind (Json.member "cached" v) Json.to_bool
  | Error e -> Alcotest.failf "unparsable response %S (%s)" line e

let test_failures_never_cached () =
  let c = Client.create ~num_domains:0 () in
  check Alcotest.string "100 steps run out of fuel" "E-FUEL"
    (first_code (Client.request_line c (fuel_req ~max_steps:100 ())));
  check
    Alcotest.(option bool)
    "full fuel computes afresh" (Some false)
    (cached_flag (Client.request_line c (fuel_req ())));
  check
    Alcotest.(option bool)
    "100 steps now hit the stored result" (Some true)
    (cached_flag (Client.request_line c (fuel_req ~max_steps:100 ())));
  let c = Client.create ~num_domains:0 () in
  let n = 8 in
  let wait_all = storm_barrier n in
  let results = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            wait_all ();
            results.(i) <- Client.request_line c (fuel_req ~max_steps:100 ()))
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun r -> check Alcotest.string "every racer answers E-FUEL" "E-FUEL" (first_code r))
    results;
  check Alcotest.int "no predict stored" 0
    (jint (Client.stats c) [ "cache"; "predict"; "size" ])

(* Live heap under distinct-kernel traffic is bounded by the LRUs: an
   analysis evicted from the server's caches takes everything derived
   from it along. Growth is measured over the heap before the soak,
   which holds the other suites' analyses. *)
let test_soak_live_heap () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let base = live () in
  let c = Client.create ~num_domains:0 ~cache_capacity:4 () in
  let growth_at_64 = ref 0 in
  for i = 1 to 256 do
    let src =
      Printf.sprintf
        "__kernel void soak%d(__global float* a, __global float* b) { int i \
         = get_global_id(0); b[i] = a[i] * %d.0f; }"
        i i
    in
    List.iter
      (fun kind ->
        let r =
          Client.request_line c
            (Printf.sprintf {|{"id":%d,"kind":"%s","source":%s}|} i kind
               (Json.to_string (Json.Str src)))
        in
        if not (response_ok r) then Alcotest.failf "kernel %d %s: %s" i kind r)
      [ "predict"; "explore" ];
    if i = 64 then growth_at_64 := live () - base
  done;
  let growth = live () - base in
  if float_of_int growth > 1.5 *. float_of_int !growth_at_64 then
    Alcotest.failf "live heap grew %d words by kernel 256, %d by kernel 64"
      growth !growth_at_64

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "json: print goldens" `Quick test_json_print;
    Alcotest.test_case "json: parse goldens and rejections" `Quick
      test_json_parse;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "hash: separators and width" `Quick test_hash_separators;
    Alcotest.test_case "hash: launch fingerprint" `Quick
      test_launch_fingerprint;
    Alcotest.test_case "cache: LRU eviction and counters" `Quick test_cache_lru;
    Alcotest.test_case "metrics: counters and histograms" `Quick test_metrics;
    Alcotest.test_case "protocol: goldens for every kind" `Quick
      test_protocol_goldens;
    Alcotest.test_case "protocol: explore is deterministic" `Quick
      test_explore_deterministic;
    Alcotest.test_case "protocol: stats shape" `Quick test_stats_shape;
    Alcotest.test_case "protocol: predict trace round-trip and cache"
      `Quick test_predict_trace;
    Alcotest.test_case "protocol: trace on an inline-source predict" `Quick
      test_predict_trace_source_kernel;
    Alcotest.test_case "calibrated: response shape golden" `Quick
      test_calibrated_response_shape;
    Alcotest.test_case "calibrated: distinct cache entries, identical warm hits"
      `Quick test_calibrated_cache_distinct;
    Alcotest.test_case "calibrated: E-NOMODEL without a model" `Quick
      test_calibrated_without_model;
    Alcotest.test_case "fuzz: mutated and garbage requests" `Quick
      test_fuzz_requests;
    Alcotest.test_case "cache: 100 predicts hit >= 99%" `Quick
      test_cache_hit_rate;
    Alcotest.test_case "serve_fd: concurrent batch keeps order" `Quick
      test_serve_fd_batch;
    Alcotest.test_case "framing: oversized and truncated lines" `Quick
      test_frame_errors;
    Alcotest.test_case "deadline: wall-clock budget enforced" `Quick
      test_deadline_expired;
    Alcotest.test_case "admission: overload sheds with retry hint" `Quick
      test_overload_shed;
    Alcotest.test_case "drain: shutdown rejects new work" `Quick
      test_shutdown_drain;
    Alcotest.test_case "single-flight: miss storm computes once" `Quick
      test_single_flight_storm;
    Alcotest.test_case "cache: eviction during in-flight produce" `Quick
      test_cache_eviction_during_flight;
    Alcotest.test_case "cache: failures are never stored" `Quick
      test_failures_never_cached;
    Alcotest.test_case "soak: live heap bounded over 256 distinct kernels"
      `Quick test_soak_live_heap;
  ]
