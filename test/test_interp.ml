(* Interpreter tests: functional execution, tracing, trip counting and
   barrier phase semantics. *)

open Flexcl_opencl
open Flexcl_ir
module Interp = Flexcl_interp.Interp

let check = Alcotest.check

let run ?(max_work_groups = 64) src launch =
  let k = Parser.parse_kernel src in
  let info = Sema.analyze k in
  Interp.run ~max_work_groups k info launch

let buffer p name = Interp.buffer_values (List.assoc name p.Interp.buffers)
let fval = function Interp.F f -> f | Interp.I i -> Int64.to_float i
let ival = function Interp.I i -> i | Interp.F f -> Int64.of_float f

let launch1 ?(n = 64) ?(wg = 16) args =
  Launch.make ~global:(Launch.dim3 n) ~local:(Launch.dim3 wg) ~args

let test_vector_add () =
  let l =
    launch1
      [
        ("a", Launch.Buffer { length = 64; init = Launch.Ramp });
        ("b", Launch.Buffer { length = 64; init = Launch.Ramp });
        ("c", Launch.Buffer { length = 64; init = Launch.Zeros });
      ]
  in
  let p =
    run {|__kernel void f(__global const float* a, __global const float* b,
                          __global float* c) {
            int g = get_global_id(0);
            c[g] = a[g] + b[g];
          }|}
      l
  in
  let c = buffer p "c" in
  for i = 0 to 63 do
    check (Alcotest.float 1e-6) "c[i] = 2i" (2.0 *. float_of_int i) (fval c.(i))
  done

let test_int_arithmetic () =
  let l = launch1 [ ("out", Launch.Buffer { length = 64; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global int* out) {
          int g = get_global_id(0);
          out[g] = (g * 3 + 7) % 5 - (g >> 1) + (g & 3);
        }|}
      l
  in
  let out = buffer p "out" in
  for g = 0 to 63 do
    let expected = ((g * 3) + 7) mod 5 - (g asr 1) + (g land 3) in
    check Alcotest.int (Printf.sprintf "out[%d]" g) expected (Int64.to_int (ival out.(g)))
  done

let test_builtin_ids () =
  let l =
    Launch.make ~global:(Launch.dim3 ~y:4 8) ~local:(Launch.dim3 ~y:2 4)
      ~args:[ ("out", Launch.Buffer { length = 32; init = Launch.Zeros }) ]
  in
  let p =
    run
      {|__kernel void f(__global int* out) {
          int gx = get_global_id(0);
          int gy = get_global_id(1);
          out[gy * 8 + gx] = get_group_id(0) * 100 + get_local_id(0) * 10 + get_local_id(1);
        }|}
      l
  in
  let out = buffer p "out" in
  (* work-item (5, 3): group x = 1, lid x = 1, lid y = 1 *)
  check Alcotest.int "encoded ids" 111 (Int64.to_int (ival out.((3 * 8) + 5)))

let test_loop_and_accumulator () =
  let l = launch1 [ ("out", Launch.Buffer { length = 64; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global float* out) {
          int g = get_global_id(0);
          float s = 0.0f;
          for (int i = 0; i <= g; i++) { s += (float)i; }
          out[g] = s;
        }|}
      l
  in
  let out = buffer p "out" in
  check (Alcotest.float 1e-6) "gauss sum 10" 55.0 (fval out.(10));
  (* trip depends on gid: avg over 64 work-items = mean(1..64) = 32.5 *)
  check (Alcotest.float 1e-6) "avg trips" 32.5 (Interp.trip_of p 0);
  check Alcotest.bool "max trips" true (List.assoc 0 p.Interp.max_trips = 64)

let test_while_break_continue () =
  let l = launch1 [ ("out", Launch.Buffer { length = 64; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global int* out) {
          int g = get_global_id(0);
          int i = 0;
          int acc = 0;
          while (1) {
            i = i + 1;
            if (i > 10) { break; }
            if (i % 2 == 0) { continue; }
            acc += i;
          }
          out[g] = acc;
        }|}
      l
  in
  let out = buffer p "out" in
  (* odd numbers 1..9 sum to 25 *)
  check Alcotest.int "break/continue" 25 (Int64.to_int (ival out.(0)))

let test_barrier_local_exchange () =
  (* classic reversal through local memory: requires phase semantics *)
  let l =
    launch1 ~n:32 ~wg:16
      [
        ("a", Launch.Buffer { length = 32; init = Launch.Ramp });
        ("out", Launch.Buffer { length = 32; init = Launch.Zeros });
      ]
  in
  let p =
    run
      {|__kernel void f(__global const float* a, __global float* out) {
          __local float tile[16];
          int lid = get_local_id(0);
          int gid = get_global_id(0);
          tile[lid] = a[gid];
          barrier(CLK_LOCAL_MEM_FENCE);
          int ls = get_local_size(0);
          out[gid] = tile[ls - 1 - lid];
        }|}
      l
  in
  let out = buffer p "out" in
  (* group 0 reverses 0..15 *)
  check (Alcotest.float 1e-6) "reversed head" 15.0 (fval out.(0));
  (* group 1 reverses 16..31 *)
  check (Alcotest.float 1e-6) "reversed second group" 31.0 (fval out.(16))

let test_trace_order_and_kinds () =
  let l =
    launch1 ~n:16 ~wg:16
      [
        ("a", Launch.Buffer { length = 16; init = Launch.Ramp });
        ("b", Launch.Buffer { length = 16; init = Launch.Zeros });
      ]
  in
  let p =
    run
      {|__kernel void f(__global const float* a, __global float* b) {
          int g = get_global_id(0);
          b[g] = a[g] + a[g + 0];
        }|}
      l
  in
  check Alcotest.int "16 traces" 16 (Array.length p.Interp.wi_traces);
  (* the stored value compiles first, so a's read site is numbered
     before b's write site, and both reads of a share one site *)
  check Alcotest.bool "site table" true
    (p.Interp.sites
    = [|
        { Interp.array = "a"; kind = `Read; elem_bits = 32 };
        { Interp.array = "b"; kind = `Write; elem_bits = 32 };
      |]);
  let site a = p.Interp.sites.(Interp.access_site a) in
  match p.Interp.wi_traces.(3) with
  | [ r1; r2; w ] ->
      check Alcotest.string "first read a" "a" (site r1).Interp.array;
      check Alcotest.int "index" 3 (Interp.access_index r1);
      check Alcotest.bool "read kind" true ((site r1).Interp.kind = `Read);
      check Alcotest.int "second read, same site" (Interp.access_site r1)
        (Interp.access_site r2);
      check Alcotest.int "second index" 3 (Interp.access_index r2);
      check Alcotest.string "write b" "b" (site w).Interp.array;
      check Alcotest.bool "write kind" true ((site w).Interp.kind = `Write);
      check Alcotest.int "elem bits" 32 (site w).Interp.elem_bits
  | t -> Alcotest.failf "unexpected trace length %d" (List.length t)

(* An index takes [Interp.index_bits] bits of a traced access, so a
   buffer too long for them is refused before it is materialized (a
   launch record built by hand can bypass Launch's own bound). *)
let test_traceable_buffer_bound () =
  let length = (1 lsl Interp.index_bits) + 1 in
  let l =
    { (launch1 ~n:16 ~wg:16 []) with
      Launch.args = [ ("b", Launch.Buffer { length; init = Launch.Zeros }) ] }
  in
  match run {|__kernel void f(__global int* b) { b[0] = 1; }|} l with
  | _ -> Alcotest.fail "an untraceable buffer was materialized"
  | exception Interp.Runtime_error m ->
      check Alcotest.string "message"
        (Printf.sprintf "buffer b length %d exceeds the traceable maximum %d" length
           (1 lsl Interp.index_bits))
        m

let test_local_accesses_not_traced () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 16; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global float* b) {
          __local float t[16];
          int lid = get_local_id(0);
          t[lid] = 1.0f;
          b[lid] = t[lid];
        }|}
      l
  in
  (* only the global write (and global read none): local ops invisible *)
  check Alcotest.int "one access" 1 (List.length p.Interp.wi_traces.(0))

let test_out_of_bounds_raises () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 4; init = Launch.Zeros }) ] in
  match
    run {|__kernel void f(__global float* b) { b[get_global_id(0)] = 1.0f; }|} l
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected out-of-bounds error"

let test_div_by_zero_raises () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 16; init = Launch.Zeros }) ] in
  match
    run {|__kernel void f(__global int* b) { int z = 0; b[0] = 1 / z; }|} l
  with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division error"

let test_private_array () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 16; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global float* b) {
          float tmp[8];
          int g = get_global_id(0);
          for (int i = 0; i < 8; i++) { tmp[i] = (float)(i * g); }
          float s = 0.0f;
          for (int i = 0; i < 8; i++) { s += tmp[i]; }
          b[g] = s;
        }|}
      l
  in
  let b = buffer p "b" in
  (* sum i*g for i in 0..7 = 28 g *)
  check (Alcotest.float 1e-6) "private array sum" 56.0 (fval b.(2))

let test_math_builtins () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 16; init = Launch.Zeros }) ] in
  let p =
    run
      {|__kernel void f(__global float* b) {
          b[0] = sqrt(16.0f);
          b[1] = fmax(2.0f, 3.0f);
          b[2] = fabs(-5.5f);
          b[3] = mad(2.0f, 3.0f, 4.0f);
          b[4] = clamp(7.0f, 0.0f, 5.0f);
          b[5] = pow(2.0f, 10.0f);
          b[6] = floor(3.7f);
          b[7] = (float)max(3, 9);
          b[8] = (float)abs(-4);
          b[9] = exp(0.0f);
        }|}
      l
  in
  let b = buffer p "b" in
  let expect i v = check (Alcotest.float 1e-5) (Printf.sprintf "b[%d]" i) v (fval b.(i)) in
  expect 0 4.0;
  expect 1 3.0;
  expect 2 5.5;
  expect 3 10.0;
  expect 4 5.0;
  expect 5 1024.0;
  expect 6 3.0;
  expect 7 9.0;
  expect 8 4.0;
  expect 9 1.0

let test_sampled_profiling_spread () =
  (* 8 work-groups, sample 3: adjacent pair at the start (for
     concurrent-CU interactions) plus the far end of the range *)
  let l =
    launch1 ~n:128 ~wg:16 [ ("b", Launch.Buffer { length = 128; init = Launch.Zeros }) ]
  in
  let p =
    Interp.run ~max_work_groups:3
      (Parser.parse_kernel
         {|__kernel void f(__global int* b) { b[get_global_id(0)] = 1; }|})
      (Sema.analyze
         (Parser.parse_kernel
            {|__kernel void f(__global int* b) { b[get_global_id(0)] = 1; }|}))
      l
  in
  check Alcotest.int "3 groups profiled" 48 p.Interp.n_work_items_profiled;
  let touched =
    Array.to_list p.Interp.wi_traces
    |> List.concat
    |> List.map Interp.access_index
  in
  check Alcotest.bool "first group" true (List.mem 0 touched);
  check Alcotest.bool "adjacent second group" true (List.mem 16 touched);
  check Alcotest.bool "last group" true (List.mem 127 touched)

let value =
  Alcotest.testable
    (fun ppf -> function
      | Interp.I i -> Format.fprintf ppf "I %Ld" i
      | Interp.F f -> Format.fprintf ppf "F %h" f)
    ( = )

let test_buffer_inits () =
  let l =
    launch1 ~n:16 ~wg:16
      [
        ("z", Launch.Buffer { length = 8; init = Launch.Zeros });
        ("r", Launch.Buffer { length = 8; init = Launch.Ramp });
        ("c", Launch.Buffer { length = 8; init = Launch.Const_init 2.5 });
        ("u", Launch.Buffer { length = 8; init = Launch.Random_floats 3 });
        ("k", Launch.Buffer { length = 8; init = Launch.Ramp });
        ("b", Launch.Buffer { length = 16; init = Launch.Zeros });
      ]
  in
  let p =
    run
      {|__kernel void f(__global const float* z, __global const float* r,
                        __global const float* c, __global const float* u,
                        __constant float* k, __global float* b) {
          b[0] = z[0] + r[3] + c[1];
          b[1] = k[2];
        }|}
      l
  in
  let b = buffer p "b" in
  check (Alcotest.float 1e-6) "0 + 3 + 2.5" 5.5 (fval b.(0));
  check value "constant read" (Interp.F 2.0) b.(1);
  let u = buffer p "u" in
  Array.iter (fun v -> check Alcotest.bool "in [0,1)" true (fval v >= 0.0 && fval v < 1.0)) u;
  (* a __constant buffer is global memory: its reads are traced *)
  let site a = p.Interp.sites.(Interp.access_site a) in
  (match p.Interp.wi_traces.(0) with
  | [ _; _; _; _; kr; _ ] ->
      check Alcotest.string "constant site" "k" (site kr).Interp.array;
      check Alcotest.bool "traced as a read" true ((site kr).Interp.kind = `Read);
      check Alcotest.int "constant index" 2 (Interp.access_index kr)
  | t -> Alcotest.failf "unexpected trace length %d" (List.length t));
  (* integer elements under every initializer, a float buffer of random
     integers, and stores that convert as casts do: a float truncates
     toward zero, and a long keeps all 64 bits *)
  let seed = 5 and bound = 1000 in
  let l =
    launch1 ~n:16 ~wg:16
      [
        ("iz", Launch.Buffer { length = 8; init = Launch.Zeros });
        ("ir", Launch.Buffer { length = 8; init = Launch.Ramp });
        ("ic", Launch.Buffer { length = 8; init = Launch.Const_init 2.5 });
        ("iu", Launch.Buffer { length = 8; init = Launch.Random_floats seed });
        ("ii", Launch.Buffer { length = 8; init = Launch.Random_ints (seed, bound) });
        ("fi", Launch.Buffer { length = 8; init = Launch.Random_ints (seed, bound) });
        ("t", Launch.Buffer { length = 2; init = Launch.Zeros });
        ("w", Launch.Buffer { length = 2; init = Launch.Zeros });
      ]
  in
  let p =
    run
      {|__kernel void f(__global const int* iz, __global const int* ir,
                        __global const int* ic, __global const int* iu,
                        __global const int* ii, __global const float* fi,
                        __global int* t, __global long* w) {
          t[0] = -2.7f;
          w[0] = ((long)1 << 60) + 1;
          w[1] = w[0];
        }|}
      l
  in
  let expect name f = check (Alcotest.array value) name (Array.init 8 f) (buffer p name) in
  let draws draw =
    let rng = Flexcl_util.Prng.create seed in
    let xs = Array.init 8 (fun _ -> draw rng) in
    fun i -> xs.(i)
  in
  expect "iz" (fun _ -> Interp.I 0L);
  expect "ir" (fun i -> Interp.I (Int64.of_int i));
  expect "ic" (fun _ -> Interp.I 2L);
  expect "iu"
    (draws (fun rng ->
         Interp.I (Int64.of_float (Flexcl_util.Prng.float rng 1.0 *. 100.0))));
  expect "ii"
    (draws (fun rng -> Interp.I (Int64.of_int (Flexcl_util.Prng.int rng bound))));
  expect "fi"
    (draws (fun rng -> Interp.F (float_of_int (Flexcl_util.Prng.int rng bound))));
  check value "float truncates toward zero" (Interp.I (-2L)) (buffer p "t").(0);
  let big = Int64.add (Int64.shift_left 1L 60) 1L in
  check (Alcotest.array value) "long round trip" [| Interp.I big; Interp.I big |]
    (buffer p "w")

let test_determinism () =
  let l =
    launch1
      [
        ("a", Launch.Buffer { length = 64; init = Launch.Random_floats 9 });
        ("b", Launch.Buffer { length = 64; init = Launch.Zeros });
      ]
  in
  let src =
    {|__kernel void f(__global const float* a, __global float* b) {
        b[get_global_id(0)] = a[get_global_id(0)] * 2.0f;
      }|}
  in
  let p1 = run src l and p2 = run src l in
  let b1 = buffer p1 "b" and b2 = buffer p2 "b" in
  Array.iteri
    (fun i v -> check (Alcotest.float 0.0) "bitwise equal" (fval v) (fval b2.(i)))
    b1

(* qcheck: interpreter against a native OCaml evaluation of an affine map *)
let prop_affine_kernel_matches =
  QCheck.Test.make ~name:"interpreted affine kernel matches native evaluation"
    ~count:50
    QCheck.(triple (int_range (-10) 10) (int_range (-10) 10) (int_range 1 4))
    (fun (c0, c1, stride) ->
      let src =
        Printf.sprintf
          {|__kernel void f(__global int* b) {
              int g = get_global_id(0);
              b[g] = %d + %d * (g * %d);
            }|}
          c0 c1 stride
      in
      let l =
        launch1 ~n:32 ~wg:16
          [ ("b", Launch.Buffer { length = 32; init = Launch.Zeros }) ]
      in
      let p = run src l in
      let b = buffer p "b" in
      List.for_all
        (fun g -> Int64.to_int (ival b.(g)) = c0 + (c1 * g * stride))
        (List.init 32 Fun.id))

(* The exact messages of the run-time faults, each raised by the node
   that faults. *)
let test_runtime_error_messages () =
  let l = launch1 ~n:16 ~wg:16 [ ("b", Launch.Buffer { length = 4; init = Launch.Zeros }) ] in
  let expect ?(l = l) msg src =
    match run src l with
    | exception Interp.Runtime_error m -> check Alcotest.string msg msg m
    | _ -> Alcotest.failf "expected %S" msg
  in
  expect "out-of-bounds read b[9] (length 4)"
    {|__kernel void f(__global int* b) { int x = b[get_global_id(0) + 9]; }|};
  expect "out-of-bounds write b[4] (length 4)"
    {|__kernel void f(__global int* b) { b[get_global_id(0) + 4] = 1; }|};
  expect "out-of-bounds write t[-1] (length 2)"
    {|__kernel void f(__global int* b) { int t[2]; t[get_global_id(0) - 1] = 1; }|};
  expect "integer division by zero"
    {|__kernel void f(__global int* b) { int z = 0; b[0] = 1 / z; }|};
  expect "integer modulo by zero"
    {|__kernel void f(__global int* b) { int z = 0; b[0] = 1 % z; }|};
  expect
    ~l:(launch1 ~n:16 ~wg:16 [ ("b", Launch.Scalar (Launch.Int 3L)) ])
    "b is not an array"
    {|__kernel void f(__global int* b) { int x = b[0]; }|};
  (* faults sema rejects, reached by running a body under the types of
     a well-typed kernel: each raises only when its node executes *)
  let info =
    Sema.analyze (Parser.parse_kernel {|__kernel void f(__global int* b) { b[0] = 1; }|})
  in
  let unchecked body =
    Interp.run (Parser.parse_kernel ("__kernel void f(__global int* b) { " ^ body ^ " }"))
      info l
  in
  let expect_unchecked msg body =
    match unchecked body with
    | exception Interp.Runtime_error m -> check Alcotest.string msg msg m
    | _ -> Alcotest.failf "expected %S" msg
  in
  ignore (unchecked "if (0) { b[0] = foo(y, b[0][1]); } b[0] = 1;");
  expect_unchecked "call to unknown function foo" "b[0] = foo(1);";
  expect_unchecked "sqrt: wrong number of arguments" "b[0] = sqrt(1.0f, 2.0f);";
  expect_unchecked "variable y is unbound" "b[0] = y;";
  expect_unchecked "x is not an array" "int x = 0; b[0] = x[0];";
  expect_unchecked "array b used as scalar" "b[0] = b;";
  let k = Parser.parse_kernel {|__kernel void f(__global int* b) { while (1) { } }|} in
  match Interp.run ~max_steps:1000 k (Sema.analyze k) l with
  | exception Interp.Profile_budget_exceeded n -> check Alcotest.int "budget" 1000 n
  | _ -> Alcotest.fail "expected fuel exhaustion"

(* An analysis keeps its profile without the final buffer contents (no
   model reads them; every cached analysis would keep them alive), while
   the interpreter itself still returns them. *)
let test_analysis_drops_buffers () =
  let a = Thelpers.sample_analysis () in
  check Alcotest.int "analysis keeps no buffers" 0
    (List.length a.Flexcl_core.Analysis.profile.Interp.buffers);
  let p =
    Interp.run ~max_work_groups:3 a.Flexcl_core.Analysis.kernel
      a.Flexcl_core.Analysis.sema a.Flexcl_core.Analysis.launch
  in
  check
    Alcotest.(list string)
    "run returns every buffer" [ "a"; "b"; "c" ]
    (List.sort compare (List.map fst p.Interp.buffers));
  check Alcotest.int "same traces" 0
    (compare p.Interp.wi_traces a.Flexcl_core.Analysis.profile.Interp.wi_traces)

(* Every profile the model is fed, pinned bitwise in
   test/goldens/profiles.golden (see [Gen.profile_digest]): any change
   to the interpreter that moves a trip count, a trace entry, a pipe
   count or a buffer value fails here with a per-row diff. The fuel/
   rows pin the step rule: the run succeeds at exactly the pinned
   [max_steps] and exhausts its fuel one step below, and a run with the
   default fuel reports that many [steps]. *)
let test_profiles_golden () =
  let pinned = Gen.golden_data "profiles.golden" in
  let is_fuel l = String.length l > 5 && String.sub l 0 5 = "fuel/" in
  let digests = List.filter (fun l -> not (is_fuel l)) pinned in
  let current = List.map Gen.profile_line (Gen.profile_digest_rows ()) in
  check Alcotest.int "profile row count" (List.length digests)
    (List.length current);
  List.iter2
    (fun expect got -> check Alcotest.string "profile row" expect got)
    digests current;
  let fuel = List.filter is_fuel pinned in
  check Alcotest.int "fuel row count" (List.length Gen.fuel_kernels)
    (List.length fuel);
  List.iter2
    (fun (name, src, launch) line ->
      match String.split_on_char '|' line with
      | [ _; _; steps ] ->
          let steps = int_of_string (String.trim steps) in
          check Alcotest.bool (name ^ ": succeeds at pinned fuel") true
            (Gen.fuel_runs src launch steps);
          check Alcotest.bool (name ^ ": exhausts one step below") false
            (Gen.fuel_runs src launch (steps - 1));
          check Alcotest.int (name ^ ": reports the steps it spent") steps
            (Gen.fuel_spent src launch)
      | _ -> Alcotest.failf "malformed fuel row %S" line)
    Gen.fuel_kernels fuel

let suite =
  [
    Alcotest.test_case "interp: vector add" `Quick test_vector_add;
    Alcotest.test_case "interp: integer arithmetic" `Quick test_int_arithmetic;
    Alcotest.test_case "interp: work-item ids" `Quick test_builtin_ids;
    Alcotest.test_case "interp: loops and accumulators" `Quick test_loop_and_accumulator;
    Alcotest.test_case "interp: while/break/continue" `Quick test_while_break_continue;
    Alcotest.test_case "interp: barrier exchange" `Quick test_barrier_local_exchange;
    Alcotest.test_case "interp: trace order" `Quick test_trace_order_and_kinds;
    Alcotest.test_case "interp: local not traced" `Quick test_local_accesses_not_traced;
    Alcotest.test_case "interp: out-of-bounds" `Quick test_out_of_bounds_raises;
    Alcotest.test_case "interp: division by zero" `Quick test_div_by_zero_raises;
    Alcotest.test_case "interp: private arrays" `Quick test_private_array;
    Alcotest.test_case "interp: math builtins" `Quick test_math_builtins;
    Alcotest.test_case "interp: sampled profiling" `Quick test_sampled_profiling_spread;
    Alcotest.test_case "interp: buffer initializers" `Quick test_buffer_inits;
    Alcotest.test_case "interp: determinism" `Quick test_determinism;
    Alcotest.test_case "interp: runtime error messages" `Quick
      test_runtime_error_messages;
    Alcotest.test_case "interp: analyses drop buffers" `Quick
      test_analysis_drops_buffers;
    Alcotest.test_case "interp: profiles match profiles.golden" `Slow
      test_profiles_golden;
    QCheck_alcotest.to_alcotest prop_affine_kernel_matches;
    Alcotest.test_case "interp: traceable buffer bound" `Quick
      test_traceable_buffer_bound;
  ]
