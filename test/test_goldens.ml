(* Golden regression table: the best default-space design point and its
   full-precision cycle count per bundled workload, pinned in
   test/goldens/cycles.golden. A model change that moves any optimum —
   even by one ulp — fails here with a per-line diff; if the movement is
   intended, regenerate with `make promote` and commit the diff. *)

let check = Alcotest.check

let test_golden_cycles () =
  let pinned = Gen.golden_data "cycles.golden" in
  let current = List.map Gen.golden_line (Gen.golden_cycles_rows ()) in
  check Alcotest.int "golden row count" (List.length pinned)
    (List.length current);
  List.iter2
    (fun expect got -> check Alcotest.string "golden row" expect got)
    pinned current

let test_golden_file_well_formed () =
  (* every data line is "workload | config | float", and workloads appear
     in corpus order with no duplicates *)
  let data = Gen.golden_data "cycles.golden" in
  check Alcotest.bool "non-empty table" true (List.length data > 10);
  let names =
    List.map
      (fun line ->
        match String.split_on_char '|' line with
        | [ name; _cfg; cycles ] ->
            (match float_of_string_opt (String.trim cycles) with
            | Some c when Float.is_finite c && c > 0.0 -> ()
            | _ -> Alcotest.failf "bad cycles in %S" line);
            String.trim name
        | _ -> Alcotest.failf "malformed golden line %S" line)
      data
  in
  check Alcotest.int "no duplicate workloads"
    (List.length names)
    (List.length (List.sort_uniq compare names))

(* Every point of every bundled sweep, on a 1-channel and a 32-channel
   device: see [Gen.sweep_rows]. *)
let test_golden_sweeps () =
  let pinned = Gen.golden_data "sweeps.golden" in
  let current = List.map Gen.sweep_line (Gen.sweep_rows ()) in
  check Alcotest.int "sweep row count" (List.length pinned)
    (List.length current);
  List.iter2
    (fun expect got -> check Alcotest.string "sweep row" expect got)
    pinned current

let suite =
  [
    Alcotest.test_case "golden file is well-formed" `Quick
      test_golden_file_well_formed;
    Alcotest.test_case "best point per workload matches cycles.golden" `Slow
      test_golden_cycles;
    Alcotest.test_case "every sweep ranking matches sweeps.golden" `Slow
      test_golden_sweeps;
  ]
