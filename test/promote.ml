(* Regenerate test/goldens/cycles.golden and test/goldens/profiles.golden
   from the current model and interpreter.

   Run deliberately, by hand, when the model or the interpreter
   legitimately moves:

     make promote        (dune exec test/promote.exe)

   then review the diff — every changed cycles line is a workload whose
   best default-space design point or its cycle count moved, and every
   changed profiles line is a launch whose interpreter profile (trip
   counts, traces, pipe counts, buffers) or exact fuel moved, which is
   exactly what the golden tables exist to make loud. *)

let write path header lines =
  let oc = open_out path in
  List.iter (fun h -> output_string oc ("# " ^ h ^ "\n")) header;
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  Printf.printf "promote: wrote %d rows to %s\n" (List.length lines) path

let () =
  let dir =
    match Sys.argv with
    | [| _; dir |] -> dir
    | _ -> Filename.concat "test" "goldens"
  in
  write
    (Filename.concat dir "cycles.golden")
    [
      "Best default-space design point per bundled workload on Virtex-7";
      "(default options). Format: workload | config | cycles (%.17g).";
      "Regenerate deliberately with `make promote`.";
    ]
    (List.map Gen.golden_line (Gen.golden_cycles_rows ()));
  write
    (Filename.concat dir "profiles.golden")
    [
      "Interpreter profile per launch (3 work-groups, as Analysis.analyze";
      "profiles): every corpus kernel at its own launch and at each other";
      "default-space work-group size, every pipeline stage, the sample";
      "kernel. Format: name | wg | digest (Flexcl_util.Hash of trips,";
      "traces, pipe counts and buffers; see test/gen.ml). fuel/ rows hold";
      "the smallest max_steps for which Interp.run succeeds instead.";
      "Regenerate deliberately with `make promote`.";
    ]
    (List.map Gen.profile_line (Gen.profile_digest_rows () @ Gen.fuel_rows ()))
