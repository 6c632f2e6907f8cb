(* Output correctness: each served response against the benchmark's own
   reference, computed outside every timed interval. *)

module Json = Flexcl_util.Json
module Trace = Flexcl_util.Trace

let ( let* ) = Result.bind
let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let need what = function Some x -> Ok x | None -> Error ("response lacks " ^ what)
let num v k = Option.bind (Json.member k v) Json.to_float

let result resp =
  let* v = Result.map_error (fun m -> "unparsable response: " ^ m) (Json.of_string resp) in
  if Json.member "ok" v = Some (Json.Bool true) then need "result" (Json.member "result" v)
  else Error ("error response: " ^ resp)

type expect = { cycles : float; calibrated : float option; trace : bool }

(* served cycles bit-identical to Model.estimate, calibrated cycles to
   Learn.calibrated_estimate, every trace conserving with its root at
   the served cycles *)
let predict e resp =
  let* r = result resp in
  let* c = need "cycles" (num r "cycles") in
  let* () =
    if same c e.cycles then Ok ()
    else Error (Printf.sprintf "cycles %.17g, expected %.17g" c e.cycles)
  in
  let* () =
    match e.calibrated with
    | None -> Ok ()
    | Some x ->
        let* y = need "cycles_calibrated" (num r "cycles_calibrated") in
        if same x y then Ok ()
        else Error (Printf.sprintf "cycles_calibrated %.17g, expected %.17g" y x)
  in
  if not e.trace then Ok ()
  else
    let* tj = need "trace" (Json.member "trace" r) in
    let* tr = Trace.of_json tj in
    let* () = Trace.check tr in
    if same tr.Trace.cycles c then Ok () else Error "trace root differs from cycles"

(* the ranked top point equals the kernel's cycles.golden row (config
   and %.17g cycles); returns the feasible-point count *)
let explore (cfg, cycles) resp =
  let* r = result resp in
  let* points = need "points" (Option.bind (Json.member "points" r) Json.to_list) in
  let* feasible = need "feasible" (Option.bind (Json.member "feasible" r) Json.to_int) in
  match points with
  | top :: _ ->
      let got_cfg =
        Option.value ~default:"" (Option.bind (Json.member "config" top) Json.to_str)
      in
      let got = Option.fold ~none:"" ~some:(Printf.sprintf "%.17g") (num top "cycles") in
      if got_cfg = cfg && got = cycles then Ok feasible
      else Error (Printf.sprintf "best point %s | %s, golden %s | %s" got_cfg got cfg cycles)
  | [] -> Error "explore ranked no point"
