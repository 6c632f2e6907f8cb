type dim3 = { x : int; y : int; z : int }

let dim3 ?(y = 1) ?(z = 1) x = { x; y; z }

let volume d = d.x * d.y * d.z

type scalar_value = Int of int64 | Float of float

type buffer_init =
  | Zeros
  | Ramp
  | Const_init of float
  | Random_floats of int
  | Random_ints of int * int

type arg =
  | Scalar of scalar_value
  | Buffer of { length : int; init : buffer_init }

type t = {
  global : dim3;
  local : dim3;
  args : (string * arg) list;
  placement : (string * int) list;
      (* buffer name -> DRAM channel; [] = every buffer on channel 0 *)
}

(* Generous sanity bounds: far above anything the paper's sweeps use,
   low enough that a corrupted launch cannot drive the profiler into
   multi-gigabyte allocations or overflow index arithmetic. *)
let max_work_items = 1 lsl 30
let max_buffer_length = 1 lsl 28

let validate_parts ~placement ~global ~local ~args =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let check g l name =
    if l <= 0 then add "local.%s = %d is not positive" name l;
    if g <= 0 then add "global.%s = %d is not positive" name g;
    if l > 0 && g > 0 && g mod l <> 0 then
      add "local.%s = %d does not divide global.%s = %d" name l name g
  in
  check global.x local.x "x";
  check global.y local.y "y";
  check global.z local.z "z";
  if global.x > 0 && global.y > 0 && global.z > 0 then begin
    (* overflow-safe volume check *)
    let v = float_of_int global.x *. float_of_int global.y *. float_of_int global.z in
    if v > float_of_int max_work_items then
      add "NDRange volume %.0f exceeds the supported maximum %d" v max_work_items
  end;
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, arg) ->
      if Hashtbl.mem seen name then add "argument %s bound twice" name;
      Hashtbl.replace seen name ();
      match arg with
      | Buffer { length; _ } ->
          if length < 0 then add "buffer %s has negative length %d" name length
          else if length > max_buffer_length then
            add "buffer %s length %d exceeds the supported maximum %d" name length
              max_buffer_length
      | Scalar (Float f) ->
          if Float.is_nan f then add "scalar %s is NaN" name
      | Scalar (Int _) -> ())
    args;
  let placed = Hashtbl.create 4 in
  List.iter
    (fun (name, chan) ->
      if Hashtbl.mem placed name then add "buffer %s placed twice" name;
      Hashtbl.replace placed name ();
      if chan < 0 then add "buffer %s placed on negative channel %d" name chan;
      match List.assoc_opt name args with
      | Some (Buffer _) -> ()
      | Some (Scalar _) -> add "placement names scalar argument %s" name
      | None -> add "placement names unknown argument %s" name)
    placement;
  List.rev !problems

let validate t =
  validate_parts ~placement:t.placement ~global:t.global ~local:t.local
    ~args:t.args

let make_result ~global ~local ~args =
  match validate_parts ~placement:[] ~global ~local ~args with
  | [] -> Ok { global; local; args; placement = [] }
  | problems -> Error problems

let make ~global ~local ~args =
  match make_result ~global ~local ~args with
  | Ok t -> t
  | Error (p :: _) -> invalid_arg ("Launch.make: " ^ p)
  | Error [] -> assert false

let n_work_items t = volume t.global

let wg_size t = volume t.local

let n_work_groups t = n_work_items t / wg_size t

let find_arg t name = List.assoc_opt name t.args

let scalar_env t =
  List.filter_map
    (fun (name, arg) ->
      match arg with
      | Scalar (Int v) -> Some (name, v)
      | Scalar (Float _) | Buffer _ -> None)
    t.args

let cartesian nx ny nz =
  let out = ref [] in
  for z = nz - 1 downto 0 do
    for y = ny - 1 downto 0 do
      for x = nx - 1 downto 0 do
        out := { x; y; z } :: !out
      done
    done
  done;
  !out

let work_groups t =
  cartesian (t.global.x / t.local.x) (t.global.y / t.local.y)
    (t.global.z / t.local.z)

let local_ids t = cartesian t.local.x t.local.y t.local.z

(* ------------------------------------------------------------------ *)
(* Content fingerprint *)

module Hash = Flexcl_util.Hash

let hash_dim3 h d = Hash.add_int (Hash.add_int (Hash.add_int h d.x) d.y) d.z

let hash_arg h (name, arg) =
  let h = Hash.add_string h name in
  match arg with
  | Scalar (Int v) ->
      Hash.add_int (Hash.add_char h 'i') (Int64.to_int v)
  | Scalar (Float v) ->
      Hash.add_int (Hash.add_char h 'f') (Int64.to_int (Int64.bits_of_float v))
  | Buffer { length; init } ->
      let h = Hash.add_int (Hash.add_char h 'b') length in
      (match init with
      | Zeros -> Hash.add_char h 'z'
      | Ramp -> Hash.add_char h 'r'
      | Const_init v ->
          Hash.add_int (Hash.add_char h 'c')
            (Int64.to_int (Int64.bits_of_float v))
      | Random_floats seed -> Hash.add_int (Hash.add_char h 'F') seed
      | Random_ints (seed, bound) ->
          Hash.add_int (Hash.add_int (Hash.add_char h 'I') seed) bound)

let fingerprint t =
  let h = hash_dim3 Hash.init t.global in
  let h = List.fold_left hash_arg h t.args in
  (* an empty placement folds nothing, so pre-placement fingerprints are
     unchanged (serve cache keys) *)
  let h =
    List.fold_left
      (fun h (name, chan) ->
        Hash.add_int (Hash.add_string (Hash.add_char h 'p') name) chan)
      h t.placement
  in
  Hash.to_hex h

(* ------------------------------------------------------------------ *)
(* Placement helpers *)

let buffer_names t =
  List.filter_map
    (fun (name, arg) -> match arg with Buffer _ -> Some name | Scalar _ -> None)
    t.args

let with_placement t placement = { t with placement }

let with_placement_result t placement =
  let t = { t with placement } in
  match validate t with
  | [] -> Ok t
  | problems -> Error problems

let round_robin_placement t ~n_channels =
  if n_channels <= 1 then []
  else List.mapi (fun i name -> (name, i mod n_channels)) (buffer_names t)
