open Flexcl_opencl
open Flexcl_ir

exception Runtime_error of string
exception Profile_budget_exceeded of int

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

let default_max_steps = 10_000_000

type value = I of int64 | F of float

let to_float = function I i -> Int64.to_float i | F f -> f
let to_int = function I i -> i | F f -> Int64.of_float f

type access = {
  array : string;
  index : int;
  kind : [ `Read | `Write ];
  elem_bits : int;
}

type profile = {
  avg_trips : (int * float) list;
  max_trips : (int * int) list;
  wi_traces : access list array;
  n_work_items_profiled : int;
  buffers : (string * value array) list;
  pipe_counts : (string * (float * float)) list;
      (* pipe name -> (reads, writes) per profiled work-item *)
}

let trip_of p loop_id =
  Option.value (List.assoc_opt loop_id p.avg_trips) ~default:0.0

(* ------------------------------------------------------------------ *)
(* Buffers *)

let elem_scalar ty =
  match Types.elem ty with
  | Types.Scalar s -> s
  | t -> err "unsupported buffer element type %s" (Types.to_string t)

let materialize_buffer ty (init : Launch.buffer_init) length =
  let s = elem_scalar ty in
  let is_int = Types.is_integer s in
  let mk f = Array.init length f in
  match init with
  | Launch.Zeros -> mk (fun _ -> if is_int then I 0L else F 0.0)
  | Launch.Ramp ->
      mk (fun i -> if is_int then I (Int64.of_int i) else F (float_of_int i))
  | Launch.Const_init c ->
      mk (fun _ -> if is_int then I (Int64.of_float c) else F c)
  | Launch.Random_floats seed ->
      let rng = Flexcl_util.Prng.create seed in
      mk (fun _ ->
          let x = Flexcl_util.Prng.float rng 1.0 in
          if is_int then I (Int64.of_float (x *. 100.0)) else F x)
  | Launch.Random_ints (seed, bound) ->
      let rng = Flexcl_util.Prng.create seed in
      mk (fun _ ->
          let x = Flexcl_util.Prng.int rng (max 1 bound) in
          if is_int then I (Int64.of_int x) else F (float_of_int x))

(* ------------------------------------------------------------------ *)
(* Execution state *)

(* The state of one run. The compiled kernel closes over it, so it is
   made per run and never shared between runs, or between the domains
   that profile concurrently. *)
type run = {
  launch : Launch.t;
  wg_locals : (string, value array) Hashtbl.t;  (* cleared per work-group *)
  trip_sum : int array;  (* loop id -> total iterations *)
  trip_entries : int array;
  trip_max : int array;
  pipe_reads : (string, int) Hashtbl.t;  (* pipe name -> packets read *)
  pipe_writes : (string, int) Hashtbl.t;  (* pipe name -> packets written *)
  max_steps : int;  (* fuel budget for the whole profile *)
  mutable fuel : int;  (* steps remaining *)
}

(* A work-item's variables, by the slot the compiler gave each name: a
   slot holds a scalar in [vals] or an array in [arrs], or neither. The
   two sentinels are allocated at start-up, so no value the interpreter
   computes or materializes is physically equal to them. *)
let unbound : value = I (Sys.opaque_identity 0L)
let no_array : value array = [| unbound |]

type wi = {
  vals : value array;
  arrs : value array array;
  mutable trace : access list;  (* reversed *)
  gid : Launch.dim3;
  lid : Launch.dim3;
  grp : Launch.dim3;
}

let bind_scalar wi s v =
  wi.vals.(s) <- v;
  if wi.arrs.(s) != no_array then wi.arrs.(s) <- no_array

let bind_array wi s a =
  wi.arrs.(s) <- a;
  if wi.vals.(s) != unbound then wi.vals.(s) <- unbound

(* One unit of fuel per executed statement and per loop iteration, so
   non-terminating kernels (even with empty loop bodies) are cut off. *)
let spend r =
  r.fuel <- r.fuel - 1;
  if r.fuel < 0 then raise (Profile_budget_exceeded r.max_steps)

let note_trip r id iters =
  r.trip_sum.(id) <- r.trip_sum.(id) + iters;
  r.trip_entries.(id) <- r.trip_entries.(id) + 1;
  if iters > r.trip_max.(id) then r.trip_max.(id) <- iters

(* Bumps a pipe's packet counter; yields the count before the bump. *)
let count tbl name =
  let n = Option.value (Hashtbl.find_opt tbl name) ~default:0 in
  Hashtbl.replace tbl name (n + 1);
  n

exception Break_exc
exception Continue_exc
exception Return_exc

let special_float_constants =
  [ ("INFINITY", infinity); ("FLT_MAX", 3.402823e38); ("FLT_MIN", 1.175494e-38) ]

let special_int_constants =
  [
    ("CLK_LOCAL_MEM_FENCE", 1L);
    ("CLK_GLOBAL_MEM_FENCE", 2L);
    ("INT_MAX", 2147483647L);
    ("INT_MIN", -2147483648L);
  ]

let pick (d : Launch.dim3) dim =
  match dim with 0 -> d.Launch.x | 1 -> d.Launch.y | 2 -> d.Launch.z | _ -> 1

let is_float_scalar ty =
  match ty with Types.Scalar s -> Types.is_float s | _ -> false

let is_global_space ty =
  match Types.addr_space_of ty with
  | Some (Types.Global | Types.Constant) -> true
  | Some _ | None -> false

let truthy = function I i -> i <> 0L | F f -> f <> 0.0
let i_true = I 1L
let i_false = I 0L
let of_bool c = if c then i_true else i_false
let as_float = function F _ as v -> v | I i -> F (Int64.to_float i)
let as_int = function I _ as v -> v | F f -> I (Int64.of_float f)
let index_of v = Int64.to_int (to_int v)

let compare_values va vb =
  match (va, vb) with
  | I x, I y -> Int64.compare x y
  | _, _ -> Float.compare (to_float va) (to_float vb)

let int_binop op a b =
  match op with
  | Ast.Add -> Int64.add a b
  | Ast.Sub -> Int64.sub a b
  | Ast.Mul -> Int64.mul a b
  | Ast.Div -> if b = 0L then err "integer division by zero" else Int64.div a b
  | Ast.Mod -> if b = 0L then err "integer modulo by zero" else Int64.rem a b
  | Ast.Band -> Int64.logand a b
  | Ast.Bor -> Int64.logor a b
  | Ast.Bxor -> Int64.logxor a b
  | Ast.Shl -> Int64.shift_left a (Int64.to_int b)
  | Ast.Shr -> Int64.shift_right a (Int64.to_int b)
  | Ast.Land | Ast.Lor | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      assert false

(* Linearized element index for a (possibly multi-dim) access. *)
let rec inner_sizes ty n =
  if n = 0 then []
  else
    match ty with
    | Types.Array (inner, _) | Types.Ptr (_, inner) ->
        let this =
          match inner with Types.Array (_, d) -> d | _ -> 1
        in
        this :: inner_sizes inner (n - 1)
    | _ -> [ 1 ]

let linear_index dims = function
  | [] -> 0
  | first :: rest ->
      let rec combine acc rest dims =
        match (rest, dims) with
        | [], _ -> acc
        | i :: rest, d :: ds -> combine ((acc * d) + i) rest ds
        | i :: rest, [] -> combine (acc + i) rest []
      in
      combine first rest dims

let private_array_length ty =
  let rec total = function
    | Types.Array (inner, n) -> n * total inner
    | _ -> 1
  in
  total ty

let math1 = function
  | Builtins.Sqrt -> sqrt
  | Builtins.Rsqrt -> fun x -> 1.0 /. sqrt x
  | Builtins.Exp -> exp
  | Builtins.Exp2 -> Float.exp2
  | Builtins.Log -> log
  | Builtins.Log2 -> Float.log2
  | Builtins.Sin -> sin
  | Builtins.Cos -> cos
  | Builtins.Tan -> tan
  | Builtins.Atan -> atan
  | Builtins.Fabs -> Float.abs
  | Builtins.Floor -> Float.floor
  | Builtins.Ceil -> Float.ceil
  | Builtins.Round -> Float.round

(* ------------------------------------------------------------------ *)
(* Compilation: once per run, the kernel body becomes closures over the
   run state that take the work-item. Names resolve to slots, builtins
   to their implementations, access sites to their address space,
   element width and dimensions, loops to their ids. Execution order is
   that of a direct walk of the syntax tree: operands, call arguments
   and indices evaluate left to right, an array store evaluates its
   value before its indices, and a construct that cannot run (unknown
   name or function, wrong arity, non-array) raises its error only when
   reached, with the message the walk would give. *)

type scope = {
  r : run;
  info : Sema.info;
  slots : (string, int) Hashtbl.t;
  mutable next_loop : int;  (* source pre-order, as Flexcl_ir.Lower numbers *)
}

let slot sc name =
  match Hashtbl.find_opt sc.slots name with
  | Some s -> s
  | None ->
      let s = Hashtbl.length sc.slots in
      Hashtbl.add sc.slots name s;
      s

let var_type sc v = Hashtbl.find_opt sc.info.Sema.var_types v
let unknown_variable v = Printf.sprintf "unknown variable %s at runtime" v

let array_error wi s arr =
  if wi.vals.(s) != unbound then err "%s is not an array" arr
  else err "array %s not bound" arr

let array_of wi s arr =
  let a = wi.arrs.(s) in
  if a != no_array then a else array_error wi s arr

let check_bounds what arr buf i =
  if i < 0 || i >= Array.length buf then
    err "out-of-bounds %s %s[%d] (length %d)" what arr i (Array.length buf)

let rec compile_expr sc (e : Ast.expr) : wi -> value =
  match e with
  | Ast.Int_lit i ->
      let v = I i in
      fun _ -> v
  | Ast.Float_lit f ->
      let v = F f in
      fun _ -> v
  | Ast.Var v -> (
      let s = slot sc v in
      let constant =
        match List.assoc_opt v special_int_constants with
        | Some i -> Some (I i)
        | None -> Option.map (fun f -> F f) (List.assoc_opt v special_float_constants)
      in
      fun wi ->
        let x = wi.vals.(s) in
        if x != unbound then x
        else if wi.arrs.(s) != no_array then err "array %s used as scalar" v
        else
          match constant with
          | Some c -> c
          | None -> err "variable %s is unbound" v)
  | Ast.Cast (ty, a) ->
      let ca = compile_expr sc a in
      if is_float_scalar ty then fun wi -> as_float (ca wi)
      else fun wi -> as_int (ca wi)
  | Ast.Unop (Ast.Neg, a) -> (
      let ca = compile_expr sc a in
      fun wi -> match ca wi with I i -> I (Int64.neg i) | F f -> F (-.f))
  | Ast.Unop (Ast.Bnot, a) ->
      let ca = compile_expr sc a in
      fun wi -> I (Int64.lognot (to_int (ca wi)))
  | Ast.Unop (Ast.Lnot, a) ->
      let ca = compile_expr sc a in
      fun wi -> of_bool (not (truthy (ca wi)))
  | Ast.Ternary (c, a, b) ->
      let cc = compile_expr sc c in
      let ca = compile_expr sc a in
      let cb = compile_expr sc b in
      fun wi -> if truthy (cc wi) then ca wi else cb wi
  | Ast.Binop (op, a, b) ->
      let ca = compile_expr sc a in
      let cb = compile_expr sc b in
      compile_binop op ca cb
  | Ast.Index (Ast.Var arr, idxs) -> compile_read sc arr idxs
  | Ast.Index _ -> fun _ -> err "unsupported indexed expression"
  | Ast.Call (f, args) -> compile_call sc f args

and compile_binop op ca cb =
  let cmp test wi =
    let va = ca wi in
    let vb = cb wi in
    of_bool (test (compare_values va vb))
  in
  match op with
  | Ast.Land -> fun wi -> of_bool (truthy (ca wi) && truthy (cb wi))
  | Ast.Lor -> fun wi -> of_bool (truthy (ca wi) || truthy (cb wi))
  | Ast.Eq -> cmp (fun c -> c = 0)
  | Ast.Ne -> cmp (fun c -> c <> 0)
  | Ast.Lt -> cmp (fun c -> c < 0)
  | Ast.Le -> cmp (fun c -> c <= 0)
  | Ast.Gt -> cmp (fun c -> c > 0)
  | Ast.Ge -> cmp (fun c -> c >= 0)
  | Ast.Add -> (
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        match (va, vb) with
        | I x, I y -> I (Int64.add x y)
        | _, _ -> F (to_float va +. to_float vb))
  | Ast.Sub -> (
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        match (va, vb) with
        | I x, I y -> I (Int64.sub x y)
        | _, _ -> F (to_float va -. to_float vb))
  | Ast.Mul -> (
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        match (va, vb) with
        | I x, I y -> I (Int64.mul x y)
        | _, _ -> F (to_float va *. to_float vb))
  | Ast.Div -> (
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        match (va, vb) with
        | I x, I y -> I (int_binop op x y)
        | _, _ -> F (to_float va /. to_float vb))
  | Ast.Mod -> (
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        match (va, vb) with
        | I x, I y -> I (int_binop op x y)
        | _, _ -> F (Float.rem (to_float va) (to_float vb)))
  | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr ->
      fun wi ->
        let va = ca wi in
        let vb = cb wi in
        I (int_binop op (to_int va) (to_int vb))

(* The element index of [arr[i0][i1]...]: the indices evaluate left to
   right, then linearize with the dimensions of [arr]'s type. *)
and compile_index sc arr s idxs : wi -> int =
  match idxs with
  | [ e ] ->
      let c = compile_expr sc e in
      fun wi -> index_of (c wi)
  | _ -> (
      let cs = List.map (compile_expr sc) idxs in
      let eval wi = List.map (fun c -> index_of (c wi)) cs in
      match var_type sc arr with
      | Some ty ->
          let dims = inner_sizes ty (List.length idxs - 1) in
          fun wi -> linear_index dims (eval wi)
      | None ->
          (* an unbound or non-array name is reported first *)
          fun wi ->
            ignore (eval wi);
            ignore (array_of wi s arr);
            raise (Runtime_error (unknown_variable arr)))

and compile_read sc arr idxs =
  let s = slot sc arr in
  let index = compile_index sc arr s idxs in
  let fail msg wi =
    let i = index wi in
    check_bounds "read" arr (array_of wi s arr) i;
    raise (Runtime_error msg)
  in
  match var_type sc arr with
  | None -> fail (unknown_variable arr)
  | Some ty when not (is_global_space ty) ->
      fun wi ->
        let i = index wi in
        let buf = array_of wi s arr in
        check_bounds "read" arr buf i;
        Array.unsafe_get buf i
  | Some ty -> (
      match Types.elem ty with
      | Types.Scalar e ->
          let elem_bits = Types.scalar_bits e in
          fun wi ->
            let i = index wi in
            let buf = array_of wi s arr in
            check_bounds "read" arr buf i;
            wi.trace <- { array = arr; index = i; kind = `Read; elem_bits } :: wi.trace;
            Array.unsafe_get buf i
      | t -> fail ("unsupported buffer element type " ^ Types.to_string t))

and compile_write sc arr idxs e =
  let r = sc.r in
  let ce = compile_expr sc e in
  let s = slot sc arr in
  let index = compile_index sc arr s idxs in
  let fail msg wi =
    spend r;
    ignore (ce wi);
    let i = index wi in
    check_bounds "write" arr (array_of wi s arr) i;
    raise (Runtime_error msg)
  in
  match var_type sc arr with
  | None -> fail (unknown_variable arr)
  | Some ty -> (
      match Types.elem ty with
      | Types.Scalar elem ->
          let conv = if Types.is_integer elem then as_int else as_float in
          if is_global_space ty then
            let elem_bits = Types.scalar_bits elem in
            fun wi ->
              spend r;
              let v = ce wi in
              let i = index wi in
              let buf = array_of wi s arr in
              check_bounds "write" arr buf i;
              Array.unsafe_set buf i (conv v);
              wi.trace <- { array = arr; index = i; kind = `Write; elem_bits } :: wi.trace
          else fun wi ->
            spend r;
            let v = ce wi in
            let i = index wi in
            let buf = array_of wi s arr in
            check_bounds "write" arr buf i;
            Array.unsafe_set buf i (conv v)
      | t -> fail ("unsupported buffer element type " ^ Types.to_string t))

and compile_call sc f args =
  let r = sc.r in
  match Builtins.find f with
  | None -> fun _ -> err "call to unknown function %s" f
  | Some Builtins.Pipe_read -> (
      (* pipes carry no launch data; reads yield a deterministic ramp
         (the i-th packet read from a pipe is i), mirroring Launch.Ramp *)
      match args with
      | [ Ast.Var p ] -> (
          match var_type sc p with
          | Some (Types.Pipe s) when Types.is_integer s ->
              fun _ -> I (Int64.of_int (count r.pipe_reads p))
          | Some (Types.Pipe _) -> fun _ -> F (float_of_int (count r.pipe_reads p))
          | Some t ->
              fun _ ->
                ignore (count r.pipe_reads p);
                err "read_pipe: %s has type %s, not pipe" p (Types.to_string t)
          | None ->
              fun _ ->
                ignore (count r.pipe_reads p);
                raise (Runtime_error (unknown_variable p)))
      | _ -> fun _ -> err "read_pipe: argument must name a pipe parameter")
  | Some Builtins.Pipe_write -> (
      match args with
      | [ Ast.Var p; payload ] ->
          let cp = compile_expr sc payload in
          fun wi ->
            ignore (cp wi);
            ignore (count r.pipe_writes p);
            i_true (* success status *)
      | _ -> fun _ -> err "write_pipe: first argument must name a pipe parameter")
  | Some b -> (
      let cs = List.map (compile_expr sc) args in
      match (b, cs) with
      | Builtins.Wi fn, [ d ] ->
          let global = r.launch.Launch.global and local = r.launch.Launch.local in
          let get : wi -> int -> int =
            match fn with
            | Builtins.Get_global_id -> fun wi dim -> pick wi.gid dim
            | Builtins.Get_local_id -> fun wi dim -> pick wi.lid dim
            | Builtins.Get_group_id -> fun wi dim -> pick wi.grp dim
            | Builtins.Get_global_size -> fun _ dim -> pick global dim
            | Builtins.Get_local_size -> fun _ dim -> pick local dim
            | Builtins.Get_num_groups -> fun _ dim -> pick global dim / pick local dim
          in
          fun wi -> I (Int64.of_int (get wi (index_of (d wi))))
      | Builtins.Math1 m, [ a ] ->
          let g = math1 m in
          fun wi -> F (g (to_float (a wi)))
      | Builtins.Math2 m, [ a; b ] -> (
          let both g wi =
            let va = a wi in
            let vb = b wi in
            F (g (to_float va) (to_float vb))
          in
          match m with
          | Builtins.Max | Builtins.Min -> (
              let keep_max = m = Builtins.Max in
              fun wi ->
                let va = a wi in
                let vb = b wi in
                match (va, vb) with
                | I x, I y -> I (if (x > y) = keep_max then x else y)
                | _, _ ->
                    let x = to_float va and y = to_float vb in
                    F (if (x > y) = keep_max then x else y))
          | Builtins.Fmax -> both Float.max
          | Builtins.Fmin -> both Float.min
          | Builtins.Pow -> both Float.pow
          | Builtins.Fmod -> both Float.rem
          | Builtins.Atan2 -> both Float.atan2
          | Builtins.Hypot -> both Float.hypot)
      | Builtins.Math3 m, [ a; b; c ] -> (
          let three g wi =
            let va = a wi in
            let vb = b wi in
            let vc = c wi in
            F (g (to_float va) (to_float vb) (to_float vc))
          in
          match m with
          | Builtins.Mad | Builtins.Fma -> three (fun x y z -> (x *. y) +. z)
          | Builtins.Clamp -> three (fun x lo hi -> Float.min (Float.max x lo) hi)
          | Builtins.Mix -> three (fun x y t -> x +. ((y -. x) *. t)))
      | Builtins.Abs, [ a ] -> fun wi -> I (Int64.abs (to_int (a wi)))
      | ( ( Builtins.Wi _ | Builtins.Math1 _ | Builtins.Math2 _ | Builtins.Math3 _
          | Builtins.Abs | Builtins.Pipe_read | Builtins.Pipe_write ),
          _ ) ->
          fun wi ->
            List.iter (fun c -> ignore (c wi)) cs;
            err "%s: wrong number of arguments" f)

(* Every statement spends one unit of fuel before it runs. *)
and compile_stmt sc (s : Ast.stmt) : wi -> unit =
  let r = sc.r in
  match s with
  | Ast.Decl ((Types.Array _ as ty), v, _) -> (
      let s = slot sc v in
      let len = private_array_length ty in
      match Types.elem ty with
      | Types.Scalar elem ->
          let zero = if Types.is_integer elem then I 0L else F 0.0 in
          fun wi ->
            spend r;
            bind_array wi s (Array.make len zero)
      | t ->
          fun _ ->
            spend r;
            err "unsupported buffer element type %s" (Types.to_string t))
  | Ast.Decl (ty, v, init) -> (
      let s = slot sc v in
      let is_float = is_float_scalar ty in
      match init with
      | Some e ->
          let ce = compile_expr sc e in
          if is_float then fun wi ->
            spend r;
            bind_scalar wi s (as_float (ce wi))
          else fun wi ->
            spend r;
            bind_scalar wi s (as_int (ce wi))
      | None ->
          let zero = if is_float then F 0.0 else I 0L in
          fun wi ->
            spend r;
            bind_scalar wi s zero)
  | Ast.Local_decl (ty, v) ->
      let s = slot sc v in
      fun wi ->
        spend r;
        let buf =
          match Hashtbl.find_opt r.wg_locals v with
          | Some b -> b
          | None ->
              let len = private_array_length ty in
              let elem = elem_scalar ty in
              let zero = if Types.is_integer elem then I 0L else F 0.0 in
              let b = Array.make len zero in
              Hashtbl.replace r.wg_locals v b;
              b
        in
        bind_array wi s buf
  | Ast.Assign (Ast.Lvar v, e) -> (
      let ce = compile_expr sc e in
      let s = slot sc v in
      match var_type sc v with
      | Some ty when is_float_scalar ty ->
          fun wi ->
            spend r;
            bind_scalar wi s (as_float (ce wi))
      | Some _ ->
          fun wi ->
            spend r;
            bind_scalar wi s (as_int (ce wi))
      | None ->
          fun wi ->
            spend r;
            ignore (ce wi);
            raise (Runtime_error (unknown_variable v)))
  | Ast.Assign (Ast.Lindex (arr, idxs), e) -> compile_write sc arr idxs e
  | Ast.If (c, t, e) ->
      let cc = compile_expr sc c in
      let ct = compile_block sc t in
      let ce = compile_block sc e in
      fun wi ->
        spend r;
        if truthy (cc wi) then ct wi else ce wi
  | Ast.For (hdr, body, _) ->
      let id = new_loop sc in
      let init = compile_opt sc hdr.Ast.init in
      let cond =
        match hdr.Ast.cond with
        | Some c ->
            let cc = compile_expr sc c in
            fun wi -> truthy (cc wi)
        | None -> fun _ -> true
      in
      let step = compile_opt sc hdr.Ast.step in
      let body = compile_body sc body in
      fun wi ->
        spend r;
        init wi;
        let iters = ref 0 in
        (try
           while cond wi do
             incr iters;
             spend r;
             body wi;
             step wi
           done
         with Break_exc -> ());
        note_trip r id !iters
  | Ast.While (c, body, _) ->
      let id = new_loop sc in
      let cc = compile_expr sc c in
      let body = compile_body sc body in
      fun wi ->
        spend r;
        let iters = ref 0 in
        (try
           while truthy (cc wi) do
             incr iters;
             spend r;
             body wi
           done
         with Break_exc -> ());
        note_trip r id !iters
  | Ast.Barrier -> fun _ -> spend r (* phases are split at the work-group level *)
  | Ast.Return _ ->
      fun _ ->
        spend r;
        raise Return_exc
  | Ast.Break ->
      fun _ ->
        spend r;
        raise Break_exc
  | Ast.Continue ->
      fun _ ->
        spend r;
        raise Continue_exc
  | Ast.Expr_stmt e ->
      let ce = compile_expr sc e in
      fun wi ->
        spend r;
        ignore (ce wi)

and new_loop sc =
  let id = sc.next_loop in
  sc.next_loop <- id + 1;
  id

and compile_opt sc = function
  | Some s -> compile_stmt sc s
  | None -> fun _ -> ()

and compile_block sc stmts =
  let rec chain = function
    | [] -> fun _ -> ()
    | [ s ] -> s
    | s :: rest ->
        let rest = chain rest in
        fun wi ->
          s wi;
          rest wi
  in
  chain (List.map (compile_stmt sc) stmts)

(* A loop body ends an iteration early on [continue]. *)
and compile_body sc stmts =
  let body = compile_block sc stmts in
  fun wi -> try body wi with Continue_exc -> ()

(* ------------------------------------------------------------------ *)
(* Work-group / NDRange driver *)

let barriers_are_top_level (body : Ast.stmt list) =
  let nested = ref false in
  let rec check_nested stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s with
        | Ast.Barrier -> nested := true
        | Ast.If (_, t, e) ->
            check_nested t;
            check_nested e
        | Ast.For (_, b, _) | Ast.While (_, b, _) -> check_nested b
        | _ -> ())
      stmts
  in
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Barrier -> ()
      | Ast.If (_, t, e) ->
          check_nested t;
          check_nested e
      | Ast.For (_, b, _) | Ast.While (_, b, _) -> check_nested b
      | _ -> ())
    body;
  not !nested

let split_at_barriers (body : Ast.stmt list) : Ast.stmt list list =
  let phases = ref [] and current = ref [] in
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Barrier ->
          phases := List.rev !current :: !phases;
          current := []
      | other -> current := other :: !current)
    body;
  phases := List.rev !current :: !phases;
  List.rev !phases

(* Argument binding, resolved once per run: one action per parameter, in
   order; a parameter that cannot be bound raises when a work-item is
   bound, as before any statement runs. *)
let compile_args sc (k : Ast.kernel) globals =
  List.filter_map
    (fun (p : Ast.param) ->
      let name = p.Ast.p_name in
      let s = slot sc name in
      match Launch.find_arg sc.r.launch name with
      | Some (Launch.Scalar (Launch.Int i)) ->
          let v = I i in
          Some (fun wi -> bind_scalar wi s v)
      | Some (Launch.Scalar (Launch.Float f)) ->
          let v = F f in
          Some (fun wi -> bind_scalar wi s v)
      | Some (Launch.Buffer _) -> (
          match Hashtbl.find_opt globals name with
          | Some buf -> Some (fun wi -> bind_array wi s buf)
          | None -> Some (fun _ -> err "buffer %s not materialized" name))
      | None -> (
          match p.Ast.p_type with
          | Types.Pipe _ -> None (* pipes are channels, not launch arguments *)
          | _ -> (
              (* __local params are allocated per work-group *)
              match Types.addr_space_of p.Ast.p_type with
              | Some Types.Local -> None
              | _ -> Some (fun _ -> err "missing argument %s" name))))
    k.Ast.k_params

let run_gen ~max_work_groups ~max_steps (k : Ast.kernel) (info : Sema.info)
    (launch : Launch.t) =
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (name, arg) ->
      match arg with
      | Launch.Buffer { length; init } ->
          let p = List.find_opt (fun (p : Ast.param) -> p.Ast.p_name = name) k.Ast.k_params in
          let ty =
            match p with
            | Some p -> p.Ast.p_type
            | None -> err "argument %s does not match any parameter" name
          in
          Hashtbl.replace globals name (materialize_buffer ty init length)
      | Launch.Scalar _ -> ())
    launch.Launch.args;
  let n_loops = ref 0 in
  Ast.iter_stmts
    (function Ast.For _ | Ast.While _ -> incr n_loops | _ -> ())
    k.Ast.k_body;
  let r =
    {
      launch;
      wg_locals = Hashtbl.create 8;
      trip_sum = Array.make !n_loops 0;
      trip_entries = Array.make !n_loops 0;
      trip_max = Array.make !n_loops 0;
      pipe_reads = Hashtbl.create 4;
      pipe_writes = Hashtbl.create 4;
      max_steps;
      fuel = max_steps;
    }
  in
  let sc = { r; info; slots = Hashtbl.create 32; next_loop = 0 } in
  let bind_args = compile_args sc k globals in
  let top_level_barriers = barriers_are_top_level k.Ast.k_body in
  let phases =
    List.map (compile_block sc)
      (if top_level_barriers then split_at_barriers k.Ast.k_body else [ k.Ast.k_body ])
  in
  let n_slots = Hashtbl.length sc.slots in
  let wgs = Launch.work_groups launch in
  (* sample work-groups across the NDRange: the first two (adjacent, so
     concurrent-CU interactions are observable) plus evenly spaced ones,
     so kernels whose work density varies with position profile
     representatively *)
  let n_wgs = List.length wgs in
  let selected =
    if max_work_groups >= n_wgs then wgs
    else
      let k = max_work_groups in
      let wanted =
        (if k >= 2 then [ 0; 1 ] else [ 0 ])
        @ List.init (max 0 (k - 2)) (fun i ->
              2 + ((i + 1) * (n_wgs - 3) / max 1 (k - 2)))
        |> List.sort_uniq compare
      in
      List.filteri (fun i _ -> List.mem i wanted) wgs
  in
  let lids = Launch.local_ids launch in
  let traces = ref [] in
  List.iter
    (fun grp ->
      Hashtbl.reset r.wg_locals;
      (* one persistent state per work-item of this group *)
      let states =
        List.map
          (fun lid ->
            let gid =
              {
                Launch.x = (grp.Launch.x * launch.Launch.local.Launch.x) + lid.Launch.x;
                y = (grp.Launch.y * launch.Launch.local.Launch.y) + lid.Launch.y;
                z = (grp.Launch.z * launch.Launch.local.Launch.z) + lid.Launch.z;
              }
            in
            let wi =
              {
                vals = Array.make n_slots unbound;
                arrs = Array.make n_slots no_array;
                trace = [];
                gid;
                lid;
                grp;
              }
            in
            List.iter (fun bind -> bind wi) bind_args;
            wi)
          lids
      in
      List.iter
        (fun phase ->
          List.iter (fun wi -> try phase wi with Return_exc -> ()) states)
        phases;
      List.iter (fun wi -> traces := List.rev wi.trace :: !traces) states)
    selected;
  let ids = List.init !n_loops Fun.id in
  let avg_trips =
    List.filter_map
      (fun id ->
        let entries = r.trip_entries.(id) in
        if entries = 0 then None
        else Some (id, float_of_int r.trip_sum.(id) /. float_of_int entries))
      ids
  in
  let max_trips =
    List.filter_map
      (fun id -> if r.trip_max.(id) > 0 then Some (id, r.trip_max.(id)) else None)
      ids
  in
  let n_profiled = List.length selected * Launch.wg_size launch in
  let pipe_counts =
    let per_wi tbl name =
      float_of_int (Option.value (Hashtbl.find_opt tbl name) ~default:0)
      /. float_of_int (max 1 n_profiled)
    in
    List.map
      (fun (name, _) ->
        (name, (per_wi r.pipe_reads name, per_wi r.pipe_writes name)))
      info.Sema.pipes
  in
  {
    avg_trips;
    max_trips;
    wi_traces = Array.of_list (List.rev !traces);
    n_work_items_profiled = n_profiled;
    buffers = Hashtbl.fold (fun name buf acc -> (name, buf) :: acc) globals [];
    pipe_counts;
  }

let run ?(max_work_groups = 2) ?(max_steps = default_max_steps) k info launch =
  run_gen ~max_work_groups ~max_steps k info launch

let run_all ?(max_steps = default_max_steps) k info launch =
  run_gen ~max_work_groups:(Launch.n_work_groups launch) ~max_steps k info launch
