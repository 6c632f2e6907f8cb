(* Per-layer spans for the traced replays: a monotonic timer around each
   public call into a layer, aggregated by span name in memory and
   written out when the replay ends. Every span names its parent, so the
   aggregate is a tree that is checked like a cycle trace: a parent's
   time covers its children's, and what they leave is shown as the
   parent's unattributed self time. *)

module Json = Flexcl_util.Json
module Stats = Flexcl_util.Stats

let now_ns () = Monotonic_clock.now ()
let since_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

type stat = {
  parent : string;  (* "" for a root *)
  mutable total_ns : float;
  mutable calls : int;
  mutable samples : float list;  (* per-call durations *)
}

type t = { stats : (string, stat) Hashtbl.t; mutable order : string list }

let create () = { stats = Hashtbl.create 32; order = [] }

(* [calls > 1] records one timed batch of that many like calls *)
let record t ?(calls = 1) ~parent name ns =
  let s =
    match Hashtbl.find_opt t.stats name with
    | Some s -> s
    | None ->
        let s = { parent; total_ns = 0.0; calls = 0; samples = [] } in
        Hashtbl.replace t.stats name s;
        t.order <- name :: t.order;
        s
  in
  s.total_ns <- s.total_ns +. ns;
  s.calls <- s.calls + calls;
  s.samples <- (ns /. float_of_int calls) :: s.samples

let time t ~parent name f =
  let t0 = now_ns () in
  let r = f () in
  record t ~parent name (since_ns t0);
  r

(* ------------------------------------------------------------------ *)
(* The aggregate, as a replay writes it and the runner reads it back *)

type row = {
  name : string;
  parent : string;
  total_ns : float;
  calls : int;
  p50_ns : float;  (* median per-call duration *)
}

let rows t =
  List.rev_map
    (fun name ->
      let s = Hashtbl.find t.stats name in
      { name; parent = s.parent; total_ns = s.total_ns; calls = s.calls;
        p50_ns = Stats.median s.samples })
    t.order

let row_to_json r =
  Json.Obj
    [ ("name", Json.Str r.name); ("parent", Json.Str r.parent);
      ("total_ns", Json.Num r.total_ns); ("calls", Json.int r.calls);
      ("p50_ns", Json.Num r.p50_ns) ]

let row_of_json j =
  let num k = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float) in
  let str k = Option.value ~default:"" (Option.bind (Json.member k j) Json.to_str) in
  { name = str "name"; parent = str "parent"; total_ns = num "total_ns";
    calls = int_of_float (num "calls"); p50_ns = num "p50_ns" }

let children rows name = List.filter (fun r -> r.parent = name) rows

let self_ns rows r =
  r.total_ns -. List.fold_left (fun acc c -> acc +. c.total_ns) 0.0 (children rows r.name)

(* Conservation: children never sum to more than their parent. Each
   child span is timed inside its parent's interval, so a violation
   means a span hangs under the wrong parent. *)
let check rows =
  List.filter_map
    (fun r ->
      let self = self_ns rows r in
      if self < 0.0 then
        Some
          (Printf.sprintf "%s: children sum to %.3f ms, more than its %.3f ms"
             r.name ((r.total_ns -. self) /. 1e6) (r.total_ns /. 1e6))
      else None)
    rows

(* One line per span, indented under its parent: calls, total and self
   time, share of the root; each parent ends with its unattributed
   remainder. *)
let render rows =
  let buf = Buffer.create 2048 in
  let line depth name calls total self share =
    Buffer.add_string buf
      (Printf.sprintf "  %s%-*s %8s %11.3f %11.3f %6.1f%%\n"
         (String.make (2 * depth) ' ')
         (34 - (2 * depth)) name calls (total /. 1e6) (self /. 1e6) share)
  in
  Buffer.add_string buf
    (Printf.sprintf "  %-34s %8s %11s %11s %7s\n" "span" "calls" "total ms"
       "self ms" "share");
  let rec go root depth r =
    let share ns = if root <= 0.0 then 0.0 else 100.0 *. ns /. root in
    let self = self_ns rows r in
    line depth r.name (string_of_int r.calls) r.total_ns self (share r.total_ns);
    let kids = children rows r.name in
    List.iter (go root (depth + 1)) kids;
    if kids <> [] then line (depth + 1) "(unattributed)" "" self self (share self)
  in
  List.iter (fun r -> if r.parent = "" then go r.total_ns 0 r) rows;
  Buffer.contents buf
