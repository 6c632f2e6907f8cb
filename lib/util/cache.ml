(* LRU via a generation stamp per entry: hits and inserts restamp with a
   monotone counter, eviction removes the minimum-stamp entry with a
   linear scan. Bounded tables are small (hundreds of artifacts), so the
   O(capacity) scan per eviction is noise next to what they cache. A key
   being computed holds a [Pending] slot, which is neither counted nor
   evicted. *)

type 'v entry = { mutable stamp : int; value : 'v }
type 'v slot = Pending | Ready of 'v entry

type ('k, 'v) t = {
  mutex : Mutex.t;
  landed : Condition.t;  (* broadcast when a pending key lands or is released *)
  tbl : ('k, 'v slot) Hashtbl.t;
  capacity : int;
  mutable size : int;  (* [Ready] slots *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = max_int) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  {
    mutex = Mutex.create ();
    landed = Condition.create ();
    tbl = Hashtbl.create (min capacity 16);
    capacity;
    size = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* Everything below that touches the fields runs under [t.mutex]. *)

let hit t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick;
  t.hits <- t.hits + 1;
  e.value

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k slot acc ->
        match (slot, acc) with
        | Ready e, Some (_, stamp) when e.stamp < stamp -> Some (k, e.stamp)
        | Ready e, None -> Some (k, e.stamp)
        | _ -> acc)
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.size <- t.size - 1;
      t.evictions <- t.evictions + 1
  | None -> ()

let store t k v =
  (match Hashtbl.find_opt t.tbl k with
  | Some (Ready _) ->
      Hashtbl.remove t.tbl k;
      t.size <- t.size - 1
  | Some Pending | None -> ());
  while t.size >= t.capacity do
    evict_lru t
  done;
  t.tick <- t.tick + 1;
  Hashtbl.replace t.tbl k (Ready { stamp = t.tick; value = v });
  t.size <- t.size + 1;
  Condition.broadcast t.landed

let find t k =
  Mutex.lock t.mutex;
  let r =
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready e) -> Some (hit t e)
    | Some Pending | None ->
        t.misses <- t.misses + 1;
        None
  in
  Mutex.unlock t.mutex;
  r

let add t k v =
  Mutex.lock t.mutex;
  store t k v;
  Mutex.unlock t.mutex

let find_or_add t k f =
  Mutex.lock t.mutex;
  let rec await () =
    match Hashtbl.find_opt t.tbl k with
    | Some (Ready e) ->
        let v = hit t e in
        Mutex.unlock t.mutex;
        (true, v)
    | Some Pending ->
        Condition.wait t.landed t.mutex;
        await ()
    | None -> (
        t.misses <- t.misses + 1;
        Hashtbl.replace t.tbl k Pending;
        Mutex.unlock t.mutex;
        match f () with
        | v ->
            add t k v;
            (false, v)
        | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.mutex;
            (match Hashtbl.find_opt t.tbl k with
            | Some Pending -> Hashtbl.remove t.tbl k
            | Some (Ready _) | None -> ());
            Condition.broadcast t.landed;
            Mutex.unlock t.mutex;
            Printexc.raise_with_backtrace exn bt)
  in
  await ()

let memo t k f = snd (find_or_add t k f)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let stats (t : (_, _) t) =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      size = t.size;
      capacity = t.capacity;
    }
  in
  Mutex.unlock t.mutex;
  s

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.tbl;
  t.size <- 0;
  Condition.broadcast t.landed;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Per-owner side tables: an ephemeron table maps each live owner to its
   own unbounded [t]. The ephemeron keeps the inner table alive only
   while the owner is reachable from elsewhere, so a value pointing back
   at its owner does not pin either. Ephemeron tables are not
   domain-safe, hence the mutex around the owner lookup. *)

let owned (type o) ~(hash : o -> int) () : o -> ('k, 'v) t =
  let module E = Ephemeron.K1.Make (struct
    type t = o

    let equal = ( == )
    let hash = hash
  end) in
  let tables = E.create 16 in
  let mutex = Mutex.create () in
  fun owner ->
    Mutex.lock mutex;
    let t =
      match E.find_opt tables owner with
      | Some t -> t
      | None ->
          let t = create () in
          E.replace tables owner t;
          t
    in
    Mutex.unlock mutex;
    t
