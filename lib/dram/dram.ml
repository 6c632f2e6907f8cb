type kind = Read | Write

type pattern = { kind : kind; prev : kind; row_hit : bool }

let all_patterns =
  [
    { kind = Read; prev = Read; row_hit = true };
    { kind = Read; prev = Write; row_hit = true };
    { kind = Write; prev = Read; row_hit = true };
    { kind = Write; prev = Write; row_hit = true };
    { kind = Read; prev = Read; row_hit = false };
    { kind = Read; prev = Write; row_hit = false };
    { kind = Write; prev = Read; row_hit = false };
    { kind = Write; prev = Write; row_hit = false };
  ]

let pattern_name p =
  let k = match p.kind with Read -> "R" | Write -> "W" in
  let pr = match p.prev with Read -> "R" | Write -> "W" in
  Printf.sprintf "%sA%s.%s" k pr (if p.row_hit then "hit" else "miss")

type config = {
  n_channels : int;
  n_banks : int;
  row_bytes : int;
  interleave_bytes : int;
  access_unit_bits : int;
  t_cas : int;
  t_rcd : int;
  t_rp : int;
  t_bus : int;
  t_wtr : int;
  t_rtw : int;
  refresh_interval : int;
  t_rfc : int;
  queue_depth : int;
}

let ddr3_config =
  {
    n_channels = 1;
    n_banks = 8;
    row_bytes = 1024;
    interleave_bytes = 64;
    access_unit_bits = 512;
    t_cas = 3;
    t_rcd = 3;
    t_rp = 3;
    t_bus = 2;
    t_wtr = 2;
    t_rtw = 1;
    refresh_interval = 1560;
    t_rfc = 32;
    queue_depth = 0;
  }

let hbm2_config =
  (* Alveo U280-class HBM2: 32 pseudo-channels, each a narrower (256-bit
     AXI port) bank machine with small row buffers and a bounded
     outstanding-transaction queue per channel.  Timings stay in kernel
     clock cycles like [ddr3_config]. *)
  {
    n_channels = 32;
    n_banks = 16;
    row_bytes = 1024;
    interleave_bytes = 64;
    access_unit_bits = 256;
    t_cas = 3;
    t_rcd = 3;
    t_rp = 3;
    t_bus = 1;
    t_wtr = 2;
    t_rtw = 1;
    refresh_interval = 1560;
    t_rfc = 26;
    queue_depth = 8;
  }

(* ------------------------------------------------------------------ *)
(* Channel addressing *)

(* Each channel owns a disjoint 2^40-byte address region; buffer placement
   picks the region, and [chan_of]/[bank_of]/[row_of] decode within it.
   Every address a 1-channel device ever sees is far below 2^40, so the
   decode is bitwise identical to the pre-channel model there. *)
let chan_shift = 40
let chan_region = 1 lsl chan_shift

let chan_of cfg addr =
  if cfg.n_channels <= 1 then 0
  else min (addr lsr chan_shift) (cfg.n_channels - 1)

(* ------------------------------------------------------------------ *)
(* Layout *)

type layout = (string * int) list (* name -> base address *)

type placement = (string * int) list (* buffer name -> channel *)

let placement_error cfg placement ~buffers =
  let rec check = function
    | [] -> None
    | (name, chan) :: rest ->
        if not (List.mem name buffers) then
          Some
            (Printf.sprintf
               "unknown buffer %S in placement (kernel buffers: %s)" name
               (match buffers with
               | [] -> "none"
               | _ -> String.concat ", " buffers))
        else if chan < 0 || chan >= cfg.n_channels then
          Some
            (Printf.sprintf
               "buffer %S placed on channel %d, but device has %d channel%s \
                (valid: 0..%d)"
               name chan cfg.n_channels
               (if cfg.n_channels = 1 then "" else "s")
               (cfg.n_channels - 1))
        else check rest
  in
  check placement

let layout ?(placement = []) buffers =
  let row_align = 1024 in
  let chan_of_name name =
    match List.assoc_opt name placement with
    | Some c ->
        if c < 0 then
          invalid_arg
            (Printf.sprintf "Dram.layout: buffer %S placed on negative channel %d"
               name c)
        else c
    | None -> 0
  in
  let chans =
    List.sort_uniq compare (List.map (fun (n, _) -> chan_of_name n) buffers)
  in
  List.concat_map
    (fun chan ->
      let mine = List.filter (fun (n, _) -> chan_of_name n = chan) buffers in
      let rec place addr = function
        | [] -> []
        | (name, bytes) :: rest ->
            let aligned = (addr + row_align - 1) / row_align * row_align in
            (name, aligned) :: place (aligned + bytes) rest
      in
      place (chan * chan_region) mine)
    chans

let base l name =
  match List.assoc_opt name l with
  | Some b -> b
  | None ->
      (* a bare [Not_found] escaping here is useless in a batch sweep;
         name the missing buffer and what the layout actually holds so
         the total [_result] API reports a meaningful diagnostic *)
      invalid_arg
        (Printf.sprintf "Dram.base: unknown buffer %S (layout has: %s)" name
           (match l with
           | [] -> "no buffers"
           | _ -> String.concat ", " (List.map fst l)))

let address l name ~elem_bits i = base l name + (i * (elem_bits / 8))

(* ------------------------------------------------------------------ *)
(* Coalescing *)

module Interp = Flexcl_interp.Interp

type txn = { addr : int; t_kind : kind; bytes : int }

let merge cfg l (sites : Interp.site array) ~cross_wi traces emit =
  let unit_bytes = cfg.access_unit_bits / 8 in
  let n_sites = Array.length sites in
  (* per site: its buffer (the lowest-numbered site on the same name),
     a key equal for the sites of one kind on one buffer, and its
     element bytes; per buffer, its base address, resolved when its
     first transaction starts *)
  let name s = sites.(s).Interp.array in
  let buffer =
    Array.init n_sites (fun s ->
        let rec first b = if name b = name s then b else first (b + 1) in
        first 0)
  in
  let key =
    Array.init n_sites (fun s ->
        (2 * buffer.(s))
        + match sites.(s).Interp.kind with `Read -> 0 | `Write -> 1)
  in
  let elem_bytes =
    Array.map (fun (site : Interp.site) -> site.Interp.elem_bits / 8) sites
  in
  let bases = Array.make n_sites (-1) in
  (* The open transaction ([open_key] = -1 when there is none): its
     buffer, its first access's index and element bytes, its bytes so
     far and the index one past its end. *)
  let open_key = ref (-1) and buf = ref 0 and first = ref 0 and eb = ref 0 in
  let bytes = ref 0 and next = ref 0 in
  let flush () =
    if !open_key >= 0 then begin
      emit
        (bases.(!buf) + (!first * !eb))
        (if !open_key land 1 = 0 then Read else Write)
        !bytes;
      open_key := -1
    end
  in
  (* An access of the open transaction's kind and buffer rides along
     when it repeats the last element (a broadcast, e.g. every
     work-item reading the same coefficient) and extends the
     transaction when it lies one element past the end and still fits
     the access unit; any other access ends it and opens the next. *)
  let feed a =
    let s = Interp.access_site a and i = Interp.access_index a in
    if key.(s) = !open_key && i = !next - 1 then ()
    else if key.(s) = !open_key && i = !next && !bytes + !eb <= unit_bytes
    then begin
      bytes := !bytes + !eb;
      next := i + 1
    end
    else begin
      flush ();
      let b = buffer.(s) in
      if bases.(b) < 0 then bases.(b) <- base l (name s);
      open_key := key.(s);
      buf := b;
      first := i;
      eb := elem_bytes.(s);
      bytes := !eb;
      next := i + 1
    end
  in
  if cross_wi then begin
    (* position by position, skipping work-items that have run out *)
    let arrs =
      Array.map
        (fun trace ->
          let a = Array.make (List.length trace) (Interp.access ~site:0 0) in
          List.iteri (fun i x -> a.(i) <- x) trace;
          a)
        traces
    in
    let max_len =
      Array.fold_left (fun m a -> Int.max m (Array.length a)) 0 arrs
    in
    for i = 0 to max_len - 1 do
      Array.iter (fun a -> if i < Array.length a then feed a.(i)) arrs
    done
  end
  else
    Array.iter
      (fun trace ->
        List.iter feed trace;
        flush ())
      traces;
  flush ()

let chan_offset addr = addr land (chan_region - 1)

let bank_of cfg addr = chan_offset addr / cfg.interleave_bytes mod cfg.n_banks

let row_of cfg addr =
  chan_offset addr / (cfg.interleave_bytes * cfg.n_banks)
  / (cfg.row_bytes / cfg.interleave_bytes)

(* ------------------------------------------------------------------ *)
(* Packed transaction streams *)

(* Every transaction is decoded once, when its stream is packed, into
   two ints: [row lsl 1 lor write] and [bus lsl bank_bits lor bank].
   [bank] numbers the banks of all channels consecutively
   ([chan * n_banks + bank_of]) and [bus] is the data-bus cycles the
   transaction holds, so replay and classification never divide an
   address again.  Each field fits its bits: rows stay below 2{^40}
   (the channel region), every consumer keeps state per bank (so far
   fewer than 2{^31} banks), and a transaction spans a few access
   units. *)
type stream = int array

let bank_bits = 31
let bank_mask = (1 lsl bank_bits) - 1

(* Decode transaction [i] of stream [s] into place. *)
let encode cfg (s : stream) i addr kind bytes =
  let unit_bytes = cfg.access_unit_bits / 8 in
  let bank = (chan_of cfg addr * cfg.n_banks) + bank_of cfg addr in
  let bus = Int.max 1 ((bytes + unit_bytes - 1) / unit_bytes) * cfg.t_bus in
  s.(2 * i) <-
    (row_of cfg addr lsl 1) lor (match kind with Read -> 0 | Write -> 1);
  s.((2 * i) + 1) <- (bus lsl bank_bits) lor bank

let pack cfg txns =
  let s = Array.make (2 * List.length txns) 0 in
  List.iteri (fun i t -> encode cfg s i t.addr t.t_kind t.bytes) txns;
  s

(* Transactions are decoded into blocks small enough for the minor heap
   and copied into the stream once their number is known, so a stream
   leaves no large garbage behind. *)
let coalesce cfg l sites ~cross_wi traces =
  let block = 256 in
  let full = ref [] and cur = ref (Array.make block 0) and used = ref 0 in
  merge cfg l sites ~cross_wi traces (fun addr kind bytes ->
      if !used = block then begin
        full := !cur :: !full;
        cur := Array.make block 0;
        used := 0
      end;
      encode cfg !cur (!used / 2) addr kind bytes;
      used := !used + 2);
  let n = (List.length !full * block) + !used in
  let s = Array.make n 0 in
  Array.blit !cur 0 s (n - !used) !used;
  List.iteri
    (fun i b -> Array.blit b 0 s (n - !used - ((i + 1) * block)) block)
    !full;
  s

let length (s : stream) = Array.length s / 2

(* ------------------------------------------------------------------ *)
(* Pattern classification *)

let n_patterns = 8

(* Bank state is tracked per channel: the first access to each channel's
   bank is a miss-after-read, independently of activity on other
   channels, and warmup replay primes every channel's banks the same
   way.  With one channel this degenerates to the original single bank
   array.  [last.(b)] is bank [b]'s last [row lsl 1 lor write] (row -1,
   a read, before its first access) and [counts] holds [n_patterns]
   counts per bank. *)
let classify ~warmup cfg streams =
  let n_banks = max 1 cfg.n_channels * cfg.n_banks in
  let last = Array.make n_banks (-2) in
  let counts = Array.make (n_banks * n_patterns) 0 in
  let run ~count (s : stream) =
    for i = 0 to length s - 1 do
      let rw = s.(2 * i) in
      let b = s.((2 * i) + 1) land bank_mask in
      let prev = last.(b) in
      if count then begin
        (* the pattern's position in [all_patterns]: hits before misses,
           then this access's kind, then the previous one's *)
        let k =
          (b * n_patterns)
          + (if prev asr 1 = rw asr 1 then 0 else 4)
          + (2 * (rw land 1))
          + (prev land 1)
        in
        counts.(k) <- counts.(k) + 1
      end;
      last.(b) <- rw
    done
  in
  Array.iter (run ~count:false) warmup;
  Array.iter (run ~count:true) streams;
  counts

(* The counts of channel [chan]'s banks, summed pattern by pattern. *)
let channel_counts cfg counts ~chan =
  List.mapi
    (fun i p ->
      let n = ref 0 in
      for b = chan * cfg.n_banks to ((chan + 1) * cfg.n_banks) - 1 do
        n := !n + counts.((b * n_patterns) + i)
      done;
      (p, !n))
    all_patterns

let pattern_counts_by_channel ?(warmup = [||]) cfg streams =
  let counts = classify ~warmup cfg streams in
  Array.init (max 1 cfg.n_channels) (fun chan -> channel_counts cfg counts ~chan)

let pattern_counts ?(warmup = [||]) cfg streams =
  (* elementwise sum over channels, so per-channel counts always sum to
     the single-stream counts by construction *)
  let by_chan = pattern_counts_by_channel ~warmup cfg streams in
  List.mapi
    (fun i p ->
      (p, Array.fold_left (fun acc l -> acc + snd (List.nth l i)) 0 by_chan))
    all_patterns

(* ------------------------------------------------------------------ *)
(* Timing *)

let turnaround cfg ~prev_write ~write =
  if prev_write = write then 0 else if write then cfg.t_rtw else cfg.t_wtr

let pattern_latency cfg p =
  let core =
    if p.row_hit then cfg.t_cas + cfg.t_bus
    else cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_bus
  in
  core + turnaround cfg ~prev_write:(p.prev = Write) ~write:(p.kind = Write)

module Sim = struct
  (* one independent controller per channel: its own banks, its own data
     bus, its own refresh clock, and (when [queue_depth > 0]) a bounded
     set of outstanding-transaction slots — a transaction arriving while
     every slot is in flight queues until the earliest one retires *)
  type chan = {
    mutable bus_free : int;  (* per-channel data bus: one transfer at a time *)
    mutable next_refresh : int;
    slots : int array;       (* completion cycles; [||] = unbounded queue *)
  }

  type bank = {
    chan : chan;
    mutable row : int;
    mutable busy_until : int;
    mutable last_write : bool;
  }

  type t = {
    cfg : config;
    banks : bank array;  (* every channel's, numbered as in [pack] *)
    mutable reads : int;
    mutable writes : int;
  }

  let create cfg =
    let mk_chan () =
      {
        bus_free = 0;
        next_refresh = cfg.refresh_interval;
        slots = Array.make (max 0 cfg.queue_depth) 0;
      }
    in
    let chans = Array.init (max 1 cfg.n_channels) (fun _ -> mk_chan ()) in
    {
      cfg;
      banks =
        Array.init (Array.length chans * cfg.n_banks) (fun b ->
            {
              chan = chans.(b / cfg.n_banks);
              row = -1;
              busy_until = 0;
              last_write = false;
            });
      reads = 0;
      writes = 0;
    }

  (* Service transaction [i] of a packed stream arriving at cycle [now];
     returns its completion cycle. *)
  let step t ~now (s : stream) i =
    let cfg = t.cfg in
    let rw = s.(2 * i) and bb = s.((2 * i) + 1) in
    let b = t.banks.(bb land bank_mask) in
    let c = b.chan in
    (* admission: wait for a free outstanding-transaction slot (the
       earliest to retire, the lowest-numbered on a tie) *)
    let slots = c.slots in
    let slot = ref (-1) in
    if Array.length slots > 0 then begin
      slot := 0;
      for j = 1 to Array.length slots - 1 do
        if slots.(j) < slots.(!slot) then slot := j
      done
    end;
    let now = if !slot < 0 then now else Int.max now slots.(!slot) in
    let row = rw asr 1 in
    let write = rw land 1 = 1 in
    (* refresh stalls the whole channel *)
    let start = Int.max now b.busy_until in
    let start =
      if start >= c.next_refresh then begin
        let after = c.next_refresh + cfg.t_rfc in
        c.next_refresh <- c.next_refresh + cfg.refresh_interval;
        Int.max start after
      end
      else start
    in
    let prep =
      (if b.row = row then 0 else cfg.t_rp + cfg.t_rcd)
      + cfg.t_cas
      + turnaround cfg ~prev_write:b.last_write ~write
    in
    (* row activation overlaps across banks; the data transfer serializes
       on the channel's bus *)
    let finish = Int.max (start + prep) c.bus_free + (bb lsr bank_bits) in
    c.bus_free <- finish;
    b.busy_until <- finish;
    b.row <- row;
    b.last_write <- write;
    if !slot >= 0 then slots.(!slot) <- finish;
    if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
    finish

  let access t ~now txn = step t ~now (pack t.cfg [ txn ]) 0

  (* Each stream issues its transactions in order over [lanes] lanes,
     transaction [i] on lane [i mod lanes] once that lane's previous
     transaction completes; among the live streams, the one whose next
     lane frees first issues next. [live] lists the unfinished streams
     in index order and [next] holds each one's next issue cycle, so a
     pick scans only those. *)
  let replay t ~lanes ~starts streams =
    let n = Array.length streams in
    let lanes = max 1 lanes in
    let clocks = Array.make (n * lanes) 0 in
    Array.iteri (fun s start -> Array.fill clocks (s * lanes) lanes start) starts;
    let lens = Array.map length streams in
    let pos = Array.make n 0 in
    let lane = Array.make n 0 in
    let next = Array.copy starts in
    let last = Array.copy starts in
    let live = Array.make n 0 in
    let n_live = ref 0 in
    for s = 0 to n - 1 do
      if lens.(s) > 0 then begin
        live.(!n_live) <- s;
        incr n_live
      end
    done;
    while !n_live > 0 do
      let j = ref 0 in
      for j' = 1 to !n_live - 1 do
        if next.(live.(j')) < next.(live.(!j)) then j := j'
      done;
      let s = live.(!j) in
      let i = pos.(s) in
      let fin = step t ~now:next.(s) streams.(s) i in
      let l = lane.(s) in
      clocks.((s * lanes) + l) <- fin;
      if fin > last.(s) then last.(s) <- fin;
      pos.(s) <- i + 1;
      if i + 1 = lens.(s) then begin
        Array.blit live (!j + 1) live !j (!n_live - !j - 1);
        decr n_live
      end
      else begin
        let l = if l + 1 = lanes then 0 else l + 1 in
        lane.(s) <- l;
        next.(s) <- clocks.((s * lanes) + l)
      end
    done;
    last

  let completed_reads t = t.reads
  let completed_writes t = t.writes
end

let profile_latencies cfg =
  (* For each pattern, build a single-bank synthetic stream alternating to
     exhibit exactly that pattern, run it through the simulator and average
     per-transaction latency. Mirrors the paper's micro-benchmarks. *)
  let stride_same_row = cfg.interleave_bytes * cfg.n_banks in
  let row_span = cfg.row_bytes / cfg.interleave_bytes * stride_same_row in
  List.map
    (fun p ->
      let sim = Sim.create cfg in
      let n = 64 in
      let total = ref 0 in
      let now = ref 0 in
      for i = 0 to n - 1 do
        (* set up the 'prev' state with a prologue access, then measure *)
        let addr_base = 2 * i * row_span in
        let prologue =
          { addr = addr_base; t_kind = p.prev; bytes = cfg.access_unit_bits / 8 }
        in
        let fin = Sim.access sim ~now:!now prologue in
        let measured_addr =
          if p.row_hit then addr_base + stride_same_row else addr_base + row_span
        in
        let txn =
          { addr = measured_addr; t_kind = p.kind; bytes = cfg.access_unit_bits / 8 }
        in
        let fin2 = Sim.access sim ~now:fin txn in
        total := !total + (fin2 - fin);
        now := fin2
      done;
      (p, float_of_int !total /. float_of_int n))
    all_patterns
