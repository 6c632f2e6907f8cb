(** Off-chip global memory (DRAM) model: banked architecture with
    row-buffers, byte-interleaved data mapping, automatic coalescing of
    consecutive accesses, and the eight access patterns of the paper's
    Table 1 (read/write × after-read/after-write × row-buffer hit/miss).

    Two views of the same architecture coexist:
    {ul
    {- the {e analytical} view used by FlexCL — pattern counts multiplied
       by micro-benchmark-profiled average pattern latencies
       ({!pattern_counts}, {!profile_latencies});}
    {- the {e stateful} view used by the ground-truth simulator and by
       the model's multi-CU replay — a cycle-accurate bank state machine
       with open-row tracking, refresh and queuing ({!Sim}).}} *)

type kind = Read | Write

type pattern = {
  kind : kind;       (** this access. *)
  prev : kind;       (** previous access to the same bank. *)
  row_hit : bool;    (** row-buffer hit or miss. *)
}

val all_patterns : pattern list
(** The 8 patterns of Table 1, in the paper's order (hits before misses,
    RAR/RAW/WAR/WAW within each). *)

val pattern_name : pattern -> string
(** e.g. ["RAR.hit"], ["WAW.miss"]. Note the paper's mnemonic: [RAW] is a
    {e read} access after a {e write}. *)

type config = {
  n_channels : int;          (** independent channels (1 = classic DDR). *)
  n_banks : int;             (** banks per channel. *)
  row_bytes : int;           (** row-buffer size per bank. *)
  interleave_bytes : int;    (** interleaving granularity across banks. *)
  access_unit_bits : int;    (** coalesced transaction width (512 in SDAccel). *)
  t_cas : int;               (** column access latency (cycles). *)
  t_rcd : int;               (** row activate latency. *)
  t_rp : int;                (** precharge latency. *)
  t_bus : int;               (** data transfer per transaction. *)
  t_wtr : int;               (** write-to-read turnaround. *)
  t_rtw : int;               (** read-to-write turnaround. *)
  refresh_interval : int;    (** cycles between refreshes ({!Sim} only). *)
  t_rfc : int;               (** refresh duration ({!Sim} only). *)
  queue_depth : int;         (** outstanding-transaction slots per channel
                                 ({!Sim} and the model's roofline);
                                 0 = unbounded. *)
}

val ddr3_config : config
(** The evaluation board's DDR3: one channel, 8 banks, 1 KB row buffer,
    512-bit access unit, timing in 200 MHz kernel-clock cycles. *)

val hbm2_config : config
(** Alveo U280-class HBM2: 32 pseudo-channels, 16 banks each, 256-bit
    access unit and a bounded (8-deep) outstanding-transaction queue per
    channel. *)

(** {2 Channel addressing} *)

val chan_region : int
(** Each channel owns a disjoint [2{^40}]-byte address region; a
    buffer's base address encodes its channel. Addresses below
    {!chan_region} (everything a 1-channel device ever issues) decode
    exactly as in the single-controller model. *)

val chan_of : config -> int -> int
(** Channel that services an address (always 0 on 1-channel configs). *)

(** {2 Address layout} *)

type layout
(** Assignment of row-aligned base addresses to named buffers. *)

type placement = (string * int) list
(** Buffer-name → channel binding; buffers not named ride on channel 0. *)

val placement_error : config -> placement -> buffers:string list -> string option
(** [Some msg] when the placement names a buffer the kernel does not
    have or a channel the device does not have; [None] when valid. *)

val layout : ?placement:placement -> (string * int) list -> layout
(** [layout [(name, bytes); ...]] places buffers consecutively in
    declaration order, each aligned up to a row boundary, within their
    channel's address region ({!chan_region}); with no [placement]
    every buffer lands on channel 0, reproducing the single-controller
    layout byte for byte. *)

val base : layout -> string -> int
(** Base address of a buffer; raises [Invalid_argument] naming the
    unknown buffer and the buffers the layout does hold (classified as a
    model-stage diagnostic by the total [_result] API). *)

val address : layout -> string -> elem_bits:int -> int -> int
(** Byte address of element [i] of a buffer. *)

(** {2 Transactions and coalescing} *)

type txn = { addr : int; t_kind : kind; bytes : int }

val merge :
  config ->
  layout ->
  Flexcl_interp.Interp.site array ->
  cross_wi:bool ->
  Flexcl_interp.Interp.access list array ->
  (int -> kind -> int -> unit) ->
  unit
(** [merge cfg l sites ~cross_wi traces emit] coalesces a work-group's
    profiled traces (sites numbered by [sites], the profile's site
    table) into transactions of at most [access_unit_bits] (the
    coalescing factor [f = unit_size / elem_bits] of §3.4), handing
    each to [emit] as its address, kind and bytes, in issue order.

    With [cross_wi], accesses issue the way SDAccel's memory interface
    sees a work-group pipeline: site-major, the i-th access of every
    work-item back to back ([a\[gid\]] across 16 int-typed work-items
    becomes one 512-bit transaction). Ragged traces interleave the same
    way, position by position, skipping the work-items that have run
    out of accesses. Without it (the per-work-item ablation), each
    work-item's accesses merge on their own, in work-item order, and no
    transaction spans two work-items.

    A transaction starts at an access and absorbs each following access
    of the same kind to the same buffer name (whatever its site) that
    either repeats its last element (a broadcast: it rides along for
    free) or lies one element past its end, which adds the first
    access's element width while the transaction still fits the access
    unit. Any other access ends it. A buffer's base address is resolved
    when its first transaction starts, so a buffer the layout lacks
    raises {!base}'s [Invalid_argument] then. *)

val bank_of : config -> int -> int
val row_of : config -> int -> int

(** {2 Packed streams}

    The model replays and classifies the same coalesced transactions
    many times (every design point of a sweep may need a multi-CU
    replay), so each transaction is decoded once: a {!stream} holds, as
    ints, its channel, bank, row, kind and data-bus cycles, laid out in
    a form only this module reads. Replay ({!Sim.replay}) and
    classification ({!pattern_counts}) run on packed streams of the
    configuration they were packed for. *)

type stream

val coalesce :
  config ->
  layout ->
  Flexcl_interp.Interp.site array ->
  cross_wi:bool ->
  Flexcl_interp.Interp.access list array ->
  stream
(** The packed stream of {!merge}'s transactions, each decoded as
    {!pack} decodes it when the merge hands it over. *)

val pack : config -> txn list -> stream
(** Decode a transaction stream for [config] (channel, bank and row
    from {!chan_of}, {!bank_of} and {!row_of}; bus cycles from the
    transaction's bytes), preserving its order. *)

val pattern_counts :
  ?warmup:stream array -> config -> stream array -> (pattern * int) list
(** Classify the concatenation of the streams: per-channel per-bank
    open-row and last-kind state, first access to each channel's bank
    counts as a miss after read. All 8 patterns appear in the result
    (possibly with count 0), in Table-1 order. [warmup] streams update
    the bank state without being counted — FlexCL replays the profiled
    stream once before measuring so that resident buffers show their
    steady-state row-hit behaviour. Always the elementwise sum of
    {!pattern_counts_by_channel}. *)

val pattern_counts_by_channel :
  ?warmup:stream array -> config -> stream array -> (pattern * int) list array
(** Per-channel pattern counts (index = channel), same classification
    and warmup semantics as {!pattern_counts}; each channel's bank state
    is independent, so the first access to a bank of {e each} channel is
    a miss after read. *)

val pattern_latency : config -> pattern -> int
(** Closed-form service cycles of one isolated transaction of the given
    pattern (the quantity the micro-benchmarks measure): hits issue one
    column command, misses precharge + activate + column (§3.4). *)

val profile_latencies : config -> (pattern * float) list
(** Micro-benchmark profiling: for each pattern, run a synthetic
    single-bank stream that exhibits it through {!Sim} and average the
    per-transaction latency. This is the table FlexCL multiplies pattern
    counts with (Eq. 9); it differs from {!pattern_latency} by the
    refresh overhead the micro-benchmark stream absorbs. *)

(** {2 Stateful simulation} *)

module Sim : sig
  type t

  val create : config -> t

  val access : t -> now:int -> txn -> int
  (** [access t ~now txn] services a transaction that arrives at cycle
      [now]; returns its completion cycle. Models bank busy time, open-row
      switches, read/write turnaround and periodic refresh. [now] must not
      decrease between calls. It decodes [txn] ({!pack}) and takes the
      same step {!replay} takes for each packed transaction. *)

  val replay : t -> lanes:int -> starts:int array -> stream array -> int array
  (** Drain concurrent streams through the simulator: stream [s] starts
      at cycle [starts.(s)] and keeps [lanes] transactions outstanding,
      its [i]-th transaction issuing on lane [i mod lanes] when that
      lane's previous one completes. Each step services the transaction
      of the live stream that can issue earliest, the lowest-numbered
      stream on a tie. Returns each stream's last completion cycle (its
      start when it is empty). *)

  val completed_reads : t -> int
  val completed_writes : t -> int
end
