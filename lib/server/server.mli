(** The [flexcl serve] engine: a long-lived analysis service.

    One server value owns the content-addressed artifact caches
    (parse, analysis, predict, pipeline graph — {!Cache} LRUs keyed by
    {!Flexcl_util.Hash} content hashes and graph names), the
    {!Flexcl_util.Metrics} registry, and a domain-count budget. Each
    request is resolved, validated and run through {!Query}, the layer
    the CLI uses too, with these caches as its memo hooks. {!serve_fd}
    runs the NDJSON
    loop: it blocks for one request line, greedily drains every further
    line already buffered (up to a batch bound), evaluates the batch
    concurrently on a {!Flexcl_util.Pool}, and writes the responses in
    request order — so a client that streams a DSE batch gets
    multi-core evaluation, while an interactive client gets one-in
    one-out latency. Handlers never let an exception escape: every
    failure (malformed JSON, bad fields, broken kernels, fuel
    exhaustion, internal bugs) becomes an error response carrying
    structured {!Flexcl_util.Diag.t} values.

    {b Failure semantics} (the full contract is DESIGN.md §12): every
    complete request line receives exactly one response. Frames that
    exceed [max_line_bytes] or end mid-line answer [E-FRAME]; a request
    whose wall-clock ["deadline_ms"] budget expires before compute
    answers [E-DEADLINE]; work past the [max_inflight] high-water mark
    is shed immediately with [E-OVERLOAD] plus a ["retry_after_ms"]
    hint; once draining, new requests answer [E-SHUTDOWN]. A request
    that crashes its worker domain answers [E-INTERNAL] while the pool
    respawns the worker within its restart budget.

    Within one request, analysis and exploration run sequentially
    ([num_domains = 0] is passed to the DSE engine): concurrency lives
    at the request level, which keeps the pool from nesting. *)

module Json = Flexcl_util.Json

type t

val default_cache_capacity : int
(** 256 entries per artifact cache. *)

val default_max_inflight : int
(** 128 requests admitted to compute at once. *)

val default_max_line_bytes : int
(** 1 MiB per request line. *)

val default_drain_timeout_ms : int
(** 5000 ms for connections to wind down after shutdown. *)

val steps_per_ms : int
(** Conservative interpreter throughput used to map a request's
    ["deadline_ms"] onto a profiling fuel budget
    ([max_steps = deadline_ms × steps_per_ms], floored at 1000). *)

exception Injected_fault
(** Raised by the ["panic"] request kind when the server was created
    with [~chaos:true] — deliberately past every handler guard, so the
    worker domain executing the request dies and the supervision path
    (Diag-bearing failure response, bounded respawn) is exercised. *)

val create :
  ?num_domains:int ->
  ?cache_capacity:int ->
  ?max_inflight:int ->
  ?max_line_bytes:int ->
  ?drain_timeout_ms:int ->
  ?restart_budget:int ->
  ?chaos:bool ->
  ?model:Flexcl_learn.Learn.model ->
  unit ->
  t
(** [num_domains] sizes the request pool ([0] = handle requests on the
    serving domain; default {!Flexcl_util.Pool.default_num_domains}).
    [max_inflight] is the admission high-water mark, [max_line_bytes]
    the framing bound (≥ 64), [drain_timeout_ms] how long
    {!serve_unix_socket} waits for connections after shutdown before
    severing them, [restart_budget] the worker-respawn allowance
    (default {!Flexcl_util.Pool.default_restart_budget}), and [chaos]
    enables the fault-injection ["panic"] kind (tests only). [model] is
    the learned-residual model serving ["calibrated":true] predictions
    (the CLI loads it from [--model FILE]); without it such requests
    answer [E-NOMODEL]. Calibrated and raw predictions are distinct
    cached artifacts, so warm hits stay byte-identical either way.
    Raises [Invalid_argument] on out-of-range arguments. *)

val num_domains : t -> int

val request_shutdown : t -> unit
(** Begin draining: serve loops stop accepting new work (rejecting it
    with [E-SHUTDOWN]), finish what was admitted, and return. Also
    triggered by the ["shutdown"] request kind and, in the CLI, by
    SIGTERM/SIGINT. Idempotent. *)

val draining : t -> bool

val inflight : t -> int
(** Requests currently admitted to compute and not yet answered. *)

val handle_value : ?arrival:float -> t -> Json.t -> Json.t
(** Decode-dispatch-respond for one already-parsed request. Total —
    except that with [~chaos:true] a ["panic"] request raises
    {!Injected_fault}. [arrival] (default now,
    [Unix.gettimeofday]-clock) anchors the wall-clock ["deadline_ms"]
    check performed before compute starts. *)

val handle_line : ?arrival:float -> t -> string -> string
(** One NDJSON request line to one response line (no trailing newline),
    through the full admission path: drain rejection, deadline check,
    admission (released before returning), then {!handle_value}.
    Total: malformed JSON gets an [E-USAGE] error response. *)

val stats_json : t -> Json.t
(** The [stats] result object: request counters (including [shed],
    [deadline_expired], [worker_restarts] and [requests.crashed]),
    gauges ([uptime_ms], [inflight]), per-kind latency summaries (µs),
    per-cache hit/miss/eviction counts and hit rates, and the process's
    garbage-collector figures from [Gc.quick_stat] ([minor_collections],
    [major_collections], [heap_words], [top_heap_words]). *)

val serve_fd : t -> ?max_batch:int -> Unix.file_descr -> out_channel -> unit
(** Serve until EOF on [fd] or shutdown. Blank lines are skipped.
    [max_batch] bounds how many buffered requests are drained into one
    concurrent batch (default [4 × (num_domains + 1)]). Responses are
    flushed after every batch. *)

val serve_unix_socket : ?backlog:int -> t -> string -> unit
(** Bind a Unix-domain socket at the path (replacing any stale socket
    file, with [SO_REUSEADDR] set) and serve every accepted connection
    on its own thread against one shared supervised pool. Returns after
    {!request_shutdown}: the listener closes, the socket file is
    unlinked, in-flight requests finish, buffered requests answer
    [E-SHUTDOWN], and connections still open after [drain_timeout_ms]
    are severed. A bind failure raises before any worker is spawned. *)
