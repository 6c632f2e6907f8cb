(** Domain-safe caches: the one cache primitive of the code base.

    A [('k, 'v) t] is a mutex-protected table with an optional LRU
    capacity and hit / miss / eviction counters. Its misses are
    single-flight: the first caller of a missing key computes the value
    {e outside} the lock, every concurrent caller of that key waits until
    the value lands, and distinct keys compute in parallel. The server's
    artifact stores, the staged model's per-DSP-share schedules and the
    simulator's deep profiles are instances.

    {!owned} tables hold what is derived from an owner object (an
    analysis): they are keyed on the owner's physical identity through
    ephemerons, so an entry is collected together with its owner and
    needs neither a capacity nor a validity check. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** Unbounded without [capacity]; with it, the least-recently-used
    entries are evicted beyond [capacity]. Raises [Invalid_argument] if
    [capacity < 1]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Bumps the entry's recency; counts a hit or a miss. A key still being
    computed is a miss (no waiting). *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, evicting beyond capacity. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> bool * 'v
(** [(was_hit, value)]: the cached value, or [f ()] stored on a miss.
    Racing callers of one key compute it once; the others wait and
    report a hit. If [f] raises, nothing is stored, the exception
    reaches the computing caller, and each waiter retries (so a failure
    is never cached). *)

val memo : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** [snd (find_or_add t k f)]. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;  (** [max_int] when unbounded. *)
}

val stats : ('k, 'v) t -> stats

val clear : ('k, 'v) t -> unit
(** Drops entries; keeps the counters. *)

(** {2 Per-owner side tables} *)

val owned : hash:('o -> int) -> unit -> 'o -> ('k, 'v) t
(** [owned ~hash ()] maps an owner to its own unbounded table, found by
    the owner's physical identity [(==)]. An entry lives exactly as long
    as its owner, even when the value points back to the owner. [hash]
    must be cheap and must not change while the owner lives (owners
    compare physically, so it only spreads them over buckets). *)
