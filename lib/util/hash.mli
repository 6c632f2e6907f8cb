(** Stable content hashing (FNV-1a, 64-bit).

    One hash implementation shared by everything that content-addresses
    inputs: the serve subsystem's result cache keys (kernel sources,
    launches, design points) and the simulator's deep-profile keys. The
    function is a fixed algorithm — {e not} [Hashtbl.hash] — so digests
    are stable across OCaml versions, word sizes and processes, which a
    cache key that may outlive one process must be. *)

type t = int64

val init : t
(** The FNV-1a offset basis. *)

val add_string : t -> string -> t
val add_int : t -> int -> t
val add_char : t -> char -> t

val string : string -> t
(** [add_string init s]. *)

val to_hex : t -> string
(** 16 lowercase hex digits. *)
