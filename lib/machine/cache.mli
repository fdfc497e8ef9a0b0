(** Set-associative cache model with true-LRU replacement, at O(1) per
    access.

    This is a timing/behaviour model only: it tracks which lines are
    resident, not their contents (data always comes from {!Memory}). The
    default geometry matches the ARM-926EJ-S used in the paper's
    evaluation: 16 KiB, 64-way, 32-byte lines. *)

type config = {
  size_bytes : int;  (** total capacity *)
  line_bytes : int;  (** line size; must be a power of two *)
  assoc : int;  (** ways per set *)
}

val arm926_config : config
(** 16 KiB / 64-way / 32-byte lines, as in the ARM-926EJ-S. *)

type t

val create : config -> t
(** Raises [Invalid_argument] unless the line size and the set count
    are powers of two and the cache has fewer than 65535 lines. *)

val config : t -> config

type outcome = Hit | Miss

val access : t -> int -> outcome
(** [access c addr] touches the line containing [addr], allocating it
    (and evicting the LRU way) on a miss. Both reads and writes allocate,
    modeling a write-allocate cache. *)

val credit_hits : t -> int -> unit
(** [credit_hits c n] accounts [n] additional hits without running the
    lookup. Used by the translation-block engine: a straight-line run of
    instruction fetches touches each line once through {!access} and
    credits the remaining same-line fetches, which are hits by
    construction (no other access of the set can intervene inside a
    block). The LRU order is unchanged because the run's line is
    already its set's most recently used line, where a real hit would
    leave it; so this is counter-equivalent to performing the
    accesses. *)

val line_bytes : t -> int

val access_range : t -> addr:int -> bytes:int -> int
(** [access_range c ~addr ~bytes] runs {!access} on each line the byte
    range covers, lowest first, and returns how many missed (0 for an
    empty range). *)

val set_of : t -> int -> int
(** The set the line holding this address maps to. *)

val hits : t -> int
val misses : t -> int

type counters = { c_hits : int; c_misses : int }

val counters : t -> counters
(** Immutable snapshot of the cache's own hit/miss tally — the single
    source the run-level {!Stats} mirror is derived from. *)

val reset_stats : t -> unit

val flush : t -> unit
(** Invalidate every line (e.g., on context switch in ablations). *)
