(** A bounded memo table with exact least-recently-used eviction.

    The same discipline the machine caches use ({!Liquid_machine.Cache}):
    recency is a monotonically increasing clock stamp per entry, a hit
    refreshes the stamp, and when the table is full an insert evicts the
    entry with the minimum stamp — the strict LRU victim. The victim
    scan is O(occupancy) but runs only on at-capacity inserts, so the
    hot path (a {!find} hit) stays one hashtable probe plus one store.

    Caps {!Runner.run_cached}'s process-wide result memo. Not
    synchronized — callers that share a table across domains must hold
    their own lock (as {!Runner} does). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity] must be positive; the table never holds more than
    [capacity] entries. *)

val capacity : ('k, 'v) t -> int
(** The bound given to {!create}. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit refreshes the entry's recency and increments the hit
    counter, a miss increments the miss counter. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or overwrite. At capacity, inserting a new key evicts the
    least recently used entry (and counts one eviction). *)

val occupancy : ('k, 'v) t -> int
(** Entries currently held; always [<= capacity]. *)

type counters = {
  l_hits : int;
  l_misses : int;
  l_evictions : int;
  l_occupancy : int;
  l_capacity : int;
}

val counters : ('k, 'v) t -> counters
(** Lifetime hit/miss/eviction tallies plus the current occupancy —
    what {!Runner.cache_counters} reports. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry. Counters are preserved (they are lifetime
    tallies); occupancy returns to zero. *)
