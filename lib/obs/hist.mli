(** Power-of-two-bucket histogram of non-negative integer samples.

    Bucket 0 holds the value 0; bucket [k > 0] holds
    [[2^(k-1), 2^k - 1]]; the last bucket absorbs everything above the
    range. [add] touches only preallocated state. *)

type t

val create : ?buckets:int -> unit -> t
(** [buckets] defaults to 32 (covers values up to [2^30]). *)

val add : t -> int -> unit
(** Record one sample; negatives are clamped to 0. Zero-allocation. *)

val count : t -> int
val total : t -> int
(** Sum of all recorded samples. *)

val min_value : t -> int
(** Smallest sample, or 0 when empty. *)

val max_value : t -> int
val mean : t -> float
(** 0.0 when empty. *)

val iter_buckets : t -> (lo:int -> hi:int -> count:int -> unit) -> unit
(** Visit non-empty buckets in increasing order with their inclusive
    value range. *)

val to_json : t -> Json.t
(** [{"count":…,"total":…,"min":…,"max":…,"mean":…,
     "buckets":[{"lo":…,"hi":…,"count":…},…]}] — non-empty buckets
    only. *)
