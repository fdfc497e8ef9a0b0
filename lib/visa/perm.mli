(** Vector permutation patterns.

    A pattern reorders the elements of one hardware vector. Each pattern
    has a {e period} [b] — the block size it is defined over — and is
    applied blockwise to wider vectors, as Neon-style permutes act within
    a register. A [w]-lane accelerator supports a pattern iff its period
    divides [w].

    Gather semantics: [dst.(i) = src.(i + offset i)] where offsets repeat
    with the period. The offset form matches how the paper's scalar
    representation encodes permutations: a read-only array of offsets is
    added to the loop induction variable before the memory access
    (Table 1, categories 7 and 8). The offsets uniquely identify the
    pattern, which is exactly what the translator's CAM matches on. *)

type t =
  | Reverse of int  (** [Reverse b]: block-wise element reversal. *)
  | Halfswap of int
      (** [Halfswap b]: exchange the two halves of each block — the
          [vbfly] butterfly of the paper's FFT example. *)
  | Rotate of { block : int; by : int }
      (** [Rotate {block; by}]: [dst.(i) = src.((i + by) mod block)]
          blockwise. *)

val pairswap : t
(** [Rotate {block = 2; by = 1}] — swap adjacent even/odd pairs. *)

val period : t -> int
(** The block size the pattern is defined over. *)

val well_formed : t -> bool
(** Period is a power of two in 2..16 and rotation amounts are in range. *)

val src_index : t -> int -> int
(** [src_index t i] is the element the pattern reads to produce element
    [i]: the permutation acts blockwise, so
    [src_index t i = (i - pos) + perm pos] with [pos = i land (b - 1)]
    for period [b], a power of two (every {!well_formed} pattern). Block
    and position are floored, so it is total over all [i], negative
    ones included — this is what the VLA table-lookup ops evaluate per
    active lane to reproduce the scalar access stream, in both the
    interpreted and the compiled form. *)

val offsets : t -> int array
(** Length {!period}; entry [i] is [src_index(i) - i]. *)

val offsets_for : t -> lanes:int -> int array
(** Offsets tiled to a full vector of [lanes] elements. The pattern must
    be supported at that width. *)

val supported : t -> lanes:int -> bool
(** Whether a [lanes]-wide accelerator can execute the pattern: the
    period must divide the lane count. *)

val apply : t -> int array -> int array
(** Permute a vector whose length is a multiple of the period. *)

val inverse : t -> t
(** The pattern [q] with [apply q (apply t v) = v]. Store-side
    permutations (scatter) observed by the translator are the inverse of
    the gather pattern that must be emitted before the vector store. *)

val catalog : t list
(** Patterns recognized by the hardware CAM (paper §4.1). *)

val find_by_offsets : int array -> t option
(** CAM lookup: given the offsets observed for one full hardware vector
    (length = lane count), return the unique catalog pattern producing
    them, if any. *)

val find_by_offset_stream : int array -> len:int -> t option
(** Length-agnostic CAM lookup: match the first [len] entries of a raw
    per-element offset stream (one offset per scalar iteration, in
    execution order) against each catalog pattern tiled at its {e own}
    period. Unlike {!find_by_offsets}, the stream length need not relate
    to any lane count — this is the VLA translator's matcher, where the
    hardware width may be smaller than the pattern's period. A pattern
    matches only when [len >= period], so at least one full block was
    observed. Returns [None] when [len < 1] or exceeds the stream. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints the assembly mnemonic, e.g. [rev.4] or [bfly.8]. *)
