(** The post-retirement dynamic translator (paper §4).

    One translator session observes the retired instruction stream of a
    single execution of an outlined region — from the instruction after
    the region branch-and-link up to and including the region's return —
    and reconstructs width-appropriate SIMD microcode, or aborts.

    The session mirrors the hardware structure of the paper's Figure 5:

    - {e partial decode / register state}: every scalar register carries a
      class (scalar, induction candidate, induction, vector) plus the
      element size and "previous values" lineage the paper keeps per
      register (§4.1);
    - {e opcode generation}: Table 3's rules map each retired instruction
      to zero, one or two microcode slots;
    - {e legality checks}: instructions with no applicable rule abort the
      session; the scalar region remains executable, so an abort only
      costs performance;
    - {e microcode buffer}: slots support in-place replacement (saturation
      idioms) and invalidation with compaction (offset-array loads removed
      once a permutation is recognized) — the paper's alignment network.

    Because offsets, constant vectors and permutations can only be
    identified after one full hardware vector's worth of scalar
    iterations has retired, the session works in two phases: the first
    loop iteration {e builds} the microcode skeleton, subsequent
    iterations {e verify} that the static pattern repeats and accumulate
    the per-iteration values of the loads [finish] can consult (the
    paper's "previous values", kept only where a constant vector or a
    permutation may need them); [finish] resolves permutations against the
    CAM, folds periodic constant vectors, and fixes the induction step.

    Width adaptation is the {!Backend}'s policy. The fixed-width target
    translates for the widest lane count [w] with [2 <= w <= lanes] that
    divides the loop trip count, so a binary compiled for the maximum
    vectorizable width still maps onto narrower accelerators, and
    short-vector loops map onto wider hardware at reduced width. The
    vector-length-agnostic target always translates at the full lane
    count and lets the governing predicate absorb the remainder. *)

type config = {
  lanes : int;  (** accelerator lane count (2, 4, 8 or 16) *)
  max_uops : int;  (** microcode buffer capacity; the paper uses 64 *)
  backend : Backend.t;  (** the accelerator target microcode is emitted for *)
}

val default_max_uops : int
(** The paper's 64-uop microcode buffer: the capacity every machine
    configuration and offline translation uses unless it asks for
    another. *)

val default_config : ?backend:Backend.t -> lanes:int -> unit -> config
(** [max_uops = default_max_uops]; [backend] defaults to
    {!Backend.fixed}. *)

type result = Translated of Ucode.t | Aborted of Abort.t

type perm_tally = { seen : int; recovered : int; aborted : int }
(** Per-session permutation accounting: how many permutation
    placeholders [finish] encountered, and how many it rewrote to a
    native permute or table lookup ([recovered]) versus failed
    ([aborted]). The resolve pass stops at the first failure, so
    [recovered + aborted = seen] always holds. *)

type t
(** A translation session: one in-flight attempt to recover SIMD
    microcode from the retired stream of one region execution. *)

val create : config -> t
(** Fresh session in the Build phase, ready for the region's first
    retired instruction. *)

val feed : t -> Event.t -> unit
(** Process one retired instruction. After an abort condition the session
    latches the failure and ignores further events. *)

val failed : t -> bool
(** The session has latched an abort: {!feed} ignores every later
    event, so the caller need not build them. *)

val iteration_top : t -> int
(** The loop-top pc when the session is verifying, has not failed, and
    expects the first instruction of a new iteration next; [-1]
    otherwise. *)

val iteration_pattern : t -> Event.t array
(** The first loop iteration's events, from the loop top through the
    back-edge, which every later iteration must repeat ([[||]] before
    the Verify phase). Read-only: the session owns the array. *)

val needs_values : t -> bool
(** Whether the values of the instructions fed next are read. [false]
    once a verifying session has no demanded load: at Build's end the
    session fixes the loads [finish] can consult (the lineages of
    constant-vector candidates and of permutation placeholders) and
    records value and address streams only for those, so when there are
    none a verified iteration is only counted. [true] in the Build
    phase. *)

val feed_iteration : t -> int array -> unit
(** Process one whole later iteration at once. [values.(i)] is the
    value the iteration's [i]-th retired instruction produced, with
    {!Event.no_value} for none; the instructions themselves are
    {!iteration_pattern}'s, which the caller vouches it retired in order.
    Exactly equivalent to {!feed}ing the iteration's events one by one.
    When {!needs_values} holds, both run the same per-slot function;
    otherwise [values] is not read (its contents may be stale) and the
    iteration costs O(1): the observed count grows by the pattern's
    length and the iteration count by one.
    @raise Invalid_argument unless [iteration_top t >= 0] and [values]
    has the pattern's length. *)

val abort_external : t -> unit
(** Asynchronous abort: context switch or interrupt (paper §4.1). *)

val inject : t -> Abort.t -> unit
(** Fault injection: force the session to abort with the given reason
    at whatever DFA state it has reached, exactly as if a legality
    check had failed there. First failure wins; a no-op once the
    session has already aborted. *)

val finish : t -> result
(** Close the session after the region's return has been fed. *)

val perm_tally : t -> perm_tally
(** Permutation accounting for this session; populated by [finish]
    (all-zero before it runs). *)

val observed : t -> int
(** Dynamic instructions consumed so far. *)

val static_insns : t -> int
(** Static instructions mapped so far (the first iteration plus the
    prologue). Translation {e work} is proportional to this: later
    iterations only verify and stream demanded values, keeping pace with
    retirement (paper §5: translation of tens of cycles per instruction
    hides within the 300-cycle call gaps). *)
