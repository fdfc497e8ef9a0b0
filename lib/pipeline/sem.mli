(** Architectural semantics: the effect of one instruction on registers,
    flags and memory. Timing is layered on top by {!Cpu}; this module is
    purely functional behaviour plus the side effects on the shared
    context. *)

open Liquid_isa
open Liquid_visa

exception Sigill of string
(** Raised by the interpreters ({!exec_vector}, {!exec_governed}) when a
    vector instruction is incompatible with the active lane count — the
    binary-compatibility failure Liquid SIMD exists to avoid. The static
    causes are exactly the ops {!vector_total} and {!governed_total}
    reject. A run never lets it escape: {!Cpu.run} reports it as a
    [Diag.Illegal] fault. *)

val no_value : int
(** Sentinel stored in {!ctx.e_value} when the last instruction wrote no
    destination register: {!Liquid_translate.Event.no_value}, so a
    scratch value passes to the translator's whole-iteration batches
    unconverted. *)

type ctx = {
  regs : int array;  (** 16 scalar registers *)
  mutable flags : Flags.t;
  vregs : int array array;  (** 16 vector registers x maximum lanes *)
  preds : int array;
      (** one active-lane count per governor, indexed by
          {!Governed.slot}: the VLA target's predicate registers
          ([whilelt] only ever produces prefix predicates, so the count
          is a complete representation) and, in the last slot, the RVV
          target's [vl] grant — semantically a prefix predicate of [vl]
          active lanes *)
  mutable lanes : int;  (** active vector width for vector instructions *)
  mem : Liquid_machine.Memory.t;
  mutable e_value : int;
      (** scratch effect: destination value of the last
          {!exec_scalar}/{!exec_vector}, {!no_value} when none *)
  mutable e_taken : int;  (** scratch effect: -1 none, 0 not taken, 1 taken *)
  mutable e_nacc : int;  (** live prefix of the access arrays below *)
  acc_addr : int array;
  acc_bytes : int array;
  acc_write : bool array;
  gather_tmp : int array;
  blk : Bytes.t;
  mutable n_pred_fast : int;
      (** governed datapath executions ({!Governed.Op}, {!Governed.Tbl},
          {!Governed.Tblst}) taken on the all-true fast path: the
          governor covered every lane, so the unmasked fixed-width
          semantics ran verbatim *)
  mutable n_pred_masked : int;
      (** governed datapath executions that paid the masked path *)
  mutable n_tbl_builds : int;
      (** table-lookup index vectors materialized from the runtime
          vector length ({!Governed.Tblidx} executions) *)
}

val create_ctx : Liquid_machine.Memory.t -> ctx

type outcome =
  | Next
  | Jump of int
  | Call of { target : int; region : bool }
  | Return
  | Stop

type access = { addr : int; bytes : int; write : bool }

type effect = {
  value : int option;  (** value written to the destination register *)
  accesses : access list;
  taken : bool option;  (** for conditional branches *)
}

val exec_scalar : ctx -> pc:int -> Insn.exec -> outcome
(** Executes one scalar instruction, recording its effect in the context
    scratch fields ([e_value], [e_taken], [e_nacc]/[acc_*]) without
    allocating. [Bl] writes the link register with [pc + 1]. [Ret]
    reports {!Return}; the caller reads the link register. The scratch
    effect is overwritten by the next [exec_*] call. *)

val exec_vector : ctx -> Vinsn.exec -> unit
(** Executes one vector instruction at the context's active lane count,
    recording its effect in the context scratch fields. Contiguous
    [Vld]/[Vst] move their lanes through {!Liquid_machine.Memory.read_block}
    / [write_block] as one span. Raises {!Sigill} on a permutation
    unsupported at that width or a constant vector of mismatched
    length. *)

val exec_governed : ctx -> Governed.t -> unit
(** Executes one governed operation, for the VLA and RVV targets alike:
    the governor ({!Governed.Pred} or {!Governed.Vl}) only selects the
    [preds] slot that holds the active-lane count [k].
    [Set_active] writes [k := min (max (bound - counter) 0) lanes] and
    sets the flags from the signed comparison of counter and bound (so
    the loop back-edge stays an ordinary conditional branch); [Advance]
    adds the lane count ([Lanes]) or the last [vl] grant ([Granted]) to
    its register; [Op] executes the wrapped vector instruction under
    [k] — a full count delegates to {!exec_vector} (counted in
    [n_pred_fast]), a partial one loads/stores only active elements,
    zeroes inactive destination lanes and folds reductions over active
    lanes only (counted in [n_pred_masked]). The table-lookup family
    executes recovered permutations: [Tblidx] counts an index-vector
    build ([n_tbl_builds]); [Tbl] and [Tblst] gather (resp. scatter)
    element [Perm.src_index pattern (counter + j)] for each active lane
    [j], reproducing the scalar loop's permuted access stream at any
    vector length, and take part in the fast/masked tallies like [Op].
    Raises {!Sigill} on a governed permutation. *)

val last_effect : ctx -> effect
(** Materializes the scratch effect of the most recent [exec_*] call as
    the immutable record (for traces and the translator's event feed). *)

val step_scalar : ctx -> pc:int -> Insn.exec -> outcome * effect
(** [exec_scalar] plus {!last_effect}: the allocating convenience form,
    for tests and the benchmark's event recording. Hot loops
    ({!Offline}, {!Cpu}) call {!exec_scalar} and read the scratch fields
    instead. *)

val step_vector : ctx -> Vinsn.exec -> effect
(** [exec_vector] plus {!last_effect}. *)

(** {1 Pre-resolved kernels}

    Inlinable load/store entry points for the translation-block engine
    ({!Liquid_pipeline.Blocks}), which compiles the other scalar
    instructions to closures of its own. Each is the matching
    {!exec_scalar} arm with decode and scratch-effect recording already
    paid at block-compile time: [dst] and [src] are
    {!Liquid_isa.Reg.index} values and the address arrives fully
    computed. Semantically equivalent to [exec_scalar] on the same
    instruction; the scratch effect they skip is only observable by a
    live translator session, whose verified iterations read the
    destination registers instead. *)

val kernel_ld : ctx -> addr:int -> bytes:int -> signed:bool -> dst:int -> unit
val kernel_st : ctx -> addr:int -> bytes:int -> src:int -> unit

(** {1 Totality}

    Whether an op can raise {!Sigill} at a lane count, decided from the
    op alone. The block engine compiles only total ops: it ends a block
    before any other, and declines a microcode segment that holds one,
    so the interpreter raises the exact diagnostic. *)

val vector_total : lanes:int -> Vinsn.exec -> bool
(** [false] exactly when {!exec_vector} raises at [lanes] lanes: a
    constant vector whose length is not [lanes], or a permutation
    {!Liquid_visa.Perm.supported} rejects at [lanes]. *)

val governed_total : lanes:int -> Governed.t -> bool
(** A total governed op raises at no active count from 0 to [lanes]. An
    [Op] is total when its vector op is, except that an [Op] carrying a
    [Vperm] never is (a partial count raises "predicated permutation";
    the governed backends lower permutations to [Tbl]/[Tblst]). Every
    other governed op is total. *)

(** {1 Closure compilation}

    One-instruction compilers for the block engine: {!Blocks} builds
    the closure of every vector and governed micro-op through them, in
    every translation block and every microcode segment (a superblock
    concatenates its member blocks' closures). Each returns a
    specialized [unit -> unit] closure with operand indices resolved,
    the lane count baked in, element decode/encode monomorphized per
    element size and the opcode dispatch pre-resolved ({!Opcode.fn}).
    The closure is only valid while the context's active lane count
    equals [lanes]. Architectural state changes exactly as
    under the interpretive [exec_*]; the access scratch prefix
    ([e_nacc]/[acc_*]) is maintained exactly (the engine derives
    data-cache charges from it), while the [e_value]/[e_taken] scratch is
    skipped — only a live translator session observes it, and under
    one the block engine runs only a verifying session's scalar loop
    body or code a failed session ignores. Only total ops compile, so a
    compiled closure never raises. *)

val compile_vector : ctx -> lanes:int -> Vinsn.exec -> unit -> unit
(** Compile one fixed-width vector instruction at width [lanes].
    Raises [Invalid_argument] unless {!vector_total} holds. *)

val compile_governed : ctx -> lanes:int -> Governed.t -> unit -> unit
(** Compile one governed operation at vector length [lanes]. The
    governor is resolved to its [preds] slot at compile time, so the
    closure reads one int cell and never dispatches on it. A compiled
    [Op] keeps the fast/masked split of {!exec_governed}: a full count
    runs the pre-compiled unmasked closure (counted in [n_pred_fast]), a
    partial one falls back to the interpretive masked path (counted in
    [n_pred_masked]). Raises [Invalid_argument] unless
    {!governed_total} holds. *)
