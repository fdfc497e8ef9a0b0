(** The translation-block engine: pre-decoded straight-line execution,
    closure-compiled micro-ops and trace superblocks.

    Lazily compiles maximal straight-line runs of the image's
    {!Liquid_visa.Minsn.t} stream — ending at branches, region calls,
    [Halt], and vector/scalar mode changes — into flat arrays of
    specialized closures: operand register indices, folded immediates,
    opcode dispatch, element decode/encode, per-slot charge amounts
    (base cycle, [mul_extra], intra-block load-use stalls, static vector
    bus beats) and pre-grouped icache line probes, all baked at compile
    time, so replay is one [unit -> unit] call per micro-op. Stat deltas
    are applied once per block exit instead of once per instruction;
    unconditional fallthrough/jump edges chain block-to-block without
    returning to the dispatcher. Microcode replay ({!exec_ucode})
    receives the same treatment per cache entry, invalidated by
    {!Ucode_cache.stamp_of} stamp when a region is retranslated.

    On top of the blocks sits the superblock tier: when a block's
    conditional back-edge has fired a fixed number of times, the loop
    body across the edge is flattened into a trace — the member blocks'
    closures concatenated in trace order — and steady-state iterations
    execute whole loop bodies at a time with one batched stat delta per
    logical iteration. The latch condition, re-evaluated after every
    iteration, guards the trace; when it fails (or fuel could expire
    inside the next iteration) the superblock bails out to the ordinary
    block path. Traces follow only unconditional edges, so the guard is
    the sole conditional inside a trace.

    A live translator session in its Verify phase also runs here: each
    later loop iteration executes the loop-top block's closures plus a
    per-slot value capture ({!exec_observed}), and the captured values
    go to {!Liquid_translate.Translator.feed_iteration} in one batch. A
    session that demands no load's values skips the capture: its
    iterations run as the plain block and are only counted.

    The engine is an execution strategy, not a semantics change: every
    architectural value and every counter is bit-identical to the
    step-by-step engine. {!Cpu} only dispatches here when fidelity
    permits — no trace consumer, no interrupts while a session is live,
    no armed feed fault inside a verify iteration, and enough fuel for
    the whole block — and falls back to [step] otherwise.

    Compiled code cannot fault. A block ends before a vector op that is
    not total at the accelerator's width ({!Sem.vector_total}), and a
    microcode segment holding one is declined, so [step] or the
    interpreted microcode loop raises the exact diagnostic. The replay
    loops have no handler. *)

open Liquid_isa
open Liquid_machine
open Liquid_prog
open Liquid_translate

type t

(** {2 Static charges}

    The cycles one dispatch costs before any cache or predictor penalty,
    and those penalties: the ARM-926EJ-S's fixed costs. The stepping
    interpreter in {!Cpu} and the block engine both charge through
    these, so the two tiers cannot drift apart. *)

val mem_latency : int
(** 30: the stall of one instruction- or data-cache line miss. *)

val mul_extra : int
(** 1: the cycle a multiply (scalar or vector) costs beyond its issue. *)

val mispredict_penalty : int
(** 3: the pipeline refill after a mispredicted conditional branch. *)

val scalar_charge : Liquid_isa.Insn.exec -> int
(** One scalar instruction: the issue cycle, plus {!mul_extra} for a
    multiply. A load-use stall is charged on top, where it occurs. *)

val gather_charge : bus:int -> lanes:int -> Liquid_isa.Esize.t -> int
(** A gather-style dispatch (a [Vgather], or a recovered permutation's
    [Tbl]/[Tblst] table lookup): one issue cycle plus one bus beat per
    lane. Lanes do not coalesce, and an element spans beats only when it
    is wider than the [bus]-byte bus. *)

val vector_charge : bus:int -> lanes:int -> Liquid_visa.Vinsn.exec -> int
(** One vector instruction: issue, the multiplier and reduction-tree
    extras, and the bus beats of a memory access beyond the first. *)

val governed_charge : bus:int -> lanes:int -> Liquid_visa.Governed.t -> int
(** One governed uop. A datapath op pays {!vector_charge} of its
    ungoverned form (a partial count masks lanes; it does not shorten
    the bus or issue timing), a table lookup pays {!gather_charge}, and
    index builds and governor/counter management pay one cycle. *)

val create :
  image:Image.t ->
  ctx:Sem.ctx ->
  stats:Stats.t ->
  icache:Cache.t ->
  dcache:Cache.t ->
  bpred:Branch_pred.t ->
  vec_bus_bytes:int ->
  lanes:int option ->
  max_uops:int ->
  fuel:int ->
  t
(** The engine shares the run's mutable machine state ([ctx], [stats],
    caches, predictor) with {!Cpu}; the bus width, lane count, microcode
    capacity and watchdog budget are copied from the run at creation. *)

val try_exec :
  t -> pc:int -> retired:int -> pending:Reg.t option -> traces:bool -> bool
(** Execute the block starting at [pc] (compiling it on first visit),
    chaining through unconditional successors. [retired] and [pending]
    (the load-use hazard register) are the dispatcher's current values;
    on [true] the caller must read back {!out_pc}, {!out_retired} and
    {!out_pending}. [false] means no block starts here (region call,
    return, halt, wild pc, vector code without an accelerator, a vector
    op that would fault) or the fuel budget could expire inside the
    block — the caller steps faithfully. With [traces = false] the
    blocks neither heat, form nor enter trace superblocks (the plain
    block engine). Never raises. *)

val out_pc : t -> int
val out_retired : t -> int
val out_pending : t -> Reg.t option

(** {2 Observed loop bodies}

    A live translator session in its Verify phase only needs the values
    each later loop iteration produces. Those iterations run here as the
    ordinary block closures of the loop body plus a value capture per
    slot, instead of instruction by instruction through [step]. *)

type observed
(** A verifying session's loop body, compiled. *)

val is_image_run : Image.t -> Event.t array -> bool
(** The pattern is non-empty and its pcs and instructions are exactly
    the image's scalar run [top .. top + n - 1] from its first pc [top]
    (no vector instruction, no pc past the image). {!observe_loop}'s
    first test, and [Offline]'s for batching a verified iteration. *)

val observe_loop : t -> Event.t array -> observed option
(** Compile the body a session's {!Translator.iteration_pattern}
    describes. [None] unless {!is_image_run} holds and that run is one
    block from the loop top through a conditional back-edge to that top
    (the caller then steps). *)

val exec_observed :
  t -> observed -> capture:bool -> retired:int -> pending:Reg.t option ->
  bool
(** Run one whole iteration of the body, with the dispatcher's
    [retired] and [pending] as in {!try_exec}. With [capture], also
    capture the value of every retired instruction into
    {!observed_values}; without it the iteration runs as the plain block
    and {!observed_values} keeps its old contents, for a session whose
    {!Translator.needs_values} is [false]. Neither heats, forms nor
    enters a trace superblock. [false] (nothing executed) when the fuel
    budget could expire inside the iteration. On [true] read back the
    out-fields as after {!try_exec}. *)

val observed_values : observed -> int array
(** The last iteration's per-instruction values, in pattern order,
    {!Event.no_value} where an instruction produced none — the argument
    {!Translator.feed_iteration} takes. Overwritten by every
    {!exec_observed} with [capture]. *)

type uresult =
  | U_done  (** the replay retired its [URet] *)
  | U_resume of int
      (** continue interpreting at this uop index: the segment there was
          declined (control flow in a scalar uop, an op that is not
          total at the microcode width, no terminator), would exhaust
          the fuel budget, or the index is out of range. The segment
          there has retired nothing; the interpreted loop raises the
          exact diagnostic. *)

val exec_ucode :
  t -> entry:int -> stamp:int -> retired:int -> Ucode.t -> uresult
(** Replay translated microcode through pre-compiled straight-line
    segments. [stamp] is the microcode cache's install stamp for the
    entry ([-1] for oracle microcode); a mismatch recompiles, so a
    retranslated region never replays stale segments. The caller sets
    [ctx.lanes] to the microcode width first (as for the interpreted
    loop) and reads back {!out_retired} afterwards. Never raises. *)

val built : t -> int
(** Blocks compiled so far (telemetry). *)

val execs : t -> int
(** Block executions so far, chained blocks included (telemetry).
    Superblock iterations are counted separately in {!super_iters}, not
    here — the two engines legitimately differ on this counter. *)

val supers_built : t -> int
(** Trace superblocks formed so far (telemetry). *)

val super_iters : t -> int
(** Whole loop iterations executed through a superblock (telemetry). *)

val super_bailouts : t -> int
(** Superblock exits back to the block path: guard failures (the loop's
    normal exit through the trace) plus fuel-pressure bail-outs
    (telemetry). *)

val vla_preds : t -> int
(** Governed datapath micro-ops ({!Liquid_visa.Governed.Op},
    [Tbl], [Tblst]) dispatched by this engine — the engine's share of
    the obs conservation invariant
    [pred_fast + pred_masked = dispatched governed ops]. *)
