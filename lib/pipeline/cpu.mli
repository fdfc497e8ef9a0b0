(** The simulated processor: an in-order five-stage core in the spirit of
    the ARM-926EJ-S used in the paper's evaluation, optionally extended
    with a parameterized SIMD accelerator, the post-retirement dynamic
    translator, and the microcode cache (Figure 1).

    Timing model (approximate, first-order):
    - one cycle per retired instruction;
    - extra latency for multiplies;
    - instruction and data cache misses stall for the memory latency;
    - a load immediately consumed by the next instruction stalls one
      cycle (load-use);
    - conditional branches consult a BTB + 2-bit-counter predictor; a
      mispredict costs a pipeline refill;
    - vector memory operations charge the data cache once per line
      spanned;
    - microcode executes out of the microcode cache and therefore skips
      instruction-cache accesses.

    Region calls (the unique branch-and-link) consult the microcode
    cache. On a ready hit, the front end substitutes the SIMD microcode
    for the outlined function. On a miss the region runs in scalar form
    while (at most one at a time, and only if the region is not already
    known untranslatable) a translator session consumes the retirement
    stream; the resulting microcode becomes visible [cycles_per_insn *
    observed_instructions] cycles after the region started, modeling
    translation latency (§5's sensitivity study). *)

open Liquid_machine
open Liquid_prog
open Liquid_translate

type translation_kind =
  | Hardware
      (** post-retirement hardware: translation proceeds in parallel with
          execution; only the microcode-ready time is delayed *)
  | Software
      (** a JIT routine on the main core: the same work additionally
          stalls the processor (the paper's §2 software alternative) *)

type translation = { cycles_per_insn : int; kind : translation_kind }

(** Fault-injection hooks (built by {!Liquid_faults.Fault}): each is
    consulted at a fixed pipeline point and closes over its own trigger
    state. All faults attack the {e translation} path only — the
    executed scalar stream is never altered — so a correctly-degrading
    machine must still produce the pure-scalar architectural state. *)
type fault_hooks = {
  fh_abort : entry:int -> observed:int -> Abort.t option;
      (** after each event fed to a live translation session; [Some a]
          forces the session to abort with [a] at its current DFA state *)
  fh_corrupt : entry:int -> observed:int -> bool;
      (** before each event fed to a live translation session; [true]
          feeds an untranslatable instruction in its place (a decode
          glitch visible only to the translator) *)
  fh_evict : entry:int -> call:int -> bool;
      (** before each microcode-cache lookup, with the global
          region-call index; [true] evicts the entry first *)
}

(** Observation points for debugging and tooling: every retired
    instruction (image stream and microcode), plus region-level events
    (scalar vs microcode calls, translation outcomes). *)
type trace_event =
  | T_insn of { pc : int; insn : Liquid_visa.Minsn.exec }
  | T_uop of { entry : int; index : int; uop : Ucode.uop }
  | T_region of {
      label : string;
      event :
        [ `Scalar_call | `Ucode_call | `Translated of int | `Aborted of Abort.t ];
    }
  | T_translation of {
      entry : int;
      label : string;
      width : int;
      uops : int;
      latency : int;
          (** cycles from the region's start until the microcode is
              servable ([ready - start]) — the paper's §5 translation
              latency, per completed translation *)
    }

type config = {
  accel_lanes : int option;
  translator : translation option;
  backend : Backend.t;
      (** translation target the accelerator implements: the fixed-width
          Neon-like ISA ({!Backend.fixed}, the default) or the
          vector-length-agnostic predicated ISA ({!Backend.vla}). Every
          translator session — live or oracle — emits microcode through
          this backend. *)
  icache : Cache.config option;
  dcache : Cache.config option;
  mem_latency : int;
  mul_extra : int;
  mispredict_penalty : int;
  vec_bus_bytes : int;
      (** memory-bus width: a vector load/store costs one cycle per bus
          beat beyond the first *)
  oracle_translation : bool;
      (** pre-translate every region before execution, modeling a binary
          with built-in ISA support for SIMD (the paper's overhead
          baseline in Figure 6's callout) *)
  interrupt_interval : int option;
      (** deliver an asynchronous interrupt (context switch) every N
          cycles; an in-flight translation session is externally aborted
          (paper §4.1) and retried on a later region execution *)
  on_trace : (trace_event -> unit) option;
      (** observer invoked at every retirement and region event *)
  ucode_entries : int;
  max_uops : int;
  fuel : int;
      (** retired-instruction budget before a [Fuel_exhausted]
          {!Diag.t} stops the run *)
  faults : fault_hooks option;  (** fault-injection hooks; [None] = off *)
  blocks : bool;
      (** dispatch through the pre-decoded translation-block engine
          ({!Blocks}); default on. Bit-identical to stepping — this is an
          escape hatch for debugging and for measuring the engine's own
          speedup. The engine silently self-disables when a trace
          observer or fault hooks are configured (those need per-step
          fidelity). A live translator session does not force stepping:
          once it verifies, each later loop iteration runs as the loop
          body's block closures with a per-instruction value capture fed
          to the translator in one batch, and a session whose translator
          has failed runs the plain block engine until the region
          returns. The session still steps its first (Build) iteration,
          the region return, any body that is not a straight-line run
          ending in its back-edge, an iteration the fuel budget might
          not cover, and everything while [interrupt_interval] is set
          (an interrupt aborts a session at an exact cycle). The engine
          also forms trace superblocks on hot conditional back-edges and
          runs steady-state loop iterations through them; a superblock
          bails to the block path under fuel pressure, and while a
          translator session is live none is heated, formed or
          entered. *)
}

val scalar_config : config
(** Baseline ARM-926EJ-S: no SIMD accelerator, no translator. *)

val native_config : lanes:int -> config
(** Accelerator present, binaries carry native SIMD instructions. *)

val liquid_config : lanes:int -> config
(** Accelerator plus hardware translator (1 cycle/instruction). *)

type region_outcome =
  | R_untried
  | R_installed of { width : int; uops : int }
  | R_failed of Abort.t

type region_report = {
  label : string;
  entry : int;
  calls : (int * int) list;
      (** (start, end) cycles of each call, chronological; the gap the
          translator has between executions is
          [start of call k+1 - end of call k] *)
  ucode_served : int;  (** calls substituted from the microcode cache *)
  outcome : region_outcome;
}

type run = {
  stats : Stats.t;
  memory : Memory.t;
  regs : int array;
  regions : region_report list;
  ucode_max_occupancy : int;
  icache_counters : Cache.counters option;
      (** the instruction cache's own tally; [stats.icache_*] is derived
          from it at collection (single writer) *)
  dcache_counters : Cache.counters option;
  bpred_counters : Branch_pred.counters;
  ucache_counters : Ucode_cache.counters;
  blocks_compiled : int;
      (** translation blocks compiled by the block engine (0 when off) *)
  block_execs : int;
      (** block executions, chained blocks included (0 when off).
          Superblock iterations are counted in [superblock_iters], not
          here *)
  superblocks_compiled : int;
      (** trace superblocks formed (0 when blocks off) *)
  superblock_iters : int;
      (** whole loop iterations executed through a superblock *)
  superblock_bailouts : int;
      (** superblock exits to the block path: guard failures (the loop's
          normal exit) plus fuel-pressure bail-outs *)
  pred_fast_iters : int;
      (** predicated vector executions that took the all-true fast path
          (full predicate, unmasked fixed-width semantics) *)
  pred_masked_iters : int;
      (** predicated vector executions that paid the masked path *)
  vla_pred_execs : int;
      (** predicated vector uops dispatched (stepping interpreter plus
          block engine); conservation:
          [pred_fast_iters + pred_masked_iters = vla_pred_execs] *)
  permutes_seen : int;
      (** permutation placeholders encountered at translation finish,
          summed over every finished session (cached and oracle) *)
  permutes_recovered : int;
      (** placeholders rewritten to a native permute or a VLA table
          lookup; conservation:
          [permutes_recovered + permutes_aborted = permutes_seen] *)
  permutes_aborted : int;
      (** placeholders whose resolution aborted the session *)
  tbl_index_builds : int;
      (** [Tblidx] index-table materializations executed (once per
          region call and distinct pattern on the VLA target) *)
  session_iters_compiled : int;
      (** verify iterations of live translator sessions run through the
          block engine's compiled loop body instead of [step] (0 when
          the engine is off); telemetry, not a pinned counter *)
  translation_latencies : int list;
      (** the [latency] of every completed translation, in completion
          order: the samples a trace observer receives as
          [T_translation] events, available without one *)
}

val run : ?config:config -> Image.t -> run
(** Execute the image from its entry point until [halt].
    Raises {!Diag.Error} on runaway execution, a wild PC or corrupt
    microcode, and {!Sem.Sigill} when the binary needs hardware this
    machine lacks. Prefer {!run_result} for callers that must survive
    failing runs. *)

val run_result : ?config:config -> Image.t -> (run, Diag.t) result
(** Like {!run}, but a failing run returns [Error diag] — the typed
    fault plus a machine snapshot (pc, cycle, retired count) — instead
    of raising. {!Sem.Sigill} is converted to a [Diag.Illegal] fault at
    this boundary; no exception escapes. *)
