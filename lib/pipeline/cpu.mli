(** The simulated processor: an in-order five-stage core in the spirit of
    the ARM-926EJ-S used in the paper's evaluation, optionally extended
    with a parameterized SIMD accelerator, the post-retirement dynamic
    translator, and the microcode cache (Figure 1).

    The machine is the paper's: its caches, memory latency, multiply
    and mispredict costs and watchdog are fixed, not configured.
    Timing model (approximate, first-order):
    - one cycle per retired instruction;
    - one extra cycle for a multiply ({!Blocks.mul_extra});
    - 16 KB 64-way instruction and data caches
      ({!Liquid_machine.Cache.arm926_config}); a line miss stalls for
      the 30-cycle memory latency ({!Blocks.mem_latency});
    - a load immediately consumed by the next instruction stalls one
      cycle (load-use);
    - conditional branches consult a BTB + 2-bit-counter predictor; a
      mispredict costs a 3-cycle pipeline refill
      ({!Blocks.mispredict_penalty});
    - vector memory operations charge the data cache once per line
      spanned;
    - microcode executes out of the microcode cache and therefore skips
      instruction-cache accesses;
    - a run that retires more than 200,000,000 instructions stops with a
      [Fuel_exhausted] {!Diag.t} (the watchdog), unless an armed
      {!Fault.Exhaust_fuel} sets another budget.

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
          Neon-like ISA ({!Backend.fixed}, the default), the
          vector-length-agnostic predicated ISA ({!Backend.vla}) or the
          RVV-style strip-mined ISA ({!Backend.rvv}). Every translator
          session — live or oracle — emits microcode through this
          backend. *)
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
  ucode_entries : int;  (** microcode cache entries *)
  max_uops : int;
      (** microcode buffer capacity, {!Translator.default_max_uops}
          unless a buffer ablation varies it *)
  fault : Fault.t option;
      (** the one fault this run injects; [None] = off. The run counts
          its own feed events and region calls and fires the fault when
          it reaches the armed site ({!run.fault_fired}); an
          [Exhaust_fuel] budget replaces the watchdog's 200,000,000. The
          block engine stays on: evictions happen at region calls, which
          always step, its fuel bail-out honours the budget, and only
          the verify iteration that holds a feed site steps. *)
  blocks : bool;
      (** dispatch through the pre-decoded translation-block engine
          ({!Blocks}); default on. Bit-identical to stepping — this is an
          escape hatch for debugging and for measuring the engine's own
          speedup. The engine silently self-disables when a trace
          observer is configured (it needs per-step fidelity). A live
          translator session does not force stepping: once it verifies, each later loop iteration
          runs as the loop body's block closures with a per-instruction
          value capture fed to the translator in one batch (no capture
          when the translator reads no values), and a
          session whose translator has failed runs the plain block
          engine until the region returns. The session still steps its
          first (Build) iteration, the region return, any body that is
          not a straight-line run ending in its back-edge, an iteration
          the fuel budget might not cover, and everything while
          [interrupt_interval] is set (an interrupt aborts a session at
          an exact cycle). The engine also forms trace superblocks on
          hot conditional back-edges and runs steady-state loop
          iterations through them; a superblock bails to the block path
          under fuel pressure, and while a translator session is live
          none is heated, formed or entered. *)
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
  icache_counters : Cache.counters;
      (** the instruction cache's own tally; [stats.icache_*] is derived
          from it at collection (single writer) *)
  dcache_counters : Cache.counters;  (** likewise for the data cache *)
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
  feed_events : int;
      (** events offered to a live translator session over the whole
          run, including those after its translator has failed: the
          feed sites [\[0, feed_events)] a {!Fault.Force_abort} or
          {!Fault.Corrupt_feed} can address *)
  fault_fired : bool;
      (** the armed {!config.fault} reached its site. Always [false] for
          [Exhaust_fuel], whose trigger is the [Fuel_exhausted] stop *)
}

val run : ?config:config -> Image.t -> run
(** Execute the image from its entry point until [halt].
    A run that cannot finish raises {!Diag.Error} and nothing else: the
    typed fault plus a machine snapshot (pc, cycle, retired count) on
    runaway execution, a wild pc, corrupt microcode, or an instruction
    this machine cannot execute ([Diag.Illegal]: a vector instruction
    without an accelerator, or one the accelerator's width rejects).
    The engine and stepping ([blocks = false]) stop with identical
    diagnostics. *)
