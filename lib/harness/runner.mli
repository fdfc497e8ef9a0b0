(** Running one benchmark under one machine/binary configuration. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_workloads

type variant =
  | Baseline  (** scalar binary (inline loops) on the plain core *)
  | Liquid_scalar  (** Liquid binary on a core with no accelerator *)
  | Liquid of {
      backend : Liquid_translate.Backend.kind;
          (** the translation target: fixed-width, VLA or RVV *)
      lanes : int;
          (** accelerator lane count; under RVV the translator may
              multiply the effective width by an LMUL register-group
              factor *)
      oracle : bool;
          (** microcode available from the first call — the paper's
              "built-in ISA support" comparison point (§5) — instead of
              the hardware translator *)
    }  (** Liquid binary on an accelerator with a dynamic translator *)
  | Native of int  (** native SIMD binary on a matching accelerator *)

type result = { variant : variant; program : Program.t; run : Cpu.run }

val variant_name : variant -> string

val variant_of_string : string -> (variant, string) Stdlib.result
(** Parse the CLI variant syntax — [baseline], [liquid:scalar],
    [liquid:W], [vla:W], [rvv:W], [oracle:W], [vla-oracle:W],
    [rvv-oracle:W], [native:W] (with the [liquid-] prefixed aliases,
    e.g. [liquid-vla:W]) — the inverse of {!variant_to_string}. The
    error carries a human-readable message. *)

val variant_to_string : variant -> string
(** The canonical wire spelling — the inverse of {!variant_of_string}
    (aliases normalize: [liquid-vla:8] prints as [vla:8]). Distinct from
    {!variant_name}, the human display name used in reports. *)

val program_of : Workload.t -> variant -> Program.t
(** Raises {!Liquid_scalarize.Codegen.Unsupported_width} when a native
    binary cannot be generated at the requested width. *)

val config_of : ?translation_cpi:int -> variant -> Cpu.config
(** The machine configuration a variant runs on — the single source of
    truth shared by {!run}, the CLI and the benchmarks. A [Liquid]
    variant selects the backend of its [backend] kind, and either the
    hardware translator at [translation_cpi] cycles per instruction or,
    with [oracle], zero-latency oracle translation; every other variant
    keeps the fixed-width backend. *)

val run :
  ?translation_cpi:int ->
  ?blocks:bool ->
  Workload.t ->
  variant ->
  result
(** [blocks] (default [true]) toggles the {!Cpu} translation-block
    engine and its trace-superblock tier — pinned counters are
    bit-identical either way; the knob exists for the engine's own
    differential tests and speedup benchmarks. *)

val run_cached : ?translation_cpi:int -> Workload.t -> variant -> result
(** Like {!run} with the block engine and its superblock tier on,
    memoized process-wide on [(workload name, variant,
    translation_cpi)] — simulations are pure, and the experiment suite
    re-requests the same runs dozens of times (every table wants every
    workload's baseline). Safe to call from multiple domains; the first
    completed run for a key is the one every caller sees. The memo table
    is a bounded exact-LRU ({!Lru}) of {!cache_capacity} entries.

    Treat the shared {!result} as read-only, and never read its
    [run.memory] from two domains at once: {!Liquid_machine.Memory}
    reads update the memory's one-entry page cache, so concurrent
    readers tear it and read the wrong page. Derive what a parallel
    caller needs (a fingerprint, a hash) once, under a lock, and share
    that instead. *)

val cache_capacity : int
(** Bound of the {!run_cached} memo table — sized to cover one full
    experiment report's distinct keys with room to spare. *)

val cache_counters : unit -> Lru.counters
(** Lifetime hit/miss/eviction tallies and current occupancy of the
    {!run_cached} memo. *)

val clear_cache : unit -> unit
(** Drop all memoized runs (for tests and long-lived processes). *)

type 'a failure = {
  f_index : int;  (** position of the failing item in the input list *)
  f_item : 'a;  (** the failing input itself *)
  f_exn : exn;  (** what [f] raised on it *)
}

val run_many_result :
  ?domains:int ->
  ('a -> 'b) ->
  'a list ->
  ('b, 'a failure) Stdlib.result list
(** [run_many_result f items] maps [f] over [items] on a pool of
    [domains] worker domains (default
    {!Domain.recommended_domain_count}), with work stealing and results
    returned in input order — deterministic regardless of scheduling.
    Falls back to a plain sequential map when the pool would have one
    worker. Each application is isolated: an [f] that raises yields
    [Error] for that item (reporting the input and the exception) while
    every other item still completes and returns [Ok] — no exception
    escapes the pool. *)

val run_many : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!run_many_result} for infallible [f]: unwraps the [Ok]s, re-raising
    the first failing item's exception (in input order) after the pool
    drains. *)

val snapshot : ?collector:Liquid_obs.Collector.t -> result -> Liquid_obs.Snapshot.t
(** Fold the result into an observability snapshot, labeled with the
    program name and {!variant_name}. Pass the [collector] that
    observed the run to populate the translation-latency histogram. *)

val speedup : baseline:Cpu.run -> Cpu.run -> float
(** [baseline.cycles / run.cycles]. *)
