(** The fault taxonomy and the seeded deterministic injector.

    Every fault attacks the {e translation} path of the Liquid SIMD
    machine — the part the paper claims may fail at any point without
    affecting correctness (HPCA 2007 §3.2/§4.2). None of them touch the
    executed scalar stream, so the scalar-equivalence oracle
    ({!Oracle}) must hold after any of them. *)

open Liquid_translate
open Liquid_pipeline

(** Deterministic splitmix64 generator: campaigns are reproducible from
    a single integer seed. *)
module Rng : sig
  type t

  val make : int -> t
  val int : t -> int -> int
  (** [int t bound] is uniform in [\[0, bound)]; [bound] must be > 0. *)

  val pick : t -> 'a list -> 'a
end

(** Sites and calls count from 0, so a run whose {!space} has [n] of
    them offers exactly the sites [\[0, n)]. *)
type t =
  | Force_abort of { site : int; abort : Abort.t }
      (** inject [abort] into the live translation session at feed
          event [site] (a global index across all sessions of the run) *)
  | Corrupt_feed of { site : int }
      (** replace the instruction of feed event [site] with an
          untranslatable one — a decode glitch on the translation path *)
  | Evict_ucode of { call : int }
      (** evict the region's microcode entry just before region call
          [call] of the run *)
  | Exhaust_fuel of { budget : int }
      (** run with a retired-instruction watchdog of [budget]; the run
          must stop with a structured [Fuel_exhausted] diagnostic *)

val to_string : t -> string

val kind_name : t -> string
(** ["force-abort"], ["corrupt-feed"], ["evict-ucode"] or
    ["exhaust-fuel"]: the prefix of {!to_string}. *)

type armed = {
  hooks : Cpu.fault_hooks option;  (** to place in {!Cpu.config.faults} *)
  fuel : int option;  (** watchdog override, for {!Exhaust_fuel} *)
  fired : unit -> int;  (** how many times the fault actually triggered *)
}

val arm : t -> armed
(** Compile a fault into CPU hooks closing over their own trigger
    counters. Arm a fresh value per run — [armed] is single-use. *)

val configure : armed -> Cpu.config -> Cpu.config
(** [config] with the armed hooks and watchdog budget in place. *)

val no_hooks : Cpu.fault_hooks
(** Hooks that never fire (a convenient base for partial overrides). *)

(** The addressable site space of one clean run. *)
type space = {
  sp_feeds : int;  (** translator feed events across the whole run *)
  sp_calls : int;  (** region calls across the whole run *)
  sp_retired : int;  (** instructions retired by the clean run *)
}

val counting_hooks : unit -> Cpu.fault_hooks * (Cpu.run -> space)
(** Hooks that inject nothing and count translator feed events, and the
    {!space} of the clean run they were attached to, read off its end.
    Like any hooks they keep the block engine off, so the run steps
    exactly as a [blocks = false] run does. *)
