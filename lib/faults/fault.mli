(** The fault taxonomy, its printers, the site space of a run and the
    seeded generator campaigns draw sites with.

    Every fault attacks the {e translation} path of the Liquid SIMD
    machine — the part the paper claims may fail at any point without
    affecting correctness (HPCA 2007 §3.2/§4.2). None of them touch the
    executed scalar stream, so the scalar-equivalence oracle
    ({!Oracle}) must hold after any of them. A fault is plain data:
    put it in {!Liquid_pipeline.Cpu.config.fault} and read
    {!Liquid_pipeline.Cpu.run.fault_fired} off the run. *)

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

type t = Liquid_pipeline.Fault.t =
  | Force_abort of { site : int; abort : Abort.t }
  | Corrupt_feed of { site : int }
  | Evict_ucode of { call : int }
  | Exhaust_fuel of { budget : int }
(** {!Liquid_pipeline.Fault.t}, where each constructor is documented.
    Sites and calls count from 0, so a run whose {!space} has [n] of
    them offers exactly the sites [\[0, n)]. *)

val to_string : t -> string

val kind_name : t -> string
(** ["force-abort"], ["corrupt-feed"], ["evict-ucode"] or
    ["exhaust-fuel"]: the prefix of {!to_string}. *)

(** The addressable site space of one clean run. *)
type space = {
  sp_feeds : int;  (** translator feed events across the whole run *)
  sp_calls : int;  (** region calls across the whole run *)
  sp_retired : int;  (** instructions retired by the clean run *)
}

val space_of : Cpu.run -> space
(** The site space of a finished clean run, read off its record: the
    same on the block engine as on a [blocks = false] run. *)
