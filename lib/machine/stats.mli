(** Mutable counters collected during a simulation run.

    Single-writer discipline: every counter here has exactly one source.
    The CPU core owns the execution-stream counters (cycles, fetches,
    retired instructions, loads/stores, region calls, ucode hits,
    translation start/abort/busy). Counters that mirror a hardware
    unit's internal tally — cache hits/misses, branch predictor
    mispredicts, microcode-cache installs/evictions — are {e derived}
    from that unit when the run is collected, never bumped
    independently, so they can't drift from the unit's own view
    ({!Liquid_obs.Snapshot} turns any disagreement into a test
    failure). *)

type t = {
  mutable cycles : int;  (** total elapsed cycles *)
  mutable fetches : int;
      (** instruction fetches from the binary image (one per step;
          microcode uops execute out of the microcode cache and do not
          fetch) *)
  mutable scalar_insns : int;  (** retired baseline-ISA instructions *)
  mutable vector_insns : int;  (** retired SIMD instructions *)
  mutable uops_retired : int;
      (** microcode uops retired (already included in
          scalar_insns/vector_insns; conservation:
          [scalar + vector = fetches + uops_retired]) *)
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;  (** derived: {!Branch_pred} lookups *)
  mutable branch_mispredicts : int;  (** derived: {!Branch_pred} *)
  mutable icache_hits : int;  (** derived: instruction {!Cache} *)
  mutable icache_misses : int;  (** derived: instruction {!Cache} *)
  mutable dcache_hits : int;  (** derived: data {!Cache} *)
  mutable dcache_misses : int;  (** derived: data {!Cache} *)
  mutable region_calls : int;  (** calls of outlined (translatable) regions *)
  mutable ucode_hits : int;  (** region calls served from the microcode cache *)
  mutable ucode_installs : int;  (** derived: microcode cache *)
  mutable ucode_evictions : int;
      (** derived: microcode cache (capacity and forced evictions) *)
  mutable translations_started : int;
  mutable translations_aborted : int;
  mutable translation_busy_cycles : int;
      (** cycles during which the translator was occupied *)
}

val create : unit -> t

val fields : (string * (t -> int)) list
(** Every counter with its report name, in record order. This list is
    the [stats] section of a {!Liquid_obs.Snapshot}: its JSON object,
    its [stats.*] CSV rows and the keys its schema requires. *)

val total_insns : t -> int
val pp : Format.formatter -> t -> unit
