(** One typed record holding every observable of a finished run — the
    single place the rest of the system (benchmarks, CLI, tests) reads
    telemetry from.

    Every scalar counter is declared once, in {!registry}: its section,
    its key, what it measures and how to read it off a
    {!Liquid_pipeline.Cpu.run}. The run-level {!Liquid_machine.Stats}
    counters come from {!Liquid_machine.Stats.fields}; the others are
    the internal tallies of each hardware unit (instruction and data
    {!Liquid_machine.Cache}, {!Liquid_machine.Branch_pred},
    {!Liquid_pipeline.Ucode_cache}) and of the execution engine. The
    JSON document, the CSV rows and {!Schema.snapshot} are all derived
    from that list, so adding a counter is one [Cpu.run] field and one
    registry line.

    Beside the counters a snapshot holds the per-region timelines and
    three histograms (translation latency, inter-call gap, installed
    region uop count). {!invariants} then states the conservation laws
    that tie those layers together as relations over registered names;
    any drift between [Stats] and a unit's own tally — a second writer
    sneaking back in — comes out as a named violation instead of a
    silently wrong table. *)

open Liquid_pipeline

type counter = {
  section : string;  (** JSON object / CSV prefix the counter lives in *)
  key : string;  (** its key within the section *)
  doc : string;  (** what it measures *)
  get : Cpu.run -> int;  (** how to read it off a finished run *)
  engine : bool;
      (** telemetry of the block engine itself (the [superblocks]
          section): the only counters in which a [blocks = false] run
          may differ from the default one *)
}

val registry : counter list
(** Every snapshot counter, in document order. *)

val index : string -> int
(** Position in {!registry} of a registered name ["section.key"] (also
    the counter's CSV row key). Raises [Invalid_argument] on an
    unregistered name. *)

val sections : string list
(** The distinct sections of {!registry}, in document order. *)

type region = {
  r_label : string;
  r_entry : int;
  r_calls : int;  (** executions of the region (scalar + microcode) *)
  r_ucode_served : int;  (** executions substituted from the microcode cache *)
  r_scalar_calls : int;  (** [r_calls - r_ucode_served] *)
  r_outcome : string;  (** ["untried"], ["installed"] or ["failed: <abort>"] *)
  r_width : int;  (** installed lane width; 0 otherwise *)
  r_uops : int;  (** installed microcode length; 0 otherwise *)
}

type t = {
  s_label : string;
  s_variant : string;
  s_counters : int array;
      (** one value per {!registry} entry, at its {!index} *)
  s_regions : region list;
  s_latency_hist : Hist.t;
      (** translation latency in cycles, one sample per completed
          translation ({!Liquid_pipeline.Cpu.run.translation_latencies}) *)
  s_gap_hist : Hist.t;
      (** inter-call gap in cycles — [start(k+1) - end(k)] over each
          region's consecutive executions (paper Table 6's measure) *)
  s_uops_hist : Hist.t;  (** installed region microcode lengths *)
}

val histograms : (string * (t -> Hist.t)) list
(** The histograms by document name, in document order. *)

val of_run : ?label:string -> ?variant:string -> Cpu.run -> t
(** Everything comes from the run record, so a snapshot describes the
    run as it executed — on the block engine by default. *)

val invariants : (string * (t -> string option)) list
(** The named conservation invariants, in check order. Each is a
    relation over registered names (plus a few tallies over the regions
    and the gap histogram) that returns [None] when it holds and the
    offending values otherwise. The declarations in [snapshot.ml] read
    as the laws themselves — e.g. [insn-conservation] is
    ["stats.scalar_insns + stats.vector_insns" = "stats.fetches +
    stats.uops_retired"]; DESIGN.md §8 explains each one. *)

val invariant_count : int
(** [List.length invariants]; the document's [invariants.checked]. *)

val violations : t -> string list
(** ["name: detail"] for each invariant that fails, in {!invariants}
    order; empty iff every one holds. *)

val to_json : t -> Json.t
(** Schema ["liquid-obs-snapshot/1"]; validated by {!Schema.snapshot}.
    Includes the invariant verdict, so an emitted report carries its own
    consistency check. *)

val to_csv : t -> string
(** Flat [key,value] rows covering the same content (histograms as
    count/total/min/max/mean plus per-bucket rows). *)
