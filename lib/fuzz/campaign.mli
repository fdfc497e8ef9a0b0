(** The seeded differential fuzzing campaign, over generated programs
    or the workloads.

    [run ~seed ~cases] fans case indices across the {!Liquid_harness}
    domain pool, pushes every case's program through the {!Differ}
    matrix, and folds the results into one report: clean/divergent
    counts, fault cells by kind and how many fired, the
    translation-abort class histogram, a per-(variant, kind)
    divergence histogram, and a power-of-two trip-count histogram — all
    emitted as a schema-validated {!Liquid_obs.Json} document
    (["liquid-fuzz-report/1"], {!Liquid_obs.Schema.fuzz_report}).

    Case [i] is the {!Gen} program [(seed, i)], or with [workloads] the
    program of workload [i mod n]; either way its fault draws come from
    [fault_seed_of ~seed ~index:i]. *)

open Liquid_scalarize
open Liquid_workloads

type report = {
  r_seed : int;
  r_cases : int;
  r_faults : bool;  (** seeded fault runs were included in the matrix *)
  r_runs : int;  (** simulations executed, all cases summed *)
  r_installs : int;  (** regions that completed translation, summed *)
  r_fault_cells : int;  (** seeded fault cells run, summed *)
  r_faults_fired : int;  (** fault cells whose fault triggered, summed *)
  r_fault_kinds : (string * int) list;
      (** fault cells by {!Liquid_faults.Fault.kind_name} *)
  r_clean : int;  (** cases with an empty divergence list *)
  r_divergent : (int * string * Differ.divergence list) list;
      (** failing cases by index, in index order, with the name of the
          case's program (the workload, or {!Gen.case_name}) *)
  r_aborts : (string * int) list;  (** abort-class histogram, summed *)
  r_div_hist : (string * int) list;
      (** divergences bucketed by ["label kind"] *)
  r_trip_hist : Liquid_obs.Hist.t;  (** trip counts of generated loops *)
}

val fault_seed_of : seed:int -> index:int -> int
(** The per-case fault seed the campaign derives — exposed so a repro
    of case [index] can replay the exact same fault draws. *)

val run :
  ?domains:int ->
  ?workloads:Workload.t list ->
  ?faults:bool ->
  seed:int ->
  cases:int ->
  unit ->
  report
(** Run the campaign. [workloads] (default [\[\]]: generated programs)
    selects the case source. [faults] (default [true]) adds the three
    seeded fault cells to every case's matrix. *)

val shrunk_repro :
  ?workloads:Workload.t list ->
  ?faults:bool ->
  seed:int ->
  index:int ->
  unit ->
  Vloop.program option
(** Rebuild case [index] of the same source, and if it diverges, shrink it with
    {!Shrink.minimize} under the case's own divergence signature
    ({!Differ.fails_like}); [None] if the case is clean. *)

val to_json : report -> Liquid_obs.Json.t
(** The validated campaign document; raises [Invalid_argument] if the
    emitted document fails its own schema (a bug). *)

val pp : Format.formatter -> report -> unit
(** Human summary: totals, both histograms, and the failing case
    indices with their divergence labels. *)
