(** The cross-product differential oracle for one program, generated
    or a workload's.

    One case fans out into 41 simulations of the {e same} Liquid binary
    — pure scalar (the reference), fixed-width, VLA and RVV accelerators
    at widths 2/4/8/16, each with the block engine (trace-superblock
    tier included) on and off, all three oracle-translation flavours,
    and three seeded fault cells — plus the inline-loop baseline
    binary. A fault cell attacks one live variant with any
    {!Liquid_faults.Fault.t} at a site inside that variant's clean run,
    whose {!Liquid_faults.Fault.space} is read off its block-engine-off
    cell's run record; the fault cell itself runs on the block engine,
    as the variant does by default. Every accelerated run must reproduce the reference's
    architectural state: all of data memory byte-for-byte and every
    register outside the image's dead-scratch mask
    ({!Liquid_faults.Oracle.mask_of_image}). *)

open Liquid_scalarize

type kind =
  | K_regs  (** live registers diverged, memory matched *)
  | K_mem  (** data memory diverged, live registers matched *)
  | K_both  (** both diverged *)
  | K_crash of string  (** the run died with a diagnostic or exception *)

type divergence = { d_label : string; d_kind : kind }
(** One failing cell of the matrix; [d_label] names the variant, engine
    flags and any injected fault. *)

type outcome = {
  o_runs : int;  (** simulations executed for this case *)
  o_installs : int;  (** regions that completed translation, summed *)
  o_aborts : (string * int) list;
      (** translation-abort class histogram ({!Liquid_translate.Abort.class_name}) *)
  o_fault_cells : Liquid_faults.Fault.t list;
      (** the faults the case injected, in draw order *)
  o_faults_fired : int;
      (** fault cells whose fault triggered: the run reached its site
          ({!Liquid_pipeline.Cpu.run.fault_fired}), or a watchdog cell
          stopped on its budget *)
  o_divergences : divergence list;  (** empty = the case is clean *)
}

val widths : int list
(** The accelerator widths the matrix covers, [\[2; 4; 8; 16\]]. *)

val run_case : ?fault_seed:int -> Vloop.program -> outcome
(** Run the whole matrix on one program. [fault_seed] additionally runs
    the three seeded fault cells; omit it for a fault-free matrix (the
    shrinker does, unless reproducing a fault-dependent bug). A watchdog
    cell's [Fuel_exhausted] stop is its expected outcome, not a
    divergence. Never raises: generation-to-run failures surface as
    [K_crash] divergences. *)

val diverging : ?fault_seed:int -> Vloop.program -> bool
(** [run_case] compressed to the shrinker's predicate: does any cell of
    the matrix diverge? *)

val kind_to_string : kind -> string
(** ["regs"], ["mem"], ["both"] or ["crash:<diag>"]. *)

val signature : outcome -> (string * string) list
(** The divergence signature of a failing outcome: the (label, kind
    constructor) pairs, deduplicated — [K_crash] details dropped so a
    shrunk crash with a different pc still counts as the same bug. *)

val fails_like : ?fault_seed:int -> (string * string) list -> Vloop.program -> bool
(** [fails_like sig_ p]: does [p] still exhibit at least one divergence
    with a (label, kind) in [sig_]? This is the shrinker predicate —
    unlike {!diverging} it refuses candidates whose only failures are
    {e new} bug classes (e.g. a mutilated program crashing in
    generation), so minimization cannot wander off the original bug. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One line per divergence plus the abort histogram. *)
