(** Translated microcode: the SIMD realization of an outlined region.

    A microcode sequence mixes vector instructions with the scalar glue
    the paper's Table 3 passes through unmodified (induction-variable
    setup and update, the loop compare and branch, reduction-accumulator
    initialization). Branches inside microcode target microcode indices;
    [URet] returns to the region's caller. *)

open Liquid_isa
open Liquid_visa

type uop =
  | US of Insn.exec  (** pass-through scalar instruction (never a branch) *)
  | UV of Vinsn.exec
  | UG of Governed.t
      (** governed operation — only emitted by the VLA backend (under a
          predicate) and the RVV backend (under the [vl] grant) *)
  | UB of { cond : Cond.t; target : int }  (** intra-microcode branch *)
  | URet

type guard = {
  g_addr : int;  (** effective address the folded element was loaded from *)
  g_bytes : int;
  g_signed : bool;
  g_expect : int;  (** the value baked into the vector constant *)
}
(** Live-invariance guard for a constant-folded operand. The translator
    may rewrite a loaded operand stream into a vector constant (the
    paper's alignment-network collapse); that is only valid while the
    source memory keeps the observed values. Each guard pins one folded
    element; a consumer must re-read every guard before reusing cached
    microcode and retranslate on any mismatch — a store to a folded
    source (e.g. a fission scratch array rewritten by an earlier region)
    otherwise leaves the constant stale. *)

(** Which backend produced a sequence; {!Backend} re-exports it. *)
type kind =
  | Fixed  (** fixed-width (Neon-like): plain vector ops *)
  | Vla  (** vector-length-agnostic: predicate-governed ops *)
  | Rvv  (** RVV-style stripmining: [vl]-governed ops, LMUL groups *)

type t = {
  uops : uop array;
  width : int;
      (** effective lane count the sequence was translated for. For the
          fixed-width backend it is at most the accelerator width and
          always divides the loop's trip count; for the VLA backend it
          is the full accelerator width and the final iteration may run
          under a partial predicate; for the RVV backend it is the
          accelerator width times the [lmul] register-group factor and
          the final iteration may run under a shortened [vl] grant *)
  kind : kind;  (** the backend that translated the sequence *)
  lmul : int;
      (** register-group factor the translator chose from this region's
          vector-register pressure: each logical vector value occupies
          [lmul] architectural vector registers, multiplying the
          effective width. Always 1 for the fixed-width and VLA
          backends *)
  source_insns : int;  (** static scalar instructions of the region *)
  observed_insns : int;  (** dynamic instructions the translator consumed *)
  guards : guard array;
      (** live-invariance guards over folded constant sources and
          recovered permutation offset streams; empty when nothing was
          baked from memory *)
}

val length : t -> int
(** Number of micro-ops — the microcode-buffer occupancy this region
    costs. *)

val branch_key : entry:int -> max_uops:int -> index:int -> int
(** Synthetic branch-predictor key for the intra-microcode branch at uop
    [index] of the region entered at image address [entry], with
    [max_uops] the machine's microcode-capacity bound. Offset past the
    image address space so microcode branches never alias image branches
    in the predictor; unique per (region, branch site). All consumers of
    microcode branch prediction (the stepping interpreter and the block
    engine) must use this one definition so their predictor state stays
    bit-identical. *)

val pp_uop : Format.formatter -> uop -> unit
(** One micro-op in the assembly-like listing syntax. *)

val pp : Format.formatter -> t -> unit
(** Full listing: a header line naming the effective width, backend
    flavour (and LMUL group under {!Rvv}), uop and guard counts, then one
    numbered line per micro-op. *)
