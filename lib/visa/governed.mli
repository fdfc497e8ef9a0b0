(** Governed accelerator operations: the one op set behind the
    vector-length-agnostic (SVE-style) and RVV-style translation
    targets.

    Where the fixed-width target ({!Vinsn}) encodes the lane count into
    the loop structure — the induction step advances by the width, so
    the trip count must divide evenly — these targets never name a
    width. Each loop iteration first sets an {e active-lane count}
    [min(max(bound - counter, 0), lanes)], and every body operation
    runs under it: lanes [0..k-1] compute, loads and stores touch only
    active elements, inactive destination lanes are zeroed and
    reductions fold active lanes only. A trip count that is not a
    multiple of the lane width therefore executes as one shortened
    final iteration instead of a scalar cleanup loop.

    The two targets are two spellings of that one count, told apart by
    the {e governor} ({!gov}):

    - {!Pred}: an SVE predicate register written by [whilelt]
      (Stephens et al., {e The ARM Scalable Vector Extension}). Because
      [whilelt] only ever produces prefix predicates, a predicate is
      fully represented by its active-lane count;
    - {!Vl}: the RVV vector-length CSR, written by [vsetvl] — the
      hardware {e grants} [vl] of the requested remaining length (the
      NEON-to-RVV mapping study in PAPERS.md catalogues this
      stripmining idiom as the replacement for both fixed epilogues and
      predication).

    The simulator stores every governor as one slot of an int array
    ({!slot}), so executing a governed op never dispatches on the
    governor. Only printing does: {!pp} spells each op in the syntax of
    its governor's target. *)

open Liquid_isa

type preg
(** A predicate register name ([p0]..[p7]). *)

val p0 : preg
(** The governing predicate the translator allocates for loop control. *)

type gov =
  | Pred of preg  (** an SVE predicate register: zeroing predication *)
  | Vl  (** the RVV vector-length grant (tail lanes pinned to zero) *)

val slot_count : int
(** Number of governor slots: one per architectural predicate register
    (8) plus the [vl] grant. *)

val slot : gov -> int
(** The governor's index into a [slot_count]-long array of active-lane
    counts: [Pred p] is the predicate's register number, [Vl] the last
    slot. *)

type advance =
  | Lanes  (** by the hardware vector length ([incvl]) *)
  | Granted  (** by the last [vl] grant ([add dst, dst, vl]) *)

type t =
  | Set_active of { into : gov; counter : Reg.t; bound : int }
      (** [into := min(max(bound - counter, 0), lanes)] — SVE [whilelt]
          under {!Pred}, RVV [vsetvl] under {!Vl}. Also sets the scalar
          condition flags from the signed comparison of [counter] with
          [bound], so the loop back-edge remains an ordinary [b.lt]. *)
  | Advance of { dst : Reg.t; by : advance }
      (** [dst := dst + step]. With {!Lanes} the counter overshoots to
          the next multiple of the vector length on the final trip; with
          {!Granted} it advances by the shortened grant and lands exactly
          on the bound. *)
  | Op of { gov : gov; v : Vinsn.exec }
      (** [v] executed under [gov]'s active-lane count. A full count
          runs the unmasked fixed-width semantics verbatim. *)
  | Tblidx of { gov : gov; pattern : Perm.t }
      (** Materialize the table-lookup index vector for [pattern] from
          the hardware's actual vector length — the runtime index build
          that makes a fixed-geometry permutation length-agnostic (the
          SVE [index]/[tbl] and RVV [vid]/[vrgather] preamble idioms).
          Placed once in the region prologue, before the loop header, so
          the build cost is paid per region call rather than per
          iteration. Purely register-state setup: no memory traffic, no
          flags; [gov] only selects the spelling. *)
  | Tbl of {
      gov : gov;
      esize : Esize.t;
      signed : bool;
      dst : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
      (** Table-lookup gather: for each active lane [j], load element
          [Perm.src_index pattern (counter + j)] of the array at [base]
          into [dst.(j)], zeroing inactive lanes (SVE [tbl], RVV
          [vluxei]). [Perm.src_index] floors block and position, so a
          counter below 0 reads the same elements under stepping and on
          the compiled engine. Because the lookup indexes the {e memory}
          element stream rather than the lanes of one register, it
          reproduces the scalar loop's permuted access order exactly —
          at any hardware width, including widths smaller than the
          pattern's period and shortened final iterations. *)
  | Tblst of {
      gov : gov;
      esize : Esize.t;
      src : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
      (** Table-lookup scatter — the store-side dual of {!Tbl} (RVV
          [vsuxei]): for each active lane [j], store [src.(j)] to element
          [Perm.src_index pattern (counter + j)] of the array at [base]
          (floored, as for {!Tbl}). [pattern] is the {e store-side}
          pattern as observed in the scalar offset stream, so the
          written addresses match the scalar loop's verbatim. *)

val is_vector : t -> bool
(** [true] for {!Op} and the table-lookup family ({!Tblidx}, {!Tbl},
    {!Tblst}) — the datapath operations; {!Set_active} and {!Advance}
    are loop-control overhead and account as scalar work. *)

val defs_vector : t -> Vreg.t list
(** Vector registers written, delegating to the wrapped instruction;
    [Tbl] writes its gather destination. *)

val uses_vector : t -> Vreg.t list
(** Vector registers read, delegating to the wrapped instruction;
    [Tblst] reads the register it scatters. *)

val pp : Format.formatter -> t -> unit
(** Prints SVE assembly under {!Pred} — [whilelt p0, r0, #15] /
    [p0/z vadd v1, v1, v2] / [incvl r0] / [tblidx] / [p0/z tbl.w] — and
    RVV assembly under {!Vl} — [vsetvl vl, r0, #15] / [vl/vadd v1, v1, v2]
    / [add r0, r0, vl] / [vidx] / [vl/vlux.w]. Addresses print in hex. *)
