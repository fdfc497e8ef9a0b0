(** Analytic area/delay model of the dynamic translation hardware.

    The paper synthesized its translator in a 90 nm IBM standard-cell
    process (Table 2: 16-gate critical path, 1.51 ns, 174,117 cells,
    under 0.2 mm² for the 8-wide configuration) and describes how each
    block scales (§4.1):

    - the {e partial decoder} is a few thousand cells, 5 of the 16
      critical-path gates, and does not scale with width;
    - the {e legality checks} are a few hundred cells, off the critical
      path;
    - the {e register state} is 55% of the area, 11 of 16 critical-path
      gates (previous-value read/conditional write), and grows linearly
      with both the architectural register count and the vector length;
    - the {e opcode generation logic} is about 9,000 cells;
    - the {e microcode buffer} stores 64 x 32-bit instructions (256
      bytes), a little more than half of its cells, the rest being the
      alignment network that collapses invalidated instructions.

    This module reproduces that accounting: the constants are calibrated
    so the default configuration (8 lanes, 16 registers, 64-entry
    buffer) lands exactly on the published totals, and the documented
    scaling laws extrapolate other configurations. The buffer cell count
    is derived as the residual of the published total, since the
    component figures quoted in the paper's prose slightly overlap. *)

type params = {
  lanes : int;  (** accelerator vector width *)
  registers : int;  (** architectural integer registers *)
  buffer_entries : int;  (** microcode buffer capacity (instructions) *)
  target : Liquid_translate.Backend.kind;
      (** translation target the hardware emits for: [Fixed], the
          paper's Neon-like fixed-width target; [Vla], which adds a
          whilelt comparator, a predicate file, a wider opcode generator
          and the table-lookup permutation unit; or [Rvv], which adds a
          vsetvl grant unit (comparator + clamp feeding a single [vl]
          CSR instead of a predicate file), vl-governance in the opcode
          generator, the LMUL specifier-regroup muxes when register
          grouping is configured, and the shared table-lookup
          permutation unit sized at the grouped width. The [Vla] and
          [Rvv] costs are not in the paper; they are scaled from the
          same cell library *)
  lmul : int;
      (** register-group factor provisioned for the [Rvv] target: the
          previous-value state, table-lookup datapath and regroup muxes
          are sized for operations covering [lanes * lmul] elements.
          Ignored (keep 1) for the other targets *)
}

val default_params : params
(** 8 lanes, 16 registers, 64 entries, fixed-width, LMUL 1 — the
    paper's configuration. *)

type report = {
  params : params;
  decoder_cells : int;
  legality_cells : int;
  regstate_cells : int;
  opgen_cells : int;
  buffer_cells : int;
  pred_cells : int;
      (** remainder-mechanism state: whilelt comparator + predicate file
          for [Vla], vsetvl grant unit + [vl] CSR for [Rvv]; 0 for
          [Fixed] *)
  tbl_cells : int;
      (** table-lookup permutation unit — pattern store plus per-lane
          index adders for recovered permutations; 0 for [Fixed],
          sized at the grouped width for [Rvv]. Off the critical path:
          the index table is built once per region call, not per
          emitted uop *)
  total_cells : int;
  crit_path_gates : int;
  crit_path_ns : float;
  freq_mhz : float;
  area_mm2 : float;
}

val estimate : params -> report

val label : report -> string
(** The row's description column, e.g. ["8-wide VLA Translator"] or
    ["4-wide RVV m4 Translator"]. *)

val pp_report : Format.formatter -> report -> unit
(** One row in the format of the paper's Table 2. *)
