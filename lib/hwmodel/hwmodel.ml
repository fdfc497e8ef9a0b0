open Liquid_translate.Backend

type params = {
  lanes : int;
  registers : int;
  buffer_entries : int;
  target : kind;
  lmul : int;
}

let default_params =
  {
    lanes = 8;
    registers = 16;
    buffer_entries = 64;
    target = Fixed;
    lmul = 1;
  }

type report = {
  params : params;
  decoder_cells : int;
  legality_cells : int;
  regstate_cells : int;
  opgen_cells : int;
  buffer_cells : int;
  pred_cells : int;
  tbl_cells : int;
  total_cells : int;
  crit_path_gates : int;
  crit_path_ns : float;
  freq_mhz : float;
  area_mm2 : float;
}

(* Calibration constants (see the interface): chosen so that the default
   8-wide / 16-register / 64-entry fixed-width configuration totals
   exactly the 174,117 cells, 16 gates and 1.51 ns of the paper's
   Table 2, with the register state at 55% of the area. *)

let decoder_cells_const = 3_009
let legality_cells_const = 300
let regstate_base_per_reg = 2_465 (* class, size and addressing state *)
let regstate_per_reg_per_lane = 440 (* previous-value storage + muxes *)
let opgen_cells_const = 9_000
let buffer_storage_per_entry = 540 (* 32 bits of microcode storage *)
let buffer_align_per_entry = 492 (* alignment / collapse network *)
let gate_delay_ns = 1.51 /. 16.0
let cell_area_mm2 = 1.1e-6

(* VLA additions (not in the paper; scaled from the same cell library):
   a whilelt comparator (32-bit subtract + clamp against the lane
   count), a small predicate file storing one active-lane count per
   predicate register (log2(lanes)+1 bits each, plus read muxing), and
   the widened opcode generator that inserts the governing-predicate
   field into every emitted vector operation. *)

let vla_whilelt_cells = 900
let vla_predfile_base_per_preg = 120
let vla_predfile_per_preg_per_log_lane = 24
let vla_opgen_extra = 600
let vla_pred_count = 8

(* Table-lookup permutation unit (VLA only): recovered fixed-geometry
   permutations execute as predicated gathers through a runtime-built
   index table, so the translator carries a small pattern store (the
   recovered offsets, one signed byte per element up to the 16-element
   catalog period) and a per-lane index datapath (counter + offset add
   behind a mod-period mask) feeding the gather address generator. The
   index table is materialised once per region call, off the per-uop
   critical path, so the unit adds area but no gates to the path. *)

let vla_tbl_store_cells = 520
let vla_tbl_adder_per_lane = 310

(* RVV additions: a vsetvl grant unit (32-bit subtract + clamp against
   the lane count, like the whilelt comparator, feeding a single vl CSR
   instead of a predicate file), the widened opcode generator that
   inserts the vl governance into every emitted vector operation, and —
   when register grouping is configured — the LMUL regrouping muxes that
   remap each vector-register specifier onto its [lmul]-register group.
   The table-lookup permutation unit is shared with the VLA target,
   sized at the grouped (effective) width. *)

let rvv_vsetvl_cells = 860
let rvv_opgen_extra = 700
let rvv_group_mux_per_reg_per_log = 40

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

let estimate params =
  if
    params.lanes < 2 || params.registers < 1 || params.buffer_entries < 1
    || params.lmul < 1
  then invalid_arg "Hwmodel.estimate: bad parameters";
  (* The RVV target's previous-value state and table-lookup datapath are
     sized at the grouped (effective) width: LMUL multiplies the element
     count one emitted operation covers. [lmul] is 1 for the other
     targets. *)
  let eff_lanes =
    match params.target with
    | Rvv -> params.lanes * params.lmul
    | Fixed | Vla -> params.lanes
  in
  let decoder_cells = decoder_cells_const in
  let legality_cells = legality_cells_const in
  let regstate_cells =
    params.registers
    * (regstate_base_per_reg + (regstate_per_reg_per_lane * eff_lanes))
  in
  let opgen_cells =
    opgen_cells_const
    + (match params.target with
      | Fixed -> 0
      | Vla -> vla_opgen_extra
      | Rvv ->
          rvv_opgen_extra
          + params.registers * rvv_group_mux_per_reg_per_log
            * log2_ceil params.lmul)
  in
  let buffer_cells =
    params.buffer_entries * (buffer_storage_per_entry + buffer_align_per_entry)
  in
  let pred_cells =
    match params.target with
    | Fixed -> 0
    | Vla ->
        vla_whilelt_cells
        + vla_pred_count
          * (vla_predfile_base_per_preg
            + (vla_predfile_per_preg_per_log_lane * log2_ceil params.lanes))
    | Rvv -> rvv_vsetvl_cells
  in
  let tbl_cells =
    match params.target with
    | Fixed -> 0
    | Vla -> vla_tbl_store_cells + (vla_tbl_adder_per_lane * params.lanes)
    | Rvv -> vla_tbl_store_cells + (vla_tbl_adder_per_lane * eff_lanes)
  in
  let total_cells =
    decoder_cells + legality_cells + regstate_cells + opgen_cells
    + buffer_cells + pred_cells + tbl_cells
  in
  (* 5 gates of partial decode plus the register-state previous-value
     read/conditional-write path, whose mux tree deepens with log2 of
     the lane count. The VLA target adds one gate: the governing
     predicate muxed into the emitted operation. The RVV target adds
     the same governance gate plus the LMUL specifier-regroup mux,
     which deepens with log2 of the group factor. *)
  let crit_path_gates =
    5 + 8 + log2_ceil params.lanes
    + (match params.target with
      | Fixed -> 0
      | Vla -> 1
      | Rvv -> 1 + log2_ceil params.lmul)
  in
  let crit_path_ns = float_of_int crit_path_gates *. gate_delay_ns in
  {
    params;
    decoder_cells;
    legality_cells;
    regstate_cells;
    opgen_cells;
    buffer_cells;
    pred_cells;
    tbl_cells;
    total_cells;
    crit_path_gates;
    crit_path_ns;
    freq_mhz = 1000.0 /. crit_path_ns;
    area_mm2 = float_of_int total_cells *. cell_area_mm2;
  }

let label r =
  Printf.sprintf "%d-wide %sTranslator" r.params.lanes
    (match r.params.target with
    | Fixed -> ""
    | Vla -> "VLA "
    | Rvv -> Printf.sprintf "RVV m%d " r.params.lmul)

let pp_report ppf r =
  Format.fprintf ppf "%s | %d gates | %.2f ns (%.0f MHz) | %d cells | %.3f mm^2"
    (label r) r.crit_path_gates r.crit_path_ns r.freq_mhz r.total_cells
    r.area_mm2
