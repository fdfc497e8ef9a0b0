(* The RVV-style stripmined backend.

   Five layers are under test: the vector-length grant semantics
   ([Sem.exec_governed] under [Vl], cross-checked against a predicate by
   {!Governed_cases}), LMUL register-group selection
   ([Backend.S.register_group] directly and through the translated
   microcode's width), the translation structure (a vsetvl request-grant
   loop whose back-edge is the last uop before [ret] — nothing after the
   vector loop, no masks on the main path), the end-to-end claim of the
   backend (a trip count that is not a multiple of the lane width
   executes with zero scalar-epilogue iterations, the final trip running
   under a shortened grant), permutation recovery (fixed cross-lane
   patterns lower to grant-governed table lookups), and the
   scalar-equivalence oracle across all fifteen workloads at every paper
   width. *)

open Liquid_isa
open Liquid_pipeline
open Liquid_visa
open Liquid_translate
open Helpers
open Governed_cases
module Stats = Liquid_machine.Stats

(* The defining difference from [incvl]: the counter advances by the
   grant, so the final trip lands exactly on the bound. *)
let test_addvl () =
  let c = Sem.create_ctx (Memory.create ()) in
  c.Sem.lanes <- 4;
  let addvl () = exec c (Governed.Advance { dst = r 3; by = Governed.Granted }) in
  set_active Governed.Vl c ~counter:0 ~bound:15;
  c.Sem.regs.(3) <- 12;
  addvl ();
  check "advanced by the full grant" 16 c.Sem.regs.(3);
  set_active Governed.Vl c ~counter:12 ~bound:15;
  c.Sem.regs.(3) <- 12;
  addvl ();
  check "advanced by the shortened grant" 15 c.Sem.regs.(3)

(* --- LMUL register-group selection --- *)

let register_group backend =
  let module B = (val backend : Backend.S) in
  B.register_group

let test_register_group () =
  let rvv = register_group Backend.rvv in
  (* Narrow datapath, light pressure: the full m8 group fits both the
     16-element maximum vector length and the 16-entry vector file. *)
  check "2 lanes, pressure 2" 8 (rvv ~lanes:2 ~pressure:2);
  check "4 lanes, pressure 2" 4 (rvv ~lanes:4 ~pressure:2);
  check "8 lanes, pressure 2" 2 (rvv ~lanes:8 ~pressure:2);
  (* The maximum vector length caps the group before pressure does. *)
  check "16 lanes cannot group" 1 (rvv ~lanes:16 ~pressure:1);
  (* Pressure caps the group before the vector length does: grouping
     multiplies every live value's register footprint. *)
  check "pressure 3 fits m4" 4 (rvv ~lanes:2 ~pressure:3);
  check "pressure 5 fits m2" 2 (rvv ~lanes:2 ~pressure:5);
  check "full file cannot group" 1 (rvv ~lanes:2 ~pressure:16);
  (* A region with no live vector values grades as pressure 1. *)
  check "zero pressure clamps to 1" 8 (rvv ~lanes:2 ~pressure:0);
  (* The other backends never group. *)
  check "fixed never groups" 1 (register_group Backend.fixed ~lanes:2 ~pressure:1);
  check "vla never groups" 1 (register_group Backend.vla ~lanes:2 ~pressure:1)

(* --- translation structure: the FIR-15 loop --- *)

let test_rvv_translation_structure () =
  let u =
    match fir15_translate ~backend:Backend.rvv ~lanes:4 with
    | Translator.Translated u -> u
    | Translator.Aborted a ->
        Alcotest.failf "RVV backend aborted: %s" (Abort.to_string a)
  in
  check_bool "marked as RVV microcode" true (u.Ucode.kind = Ucode.Rvv);
  (* Two live vector values at 4 base lanes grade an m4 group: the
     effective translation width is the full 16-element maximum. *)
  check "LMUL group factor" 4 u.Ucode.lmul;
  check "grouped width" 16 u.Ucode.width;
  let uops = Array.to_list u.Ucode.uops in
  let count p = List.length (List.filter p uops) in
  let vsetvl = function
    | Ucode.UG (Governed.Set_active { into = Governed.Vl; _ }) -> true
    | _ -> false
  in
  check "one header + one loop-end vsetvl" 2 (count vsetvl);
  check "one grant-sized induction advance" 1
    (count (function
      | Ucode.UG (Governed.Advance { by = Governed.Granted; _ }) -> true
      | _ -> false));
  check "every body op under the grant" 6
    (count (function
      | Ucode.UG (Governed.Op { gov = Governed.Vl; _ }) -> true
      | _ -> false));
  check "no unguarded vector ops" 0
    (count (function Ucode.UV _ -> true | _ -> false));
  check "no predicate machinery" 0
    (count (function
      | Ucode.UG
          ( Governed.Set_active { into = Governed.Pred _; _ }
          | Governed.Advance { by = Governed.Lanes; _ }
          | Governed.Op { gov = Governed.Pred _; _ }
          | Governed.Tblidx { gov = Governed.Pred _; _ }
          | Governed.Tbl { gov = Governed.Pred _; _ }
          | Governed.Tblst { gov = Governed.Pred _; _ } ) ->
          true
      | _ -> false));
  (* Zero scalar-epilogue structure: the back-edge is the last uop
     before [ret] — nothing runs after the vector loop. *)
  let n = Array.length u.Ucode.uops in
  check_bool "ret terminates" true (u.Ucode.uops.(n - 1) = Ucode.URet);
  (match u.Ucode.uops.(n - 2) with
  | Ucode.UB { cond = Cond.Lt; target } ->
      (* ...and the back-edge re-enters after the header vsetvl, which
         runs exactly once. *)
      if not (vsetvl u.Ucode.uops.(target - 1)) then
        Alcotest.fail "back-edge target not after the header vsetvl"
  | _ -> Alcotest.fail "expected the loop back-edge right before ret");
  (* The loop-end vsetvl must renew the grant and the flags before the
     back-edge tests them. *)
  if not (vsetvl u.Ucode.uops.(n - 3)) then
    Alcotest.fail "expected the loop-end vsetvl before the back-edge"

(* --- end-to-end: shortened final grant, bit-identical state --- *)

let test_zero_scalar_epilogue () =
  (* Memory is checked bit-identical to the pure-scalar run. (Unlike
     VLA's next-multiple-of-VL overshoot, the RVV counter lands exactly
     on the bound — [Advance Granted] steps by the shortened grant.) *)
  let run = fir15_oracle_run ~backend:Backend.rvv ~lanes:4 in
  (* The m4 group covers all 15 trips in a single stripmine iteration
     under a 15-element grant: 1 x 6 grant-governed ops per frame, and
     the 15-of-16 shortened grant replaces any scalar epilogue. *)
  check "grant-governed vector work only" (4 * 6)
    run.Cpu.stats.Stats.vector_insns;
  match run.Cpu.regions with
  | [ { Cpu.outcome = Cpu.R_installed { width; _ }; _ } ] ->
      check "installed at the grouped width" 16 width
  | _ -> Alcotest.fail "expected one installed region"

(* Beyond recovering its butterflies, FFT under RVV grades LMUL groups
   by region pressure — on 8-lane hardware some regions install 16-wide
   (m2) microcode while the register-hungry ones stay at the base
   width. *)
let test_fft_recovers_and_groups () =
  let run = fft_recovers Backend.rvv in
  let widths =
    List.filter_map
      (fun (reg : Cpu.region_report) ->
        match reg.Cpu.outcome with
        | Cpu.R_installed { width; _ } -> Some width
        | _ -> None)
      run.Cpu.regions
  in
  check_bool "some region grouped to 16-wide (m2)" true
    (List.mem 16 widths);
  check_bool "register-hungry region stays at base width" true
    (List.mem 8 widths)

let vl = Governed.Vl

let tests =
  [
    semantic vl set_active_unit;
    Alcotest.test_case "addvl advances by the grant" `Quick test_addvl;
    semantic vl dp_unit;
    semantic vl load_store_unit;
    semantic vl reduction_unit;
    Alcotest.test_case "lmul register-group selection" `Quick
      test_register_group;
    Alcotest.test_case "rvv translation structure" `Quick
      test_rvv_translation_structure;
    Alcotest.test_case "zero scalar-epilogue iterations" `Quick
      test_zero_scalar_epilogue;
    semantic vl tbl_unit;
    semantic vl tblst_unit;
    semantic vl tblidx_unit;
  ]
  @ perm_tests Backend.rvv
  @ [
      Alcotest.test_case "FFT recovers and groups under RVV" `Quick
        test_fft_recovers_and_groups;
    ]
  @ oracle_tests Backend.rvv
  @ [ semantic vl permutation_unit ]
