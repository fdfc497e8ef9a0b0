(* The vector-length-agnostic (SVE-style) backend.

   Five layers are under test: the predicate semantics
   ([Sem.exec_governed] under [Pred p0], cross-checked against the [vl]
   grant by {!Governed_cases}), the translation structure (a whilelt
   loop with a predicated final iteration and nothing after the
   back-edge), the end-to-end claim of the backend (a trip count that is
   not a multiple of the lane width executes with zero scalar-epilogue
   iterations, bit-identical to scalar), permutation recovery (fixed
   cross-lane patterns lower to runtime-indexed table lookups instead of
   aborting), and the scalar-equivalence oracle across all fifteen
   workloads at every paper width. *)

open Liquid_isa
open Liquid_pipeline
open Liquid_visa
open Liquid_translate
open Helpers
open Governed_cases
module Stats = Liquid_machine.Stats

(* Unlike the RVV grant, [incvl] always advances by the full vector
   length: the final trip overshoots to the next multiple of VL. *)
let test_incvl () =
  let c = Sem.create_ctx (Memory.create ()) in
  c.Sem.lanes <- 4;
  set_active p0 c ~counter:12 ~bound:15;
  c.Sem.regs.(3) <- 12;
  exec c (Governed.Advance { dst = r 3; by = Governed.Lanes });
  check "advanced by VL past the bound" 16 c.Sem.regs.(3);
  c.Sem.lanes <- 8;
  exec c (Governed.Advance { dst = r 3; by = Governed.Lanes });
  check "tracks the active width" 24 c.Sem.regs.(3)

(* --- translation structure: the FIR-15 loop --- *)

let test_fixed_backend_aborts () =
  List.iter
    (fun lanes ->
      match fir15_translate ~backend:Backend.fixed ~lanes with
      | Translator.Aborted Abort.Bad_trip_count -> ()
      | Translator.Aborted a ->
          Alcotest.failf "wrong abort at %d lanes: %s" lanes (Abort.to_string a)
      | Translator.Translated _ ->
          Alcotest.failf "fixed backend translated 15 trips at %d lanes" lanes)
    [ 2; 4; 8; 16 ]

let test_vla_translation_structure () =
  let u =
    match fir15_translate ~backend:Backend.vla ~lanes:4 with
    | Translator.Translated u -> u
    | Translator.Aborted a ->
        Alcotest.failf "VLA backend aborted: %s" (Abort.to_string a)
  in
  check_bool "marked as VLA microcode" true (u.Ucode.kind = Ucode.Vla);
  check "translated at the full lane count" 4 u.Ucode.width;
  let uops = Array.to_list u.Ucode.uops in
  let count p = List.length (List.filter p uops) in
  let whilelt = function
    | Ucode.UG (Governed.Set_active { into = Governed.Pred _; _ }) -> true
    | _ -> false
  in
  check "one header + one loop-end whilelt" 2 (count whilelt);
  check "one induction increment" 1
    (count (function
      | Ucode.UG (Governed.Advance { by = Governed.Lanes; _ }) -> true
      | _ -> false));
  check "every body op predicated" 6
    (count (function
      | Ucode.UG (Governed.Op { gov = Governed.Pred _; _ }) -> true
      | _ -> false));
  check "no unpredicated vector ops" 0
    (count (function Ucode.UV _ -> true | _ -> false));
  (* Zero scalar-epilogue structure: the back-edge is the last uop
     before [ret] — nothing runs after the vector loop. *)
  let n = Array.length u.Ucode.uops in
  check_bool "ret terminates" true (u.Ucode.uops.(n - 1) = Ucode.URet);
  (match u.Ucode.uops.(n - 2) with
  | Ucode.UB { cond = Cond.Lt; target } ->
      (* ...and the back-edge re-enters after the header whilelt, which
         runs exactly once. *)
      if not (whilelt u.Ucode.uops.(target - 1)) then
        Alcotest.fail "back-edge target not after the header whilelt"
  | _ -> Alcotest.fail "expected the loop back-edge right before ret");
  (* The loop-end whilelt must recompute the predicate before the
     back-edge tests the flags. *)
  if not (whilelt u.Ucode.uops.(n - 3)) then
    Alcotest.fail "expected the loop-end whilelt before the back-edge"

(* --- end-to-end: predicated epilogue, bit-identical state --- *)

let test_zero_scalar_epilogue () =
  let lanes = 4 in
  (* Memory is checked bit-identical to the pure-scalar run; registers
     are not: the VLA counter legitimately ends at the next multiple of
     VL, 16 rather than 15 — the oracle's junk mask handles this for the
     real workloads below. *)
  let run = fir15_oracle_run ~backend:Backend.vla ~lanes in
  (* ceil(15/4) = 4 vector iterations x 6 predicated ops per frame:
     the partial final iteration replaces 3 scalar-epilogue trips. *)
  check "predicated vector work only" (4 * 4 * 6)
    run.Cpu.stats.Stats.vector_insns;
  match run.Cpu.regions with
  | [ { Cpu.outcome = Cpu.R_installed { width; _ }; _ } ] ->
      check "installed at the full lane count" lanes width
  | _ -> Alcotest.fail "expected one installed region"

let test_fft_recovers () = ignore (fft_recovers Backend.vla)

let tests =
  [
    semantic p0 set_active_unit;
    Alcotest.test_case "incvl advances by VL" `Quick test_incvl;
    semantic p0 dp_unit;
    semantic p0 load_store_unit;
    semantic p0 reduction_unit;
    semantic p0 permutation_unit;
    Alcotest.test_case "fixed backend aborts on 15 trips" `Quick
      test_fixed_backend_aborts;
    Alcotest.test_case "vla translation structure" `Quick
      test_vla_translation_structure;
    Alcotest.test_case "zero scalar-epilogue iterations" `Quick
      test_zero_scalar_epilogue;
    semantic p0 tbl_unit;
    semantic p0 tblst_unit;
    semantic p0 tblidx_unit;
  ]
  @ perm_tests Backend.vla
  @ [
      Alcotest.test_case "FFT recovers its butterflies under VLA" `Quick
        test_fft_recovers;
    ]
  @ oracle_tests Backend.vla
