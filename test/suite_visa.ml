(* Unit tests for the vector ISA: widths, permutation patterns, vector
   instruction metadata. *)

open Liquid_isa
open Liquid_visa

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_arr = Alcotest.(check (array int))

(* --- Width --- *)

let test_width_lanes () =
  Alcotest.(check (list int)) "lanes" [ 2; 4; 8; 16 ]
    (List.map Width.lanes Width.all);
  check "max" 16 (Width.lanes Width.max);
  check_bool "of_lanes 8" true (Width.of_lanes 8 = Some Width.W8);
  check_bool "of_lanes 3" true (Width.of_lanes 3 = None)

(* --- Perm --- *)

let test_perm_periods () =
  check "pairswap" 2 (Perm.period Perm.pairswap);
  check "reverse" 8 (Perm.period (Perm.Reverse 8));
  check "rotate" 4 (Perm.period (Perm.Rotate { block = 4; by = 1 }))

let test_perm_well_formed () =
  check_bool "reverse 8" true (Perm.well_formed (Perm.Reverse 8));
  check_bool "reverse 3" false (Perm.well_formed (Perm.Reverse 3));
  check_bool "reverse 32" false (Perm.well_formed (Perm.Reverse 32));
  check_bool "rotate by 0" false
    (Perm.well_formed (Perm.Rotate { block = 4; by = 0 }));
  check_bool "rotate by block" false
    (Perm.well_formed (Perm.Rotate { block = 4; by = 4 }))

let test_perm_apply_reverse () =
  check_arr "reverse 4" [| 3; 2; 1; 0; 7; 6; 5; 4 |]
    (Perm.apply (Perm.Reverse 4) [| 0; 1; 2; 3; 4; 5; 6; 7 |])

let test_perm_apply_halfswap () =
  check_arr "bfly 4" [| 2; 3; 0; 1 |] (Perm.apply (Perm.Halfswap 4) [| 0; 1; 2; 3 |]);
  check_arr "bfly 8 blockwise"
    [| 4; 5; 6; 7; 0; 1; 2; 3; 12; 13; 14; 15; 8; 9; 10; 11 |]
    (Perm.apply (Perm.Halfswap 8) (Array.init 16 (fun i -> i)))

let test_perm_apply_rotate () =
  check_arr "rot 4 by 1" [| 1; 2; 3; 0 |]
    (Perm.apply (Perm.Rotate { block = 4; by = 1 }) [| 0; 1; 2; 3 |]);
  check_arr "pairswap" [| 1; 0; 3; 2 |] (Perm.apply Perm.pairswap [| 0; 1; 2; 3 |])

let test_perm_offsets_consistent () =
  (* dst.(i) = src.(i + offsets.(i mod period)) for every catalog
     pattern at every supported width. *)
  List.iter
    (fun p ->
      List.iter
        (fun lanes ->
          if Perm.supported p ~lanes then begin
            let src = Array.init lanes (fun i -> 100 + i) in
            let dst = Perm.apply p src in
            let offs = Perm.offsets_for p ~lanes in
            Array.iteri
              (fun i d -> check "lane" src.(i + offs.(i)) d)
              dst
          end)
        [ 2; 4; 8; 16 ])
    Perm.catalog

let test_perm_src_index_floored () =
  (* Block and position are floored, so a negative element reads the
     same offset as the compiled lookup's [offsets.(i land (b - 1))],
     and shifting [i] by a whole period shifts the result by it. *)
  check "reverse 4 at -1" (-4) (Perm.src_index (Perm.Reverse 4) (-1));
  check "pairswap at -1" (-2) (Perm.src_index Perm.pairswap (-1));
  List.iter
    (fun p ->
      let b = Perm.period p and offs = Perm.offsets p in
      for i = -40 to 40 do
        check "mask form" (i + offs.(i land (b - 1))) (Perm.src_index p i);
        check "period shift" (Perm.src_index p i - b) (Perm.src_index p (i - b))
      done)
    Perm.catalog

let test_perm_inverse () =
  List.iter
    (fun p ->
      let lanes = Perm.period p in
      let src = Array.init lanes (fun i -> i * 3) in
      check_arr
        (Format.asprintf "%a inverse" Perm.pp p)
        src
        (Perm.apply (Perm.inverse p) (Perm.apply p src)))
    Perm.catalog

let test_perm_cam_roundtrip () =
  (* The CAM identifies every catalog pattern from its tiled offsets. *)
  List.iter
    (fun p ->
      List.iter
        (fun lanes ->
          if Perm.supported p ~lanes then
            match Perm.find_by_offsets (Perm.offsets_for p ~lanes) with
            | Some q ->
                let src = Array.init lanes (fun i -> i) in
                check_arr "same permutation" (Perm.apply p src) (Perm.apply q src)
            | None -> Alcotest.failf "CAM missed %a" Perm.pp p)
        [ 2; 4; 8; 16 ])
    Perm.catalog

let test_perm_cam_miss () =
  check_bool "garbage offsets" true (Perm.find_by_offsets [| 3; 3; 3; 3 |] = None);
  check_bool "identity" true (Perm.find_by_offsets [| 0; 0; 0; 0 |] = None);
  check_bool "wrong length" true (Perm.find_by_offsets [| 1; -1; 1 |] = None)

let test_perm_supported () =
  check_bool "bfly8 at 16" true (Perm.supported (Perm.Halfswap 8) ~lanes:16);
  check_bool "bfly8 at 4" false (Perm.supported (Perm.Halfswap 8) ~lanes:4);
  check_bool "pairswap everywhere" true (Perm.supported Perm.pairswap ~lanes:2)

let test_perm_apply_bad_length () =
  Alcotest.check_raises "length"
    (Invalid_argument "Perm.apply: vector length not a multiple of the period")
    (fun () -> ignore (Perm.apply (Perm.Reverse 4) [| 1; 2; 3 |]))

(* --- Vreg / Vinsn --- *)

let test_vreg_shadow () =
  check "v3 shadows r3" 3 (Vreg.index (Vreg.of_scalar (Reg.make 3)))

let v = Vreg.make
let r = Reg.make

let test_vinsn_metadata () =
  let open Vinsn in
  let vdp : exec = Vdp { op = Opcode.Add; dst = v 1; src1 = v 2; src2 = VR (v 3) } in
  Alcotest.(check (list int)) "vdp defs" [ 1 ]
    (List.map Vreg.index (defs_vector vdp));
  Alcotest.(check (list int)) "vdp uses" [ 2; 3 ]
    (List.map Vreg.index (uses_vector vdp));
  let vred : exec = Vred { op = Opcode.Smin; acc = r 5; src = v 2 } in
  Alcotest.(check (list int)) "vred scalar def" [ 5 ]
    (List.map Reg.index (defs_scalar vred));
  Alcotest.(check (list int)) "vred scalar use" [ 5 ]
    (List.map Reg.index (uses_scalar vred));
  let vld : exec =
    Vld { esize = Esize.Word; signed = true; dst = v 4; base = Insn.Sym 0x200; index = r 0 }
  in
  Alcotest.(check (list int)) "vld scalar uses" [ 0 ]
    (List.map Reg.index (uses_scalar vld))

let test_vinsn_equal () =
  let open Vinsn in
  let a : exec = Vdp { op = Opcode.Mul; dst = v 1; src1 = v 1; src2 = VImm 3 } in
  let b : exec = Vdp { op = Opcode.Mul; dst = v 1; src1 = v 1; src2 = VImm 3 } in
  let c : exec = Vdp { op = Opcode.Mul; dst = v 1; src1 = v 1; src2 = VConst [| 3 |] } in
  check_bool "equal" true (equal_exec a b);
  check_bool "imm vs const" false (equal_exec a c)

let test_vinsn_pp () =
  let open Vinsn in
  let s i = Format.asprintf "%a" pp_asm i in
  Alcotest.(check string) "vld" "vld v1, [x + r0]"
    (s (Vld { esize = Esize.Word; signed = true; dst = v 1; base = Insn.Sym "x"; index = r 0 }));
  Alcotest.(check string) "vqaddub" "vqaddub v1, v2, v3"
    (s (Vsat { op = `Add; esize = Esize.Byte; signed = false; dst = v 1; src1 = v 2; src2 = v 3 }));
  Alcotest.(check string) "vperm" "vperm.bfly.8 v1, v2"
    (s (Vperm { pattern = Perm.Halfswap 8; dst = v 1; src = v 2 }));
  Alcotest.(check string) "vred" "vred.smax r5, v2"
    (s (Vred { op = Opcode.Smax; acc = r 5; src = v 2 }))

let tests =
  [
    Alcotest.test_case "width: lanes" `Quick test_width_lanes;
    Alcotest.test_case "perm: periods" `Quick test_perm_periods;
    Alcotest.test_case "perm: well-formedness" `Quick test_perm_well_formed;
    Alcotest.test_case "perm: reverse" `Quick test_perm_apply_reverse;
    Alcotest.test_case "perm: halfswap" `Quick test_perm_apply_halfswap;
    Alcotest.test_case "perm: rotate" `Quick test_perm_apply_rotate;
    Alcotest.test_case "perm: offsets consistent" `Quick test_perm_offsets_consistent;
    Alcotest.test_case "perm: floored src_index" `Quick test_perm_src_index_floored;
    Alcotest.test_case "perm: inverse" `Quick test_perm_inverse;
    Alcotest.test_case "perm: CAM roundtrip" `Quick test_perm_cam_roundtrip;
    Alcotest.test_case "perm: CAM miss" `Quick test_perm_cam_miss;
    Alcotest.test_case "perm: supported widths" `Quick test_perm_supported;
    Alcotest.test_case "perm: bad length" `Quick test_perm_apply_bad_length;
    Alcotest.test_case "vreg: scalar shadow" `Quick test_vreg_shadow;
    Alcotest.test_case "vinsn: metadata" `Quick test_vinsn_metadata;
    Alcotest.test_case "vinsn: equality" `Quick test_vinsn_equal;
    Alcotest.test_case "vinsn: pretty printing" `Quick test_vinsn_pp;
  ]

let test_catalog_tilings_distinct () =
  (* The CAM can only be unambiguous if every catalog pattern tiles to a
     distinct offset vector at every supported width. *)
  List.iter
    (fun lanes ->
      let tilings =
        List.filter_map
          (fun p ->
            if Perm.supported p ~lanes then
              Some (Array.to_list (Perm.offsets_for p ~lanes))
            else None)
          Perm.catalog
      in
      check
        (Printf.sprintf "distinct at %d lanes" lanes)
        (List.length tilings)
        (List.length (List.sort_uniq compare tilings)))
    [ 2; 4; 8; 16 ]

let tests =
  tests
  @ [
      Alcotest.test_case "perm: catalog tilings distinct" `Quick
        test_catalog_tilings_distinct;
    ]
