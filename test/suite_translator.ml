(* Unit tests for the dynamic translator: one test per Table 3 rule, the
   idiom recognizers, finalization (CAM, constant folding, effective
   width) and every abort path. Regions are built from raw assembly
   items and driven through the offline translation harness. *)

open Liquid_isa
open Liquid_visa
open Liquid_prog
open Liquid_scalarize
open Liquid_translate
open Helpers
open Build

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let words_arr name n f = Data.make ~name ~esize:Esize.Word (Array.init n f)
let ind = Vloop.induction

(* A plain counted loop shell around a scalar body. *)
let loop_shell ?(count = 16) body =
  [ mov ind 0; label "f_top" ]
  @ body
  @ [ addi ind ind 1; cmp ind (i count); b ~cond:Cond.Lt "f_top" ]

let simple_data = [ words_arr "a" 16 (fun i -> i); words_arr "b" 16 (fun i -> 2 * i); words_arr "c" 16 (fun _ -> 0) ]

let count_uops pred (u : Ucode.t) =
  Array.fold_left (fun n uop -> if pred uop then n + 1 else n) 0 u.Ucode.uops

let is_vld = function Ucode.UV (Vinsn.Vld _) -> true | _ -> false
let is_vst = function Ucode.UV (Vinsn.Vst _) -> true | _ -> false
let is_vperm = function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false
let is_vsat = function Ucode.UV (Vinsn.Vsat _) -> true | _ -> false
let is_vred = function Ucode.UV (Vinsn.Vred _) -> true | _ -> false

(* --- Rules 1/2/6/4/10/11: the basic data-parallel loop --- *)

let vadd_body =
  [
    ld (r 1) "a" (ri ind);
    ld (r 2) "b" (ri ind);
    dp Opcode.Add (r 3) (r 1) (ri (r 2));
    st (r 3) "c" (ri ind);
  ]

let test_basic_loop_shape () =
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell vadd_body) "vadd" in
  check "width" 4 u.Ucode.width;
  (* mov, vld, vld, vadd, vst, add#4, cmp, blt, ret *)
  check "uop count" 9 (Array.length u.Ucode.uops);
  check "loads" 2 (count_uops is_vld u);
  check "stores" 1 (count_uops is_vst u);
  (match u.Ucode.uops.(0) with
  | Ucode.US (Insn.Mov { src = Insn.Imm 0; _ }) -> ()
  | _ -> Alcotest.fail "expected pass-through induction init");
  (match u.Ucode.uops.(5) with
  | Ucode.US (Insn.Dp { op = Opcode.Add; src2 = Insn.Imm 4; _ }) -> ()
  | u -> Alcotest.failf "expected induction step by 4, got %a" Ucode.pp_uop u);
  (match u.Ucode.uops.(7) with
  | Ucode.UB { cond = Cond.Lt; target = 1 } -> ()
  | u -> Alcotest.failf "expected back-edge to uop 1, got %a" Ucode.pp_uop u);
  match u.Ucode.uops.(8) with
  | Ucode.URet -> ()
  | _ -> Alcotest.fail "expected return"

let test_register_mapping () =
  (* The translator maps scalar r_i to vector v_i (the paper's 1:1
     register state). *)
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell vadd_body) "map" in
  match u.Ucode.uops.(3) with
  | Ucode.UV (Vinsn.Vdp { dst; src1; src2 = VR s2; op = Opcode.Add }) ->
      check "dst" 3 (Vreg.index dst);
      check "src1" 1 (Vreg.index src1);
      check "src2" 2 (Vreg.index s2)
  | u -> Alcotest.failf "expected vadd, got %a" Ucode.pp_uop u

let test_vdp_immediate () =
  let body =
    [ ld (r 1) "a" (ri ind); dp Opcode.Mul (r 2) (r 1) (i 7); st (r 2) "c" (ri ind) ]
  in
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell body) "imm" in
  check_bool "has vmul imm" true
    (Array.exists
       (function
         | Ucode.UV (Vinsn.Vdp { op = Opcode.Mul; src2 = VImm 7; _ }) -> true
         | _ -> false)
       u.Ucode.uops)

let test_subword_loads () =
  let data =
    [
      Data.make ~name:"pix" ~esize:Esize.Byte (Array.init 16 (fun i -> i * 10));
      Data.zeros ~name:"out" ~esize:Esize.Byte 16;
    ]
  in
  let body =
    [
      ld ~esize:Esize.Byte ~signed:false (r 1) "pix" (ri ind);
      dp Opcode.Add (r 2) (r 1) (i 1);
      st ~esize:Esize.Byte (r 2) "out" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:8 ~data (loop_shell body) "bytes" in
  match u.Ucode.uops.(1) with
  | Ucode.UV (Vinsn.Vld { esize = Esize.Byte; signed = false; _ }) -> ()
  | u -> Alcotest.failf "expected byte vld, got %a" Ucode.pp_uop u

(* --- Rule 9: reductions --- *)

let test_reduction () =
  let body =
    [ ld (r 1) "a" (ri ind); dp Opcode.Smin (r 5) (r 5) (ri (r 1)) ]
  in
  let items = (mov (r 5) 1000 :: loop_shell body) in
  let u = expect_ucode ~lanes:4 ~data:simple_data items "reduction" in
  check "one vred" 1 (count_uops is_vred u);
  check_bool "init mov passes through" true
    (Array.exists
       (function
         | Ucode.US (Insn.Mov { src = Insn.Imm 1000; _ }) -> true
         | _ -> false)
       u.Ucode.uops);
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vred _) -> true | _ -> false) u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vred { op = Opcode.Smin; acc; src })) ->
      check "acc" 5 (Reg.index acc);
      check "src" 1 (Vreg.index src)
  | _ -> Alcotest.fail "vred shape"

let test_reduction_non_associative_aborts () =
  let body = [ ld (r 1) "a" (ri ind); dp Opcode.Sub (r 5) (r 5) (ri (r 1)) ] in
  expect_abort ~data:simple_data (loop_shell body)
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "subtractive reduction"

(* --- Rules 3/7/8: permutations through offset arrays --- *)

let perm_data pattern =
  let offs = Perm.offsets pattern in
  let period = Array.length offs in
  [
    words_arr "off" 16 (fun e -> offs.(e mod period));
    words_arr "a" 16 (fun i -> 100 + i);
    words_arr "c" 16 (fun _ -> 0);
  ]

let permuted_load_body =
  [
    ld (r 13) "off" (ri ind);
    dp Opcode.Add (r 13) ind (ri (r 13));
    ld (r 1) "a" (ri (r 13));
    st (r 1) "c" (ri ind);
  ]

let test_permuted_load () =
  let u =
    expect_ucode ~lanes:4
      ~data:(perm_data Perm.pairswap)
      (loop_shell permuted_load_body)
      "permuted load"
  in
  (* The offset-array vld must be collapsed away: one vld (data), one
     vperm, one vst. *)
  check "one load" 1 (count_uops is_vld u);
  check "one perm" 1 (count_uops is_vperm u);
  (match
     Array.find_opt (function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false)
       u.Ucode.uops
   with
  | Some (Ucode.UV (Vinsn.Vperm { pattern; _ })) ->
      check_bool "pattern" true (Perm.equal pattern Perm.pairswap)
  | _ -> Alcotest.fail "no vperm");
  (* The vld must index by the induction variable, not the offset
     register. *)
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vld _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vld { index; _ })) -> check "vld index" 0 (Reg.index index)
  | _ -> Alcotest.fail "no vld"

let test_permuted_load_block_pattern () =
  let u =
    expect_ucode ~lanes:8
      ~data:(perm_data (Perm.Halfswap 8))
      (loop_shell permuted_load_body)
      "bfly load"
  in
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vperm { pattern = Perm.Halfswap 8; _ })) -> ()
  | _ -> Alcotest.fail "expected bfly.8"

let test_permuted_store () =
  (* Scatter side: store offsets are those of the inverse pattern; the
     translator must emit the forward pattern into the scratch register
     before the store. *)
  let pattern = Perm.Rotate { block = 4; by = 1 } in
  let inv_offs = Perm.offsets (Perm.inverse pattern) in
  let data =
    [
      words_arr "off" 16 (fun e -> inv_offs.(e mod 4));
      words_arr "a" 16 (fun i -> i);
      words_arr "c" 16 (fun _ -> 0);
    ]
  in
  let body =
    [
      ld (r 1) "a" (ri ind);
      ld (r 13) "off" (ri ind);
      dp Opcode.Add (r 13) ind (ri (r 13));
      st (r 1) "c" (ri (r 13));
    ]
  in
  let u = expect_ucode ~lanes:4 ~data (loop_shell body) "permuted store" in
  check "one perm" 1 (count_uops is_vperm u);
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vperm { pattern = p; dst; src })) ->
      check_bool "forward pattern recovered" true (Perm.equal p pattern);
      check "scratch register" 15 (Vreg.index dst);
      check "source" 1 (Vreg.index src)
  | _ -> Alcotest.fail "no vperm"

let test_unknown_permutation_aborts () =
  (* Induction-relative offsets that match no catalog pattern: the CAM
     misses and translation falls back to scalar execution. *)
  let data =
    [
      words_arr "off" 16 (fun e -> if e mod 4 = 0 then 2 else 0);
      words_arr "a" 16 (fun i -> i);
      words_arr "c" 16 (fun _ -> 0);
    ]
  in
  expect_abort ~lanes:4 ~data (loop_shell permuted_load_body)
    (function Abort.Unknown_permutation -> true | _ -> false)
    "vtbl-like"

let test_non_periodic_offsets_abort () =
  (* A butterfly over 8-element blocks cannot execute on a 4-wide
     accelerator: the offsets are not periodic in 4. *)
  expect_abort ~lanes:4
    ~data:(perm_data (Perm.Halfswap 8))
    (loop_shell permuted_load_body)
    (function Abort.Non_periodic_offsets -> true | _ -> false)
    "bfly.8 at 4 lanes"

let test_unrepresentable_offsets_abort () =
  (* Offsets beyond the register state's 8-bit previous-value fields
     abort (paper §4.1: "numbers that are too big to represent simply
     abort"). Use +/-200 in a pattern that would otherwise be periodic. *)
  let data =
    [
      words_arr "off" 16 (fun e -> if e mod 2 = 0 then 200 else -200);
      words_arr "a" 512 (fun i -> i);
      words_arr "c" 512 (fun _ -> 0);
    ]
  in
  expect_abort ~lanes:4 ~data (loop_shell permuted_load_body)
    (function Abort.Unrepresentable_value -> true | _ -> false)
    "huge offsets"

let test_dangling_address_combine_aborts () =
  let body =
    [
      ld (r 13) "off" (ri ind);
      dp Opcode.Add (r 13) ind (ri (r 13));
      ld (r 1) "a" (ri ind);
      st (r 1) "c" (ri ind);
    ]
  in
  expect_abort ~data:(perm_data Perm.pairswap) (loop_shell body)
    (function Abort.Dangling_address_combine -> true | _ -> false)
    "unused address combine"

(* --- Rule 7 finalization: constant vectors --- *)

let mask_data =
  [
    words_arr "mask" 16 (fun e -> if e mod 4 < 2 then -1 else 0);
    words_arr "a" 16 (fun i -> i + 1);
    words_arr "c" 16 (fun _ -> 0);
  ]

let masked_body =
  [
    ld (r 1) "a" (ri ind);
    ld (r 2) "mask" (ri ind);
    dp Opcode.And (r 3) (r 1) (ri (r 2));
    st (r 3) "c" (ri ind);
  ]

let test_const_vector_folded () =
  let u = expect_ucode ~lanes:4 ~data:mask_data (loop_shell masked_body) "mask" in
  (* The mask load collapses into an immediate constant vector. *)
  check "one load left" 1 (count_uops is_vld u);
  match
    Array.find_opt
      (function Ucode.UV (Vinsn.Vdp { src2 = VConst _; _ }) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vdp { src2 = VConst lanes; _ })) ->
      Alcotest.(check (array int)) "mask lanes" [| -1; -1; 0; 0 |] lanes
  | _ -> Alcotest.fail "expected folded constant"

let test_const_vector_shared_load () =
  (* Two consumers of the same constant array: both fold, and the load
     dies only after the second fold. *)
  let body =
    [
      ld (r 1) "a" (ri ind);
      ld (r 2) "mask" (ri ind);
      dp Opcode.And (r 3) (r 1) (ri (r 2));
      dp Opcode.Orr (r 4) (r 1) (ri (r 2));
      st (r 3) "c" (ri ind);
      st (r 4) "c" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:4 ~data:mask_data (loop_shell body) "shared mask" in
  check "mask load dead" 1 (count_uops is_vld u);
  check "both folded" 2
    (count_uops
       (function Ucode.UV (Vinsn.Vdp { src2 = VConst _; _ }) -> true | _ -> false)
       u)

let test_non_periodic_data_stays_register () =
  (* Loading genuine data (non-periodic) as the second operand must NOT
     fold into a constant: the vld stays and the vdp keeps its register
     operand. *)
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell vadd_body) "data" in
  check "both loads live" 2 (count_uops is_vld u);
  check "no const operands" 0
    (count_uops
       (function Ucode.UV (Vinsn.Vdp { src2 = VConst _; _ }) -> true | _ -> false)
       u)

(* --- saturation idioms --- *)

let byte_data =
  [
    Data.make ~name:"pa" ~esize:Esize.Byte (Array.init 16 (fun i -> i * 16));
    Data.make ~name:"pb" ~esize:Esize.Byte (Array.init 16 (fun i -> 255 - (i * 5)));
    Data.zeros ~name:"pc" ~esize:Esize.Byte 16;
  ]

let test_unsigned_saturating_add () =
  let body =
    [
      ld ~esize:Esize.Byte ~signed:false (r 1) "pa" (ri ind);
      ld ~esize:Esize.Byte ~signed:false (r 2) "pb" (ri ind);
      dp Opcode.Add (r 3) (r 1) (ri (r 2));
      cmp (r 3) (i 255);
      movc Cond.Gt (r 3) 255;
      st ~esize:Esize.Byte (r 3) "pc" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:8 ~data:byte_data (loop_shell body) "uqadd" in
  check "one vsat" 1 (count_uops is_vsat u);
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vsat _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vsat { op = `Add; esize = Esize.Byte; signed = false; _ })) -> ()
  | _ -> Alcotest.fail "vsat shape"

let test_signed_saturating_add () =
  let data =
    [
      Data.make ~name:"ha" ~esize:Esize.Half (Array.init 16 (fun i -> (i * 3000) - 20000));
      Data.make ~name:"hb" ~esize:Esize.Half (Array.init 16 (fun i -> 15000 - (i * 2000)));
      Data.zeros ~name:"hc" ~esize:Esize.Half 16;
    ]
  in
  let body =
    [
      ld ~esize:Esize.Half ~signed:true (r 1) "ha" (ri ind);
      ld ~esize:Esize.Half ~signed:true (r 2) "hb" (ri ind);
      dp Opcode.Add (r 3) (r 1) (ri (r 2));
      cmp (r 3) (i 32767);
      movc Cond.Gt (r 3) 32767;
      cmp (r 3) (i (-32768));
      movc Cond.Lt (r 3) (-32768);
      st ~esize:Esize.Half (r 3) "hc" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:8 ~data (loop_shell body) "sqadd" in
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vsat _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vsat { op = `Add; esize = Esize.Half; signed = true; _ })) -> ()
  | _ -> Alcotest.fail "signed vsat shape"

let test_unsigned_saturating_sub () =
  let body =
    [
      ld ~esize:Esize.Byte ~signed:false (r 1) "pa" (ri ind);
      ld ~esize:Esize.Byte ~signed:false (r 2) "pb" (ri ind);
      dp Opcode.Sub (r 3) (r 1) (ri (r 2));
      cmp (r 3) (i 0);
      movc Cond.Lt (r 3) 0;
      st ~esize:Esize.Byte (r 3) "pc" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:8 ~data:byte_data (loop_shell body) "uqsub" in
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vsat _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vsat { op = `Sub; signed = false; _ })) -> ()
  | _ -> Alcotest.fail "vsat sub shape"

let test_lone_clamp_becomes_min () =
  (* A clamp of a loaded value (no preceding add) is an element-wise min
     against the splatted bound. *)
  let body =
    [
      ld (r 1) "a" (ri ind);
      cmp (r 1) (i 9);
      movc Cond.Gt (r 1) 9;
      st (r 1) "c" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell body) "clamp" in
  check "no vsat" 0 (count_uops is_vsat u);
  check_bool "min against bound" true
    (Array.exists
       (function
         | Ucode.UV (Vinsn.Vdp { op = Opcode.Smin; src2 = VImm 9; _ }) -> true
         | _ -> false)
       u.Ucode.uops)

let test_minmax_pair_clamp () =
  let body =
    [
      ld (r 1) "a" (ri ind);
      dp Opcode.Mul (r 2) (r 1) (i 3);
      cmp (r 2) (i 20);
      movc Cond.Gt (r 2) 20;
      cmp (r 2) (i 5);
      movc Cond.Lt (r 2) 5;
      st (r 2) "c" (ri ind);
    ]
  in
  (* Bounds (5, 20) match no element range, so no vsat: the pair lowers
     to vmin + vmax. *)
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell body) "minmax" in
  check "no vsat" 0 (count_uops is_vsat u);
  check "min and max" 2
    (count_uops
       (function
         | Ucode.UV (Vinsn.Vdp { op = Opcode.Smin | Opcode.Smax; src2 = VImm _; _ }) -> true
         | _ -> false)
       u)

let test_dangling_compare_aborts () =
  let body =
    [ ld (r 1) "a" (ri ind); cmp (r 1) (i 3); st (r 1) "c" (ri ind) ]
  in
  expect_abort ~data:simple_data (loop_shell body)
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "compare without move"

(* --- effective width --- *)

let test_width_adapts_down () =
  (* A binary compiled once translates at any narrower accelerator. *)
  List.iter
    (fun (lanes, expected) ->
      let u =
        expect_ucode ~lanes ~data:simple_data (loop_shell vadd_body)
          (Printf.sprintf "width %d" lanes)
      in
      check (Printf.sprintf "width at %d lanes" lanes) expected u.Ucode.width)
    [ (2, 2); (4, 4); (8, 8); (16, 16) ]

let test_short_vector_caps_width () =
  (* An 8-element loop on a 16-lane machine translates at width 8 — the
     paper's MPEG2 flatness from 8 to 16 lanes. *)
  let data = [ words_arr "a" 8 (fun i -> i); words_arr "b" 8 (fun i -> i); words_arr "c" 8 (fun _ -> 0) ] in
  let u = expect_ucode ~lanes:16 ~data (loop_shell ~count:8 vadd_body) "count 8" in
  check "effective width" 8 u.Ucode.width

let test_non_power_of_two_trip_uses_divisor () =
  let data = [ words_arr "a" 24 (fun i -> i); words_arr "b" 24 (fun i -> i); words_arr "c" 24 (fun _ -> 0) ] in
  let u = expect_ucode ~lanes:16 ~data (loop_shell ~count:24 vadd_body) "count 24" in
  check "width 8 divides 24" 8 u.Ucode.width

let test_odd_trip_aborts () =
  let data = [ words_arr "a" 15 (fun i -> i); words_arr "b" 15 (fun i -> i); words_arr "c" 15 (fun _ -> 0) ] in
  expect_abort ~lanes:8 ~data (loop_shell ~count:15 vadd_body)
    (function Abort.Bad_trip_count -> true | _ -> false)
    "odd trip count"

(* --- legality aborts --- *)

let test_register_bound_aborts () =
  let body = vadd_body @ [ cmp ind (ri (r 9)) ] in
  ignore body;
  (* Loop bound held in a register: unknown trip count at translation
     time. *)
  let items =
    [ mov ind 0; label "f_top" ]
    @ vadd_body
    @ [ addi ind ind 1; cmp ind (ri (r 9)); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~data:simple_data items
    (function Abort.Bad_trip_count -> true | _ -> false)
    "register bound"

let test_call_in_region_aborts () =
  let items =
    [ mov ind 0; label "f_top"; bl "f_top" ]
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~data:simple_data items
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "call inside region"

let test_register_move_aborts () =
  let body = [ ld (r 1) "a" (ri ind); movr (r 2) (r 1); st (r 2) "c" (ri ind) ] in
  expect_abort ~data:simple_data (loop_shell body)
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "register move"

let test_store_of_scalar_aborts () =
  let body = [ st (r 9) "c" (ri ind) ] in
  expect_abort ~data:simple_data (loop_shell body)
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "store of scalar"

let test_scalar_op_in_body_aborts () =
  (* A scalar accumulation inside the body would execute once per vector
     instead of once per element. *)
  let items =
    [ mov ind 0; mov (r 9) 0; label "f_top" ]
    @ [ ld (r 1) "a" (ri ind); dp Opcode.Add (r 9) (r 9) (i 1); st (r 1) "c" (ri ind) ]
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~data:simple_data items
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "scalar op in body"

let test_prologue_scalar_op_allowed () =
  (* The same scalar instructions in the prologue are fine: they run
     once per region in microcode too. *)
  let items =
    [ mov ind 0; mov (r 9) 4; dp Opcode.Add (r 9) (r 9) (i 1); label "f_top" ]
    @ vadd_body
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  let u = expect_ucode ~data:simple_data items "prologue scalar" in
  check_bool "prologue add survives" true
    (Array.exists
       (function
         | Ucode.US (Insn.Dp { op = Opcode.Add; src2 = Insn.Imm 1; _ }) -> true
         | _ -> false)
       u.Ucode.uops)

let test_strided_access_translates () =
  (* Interleaved/strided access (index = 2*i) was unsupported in the
     paper (§3.3); this library implements it as an extension, so the
     schema now translates into a strided vector load (see
     suite_interleave for the full coverage, including the stride-8
     abort). *)
  let items =
    [ mov ind 0; label "f_top" ]
    @ [
        dp Opcode.Lsl (r 13) ind (i 1);
        ld (r 1) "a" (ri (r 13));
        st (r 1) "c" (ri ind);
      ]
    @ [ addi ind ind 1; cmp ind (i 8); b ~cond:Cond.Lt "f_top" ]
  in
  let u = expect_ucode ~data:simple_data items "strided access" in
  check "one strided load" 1
    (count_uops (function Ucode.UV (Vinsn.Vlds _) -> true | _ -> false) u)

let test_no_loop_aborts () =
  let items = [ mov ind 0; ld (r 1) "a" (ri ind); st (r 1) "c" (ri ind) ] in
  expect_abort ~data:simple_data items
    (function Abort.No_loop -> true | _ -> false)
    "no loop"

let test_buffer_overflow_aborts () =
  expect_abort ~max_uops:6 ~data:simple_data (loop_shell vadd_body)
    (function Abort.Buffer_overflow -> true | _ -> false)
    "tiny buffer"

(* --- raw event-stream tests: divergence and external aborts --- *)

let feed_loop tr ~iters ~pcs_insns =
  List.iteri
    (fun _ () -> ())
    [];
  for it = 0 to iters - 1 do
    List.iter
      (fun (pc, insn, value) ->
        ignore it;
        Translator.feed tr (Event.make ~pc ?value insn))
      pcs_insns
  done

let test_external_abort () =
  let tr = Translator.create (Translator.default_config ~lanes:4 ()) in
  Translator.feed tr
    (Event.make ~pc:0 ~value:0 (Insn.Mov { cond = Cond.Al; dst = ind; src = Imm 0 }));
  Translator.abort_external tr;
  match Translator.finish tr with
  | Translator.Aborted Abort.External_abort ->
      check_bool "retryable" true
        (Liquid_pipeline.Diag.classify_abort Abort.External_abort = `Transient)
  | _ -> Alcotest.fail "expected external abort"

let test_iteration_divergence_aborts () =
  ignore feed_loop;
  let tr = Translator.create (Translator.default_config ~lanes:2 ()) in
  let ld_insn base : Insn.exec =
    Insn.Ld { esize = Esize.Word; signed = true; dst = r 1; base = Insn.Sym base; index = Insn.Reg ind; shift = 2 }
  in
  let st_insn : Insn.exec =
    Insn.St { esize = Esize.Word; src = r 1; base = Insn.Sym 0x8000; index = Insn.Reg ind; shift = 2 }
  in
  let inc : Insn.exec = Insn.Dp { cond = Cond.Al; op = Opcode.Add; dst = ind; src1 = ind; src2 = Imm 1 } in
  let cmp_insn : Insn.exec = Insn.Cmp { src1 = ind; src2 = Imm 4 } in
  let blt : Insn.exec = Insn.B { cond = Cond.Lt; target = 1 } in
  Translator.feed tr (Event.make ~pc:0 ~value:0 (Insn.Mov { cond = Cond.Al; dst = ind; src = Imm 0 }));
  (* Iteration 0: load from 0x7000. *)
  Translator.feed tr (Event.make ~pc:1 ~value:11 (ld_insn 0x7000));
  Translator.feed tr (Event.make ~pc:2 st_insn);
  Translator.feed tr (Event.make ~pc:3 ~value:1 inc);
  Translator.feed tr (Event.make ~pc:4 cmp_insn);
  Translator.feed tr (Event.make ~pc:5 blt);
  (* Iteration 1 diverges: different static load. *)
  Translator.feed tr (Event.make ~pc:1 ~value:12 (ld_insn 0x7100));
  Translator.feed tr (Event.make ~pc:2 st_insn);
  Translator.feed tr (Event.make ~pc:3 ~value:2 inc);
  Translator.feed tr (Event.make ~pc:4 cmp_insn);
  Translator.feed tr (Event.make ~pc:5 blt);
  match Translator.finish tr with
  | Translator.Aborted (Abort.Inconsistent_iteration _) -> ()
  | Translator.Aborted r -> Alcotest.failf "wrong abort: %s" (Abort.to_string r)
  | Translator.Translated _ -> Alcotest.fail "should not translate"

let test_static_insns_counts_first_iteration () =
  let tr = Translator.create (Translator.default_config ~lanes:2 ()) in
  Translator.feed tr (Event.make ~pc:0 ~value:0 (Insn.Mov { cond = Cond.Al; dst = ind; src = Imm 0 }));
  check "one static insn" 1 (Translator.static_insns tr);
  check "one dynamic insn" 1 (Translator.observed tr)

(* --- Verify phase: physical fast path and structural fallback --- *)

(* The retirement stream of one call of the region at [entry], from the
   image's initial memory. *)
let record_stream (image : Image.t) entry =
  let module Sem = Liquid_pipeline.Sem in
  let mem = Liquid_machine.Memory.create () in
  Image.load_memory image mem;
  let ctx = Sem.create_ctx mem in
  let rec go pc acc =
    match image.Image.code.(pc) with
    | Minsn.V _ -> Alcotest.fail "vector instruction inside a region"
    | Minsn.S insn -> (
        let outcome, eff = Sem.step_scalar ctx ~pc insn in
        let acc = Event.make ~pc ?value:eff.Sem.value insn :: acc in
        match outcome with
        | Sem.Next -> go (pc + 1) acc
        | Sem.Jump t -> go t acc
        | Sem.Return | Sem.Stop | Sem.Call _ -> Array.of_list (List.rev acc))
  in
  go entry []

let replay ~backend stream =
  let tr = Translator.create (Translator.default_config ~backend ~lanes:4 ()) in
  Array.iter (Translator.feed tr) stream;
  Translator.finish tr

(* From the second iteration on, the events carry decoded copies of the
   image's insns: structurally equal but physically distinct from the
   pattern's, so they miss the verify phase's physical test and must
   take the structural one with the same outcome. A changed insn at the
   same pc must still abort. Both regions need the verify-phase value
   and address recordings: the mask folds into a guarded constant and
   the offset stream is recovered as a permutation. *)
let test_verify_structural_fallback () =
  List.iter
    (fun (name, backend, data, body) ->
      let image, entry = region_image ~data (loop_shell body) in
      let stream = record_stream image entry in
      (* The loop body starts with a load: find its second instance. *)
      let top =
        Option.get
          (Array.find_index
             (fun (ev : Event.t) ->
               match ev.insn with Insn.Ld _ -> true | _ -> false)
             stream)
      in
      let second =
        let rec find i =
          if stream.(i).Event.pc = stream.(top).Event.pc then i else find (i + 1)
        in
        find (top + 1)
      in
      let decoded = Encode.decode (Encode.encode image.Image.code) in
      let copy =
        Array.mapi
          (fun i (ev : Event.t) ->
            if i < second then ev
            else
              match decoded.(ev.pc) with
              | Minsn.S insn -> { ev with Event.insn }
              | Minsn.V _ -> Alcotest.fail "vector instruction inside a region")
          stream
      in
      check_bool (name ^ ": distinct copy") true
        (copy.(second).Event.insn != stream.(top).Event.insn);
      let original = replay ~backend stream in
      (match original with
      | Translator.Translated _ -> ()
      | Translator.Aborted r ->
          Alcotest.failf "%s: aborted: %s" name (Abort.to_string r));
      check_bool (name ^ ": same result") true (replay ~backend copy = original);
      let diverged = Array.copy copy in
      (match copy.(second).Event.insn with
      | Insn.Ld l ->
          diverged.(second) <-
            {
              copy.(second) with
              Event.insn = Insn.Ld { l with signed = not l.signed };
            }
      | _ -> assert false);
      match replay ~backend diverged with
      | Translator.Aborted
          (Abort.Inconsistent_iteration "instruction stream diverged") -> ()
      | Translator.Aborted r ->
          Alcotest.failf "%s: wrong abort: %s" name (Abort.to_string r)
      | Translator.Translated _ -> Alcotest.failf "%s: should not translate" name)
    [
      ("mask", Backend.fixed, mask_data, masked_body);
      ("pairswap", Backend.vla, perm_data Perm.pairswap, permuted_load_body);
    ]

let tests =
  [
    Alcotest.test_case "basic loop shape" `Quick test_basic_loop_shape;
    Alcotest.test_case "register mapping" `Quick test_register_mapping;
    Alcotest.test_case "vdp immediate" `Quick test_vdp_immediate;
    Alcotest.test_case "sub-word loads" `Quick test_subword_loads;
    Alcotest.test_case "reduction" `Quick test_reduction;
    Alcotest.test_case "non-associative reduction aborts" `Quick
      test_reduction_non_associative_aborts;
    Alcotest.test_case "permuted load" `Quick test_permuted_load;
    Alcotest.test_case "permuted load (block pattern)" `Quick
      test_permuted_load_block_pattern;
    Alcotest.test_case "permuted store" `Quick test_permuted_store;
    Alcotest.test_case "unknown permutation aborts" `Quick
      test_unknown_permutation_aborts;
    Alcotest.test_case "non-periodic offsets abort" `Quick
      test_non_periodic_offsets_abort;
    Alcotest.test_case "unrepresentable offsets abort" `Quick
      test_unrepresentable_offsets_abort;
    Alcotest.test_case "dangling address combine aborts" `Quick
      test_dangling_address_combine_aborts;
    Alcotest.test_case "constant vector folded" `Quick test_const_vector_folded;
    Alcotest.test_case "constant vector shared load" `Quick
      test_const_vector_shared_load;
    Alcotest.test_case "non-periodic data stays register" `Quick
      test_non_periodic_data_stays_register;
    Alcotest.test_case "unsigned saturating add" `Quick test_unsigned_saturating_add;
    Alcotest.test_case "signed saturating add" `Quick test_signed_saturating_add;
    Alcotest.test_case "unsigned saturating sub" `Quick test_unsigned_saturating_sub;
    Alcotest.test_case "lone clamp becomes min" `Quick test_lone_clamp_becomes_min;
    Alcotest.test_case "min/max pair clamp" `Quick test_minmax_pair_clamp;
    Alcotest.test_case "dangling compare aborts" `Quick test_dangling_compare_aborts;
    Alcotest.test_case "width adapts down" `Quick test_width_adapts_down;
    Alcotest.test_case "short vector caps width" `Quick test_short_vector_caps_width;
    Alcotest.test_case "non-power-of-two trip" `Quick
      test_non_power_of_two_trip_uses_divisor;
    Alcotest.test_case "odd trip aborts" `Quick test_odd_trip_aborts;
    Alcotest.test_case "register bound aborts" `Quick test_register_bound_aborts;
    Alcotest.test_case "call in region aborts" `Quick test_call_in_region_aborts;
    Alcotest.test_case "register move aborts" `Quick test_register_move_aborts;
    Alcotest.test_case "store of scalar aborts" `Quick test_store_of_scalar_aborts;
    Alcotest.test_case "scalar op in body aborts" `Quick test_scalar_op_in_body_aborts;
    Alcotest.test_case "prologue scalar op allowed" `Quick
      test_prologue_scalar_op_allowed;
    Alcotest.test_case "strided access translates (extension)" `Quick
      test_strided_access_translates;
    Alcotest.test_case "no loop aborts" `Quick test_no_loop_aborts;
    Alcotest.test_case "buffer overflow aborts" `Quick test_buffer_overflow_aborts;
    Alcotest.test_case "external abort" `Quick test_external_abort;
    Alcotest.test_case "iteration divergence aborts" `Quick
      test_iteration_divergence_aborts;
    Alcotest.test_case "static vs dynamic counts" `Quick
      test_static_insns_counts_first_iteration;
    Alcotest.test_case "verify: structural fallback" `Quick
      test_verify_structural_fallback;
  ]

(* --- additional edge cases --- *)

let test_large_constants_stay_in_registers () =
  (* Constant-array values beyond the register state's representable
     range must not fold into an immediate vector; the load stays and
     the operand remains a register (correct, just unoptimized). *)
  let data =
    [
      words_arr "big" 16 (fun e -> if e mod 4 < 2 then 1_000_000 else -1_000_000);
      words_arr "a" 16 (fun i -> i);
      words_arr "c" 16 (fun _ -> 0);
    ]
  in
  let body =
    [
      ld (r 1) "a" (ri ind);
      ld (r 2) "big" (ri ind);
      dp Opcode.Add (r 3) (r 1) (ri (r 2));
      st (r 3) "c" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:4 ~data (loop_shell body) "big constants" in
  check "both loads live" 2 (count_uops is_vld u);
  check "no folded constant" 0
    (count_uops
       (function Ucode.UV (Vinsn.Vdp { src2 = VConst _; _ }) -> true | _ -> false)
       u)

let test_two_inductions_abort () =
  (* Two candidates both used to index memory: no unique induction. *)
  let items =
    [ mov ind 0; mov (r 9) 0; label "f_top" ]
    @ [
        ld (r 1) "a" (ri ind);
        st (r 1) "c" (ri (r 9));
      ]
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~data:simple_data items
    (function Abort.No_induction -> true | _ -> false)
    "two inductions"

let test_reduction_mul () =
  let body = [ ld (r 1) "b" (ri ind); dp Opcode.Mul (r 5) (r 5) (ri (r 1)) ] in
  let items = mov (r 5) 1 :: loop_shell body in
  let u = expect_ucode ~lanes:4 ~data:simple_data items "product reduction" in
  match
    Array.find_opt (function Ucode.UV (Vinsn.Vred _) -> true | _ -> false)
      u.Ucode.uops
  with
  | Some (Ucode.UV (Vinsn.Vred { op = Opcode.Mul; _ })) -> ()
  | _ -> Alcotest.fail "expected a product reduction"

let test_ge_le_clamps () =
  (* movge / movle clamp conditions are accepted as min/max. *)
  let body =
    [
      ld (r 1) "a" (ri ind);
      cmp (r 1) (i 10);
      movc Cond.Ge (r 1) 10;
      cmp (r 1) (i 2);
      movc Cond.Le (r 1) 2;
      st (r 1) "c" (ri ind);
    ]
  in
  let u = expect_ucode ~lanes:4 ~data:simple_data (loop_shell body) "ge/le clamps" in
  check "min and max emitted" 2
    (count_uops
       (function
         | Ucode.UV (Vinsn.Vdp { op = Opcode.Smin | Opcode.Smax; _ }) -> true
         | _ -> false)
       u)

let test_wrong_shift_aborts () =
  (* A word access scaled as a halfword does not fit the element-indexed
     schema. *)
  let body =
    [
      Program.I
        (Liquid_visa.Minsn.S
           (Insn.Ld
              {
                esize = Esize.Word;
                signed = true;
                dst = r 1;
                base = Insn.Sym "a";
                index = Insn.Reg ind;
                shift = 1;
              }));
      st (r 1) "c" (ri ind);
    ]
  in
  expect_abort ~data:simple_data (loop_shell body)
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "wrong scaling"

let test_halt_in_region_aborts () =
  let items = [ mov ind 0; label "f_top"; halt ] in
  expect_abort ~data:simple_data items
    (function Abort.Illegal_insn _ -> true | _ -> false)
    "halt inside region"

let tests =
  tests
  @ [
      Alcotest.test_case "large constants stay in registers" `Quick
        test_large_constants_stay_in_registers;
      Alcotest.test_case "two inductions abort" `Quick test_two_inductions_abort;
      Alcotest.test_case "product reduction" `Quick test_reduction_mul;
      Alcotest.test_case "ge/le clamps" `Quick test_ge_le_clamps;
      Alcotest.test_case "wrong scaling aborts" `Quick test_wrong_shift_aborts;
      Alcotest.test_case "halt in region aborts" `Quick test_halt_in_region_aborts;
    ]

(* --- whole-iteration batches --- *)

(* Feed [stream] the way the block engine does: single events until the
   session expects the first instruction of a later iteration, then the
   next pattern-length run of events as one [feed_iteration] batch when
   it retires exactly the pattern's pcs. Returns the session and the
   number of batches fed. *)
let feed_batched cfg stream =
  let tr = Translator.create cfg in
  let n = Array.length stream in
  let batches = ref 0 in
  let i = ref 0 in
  while !i < n do
    let pattern = Translator.iteration_pattern tr in
    let m = Array.length pattern in
    let whole =
      Translator.iteration_top tr = stream.(!i).Event.pc
      && !i + m <= n
      &&
      let rec same k =
        k >= m || (stream.(!i + k).Event.pc = pattern.(k).Event.pc && same (k + 1))
      in
      same 0
    in
    if whole then begin
      Translator.feed_iteration tr
        (Array.init m (fun k -> Event.value_code stream.(!i + k)));
      incr batches;
      i := !i + m
    end
    else begin
      Translator.feed tr stream.(!i);
      incr i
    end
  done;
  (tr, !batches)

(* Recorded region streams, fed per event and in batches, must leave
   identical sessions: result (microcode with its guards, or the abort
   reason), permutation tally, observed and static counts. Covers every
   region of every workload under the three backends, plus hand-made
   regions for folded constants, a recovered permutation and predicated
   clamps whose moves do not always fire. *)
let test_batched_verify_equivalence () =
  let workload_streams =
    List.concat_map
      (fun (w : Liquid_workloads.Workload.t) ->
        let image =
          Image.of_program (Codegen.liquid w.Liquid_workloads.Workload.program)
        in
        List.map
          (fun (entry, label) ->
            (w.Liquid_workloads.Workload.name ^ "/" ^ label, record_stream image entry))
          image.Image.region_entries)
      (Liquid_workloads.Workload.all ())
  in
  let uqadd_body =
    [
      ld ~esize:Esize.Byte ~signed:false (r 1) "pa" (ri ind);
      ld ~esize:Esize.Byte ~signed:false (r 2) "pb" (ri ind);
      dp Opcode.Add (r 3) (r 1) (ri (r 2));
      cmp (r 3) (i 255);
      movc Cond.Gt (r 3) 255;
      st ~esize:Esize.Byte (r 3) "pc" (ri ind);
    ]
  in
  let hand_streams =
    List.map
      (fun (name, data, body) ->
        let image, entry = region_image ~data (loop_shell body) in
        (name, record_stream image entry))
      [
        ("vadd", simple_data, vadd_body);
        ("mask", mask_data, masked_body);
        ("pairswap", perm_data Perm.pairswap, permuted_load_body);
        ("uqadd", byte_data, uqadd_body);
      ]
  in
  let batches = ref 0 in
  let count_only = ref 0 in
  List.iter
    (fun (name, stream) ->
      List.iter
        (fun backend ->
          List.iter
            (fun lanes ->
              let what =
                Printf.sprintf "%s %s/%d" name (Backend.name_of backend) lanes
              in
              let cfg = Translator.default_config ~backend ~lanes () in
              let single = Translator.create cfg in
              Array.iter (Translator.feed single) stream;
              (* The fold, the permutation and the clamped sum read their
                 loads' streams; nasa7's first kernel reads none, so its
                 verified iterations are counts. *)
              (match name with
              | "mask" | "pairswap" | "uqadd" ->
                  check_bool (what ^ ": needs values") true
                    (Translator.needs_values single)
              | "093.nasa7/region_nas_k0_0" ->
                  incr count_only;
                  check_bool (what ^ ": count-only") false
                    (Translator.needs_values single)
              | _ -> ());
              let batched, n = feed_batched cfg stream in
              batches := !batches + n;
              check (what ^ ": observed") (Translator.observed single)
                (Translator.observed batched);
              check (what ^ ": static insns") (Translator.static_insns single)
                (Translator.static_insns batched);
              check_bool (what ^ ": result") true
                (Translator.finish single = Translator.finish batched);
              check_bool (what ^ ": permutation tally") true
                (Translator.perm_tally single = Translator.perm_tally batched))
            [ 4; 8 ])
        Backend.all)
    (workload_streams @ hand_streams);
  check_bool "batches were fed" true (!batches > 0);
  check "count-only region seen" 6 !count_only

(* [Offline] steps a verified iteration as one batch without building
   its events; every region of every workload, under each backend and
   lane count, must come out exactly as a per-event replay of its
   recorded stream: the result (microcode with its guards and its
   observed and static counts, or the abort reason) and the permutation
   tally. *)
let test_offline_matches_per_event () =
  List.iter
    (fun (w : Liquid_workloads.Workload.t) ->
      let image =
        Image.of_program (Codegen.liquid w.Liquid_workloads.Workload.program)
      in
      List.iter
        (fun (entry, label) ->
          let stream = record_stream image entry in
          List.iter
            (fun backend ->
              List.iter
                (fun lanes ->
                  let what =
                    Printf.sprintf "%s/%s %s/%d" w.Liquid_workloads.Workload.name
                      label (Backend.name_of backend) lanes
                  in
                  let single =
                    Translator.create
                      (Translator.default_config ~backend ~lanes ())
                  in
                  Array.iter (Translator.feed single) stream;
                  let expected = Translator.finish single in
                  let tally =
                    ref { Translator.seen = -1; recovered = -1; aborted = -1 }
                  in
                  match
                    Liquid_pipeline.Offline.translate_region_result ~backend
                      ~tally ~image ~lanes ~entry ()
                  with
                  | Error d ->
                      Alcotest.failf "%s: %s" what
                        (Liquid_pipeline.Diag.to_string d)
                  | Ok result ->
                      check_bool (what ^ ": result") true (result = expected);
                      check_bool (what ^ ": permutation tally") true
                        (!tally = Translator.perm_tally single))
                [ 2; 4; 8; 16 ])
            Backend.all)
        image.Image.region_entries)
    (Liquid_workloads.Workload.all ())

let tests =
  tests
  @ [
      Alcotest.test_case "verify: whole-iteration batches" `Quick
        test_batched_verify_equivalence;
      Alcotest.test_case "verify: offline batches match per-event feed" `Quick
        test_offline_matches_per_event;
    ]
