(* The test cases the VLA and RVV backends share.

   A VLA predicate and an RVV grant are the same active-lane count, so
   each case here is written once and the vla and rvv suites list it
   under their own names:

   - the governed semantics table runs every unit under the governor its
     suite names, asserting the expected values, then runs it again
     under the other governor and asserts the same registers, vector
     registers, flags, counts, accesses and memory;
   - the end-to-end cases (permutation recovery, the FFT butterflies,
     the scalar-equivalence oracle) take the backend as a parameter.

   Only the cases where the two governors really differ (incvl's
   overshoot versus addvl landing on the bound, the translation
   structure, LMUL grouping) stay in the per-backend suites. *)

open Liquid_isa
open Liquid_prog
open Liquid_visa
open Liquid_pipeline
open Liquid_scalarize
open Liquid_translate
open Liquid_harness
open Liquid_workloads
open Helpers
module Memory = Liquid_machine.Memory
module Stats = Liquid_machine.Stats
module Oracle = Liquid_faults.Oracle

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- governed semantics --- *)

let p0 = Governed.Pred Governed.p0
let other = function Governed.Pred _ -> Governed.Vl | Governed.Vl -> p0
let active c gov = c.Sem.preds.(Governed.slot gov)
let set_active_count c gov k = c.Sem.preds.(Governed.slot gov) <- k
let exec = Sem.exec_governed
let op gov v = Governed.Op { gov; v }

type case = {
  sve : string;  (** name in the vla suite *)
  rvv : string;  (** name in the rvv suite *)
  lanes : int;
  body : Governed.gov -> Sem.ctx -> unit;
      (** runs the unit under a governor, asserting its expectations *)
}

let set_active gov c ~counter ~bound =
  c.Sem.regs.(0) <- counter;
  exec c (Governed.Set_active { into = gov; counter = r 0; bound })

let set_active_case gov c =
  set_active gov c ~counter:0 ~bound:15;
  check "full count" 4 (active c gov);
  check_bool "continue flag" true (Flags.lt c.Sem.flags);
  set_active gov c ~counter:12 ~bound:15;
  check "shortened tail" 3 (active c gov);
  check_bool "still continuing" true (Flags.lt c.Sem.flags);
  set_active gov c ~counter:16 ~bound:15;
  check "overshoot is empty" 0 (active c gov);
  check_bool "loop exits" false (Flags.lt c.Sem.flags);
  set_active gov c ~counter:15 ~bound:15;
  check "exact end is empty" 0 (active c gov);
  check_bool "equality exits too" false (Flags.lt c.Sem.flags)

let dp_case gov c =
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  Array.fill c.Sem.vregs.(2) 0 4 99;
  set_active_count c gov 2;
  exec c
    (op gov (Vinsn.Vdp { op = Opcode.Add; dst = v 2; src1 = v 1; src2 = VR (v 1) }));
  check "active lane 0" 2 c.Sem.vregs.(2).(0);
  check "active lane 1" 4 c.Sem.vregs.(2).(1);
  check "inactive lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "inactive lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  check "masked path counted" 1 c.Sem.n_pred_masked;
  (* A full count must behave exactly like the ungoverned op. *)
  set_active_count c gov 4;
  exec c
    (op gov (Vinsn.Vdp { op = Opcode.Mul; dst = v 2; src1 = v 1; src2 = VImm 3 }));
  check "full count lane 3" 12 c.Sem.vregs.(2).(3);
  check "all-true fast path counted" 1 c.Sem.n_pred_fast

let load_store_case gov c =
  for i = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x5000 + (i * 4)) ~bytes:4 (100 + i)
  done;
  c.Sem.regs.(0) <- 0;
  set_active_count c gov 3;
  exec c
    (op gov
       (Vinsn.Vld
          { esize = Esize.Word; signed = true; dst = v 1; base = Insn.Sym 0x5000; index = r 0 }));
  check "lane 0 loaded" 100 c.Sem.vregs.(1).(0);
  check "lane 2 loaded" 102 c.Sem.vregs.(1).(2);
  check "inactive lane zeroed" 0 c.Sem.vregs.(1).(3);
  (match (Sem.last_effect c).Sem.accesses with
  | [ { Sem.bytes; _ } ] -> check "partial access bytes" 12 bytes
  | _ -> Alcotest.fail "expected one access");
  (* Partial store: the lane past the count must not reach memory. *)
  Memory.write c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 (-1);
  set_active_count c gov 2;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  exec c
    (op gov (Vinsn.Vst { esize = Esize.Word; src = v 1; base = Insn.Sym 0x6000; index = r 0 }));
  check "active lane stored" 7
    (Memory.read c.Sem.mem ~addr:0x6000 ~bytes:4 ~signed:true);
  check "second active lane stored" 8
    (Memory.read c.Sem.mem ~addr:0x6004 ~bytes:4 ~signed:true);
  check "inactive lane untouched" (-1)
    (Memory.read c.Sem.mem ~addr:(0x6000 + 8) ~bytes:4 ~signed:true)

let reduction_case gov c =
  Array.blit [| 1; 2; 3; 4 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(5) <- 100;
  set_active_count c gov 3;
  exec c (op gov (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "folds active lanes only" 106 c.Sem.regs.(5);
  set_active_count c gov 0;
  exec c (op gov (Vinsn.Vred { op = Opcode.Add; acc = r 5; src = v 1 }));
  check "empty count is a no-op" 106 c.Sem.regs.(5)

let permutation_case gov c =
  set_active_count c gov 2;
  Alcotest.check_raises "governed permutation refuses to execute"
    (Sem.Sigill "predicated permutation") (fun () ->
      exec c (op gov (Vinsn.Vperm { pattern = Perm.Reverse 4; dst = v 1; src = v 1 })))

(* [Tbl] lane [j] reads absolute element [src_index pattern (counter+j)]
   — exact at any width relative to the pattern period, mid-loop counter
   values included. *)
let tbl_case gov c =
  for j = 0 to 7 do
    Memory.write c.Sem.mem ~addr:(0x7000 + (4 * j)) ~bytes:4 (10 * j)
  done;
  c.Sem.regs.(0) <- 2;
  set_active_count c gov 4;
  let tbl dst =
    Governed.Tbl
      {
        gov;
        esize = Esize.Word;
        signed = true;
        dst;
        base = Insn.Sym 0x7000;
        counter = r 0;
        pattern = Perm.pairswap;
      }
  in
  exec c (tbl (v 1));
  (* lane j reads element src_index pairswap (2+j) = 3, 2, 5, 4 *)
  check "lane 0" 30 c.Sem.vregs.(1).(0);
  check "lane 1" 20 c.Sem.vregs.(1).(1);
  check "lane 2" 50 c.Sem.vregs.(1).(2);
  check "lane 3" 40 c.Sem.vregs.(1).(3);
  check "all-true fast path counted" 1 c.Sem.n_pred_fast;
  (* Shortened tail: lanes past the count load nothing and zero. *)
  Array.fill c.Sem.vregs.(2) 0 4 99;
  set_active_count c gov 2;
  exec c (tbl (v 2));
  check "tail lane 0" 30 c.Sem.vregs.(2).(0);
  check "tail lane 1" 20 c.Sem.vregs.(2).(1);
  check "inactive lane zeroed" 0 c.Sem.vregs.(2).(2);
  check "inactive lane zeroed (last)" 0 c.Sem.vregs.(2).(3);
  check "masked path counted" 1 c.Sem.n_pred_masked

let tblst_case gov c =
  for j = 0 to 3 do
    Memory.write c.Sem.mem ~addr:(0x6100 + (4 * j)) ~bytes:4 (-1)
  done;
  Array.blit [| 7; 8; 9; 10 |] 0 c.Sem.vregs.(1) 0 4;
  c.Sem.regs.(0) <- 0;
  set_active_count c gov 3;
  exec c
    (Governed.Tblst
       {
         gov;
         esize = Esize.Word;
         src = v 1;
         base = Insn.Sym 0x6100;
         counter = r 0;
         pattern = Perm.pairswap;
       });
  (* lane j writes element src_index pairswap j = 1, 0, 3; lane 3 is
     inactive, so element 2 keeps its sentinel *)
  let rd e = Memory.read c.Sem.mem ~addr:(0x6100 + (4 * e)) ~bytes:4 ~signed:true in
  check "element 0" 8 (rd 0);
  check "element 1" 7 (rd 1);
  check "inactive element untouched" (-1) (rd 2);
  check "element 3" 9 (rd 3)

let tblidx_case gov c =
  check "no builds yet" 0 c.Sem.n_tbl_builds;
  exec c (Governed.Tblidx { gov; pattern = Perm.Reverse 4 });
  exec c (Governed.Tblidx { gov; pattern = Perm.pairswap });
  check "each build counted" 2 c.Sem.n_tbl_builds;
  check "no memory traffic" 0 (List.length (Sem.last_effect c).Sem.accesses)

(* The rows of the semantics table. The suites list them one by one,
   keeping each suite's historical test order. *)

let set_active_unit =
  { sve = "whilelt prefix predicates"; rvv = "vsetvl request-grant pair"; lanes = 4; body = set_active_case }

let dp_unit =
  { sve = "predicated dp zeroes inactive lanes"; rvv = "granted dp zeroes tail lanes"; lanes = 4; body = dp_case }

let load_store_unit =
  { sve = "predicated load/store touch active lanes"; rvv = "granted load/store touch granted lanes"; lanes = 4; body = load_store_case }

let reduction_unit =
  { sve = "predicated reduction folds active lanes"; rvv = "granted reduction folds granted lanes"; lanes = 4; body = reduction_case }

let permutation_unit =
  { sve = "predicated permutation is illegal"; rvv = "granted permutation is illegal"; lanes = 4; body = permutation_case }

let tbl_unit =
  { sve = "tbl gather semantics"; rvv = "tbl gather semantics"; lanes = 4; body = tbl_case }

let tblst_unit =
  { sve = "tblst scatter semantics"; rvv = "tblst scatter semantics"; lanes = 4; body = tblst_case }

let tblidx_unit =
  { sve = "tblidx counts index builds"; rvv = "tblidx counts index builds"; lanes = 8; body = tblidx_case }

let run_case case gov =
  let c = Sem.create_ctx (Memory.create ()) in
  c.Sem.lanes <- case.lanes;
  case.body gov c;
  c

let test_case case gov () =
  let a = run_case case gov in
  let b = run_case case (other gov) in
  check_arrays "same registers" a.Sem.regs b.Sem.regs;
  Array.iteri
    (fun i va -> check_arrays (Printf.sprintf "same v%d" i) va b.Sem.vregs.(i))
    a.Sem.vregs;
  check_bool "same flags" true (Flags.equal a.Sem.flags b.Sem.flags);
  check "same active count" (active a gov) (active b (other gov));
  check "same fast count" a.Sem.n_pred_fast b.Sem.n_pred_fast;
  check "same masked count" a.Sem.n_pred_masked b.Sem.n_pred_masked;
  check "same index builds" a.Sem.n_tbl_builds b.Sem.n_tbl_builds;
  check_bool "same accesses" true
    ((Sem.last_effect a).Sem.accesses = (Sem.last_effect b).Sem.accesses);
  check_bool "same memory" true (Memory.equal a.Sem.mem b.Sem.mem)

let semantic gov case =
  let name = match gov with Governed.Pred _ -> case.sve | Governed.Vl -> case.rvv in
  Alcotest.test_case name `Quick (test_case case gov)

(* --- the FIR-15 loop --- *)

(* c[i] = 5*a[i] + 3*b[i] over 15 elements: a trip count no fixed width
   in 2..16 divides, the motivating case for the governed epilogue. *)
let fir15_count = 15

let fir15_loop =
  let open Build in
  {
    Vloop.name = "fir15";
    count = fir15_count;
    body =
      [
        vld (v 1) "a";
        vmul (v 1) (v 1) (vi 5);
        vld (v 2) "b";
        vmul (v 2) (v 2) (vi 3);
        vadd (v 1) (v 1) (vr (v 2));
        vst (v 1) "c";
      ];
    reductions = [];
  }

let fir15_data () =
  [
    Data.make ~name:"a" ~esize:Esize.Word
      (words fir15_count (fun i -> (i * 7) - 20));
    Data.make ~name:"b" ~esize:Esize.Word
      (words fir15_count (fun i -> 11 - (i * 3)));
    Data.make ~name:"c" ~esize:Esize.Word (words fir15_count (fun _ -> 0));
  ]

let fir15_expected =
  words fir15_count (fun i -> (5 * ((i * 7) - 20)) + (3 * (11 - (i * 3))))

let fir15_translate ~backend ~lanes =
  let prog =
    Codegen.liquid (simple_program ~name:"fir15" ~data:(fir15_data ()) fir15_loop)
  in
  let image = Image.of_program prog in
  let entry =
    match image.Image.region_entries with
    | [ (e, _) ] -> e
    | _ -> Alcotest.fail "expected one region"
  in
  Offline.translate_region ~backend ~image ~lanes ~entry ()

(* Four calls of the FIR-15 region under oracle translation on
   [backend], with every call served from microcode. Returns the run,
   the binary and its pure-scalar run, after checking the result array
   and memory against the scalar run — and that the fixed-width machine,
   which cannot translate 15 trips, falls back to exact scalar code. *)
let fir15_oracle_run ~backend ~lanes =
  let frames = 4 in
  let liquid =
    Codegen.liquid
      (simple_program ~name:"fir15" ~frames ~data:(fir15_data ()) fir15_loop)
  in
  let image = Image.of_program liquid in
  let config =
    { (Cpu.liquid_config ~lanes) with Cpu.backend; Cpu.oracle_translation = true }
  in
  let run = Cpu.run ~config image in
  check "all calls in microcode" run.Cpu.stats.Stats.region_calls
    run.Cpu.stats.Stats.ucode_hits;
  check "region calls" frames run.Cpu.stats.Stats.region_calls;
  check_arrays "governed result" fir15_expected (read_array run liquid "c");
  let scalar = run_image liquid in
  check_memory_equal "governed vs scalar" run scalar;
  let fixed_run =
    Cpu.run ~config:{ config with Cpu.backend = Backend.fixed } image
  in
  check "fixed backend falls back to scalar" 0
    fixed_run.Cpu.stats.Stats.vector_insns;
  check_memory_equal "fixed fallback still exact" fixed_run scalar;
  run

(* --- permutations recover as table lookups --- *)

(* The canonical Table-3 rule-3 idiom: an offset-array load the
   fixed-width DFA recovers as [pairswap]. The governed backends
   recognise the same shape and lower it to a governed table-lookup
   gather with a runtime-built index vector — no abort, no scalar
   fallback. *)
let pairswap_data ~count =
  let offs = Perm.offsets Perm.pairswap in
  [
    Data.make ~name:"off" ~esize:Esize.Word
      (words count (fun e -> offs.(e mod Array.length offs)));
    Data.make ~name:"a" ~esize:Esize.Word (words count (fun i -> 100 + i));
    Data.make ~name:"c" ~esize:Esize.Word (words count (fun _ -> 0));
  ]

let pairswap_items ~count ~scatter =
  let open Build in
  let ind = Vloop.induction in
  let body =
    if scatter then
      [
        ld (r 1) "a" (ri ind);
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        st (r 1) "c" (ri (r 13));
      ]
    else
      [
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        ld (r 1) "a" (ri (r 13));
        st (r 1) "c" (ri ind);
      ]
  in
  [ mov ind 0; label "f_top" ]
  @ body
  @ [ addi ind ind 1; cmp ind (i count); b ~cond:Cond.Lt "f_top" ]

let count_uops p (u : Ucode.t) =
  Array.fold_left (fun n uop -> if p uop then n + 1 else n) 0 u.Ucode.uops

let translated ~backend ~lanes ~data items =
  match translate_items ~lanes ~backend ~data items with
  | Translator.Translated u -> u
  | Translator.Aborted a ->
      Alcotest.failf "%s aborted at %d lanes: %s" (Backend.name_of backend)
        lanes (Abort.to_string a)

let perm_recovery_structure backend () =
  let data = pairswap_data ~count:16 in
  let items = pairswap_items ~count:16 ~scatter:false in
  (* Sanity: the fixed-width backend still takes the native path. *)
  check "fixed path emits a register permute" 1
    (count_uops
       (function Ucode.UV (Vinsn.Vperm _) -> true | _ -> false)
       (translated ~backend:Backend.fixed ~lanes:4 ~data items));
  List.iter
    (fun lanes ->
      let u = translated ~backend ~lanes ~data items in
      check "one index-table build" 1
        (count_uops (function Ucode.UG (Governed.Tblidx _) -> true | _ -> false) u);
      check "one table-lookup gather" 1
        (count_uops (function Ucode.UG (Governed.Tbl _) -> true | _ -> false) u);
      check "no register permute" 0
        (count_uops
           (function
             | Ucode.UV (Vinsn.Vperm _)
             | Ucode.UG (Governed.Op { v = Vinsn.Vperm _; _ }) ->
                 true
             | _ -> false)
           u);
      (* Both the offset-array load and the partner data load collapse
         into the table lookup — the alignment-network collapse. *)
      check "no residual vector load" 0
        (count_uops
           (function
             | Ucode.UG (Governed.Op { v = Vinsn.Vld _; _ }) -> true | _ -> false)
           u);
      (* The index-table build runs once per call: it precedes the
         header, and the back-edge re-enters after both. *)
      let target =
        match u.Ucode.uops.(Array.length u.Ucode.uops - 2) with
        | Ucode.UB { cond = Cond.Lt; target } -> target
        | _ -> Alcotest.fail "expected the loop back-edge right before ret"
      in
      (match u.Ucode.uops.(target - 1) with
      | Ucode.UG (Governed.Set_active _) -> ()
      | _ -> Alcotest.fail "back-edge target not after the header");
      (match u.Ucode.uops.(target - 2) with
      | Ucode.UG (Governed.Tblidx _) -> ()
      | _ -> Alcotest.fail "index-table build not before the header");
      (* The baked pattern is protected by per-trip offset guards, so a
         mutated offset array drops the microcode instead of replaying a
         stale permutation. *)
      check "per-trip offset guards" 16 (Array.length u.Ucode.guards))
    [ 2; 4; 8; 16 ]

let perm_scatter_recovery backend () =
  let data = pairswap_data ~count:16 in
  let items = pairswap_items ~count:16 ~scatter:true in
  let u = translated ~backend ~lanes:4 ~data items in
  check "one table-lookup scatter" 1
    (count_uops (function Ucode.UG (Governed.Tblst _) -> true | _ -> false) u);
  check "no residual vector store" 0
    (count_uops
       (function Ucode.UG (Governed.Op { v = Vinsn.Vst _; _ }) -> true | _ -> false)
       u)

(* End-to-end at a trip count no fixed width divides: the recovered
   table lookup reproduces the scalar stream bit-exactly at every
   hardware width, shortened final iteration included. *)
let perm_recovery_executes backend () =
  let count = 14 in
  List.iter
    (fun scatter ->
      let prog =
        let open Build in
        Program.make ~name:"permrec"
          ~text:
            ((Program.Label "main" :: bl_region "f" :: [ halt ])
            @ (Program.Label "f" :: pairswap_items ~count ~scatter)
            @ [ ret ])
          ~data:(pairswap_data ~count)
      in
      let scalar = run_image prog in
      let expected = read_array scalar prog "c" in
      List.iter
        (fun lanes ->
          let config =
            {
              (Cpu.liquid_config ~lanes) with
              Cpu.backend;
              Cpu.oracle_translation = true;
            }
          in
          let run = run_image ~config prog in
          check_arrays
            (Printf.sprintf "scatter=%b lanes=%d" scatter lanes)
            expected (read_array run prog "c");
          check "call served from microcode" run.Cpu.stats.Stats.region_calls
            run.Cpu.stats.Stats.ucode_hits;
          check "permutation seen" 1 run.Cpu.permutes_seen;
          check "permutation recovered" 1 run.Cpu.permutes_recovered;
          check "no permutation aborted" 0 run.Cpu.permutes_aborted;
          check "one index table built per call" 1 run.Cpu.tbl_index_builds)
        [ 2; 4; 8; 16 ])
    [ false; true ]

(* A genuinely data-dependent shuffle — the offset array is written
   inside the loop, so no index vector baked at translation time can be
   proven to stay correct — is the one shape that still aborts. *)
let data_dependent_still_aborts backend () =
  let open Build in
  let ind = Vloop.induction in
  let data = pairswap_data ~count:16 in
  let items =
    [ mov ind 0; label "f_top" ]
    @ [
        ld (r 13) "off" (ri ind);
        dp Opcode.Add (r 13) ind (ri (r 13));
        ld (r 1) "a" (ri (r 13));
        st (r 1) "c" (ri ind);
        st (r 1) "off" (ri ind);
      ]
    @ [ addi ind ind 1; cmp ind (i 16); b ~cond:Cond.Lt "f_top" ]
  in
  expect_abort ~lanes:4 ~backend ~data items
    (fun a -> a = Abort.Unportable_permutation)
    ("data-dependent shuffle under " ^ Backend.name_of backend)

(* The FFT workload leans on butterflies: under a governed backend
   every permuting region recovers as a table lookup — no unportable
   aborts, all regions vectorized, state still bit-identical to the
   scalar oracle. Returns the run for backend-specific checks. *)
let fft_recovers backend =
  let w = Option.get (Workload.find "FFT") in
  let { Runner.run; program; _ } =
    Runner.run_cached w (liquid ~backend:(Backend.kind_of backend) 8)
  in
  let image = Image.of_program program in
  check_bool "no region fails permanently" true
    (List.for_all
       (fun (reg : Cpu.region_report) ->
         match reg.Cpu.outcome with Cpu.R_failed _ -> false | _ -> true)
       run.Cpu.regions);
  check "no translation aborts" 0 run.Cpu.stats.Stats.translations_aborted;
  check_bool "butterflies recovered" true (run.Cpu.permutes_recovered > 0);
  check "no permutation aborted" 0 run.Cpu.permutes_aborted;
  check_bool "index tables built" true (run.Cpu.tbl_index_builds > 0);
  check_bool "oracle equivalence" true (Oracle.equivalent w image run);
  run

(* --- scalar-equivalence oracle, all workloads x all widths --- *)

let oracle_equivalence backend (w : Workload.t) () =
  List.iter
    (fun width ->
      let { Runner.run; program; _ } =
        Runner.run_cached w (liquid ~backend:(Backend.kind_of backend) width)
      in
      let image = Image.of_program program in
      match Oracle.check w image run with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "w%d diverged from scalar: %a" width Oracle.pp_mismatch
            m)
    [ 2; 4; 8; 16 ]

(* The end-to-end cases both governed suites list under the same
   names. *)
let perm_tests backend =
  [
    Alcotest.test_case "permutation recovers as table lookup" `Quick
      (perm_recovery_structure backend);
    Alcotest.test_case "store-side permutation recovers" `Quick
      (perm_scatter_recovery backend);
    Alcotest.test_case "recovered permutes execute bit-exactly" `Quick
      (perm_recovery_executes backend);
    Alcotest.test_case "data-dependent shuffle still aborts" `Quick
      (data_dependent_still_aborts backend);
  ]

let oracle_tests backend =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "oracle equivalence %s" w.Workload.name)
        `Quick
        (oracle_equivalence backend w))
    (Workload.all ())
