(* Edge cases of the trace-superblock tier (Blocks).

   The tier is part of the block engine, not a mode of its own: the
   engine differential in [Suite_blocks] holds every workload, variant
   and width to bit-identity with stepping, superblocks included. The
   cases here attack the tier's guard on hand-built loops, each run
   against the stepping engine ([Cpu.blocks = false]) as its reference:
   trip counts straddling the formation threshold (a superblock formed
   on the very last iteration, or never), a loop whose trip count
   changes between re-entries so the guard bails at a different
   iteration every time, a body with an internal conditional branch
   (formation must fail, execution must not care), and a fuel budget
   that expires mid-loop (the tier must bail to the block path and die
   on exactly the same instruction). A probe case checks the tier
   really fires on real workloads. *)

open Liquid_isa
open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_harness
open Liquid_workloads

(* The engine differential is vacuous for the tier if it never fires:
   the probe workloads below are known to form and iterate
   superblocks. *)
let test_activity () =
  let probe name variant =
    let w =
      match Workload.find name with Some w -> w | None -> assert false
    in
    let r = (Runner.run_cached w variant).Runner.run in
    Alcotest.(check bool)
      (name ^ ": superblocks formed") true
      (r.Cpu.superblocks_compiled > 0);
    Alcotest.(check bool)
      (name ^ ": superblock iterations ran") true
      (r.Cpu.superblock_iters > 0);
    Alcotest.(check bool)
      (name ^ ": every execution run bailed out exactly once") true
      (r.Cpu.superblock_bailouts > 0
      && r.Cpu.superblock_bailouts <= r.Cpu.superblock_iters)
  in
  probe "GSM Dec." Runner.Baseline;
  probe "FIR" Runner.Baseline;
  probe "MPEG2 Dec." (Helpers.liquid 8)

(* --- hand-built loops around the formation threshold --- *)

(* A do-while loop over [trips] iterations: load, accumulate, store,
   bump, compare, conditional back-edge. One conditional back-edge,
   nothing else conditional — the canonical formation candidate. *)
let counting_program ~trips =
  let open Build in
  Program.make
    ~name:(Printf.sprintf "count%d" trips)
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 2) 0;
        label "loop";
        ld (r 3) "xs" (ri (r 1));
        dp Opcode.Add (r 2) (r 2) (ri (r 3));
        st (r 2) "ys" (ri (r 1));
        addi (r 1) (r 1) 1;
        cmp (r 1) (i trips);
        b ~cond:Cond.Lt "loop";
        st (r 2) "sum" (i 0);
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init (max trips 1) (fun i -> (i * 13) - 7));
        Data.zeros ~name:"ys" ~esize:Esize.Word (max trips 1);
        Data.zeros ~name:"sum" ~esize:Esize.Word 1;
      ]

let run_counting ~blocks trips =
  let config = { Cpu.scalar_config with Cpu.blocks } in
  Cpu.run ~config (Image.of_program (counting_program ~trips))

(* The threshold is 16 taken back-edges counted on the block that
   starts at the loop head. Iteration 1 reaches the latch through the
   program-entry block (whose pc precedes the head, so the backward
   test rejects it); iterations 2..trips-1 fire the counted edge. The
   first trip count that forms is therefore 18, with exactly one
   iteration run inside the trace before the guard fails; every larger
   count runs [trips - 17]. *)
let test_trip_counts () =
  List.iter
    (fun trips ->
      let on = run_counting ~blocks:true trips in
      let off = run_counting ~blocks:false trips in
      let what = Printf.sprintf "count%d" trips in
      Helpers.check_identical what on off;
      Alcotest.(check bool)
        (what ^ ": memories equal")
        true
        (Liquid_machine.Memory.equal on.Cpu.memory off.Cpu.memory);
      let expect_supers = if trips >= 18 then 1 else 0 in
      Alcotest.(check int)
        (what ^ ": superblocks formed")
        expect_supers on.Cpu.superblocks_compiled;
      Alcotest.(check int)
        (what ^ ": superblock iterations")
        (if trips >= 18 then trips - 17 else 0)
        on.Cpu.superblock_iters;
      Alcotest.(check int)
        (what ^ ": bailouts (one per guard exit)")
        expect_supers on.Cpu.superblock_bailouts)
    [ 1; 2; 15; 16; 17; 18; 19; 31; 33; 100 ]

(* An inner loop whose trip count is recomputed by the outer loop
   ((outer land 7) + 1, so between 1 and 8 inner iterations): the
   superblock formed on the inner latch is re-entered dozens of times
   and its guard fails at a different iteration each round. The outer
   back-edge is also hot, but its body contains the inner conditional
   branch, so formation on the outer latch must fail — and keep
   failing silently. *)
let varying_program =
  let open Build in
  Program.make ~name:"varying"
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 5) 0;
        label "outer";
        dp Opcode.And (r 4) (r 1) (i 7);
        addi (r 4) (r 4) 1;
        mov (r 2) 0;
        label "inner";
        ld (r 3) "xs" (ri (r 2));
        dp Opcode.Add (r 5) (r 5) (ri (r 3));
        addi (r 2) (r 2) 1;
        cmp (r 2) (ri (r 4));
        b ~cond:Cond.Lt "inner";
        st (r 5) "ys" (ri (r 1));
        addi (r 1) (r 1) 1;
        cmp (r 1) (i 64);
        b ~cond:Cond.Lt "outer";
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init 8 (fun i -> i + 100));
        Data.zeros ~name:"ys" ~esize:Esize.Word 64;
      ]

let test_varying_trip_counts () =
  let run ~blocks =
    let config = { Cpu.scalar_config with Cpu.blocks } in
    Cpu.run ~config (Image.of_program varying_program)
  in
  let on = run ~blocks:true in
  let off = run ~blocks:false in
  Helpers.check_identical "varying" on off;
  Alcotest.(check bool)
    "varying: memories equal" true
    (Liquid_machine.Memory.equal on.Cpu.memory off.Cpu.memory);
  (* only the inner latch can form; the outer body's conditional branch
     makes its trace ineligible *)
  Alcotest.(check int) "varying: only the inner loop forms" 1
    on.Cpu.superblocks_compiled;
  Alcotest.(check bool)
    "varying: guard re-entered many times (one bailout per entry)" true
    (on.Cpu.superblock_bailouts > 10)

(* A body with an internal conditional skip: the trace walk from the
   loop head hits a conditional terminator mid-trace, so formation
   fails — once, permanently — while execution stays identical. *)
let branchy_program =
  let open Build in
  Program.make ~name:"branchy"
    ~text:
      [
        Program.Label "main";
        mov (r 1) 0;
        mov (r 2) 0;
        label "loop";
        ld (r 3) "xs" (ri (r 1));
        cmp (r 3) (i 0);
        b ~cond:Cond.Lt "skip";
        dp Opcode.Add (r 2) (r 2) (ri (r 3));
        label "skip";
        addi (r 1) (r 1) 1;
        cmp (r 1) (i 200);
        b ~cond:Cond.Lt "loop";
        st (r 2) "sum" (i 0);
        halt;
      ]
    ~data:
      [
        Data.make ~name:"xs" ~esize:Esize.Word
          (Array.init 200 (fun i -> if i mod 3 = 0 then -i else i));
        Data.zeros ~name:"sum" ~esize:Esize.Word 1;
      ]

let test_formation_failure () =
  let run ~blocks =
    let config = { Cpu.scalar_config with Cpu.blocks } in
    Cpu.run ~config (Image.of_program branchy_program)
  in
  let on = run ~blocks:true in
  let off = run ~blocks:false in
  Helpers.check_identical "branchy" on off;
  Alcotest.(check int) "branchy: formation failed" 0
    on.Cpu.superblocks_compiled;
  Alcotest.(check int) "branchy: no superblock iterations" 0
    on.Cpu.superblock_iters

(* Fuel expiring in the middle of a hot loop: the tier must bail to the
   block path at an iteration boundary and let it die on exactly the
   same instruction, cycle and retired count as the stepping run. *)
let test_fuel_bailout () =
  List.iter
    (fun fuel ->
      let image = Image.of_program (counting_program ~trips:5000) in
      let result blocks =
        Helpers.outcome
          ~config:
            {
              Cpu.scalar_config with
              Cpu.fault = Some (Fault.Exhaust_fuel { budget = fuel });
              Cpu.blocks;
            }
          image
      in
      match (result true, result false) with
      | Error don, Error doff ->
          Alcotest.(check bool)
            (Printf.sprintf "fuel %d: identical diagnostics" fuel)
            true (don = doff);
          Alcotest.(check string)
            (Printf.sprintf "fuel %d: fuel fault" fuel)
            "fuel-exhausted"
            (Diag.fault_name don.Diag.fault)
      | _ ->
          Alcotest.failf "fuel %d: expected both runs to exhaust fuel" fuel)
    [ 200; 301; 1111 ]

let tests =
  [
    Alcotest.test_case "superblock activity on probe workloads" `Quick
      test_activity;
    Alcotest.test_case "trip counts around the formation threshold" `Quick
      test_trip_counts;
    Alcotest.test_case "varying trip counts across re-entries" `Quick
      test_varying_trip_counts;
    Alcotest.test_case "formation fails on internal conditionals" `Quick
      test_formation_failure;
    Alcotest.test_case "fuel exhaustion mid-superblock" `Quick
      test_fuel_bailout;
  ]
