(* Illegal instructions on the block engine: a vector op the machine
   cannot execute must stop the run with the same diagnostic (fault,
   pc, cycle, retired) whether the engine or the stepping interpreter
   reaches it.

   The two static causes are a permutation the accelerator's width does
   not support ([vperm.reverse.8] at 4 lanes) and a constant vector
   whose length is not the lane count. The engine never compiles such
   an op: a block ends before it, so [step] raises, and a microcode
   segment holding one is declined, so the interpreted loop raises. A
   static cause faults on every execution, so it stops the run on the
   first visit of its block, before any trace over that block can
   form. *)

open Liquid_prog
open Liquid_isa
open Liquid_visa
open Liquid_machine
open Liquid_pipeline
open Liquid_translate

let check_bool = Alcotest.(check bool)

let assemble src = Image.of_program (Parse.program ~name:"illegal" src)

(* The run stops with [Illegal] at the same point on the engine and
   stepping. *)
let check_same_fault what config image =
  match
    ( Helpers.outcome ~config image,
      Helpers.outcome ~config:{ config with Cpu.blocks = false } image )
  with
  | Error on, Error off ->
      check_bool (what ^ ": illegal") true
        (match off.Diag.fault with Diag.Illegal _ -> true | _ -> false);
      Alcotest.(check string)
        (what ^ ": identical diagnostics")
        (Diag.to_string off) (Diag.to_string on);
      check_bool (what ^ ": identical fault") true (on = off)
  | _ -> Alcotest.failf "%s: expected both runs to stop on the illegal op" what

let machines =
  [ ("native:4", Cpu.native_config ~lanes:4); ("scalar", Cpu.scalar_config) ]

(* Each cause with its total twin at 4 lanes. *)
let causes =
  [
    ("vperm", "vperm.reverse.8 v3, v1", "vperm.reverse.4 v3, v1");
    ("vconst", "vadd v3, v1, #[1 2 3 4 5 6 7 8]", "vadd v3, v1, #[1 2 3 4]");
  ]

(* Three vector slots, the attacked one at [slot]. *)
let vector_run ~slot op =
  String.concat "\n"
    (List.init 3 (fun k ->
         if k = slot then "    " ^ op else Printf.sprintf "    vadd v%d, v%d, v1" (4 + k) (4 + k)))

let slots = [ (0, "first"); (1, "middle"); (2, "last") ]

(* A straight-line image block: scalar set-up, then the vector run. *)
let block_program ~slot op =
  Printf.sprintf
    ".text\nmain:\n    mov r1, #0\n    mov r2, #5\n%s\n    add r3, r3, #1\n    halt\n"
    (vector_run ~slot op)

(* A loop whose body — scalar head, vector member, scalar latch — is a
   trace superblock when the vector member is total, optionally after a
   40-trip warm-up loop of the same shape whose trace runs steady
   state. *)
let loop_program ~warm ~slot op =
  let warmup =
    if warm then
      "warm:\n    add r1, r1, #1\n    vadd v1, v1, v2\n    vsub v2, v2, v1\n\
      \    vadd v3, v3, v1\n    cmp r1, #40\n    blt warm\n"
    else ""
  in
  Printf.sprintf
    ".text\nmain:\n    mov r1, #0\n    mov r2, #0\n%sloop:\n    add r2, r2, #1\n%s\n\
    \    cmp r2, #40\n    blt loop\n    halt\n"
    warmup (vector_run ~slot op)

let test_image_block () =
  List.iter
    (fun (mname, config) ->
      List.iter
        (fun (cname, bad, good) ->
          List.iter
            (fun (slot, sname) ->
              check_same_fault
                (Printf.sprintf "%s %s %s slot" mname cname sname)
                config
                (assemble (block_program ~slot bad));
              if mname = "native:4" then
                ignore (Cpu.run ~config (assemble (block_program ~slot good))))
            slots)
        causes)
    machines

let test_superblock_member () =
  List.iter
    (fun (mname, config) ->
      List.iter
        (fun (cname, bad, good) ->
          List.iter
            (fun warm ->
              List.iter
                (fun (slot, sname) ->
                  let what =
                    Printf.sprintf "%s %s %s slot%s" mname cname sname
                      (if warm then " after warm-up" else "")
                  in
                  check_same_fault what config
                    (assemble (loop_program ~warm ~slot bad));
                  if mname = "native:4" then begin
                    (* the total twin really is a trace: the attacked op
                       sits in a superblock member *)
                    let run =
                      Cpu.run ~config (assemble (loop_program ~warm ~slot good))
                    in
                    Alcotest.(check int)
                      (what ^ ": twin forms its traces")
                      (if warm then 2 else 1)
                      run.Cpu.superblocks_compiled;
                    check_bool (what ^ ": twin iterates its traces") true
                      (run.Cpu.superblock_iters > 0)
                  end)
                slots)
            [ false; true ])
        causes)
    machines

(* --- microcode segments --- *)

let vr = Vreg.make
let gr = Reg.make

(* Segment A: two uops and a branch into segment B, whose three slots
   hold the attacked op at [slot] and write [r5] elsewhere, then return. *)
let ucode ~slot attacked =
  let filler k =
    Ucode.US
      (Insn.Dp
         { cond = Cond.Al; op = Opcode.Add; dst = gr 5; src1 = gr 5; src2 = Insn.Imm (k + 1) })
  in
  {
    Ucode.uops =
      Array.concat
        [
          [|
            Ucode.US (Insn.Mov { cond = Cond.Al; dst = gr 1; src = Insn.Imm 7 });
            Ucode.UV
              (Vinsn.Vdp { op = Opcode.Add; dst = vr 1; src1 = vr 1; src2 = Vinsn.VR (vr 2) });
            Ucode.UB { cond = Cond.Al; target = 3 };
          |];
          Array.init 3 (fun k -> if k = slot then attacked else filler k);
          [| Ucode.URet |];
        ];
    width = 4;
    kind = Ucode.Fixed;
    lmul = 1;
    source_insns = 0;
    observed_insns = 0;
    guards = [||];
  }

let engine () =
  let image = assemble ".text\nmain:\n    halt\n" in
  let ctx = Sem.create_ctx (Memory.create ()) in
  ctx.Sem.lanes <- 4;
  let stats = Stats.create () in
  let eng =
    Blocks.create ~image ~ctx ~stats
      ~icache:(Cache.create Cache.arm926_config)
      ~dcache:(Cache.create Cache.arm926_config)
      ~bpred:(Branch_pred.create ()) ~vec_bus_bytes:16 ~lanes:(Some 4)
      ~max_uops:64 ~fuel:1_000_000
  in
  (eng, ctx, stats)

let ucode_causes =
  [
    ( "UV vperm",
      Ucode.UV (Vinsn.Vperm { pattern = Perm.Reverse 8; dst = vr 3; src = vr 1 }),
      Ucode.UV (Vinsn.Vperm { pattern = Perm.Reverse 4; dst = vr 3; src = vr 1 }) );
    ( "UG vconst",
      Ucode.UG
        (Governed.Op
           {
             gov = Governed.Pred Governed.p0;
             v =
               Vinsn.Vdp
                 { op = Opcode.Add; dst = vr 3; src1 = vr 1; src2 = Vinsn.VConst (Array.make 8 1) };
           }),
      Ucode.UG
        (Governed.Op
           {
             gov = Governed.Pred Governed.p0;
             v =
               Vinsn.Vdp
                 { op = Opcode.Add; dst = vr 3; src1 = vr 1; src2 = Vinsn.VConst (Array.make 4 1) };
           }) );
  ]

(* The faulting segment is handed back untouched: the engine retires
   segment A and its branch, returns the faulting segment's start for
   the interpreted loop, and nothing of segment B has run. Its total
   twin replays to the return. *)
let test_ucode_segment () =
  List.iter
    (fun (cname, bad, good) ->
      List.iter
        (fun (slot, sname) ->
          let what = Printf.sprintf "%s %s slot" cname sname in
          let eng, ctx, stats = engine () in
          (match Blocks.exec_ucode eng ~entry:0 ~stamp:0 ~retired:10 (ucode ~slot bad) with
          | Blocks.U_resume ui -> Alcotest.(check int) (what ^ ": handed back at B") 3 ui
          | Blocks.U_done -> Alcotest.failf "%s: replayed to the return" what);
          Alcotest.(check int) (what ^ ": retired segment A") 13 (Blocks.out_retired eng);
          Alcotest.(check int) (what ^ ": uops retired") 3 stats.Stats.uops_retired;
          Alcotest.(check int) (what ^ ": A ran") 7 ctx.Sem.regs.(1);
          Alcotest.(check int) (what ^ ": nothing of B ran") 0 ctx.Sem.regs.(5);
          (* the interpreted loop raises at the attacked slot *)
          ctx.Sem.preds.(Governed.slot (Governed.Pred Governed.p0)) <- 4;
          check_bool (what ^ ": the interpreter faults") true
            (match bad with
            | Ucode.UV v -> (
                match Sem.exec_vector ctx v with () -> false | exception Sem.Sigill _ -> true)
            | Ucode.UG g -> (
                match Sem.exec_governed ctx g with
                | () -> false
                | exception Sem.Sigill _ -> true)
            | _ -> false);
          let eng, _, stats = engine () in
          (match Blocks.exec_ucode eng ~entry:0 ~stamp:0 ~retired:10 (ucode ~slot good) with
          | Blocks.U_done -> ()
          | Blocks.U_resume ui -> Alcotest.failf "%s: twin handed back at %d" what ui);
          Alcotest.(check int) (what ^ ": twin retires all") 7 stats.Stats.uops_retired)
        slots)
    ucode_causes

let tests =
  [
    Alcotest.test_case "image block faults like stepping" `Quick test_image_block;
    Alcotest.test_case "trace-shaped loop faults like stepping" `Quick
      test_superblock_member;
    Alcotest.test_case "faulting microcode segment is handed back" `Quick
      test_ucode_segment;
  ]
