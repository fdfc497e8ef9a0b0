(* Shared fixtures and utilities for the test suites. *)

open Liquid_isa
open Liquid_prog
open Liquid_scalarize
module Cpu = Liquid_pipeline.Cpu
module Memory = Liquid_machine.Memory

let v = Build.v
let r = Build.r

(* A program with scalar glue driving [frames] executions of the given
   loops. *)
let framed_program ?(name = "test") ?(frames = 1) ~data loops =
  let open Build in
  (* r15 is outside the v1..v12 register image of loop bodies and is not
     the link, induction or scratch register, so it survives both inline
     loops and region calls. *)
  let frame_reg = r 15 in
  let pre = Vloop.Code [ mov frame_reg 0; label "frame_top" ] in
  let post =
    Vloop.Code
      [
        addi frame_reg frame_reg 1;
        cmp frame_reg (i frames);
        b ~cond:Liquid_isa.Cond.Lt "frame_top";
      ]
  in
  {
    Vloop.name;
    sections = (pre :: List.map (fun l -> Vloop.Loop l) loops) @ [ post ];
    data;
  }

(* A Liquid machine variant: fixed-width hardware translation unless
   told otherwise. *)
let liquid ?(backend = Liquid_translate.Backend.Fixed) ?(oracle = false) lanes =
  Liquid_harness.Runner.Liquid { backend; lanes; oracle }

let simple_program ?name ?frames ~data loop =
  framed_program ?name ?frames ~data [ loop ]

let words n f = Array.init n f

let run_image ?(config = Cpu.scalar_config) program =
  Cpu.run ~config (Image.of_program program)

let read_array (run : Cpu.run) program name =
  let img = Image.of_program program in
  let addr = Image.array_addr img name in
  match Program.find_data program name with
  | None -> invalid_arg ("read_array: " ^ name)
  | Some d ->
      let b = Esize.bytes d.esize in
      Array.init (Array.length d.values) (fun i ->
          Memory.read run.Cpu.memory ~addr:(addr + (i * b)) ~bytes:b
            ~signed:true)

let check_arrays = Alcotest.(check (array int))

(* FNV-1a fingerprints of final state, shared with the fault-injection
   oracle so the two observers agree on what "identical state" means. *)
let regs_hash = Liquid_faults.Fingerprint.regs_hash
let mem_hash = Liquid_faults.Fingerprint.mem_hash

(* The engine differentials' contract: two runs of the same image, one
   through the block engine and its superblock tier, one stepping, agree
   observable by observable. The cycle counter first and by name: it
   folds in every timing rule (stalls, penalties, miss latencies), so
   when the engine drifts this is the check that reads best in a
   failure. Block and superblock tallies are telemetry of the strategy
   itself and are not compared. *)
let check_identical what (on : Cpu.run) (off : Cpu.run) =
  let module Stats = Liquid_machine.Stats in
  let ck field = Alcotest.(check int) (what ^ ": " ^ field) in
  ck "cycles" off.Cpu.stats.Stats.cycles on.Cpu.stats.Stats.cycles;
  Alcotest.(check bool)
    (what ^ ": full Stats record") true
    (off.Cpu.stats = on.Cpu.stats);
  Alcotest.(check bool)
    (what ^ ": icache counters") true
    (off.Cpu.icache_counters = on.Cpu.icache_counters);
  Alcotest.(check bool)
    (what ^ ": dcache counters") true
    (off.Cpu.dcache_counters = on.Cpu.dcache_counters);
  Alcotest.(check bool)
    (what ^ ": predictor counters") true
    (off.Cpu.bpred_counters = on.Cpu.bpred_counters);
  Alcotest.(check bool)
    (what ^ ": ucode cache counters") true
    (off.Cpu.ucache_counters = on.Cpu.ucache_counters);
  ck "ucode max occupancy" off.Cpu.ucode_max_occupancy
    on.Cpu.ucode_max_occupancy;
  (* calls (start and end cycles), microcode service, outcome with the
     installed width and uop count *)
  Alcotest.(check bool)
    (what ^ ": region reports") true
    (off.Cpu.regions = on.Cpu.regions);
  Alcotest.(check (list int))
    (what ^ ": translation latencies")
    off.Cpu.translation_latencies on.Cpu.translation_latencies;
  ck "register hash" (regs_hash off.Cpu.regs) (regs_hash on.Cpu.regs)

let check_memory_equal msg (a : Cpu.run) (b : Cpu.run) =
  if not (Memory.equal a.Cpu.memory b.Cpu.memory) then begin
    let diffs = Memory.diff a.Cpu.memory b.Cpu.memory in
    List.iter
      (fun (addr, x, y) ->
        Printf.printf "  mem[0x%x]: %d vs %d\n" addr x y)
      diffs;
    Alcotest.fail (msg ^ ": memories differ")
  end

(* The paper's running FFT example (§3.4, Figures 2-4), expressed in the
   vector IR: butterfly loads of RealOut/ImagOut, multiply-subtract,
   add/sub, masked merge through a mid-loop butterfly that forces
   fission. *)
let fft_loop ~count =
  let open Build in
  {
    Vloop.name = "fft";
    count;
    body =
      [
        vld (v 1) "RealOut";
        vbfly 8 (v 1) (v 1);
        vld (v 2) "ImagOut";
        vbfly 8 (v 2) (v 2);
        vld (v 3) "ar";
        vld (v 4) "ai";
        vmul (v 3) (v 3) (vr (v 1));
        vmul (v 4) (v 4) (vr (v 2));
        vsub (v 6) (v 3) (vr (v 4));
        vld (v 5) "RealOut";
        vsub (v 7) (v 5) (vr (v 6));
        vadd (v 8) (v 5) (vr (v 6));
        vand (v 7) (v 7) (vmask [ 0; 0; 0; 0; 1; 1; 1; 1 ]);
        vbfly 8 (v 7) (v 7);
        vand (v 8) (v 8) (vmask [ 1; 1; 1; 1; 0; 0; 0; 0 ]);
        vorr (v 9) (v 7) (vr (v 8));
        vst (v 9) "RealOut";
      ];
    reductions = [];
  }

let fft_data ~count =
  [
    Data.make ~name:"RealOut" ~esize:Esize.Word
      (words count (fun i -> (i * 7) - 100));
    Data.make ~name:"ImagOut" ~esize:Esize.Word
      (words count (fun i -> (i * 3) + 11));
    Data.make ~name:"ar" ~esize:Esize.Word (words count (fun i -> i mod 9));
    Data.make ~name:"ai" ~esize:Esize.Word (words count (fun i -> 5 - (i mod 4)));
  ]

(* Build a standalone region [f] from raw items: its image and entry. *)
let region_image ~data items =
  let open Build in
  let prog =
    Liquid_prog.Program.make ~name:"t"
      ~text:
        ((Liquid_prog.Program.Label "main" :: bl_region "f" :: [ halt ])
        @ (Liquid_prog.Program.Label "f" :: items)
        @ [ ret ])
      ~data
  in
  let image = Liquid_prog.Image.of_program prog in
  let entry =
    match Liquid_prog.Image.find_label image "f" with
    | Some e -> e
    | None -> assert false
  in
  (image, entry)

(* Build a standalone region from raw items and translate it offline. *)
let translate_items ?(lanes = 4) ?(max_uops = 64) ?backend ~data items =
  let image, entry = region_image ~data items in
  Liquid_pipeline.Offline.translate_region ~max_uops ?backend ~image ~lanes
    ~entry ()

let expect_abort ?lanes ?max_uops ?backend ~data items reason_check msg =
  match translate_items ?lanes ?max_uops ?backend ~data items with
  | Liquid_translate.Translator.Aborted r ->
      if not (reason_check r) then
        Alcotest.failf "%s: wrong abort reason: %s" msg
          (Liquid_translate.Abort.to_string r)
  | Liquid_translate.Translator.Translated u ->
      Alcotest.failf "%s: unexpectedly translated:@.%a" msg
        Liquid_translate.Ucode.pp u

let expect_ucode ?lanes ?max_uops ?backend ~data items msg =
  match translate_items ?lanes ?max_uops ?backend ~data items with
  | Liquid_translate.Translator.Translated u -> u
  | Liquid_translate.Translator.Aborted r ->
      Alcotest.failf "%s: aborted: %s" msg (Liquid_translate.Abort.to_string r)
