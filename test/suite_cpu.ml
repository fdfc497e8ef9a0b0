(* Tests for the CPU driver: timing model sanity, region bookkeeping,
   microcode cache behaviour, translation latency, oracle mode, and
   binary-compatibility failure modes. *)

open Liquid_isa
open Liquid_prog
open Liquid_scalarize
module Kernels = Liquid_workloads.Kernels
open Liquid_pipeline
open Liquid_translate
open Helpers
open Build
module Stats = Liquid_machine.Stats

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let vadd_loop count =
  {
    Vloop.name = "vadd";
    count;
    body = [ vld (v 1) "a"; vld (v 2) "b"; vadd (v 3) (v 1) (vr (v 2)); vst (v 3) "c" ];
    reductions = [];
  }

let vadd_data count =
  [
    Kernels.warray "a" count (fun i -> i);
    Kernels.warray "b" count (fun i -> i * 2);
    Kernels.wzeros "c" count;
  ]

let vadd_program ?(frames = 4) ?(count = 32) () =
  simple_program ~frames ~data:(vadd_data count) (vadd_loop count)

(* --- timing sanity --- *)

let test_cycles_at_least_insns () =
  let prog = Codegen.baseline (vadd_program ()) in
  let run = run_image prog in
  check_bool "CPI >= 1" true (run.Cpu.stats.Stats.cycles >= Stats.total_insns run.Cpu.stats)

let test_cache_misses_cost_cycles () =
  let prog = Codegen.baseline (vadd_program ()) in
  let s = (run_image prog).Cpu.stats in
  let misses = s.Stats.icache_misses + s.Stats.dcache_misses in
  check_bool "the run misses" true (misses > 0);
  check_bool "cycles >= instructions + misses x memory latency" true
    (s.Stats.cycles >= Stats.total_insns s + (misses * Blocks.mem_latency))

let test_branch_stats () =
  let prog = Codegen.baseline (vadd_program ()) in
  let run = run_image prog in
  check_bool "branches counted" true (run.Cpu.stats.Stats.branches > 0);
  check_bool "few mispredicts on a hot loop" true
    (run.Cpu.stats.Stats.branch_mispredicts * 5 < run.Cpu.stats.Stats.branches)

let test_fuel_exhaustion () =
  let open Build in
  let prog =
    Program.make ~name:"spin"
      ~text:[ Program.Label "main"; b "main" ]
      ~data:[]
  in
  (* The watchdog returns a structured diagnostic with the machine
     snapshot at the failure point, not a bare string. *)
  let config =
    { Cpu.scalar_config with Cpu.fault = Some (Fault.Exhaust_fuel { budget = 100 }) }
  in
  match Cpu.run ~config (Image.of_program prog) with
  | _ -> Alcotest.fail "spin loop terminated"
  | exception Diag.Error d ->
      check_bool "fuel fault class" true (d.Diag.fault = Diag.Fuel_exhausted);
      check "retired = fuel + 1" 101 d.Diag.retired;
      check_bool "snapshot cycle advanced" true (d.Diag.cycle > 0);
      check_bool "snapshot pc inside image" true (d.Diag.pc >= 0)

let test_wild_pc () =
  let prog = Program.make ~name:"fall" ~text:[ Program.Label "main"; Build.mov (r 1) 0 ] ~data:[] in
  match Cpu.run (Image.of_program prog) with
  | _ -> Alcotest.fail "fall-through terminated"
  | exception Diag.Error d ->
      check_bool "wild pc fault" true (d.Diag.fault = Diag.Wild_pc)

(* --- region bookkeeping --- *)

let test_region_calls_and_intervals () =
  let prog = Codegen.liquid (vadd_program ~frames:3 ()) in
  let run = run_image ~config:(Cpu.liquid_config ~lanes:4) prog in
  match run.Cpu.regions with
  | [ reg ] ->
      check "three calls" 3 (List.length reg.Cpu.calls);
      List.iter
        (fun (s, e) -> check_bool "interval ordered" true (e > s))
        reg.Cpu.calls;
      (* chronological and disjoint *)
      let rec ordered = function
        | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ordered rest
        | _ -> true
      in
      check_bool "calls disjoint" true (ordered reg.Cpu.calls);
      check "served from ucode" 2 reg.Cpu.ucode_served;
      (match reg.Cpu.outcome with
      | Cpu.R_installed { width = 4; _ } -> ()
      | _ -> Alcotest.fail "expected installed at width 4")
  | rs -> Alcotest.failf "expected one region, got %d" (List.length rs)

let test_no_translator_means_scalar () =
  let prog = Codegen.liquid (vadd_program ()) in
  let run = run_image ~config:(Cpu.native_config ~lanes:4) prog in
  (* Accelerator present but no translator: the Liquid binary still runs,
     scalar. *)
  check "no vector insns" 0 run.Cpu.stats.Stats.vector_insns;
  check "no hits" 0 run.Cpu.stats.Stats.ucode_hits

let test_failed_region_not_retried () =
  (* A region that aborts permanently is translated once and never
     retried; calls keep running scalar. *)
  let open Build in
  let items =
    [
      Program.Label "main";
      mov (r 15) 0;
      label "fr";
      bl_region "f";
      addi (r 15) (r 15) 1;
      cmp (r 15) (i 4);
      b ~cond:Cond.Lt "fr";
      halt;
      Program.Label "f";
      (* straight-line region: no loop -> permanent abort *)
      mov (r 1) 7;
      st (r 1) "c" (i 0);
      ret;
    ]
  in
  let prog = Program.make ~name:"failing" ~text:items ~data:[ Kernels.wzeros "c" 8 ] in
  let run = run_image ~config:(Cpu.liquid_config ~lanes:4) prog in
  check "one translation attempt" 1 run.Cpu.stats.Stats.translations_started;
  check "one abort" 1 run.Cpu.stats.Stats.translations_aborted;
  match run.Cpu.regions with
  | [ reg ] -> (
      check "four calls" 4 (List.length reg.Cpu.calls);
      match reg.Cpu.outcome with
      | Cpu.R_failed reason ->
          check_bool "permanent" true
            (Liquid_pipeline.Diag.classify_abort reason = `Permanent)
      | _ -> Alcotest.fail "expected permanent failure")
  | _ -> Alcotest.fail "one region"

let test_plain_bl_not_translated () =
  (* An ordinary branch-and-link is never fed to the translator (the
     paper's false-positive discussion: the unique region branch is the
     only trigger). *)
  let open Build in
  let items =
    [
      Program.Label "main";
      bl "f";
      bl "f";
      halt;
      Program.Label "f";
    ]
    @ Build.counted_loop ~name:"f_top" ~count:8 ~ind:(r 0)
        [ ld (r 1) "a" (ri (r 0)); st (r 1) "c" (ri (r 0)) ]
    @ [ ret ]
  in
  let prog =
    Program.make ~name:"plain" ~text:items
      ~data:[ Kernels.warray "a" 8 (fun i -> i); Kernels.wzeros "c" 8 ]
  in
  let run = run_image ~config:(Cpu.liquid_config ~lanes:4) prog in
  check "no region calls" 0 run.Cpu.stats.Stats.region_calls;
  check "no translations" 0 run.Cpu.stats.Stats.translations_started

(* --- microcode cache dynamics --- *)

let many_loops_program n ~frames =
  let loops =
    List.init n (fun k ->
        {
          Vloop.name = Printf.sprintf "l%d" k;
          count = 16;
          body =
            [ vld (v 1) "a"; vmul (v 1) (v 1) (vi (k + 1)); vst (v 1) "c" ];
          reductions = [];
        })
  in
  framed_program ~frames ~data:(vadd_data 16) loops

let test_ucode_cache_thrash () =
  (* More hot loops than cache entries, called round-robin: every call
     misses under LRU. *)
  let prog = Codegen.liquid (many_loops_program 9 ~frames:3) in
  let run =
    run_image
      ~config:{ (Cpu.liquid_config ~lanes:4) with Cpu.ucode_entries = 8 }
      prog
  in
  check "no hits under thrash" 0 run.Cpu.stats.Stats.ucode_hits;
  check_bool "evictions happened" true (run.Cpu.stats.Stats.ucode_evictions > 0)

let test_ucode_cache_fits () =
  let prog = Codegen.liquid (many_loops_program 8 ~frames:3) in
  let run =
    run_image
      ~config:{ (Cpu.liquid_config ~lanes:4) with Cpu.ucode_entries = 8 }
      prog
  in
  (* 8 loops x 3 frames: first call of each translates, the rest hit. *)
  check "hits" 16 run.Cpu.stats.Stats.ucode_hits;
  check "no evictions" 0 run.Cpu.stats.Stats.ucode_evictions;
  check "occupancy" 8 run.Cpu.ucode_max_occupancy

(* --- translation latency --- *)

let test_translation_latency_delays_install () =
  (* With an enormous per-instruction cost, the second call arrives
     before the microcode is ready; with cost 1 it hits. *)
  let prog = Codegen.liquid (vadd_program ~frames:2 ()) in
  let img = Image.of_program prog in
  let fast =
    Cpu.run
      ~config:
        { (Cpu.liquid_config ~lanes:4) with Cpu.translator = Some { Cpu.cycles_per_insn = 1; Cpu.kind = Cpu.Hardware } }
      img
  in
  check "fast translator hits" 1 fast.Cpu.stats.Stats.ucode_hits;
  let slow =
    Cpu.run
      ~config:
        { (Cpu.liquid_config ~lanes:4) with Cpu.translator = Some { Cpu.cycles_per_insn = 5000; Cpu.kind = Cpu.Hardware } }
      img
  in
  check "slow translator misses" 0 slow.Cpu.stats.Stats.ucode_hits;
  check_bool "busy cycles accounted" true
    (slow.Cpu.stats.Stats.translation_busy_cycles
    > fast.Cpu.stats.Stats.translation_busy_cycles)

(* --- oracle mode --- *)

let test_oracle_serves_first_call () =
  let prog = Codegen.liquid (vadd_program ~frames:2 ()) in
  let run =
    run_image
      ~config:{ (Cpu.liquid_config ~lanes:4) with Cpu.oracle_translation = true }
      prog
  in
  check "every call served" 2 run.Cpu.stats.Stats.ucode_hits;
  check "no online translations" 0 run.Cpu.stats.Stats.translations_started;
  let normal = run_image ~config:(Cpu.liquid_config ~lanes:4) prog in
  check_bool "oracle at least as fast" true
    (run.Cpu.stats.Stats.cycles <= normal.Cpu.stats.Stats.cycles);
  check_memory_equal "oracle memory" run normal

(* --- binary compatibility failure modes --- *)

let test_native_on_scalar_machine_faults () =
  let prog = Codegen.native ~width:8 (vadd_program ()) in
  match run_image prog with
  | _ -> Alcotest.fail "native binary ran on the scalar machine"
  | exception Diag.Error d ->
      check_bool "illegal vector instruction" true
        (d.Diag.fault = Diag.Illegal "vector instruction without SIMD accelerator")

let test_offline_translate_all () =
  let prog = Codegen.liquid (vadd_program ()) in
  let image = Image.of_program prog in
  match Offline.translate_all ~image ~lanes:8 () with
  | [ (_, label, Translator.Translated u) ] ->
      Alcotest.(check string) "label" "region_vadd_0" label;
      check "width" 8 u.Ucode.width
  | _ -> Alcotest.fail "expected one translated region"

(* [translate_all] loads the image once and hands each region a copy;
   every region must see the same state as a fresh per-region load. *)
let test_offline_translate_all_loads_once () =
  List.iter
    (fun (w : Liquid_workloads.Workload.t) ->
      let image =
        Image.of_program (Codegen.liquid w.Liquid_workloads.Workload.program)
      in
      List.iter
        (fun backend ->
          List.iter
            (fun lanes ->
              List.iter
                (fun (entry, label, result) ->
                  check_bool
                    (Printf.sprintf "%s %s %s/%d"
                       w.Liquid_workloads.Workload.name label
                       (Backend.name_of backend) lanes)
                    true
                    (Offline.translate_region ~backend ~image ~lanes ~entry ()
                    = result))
                (Offline.translate_all ~backend ~image ~lanes ()))
            [ 2; 4; 8; 16 ])
        Backend.all)
    (Liquid_workloads.Workload.all ())

let tests =
  [
    Alcotest.test_case "cycles >= instructions" `Quick test_cycles_at_least_insns;
    Alcotest.test_case "cache misses cost cycles" `Quick test_cache_misses_cost_cycles;
    Alcotest.test_case "branch stats" `Quick test_branch_stats;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "wild pc" `Quick test_wild_pc;
    Alcotest.test_case "region calls and intervals" `Quick
      test_region_calls_and_intervals;
    Alcotest.test_case "no translator means scalar" `Quick
      test_no_translator_means_scalar;
    Alcotest.test_case "failed region not retried" `Quick
      test_failed_region_not_retried;
    Alcotest.test_case "plain bl not translated" `Quick test_plain_bl_not_translated;
    Alcotest.test_case "ucode cache thrash" `Quick test_ucode_cache_thrash;
    Alcotest.test_case "ucode cache fits" `Quick test_ucode_cache_fits;
    Alcotest.test_case "translation latency" `Quick
      test_translation_latency_delays_install;
    Alcotest.test_case "oracle mode" `Quick test_oracle_serves_first_call;
    Alcotest.test_case "native binary on scalar machine" `Quick
      test_native_on_scalar_machine_faults;
    Alcotest.test_case "offline translate all" `Quick test_offline_translate_all;
    Alcotest.test_case "offline translate all loads once" `Quick
      test_offline_translate_all_loads_once;
  ]

(* --- asynchronous interrupts (context switches) --- *)

let test_interrupts_abort_and_retry () =
  let prog = Codegen.liquid (vadd_program ~frames:6 ~count:64 ()) in
  let img = Image.of_program prog in
  (* Interrupt every 100 cycles: the ~500-cycle region always loses its
     session; translation never completes but execution stays correct. *)
  let stormy =
    Cpu.run
      ~config:{ (Cpu.liquid_config ~lanes:4) with Cpu.interrupt_interval = Some 100 }
      img
  in
  check "no installs under interrupt storm" 0 stormy.Cpu.stats.Stats.ucode_installs;
  check_bool "aborts recorded" true (stormy.Cpu.stats.Stats.translations_aborted > 0);
  (* Region remains retryable: every frame attempts translation anew. *)
  check "six attempts" 6 stormy.Cpu.stats.Stats.translations_started;
  (* A calmer interrupt rate lets a later attempt finish. *)
  let calm =
    Cpu.run
      ~config:
        { (Cpu.liquid_config ~lanes:4) with Cpu.interrupt_interval = Some 3000 }
      img
  in
  check_bool "eventually installs" true (calm.Cpu.stats.Stats.ucode_installs > 0);
  check_bool "and serves" true (calm.Cpu.stats.Stats.ucode_hits > 0);
  (* Both compute the right answer. *)
  let reference = run_image (Codegen.baseline (vadd_program ~frames:6 ~count:64 ())) in
  Alcotest.(check (array int))
    "stormy result"
    (read_array reference (Codegen.baseline (vadd_program ~frames:6 ~count:64 ())) "c")
    (read_array stormy prog "c");
  Alcotest.(check (array int))
    "calm result"
    (read_array reference (Codegen.baseline (vadd_program ~frames:6 ~count:64 ())) "c")
    (read_array calm prog "c")

let interrupt_tests =
  [
    Alcotest.test_case "interrupts abort and retry" `Quick
      test_interrupts_abort_and_retry;
  ]

let tests = tests @ interrupt_tests

(* --- software (JIT) translation --- *)

let test_software_translation_stalls_but_matches () =
  let prog = Codegen.liquid (vadd_program ~frames:5 ~count:64 ()) in
  let img = Image.of_program prog in
  let hw =
    Cpu.run
      ~config:
        {
          (Cpu.liquid_config ~lanes:4) with
          Cpu.translator = Some { Cpu.cycles_per_insn = 1; Cpu.kind = Cpu.Hardware };
        }
      img
  in
  let sw =
    Cpu.run
      ~config:
        {
          (Cpu.liquid_config ~lanes:4) with
          Cpu.translator =
            Some { Cpu.cycles_per_insn = 200; Cpu.kind = Cpu.Software };
        }
      img
  in
  check "same hits" hw.Cpu.stats.Stats.ucode_hits sw.Cpu.stats.Stats.ucode_hits;
  check_bool "software pays the stall" true
    (sw.Cpu.stats.Stats.cycles > hw.Cpu.stats.Stats.cycles);
  (* The stall is exactly the software translator's busy time (the
     hardware run's busy time is off the critical path and never
     charged). *)
  check "stall size" sw.Cpu.stats.Stats.translation_busy_cycles
    (sw.Cpu.stats.Stats.cycles - hw.Cpu.stats.Stats.cycles);
  check_memory_equal "same results" hw sw

let tests =
  tests
  @ [
      Alcotest.test_case "software translation stalls but matches" `Quick
        test_software_translation_stalls_but_matches;
    ]

(* --- trace observer --- *)

let test_trace_events () =
  let prog = Codegen.liquid (vadd_program ~frames:2 ~count:16 ()) in
  let img = Image.of_program prog in
  let insns = ref 0
  and uops = ref 0
  and scalar_calls = ref 0
  and ucode_calls = ref 0
  and translated = ref 0 in
  let on_trace = function
    | Cpu.T_insn _ -> incr insns
    | Cpu.T_uop _ -> incr uops
    | Cpu.T_region { event = `Scalar_call; _ } -> incr scalar_calls
    | Cpu.T_region { event = `Ucode_call; _ } -> incr ucode_calls
    | Cpu.T_region { event = `Translated w; _ } ->
        check "translated width" 4 w;
        incr translated
    | Cpu.T_region { event = `Aborted _; _ } -> Alcotest.fail "unexpected abort"
    | Cpu.T_translation _ -> ()
  in
  let run =
    Cpu.run
      ~config:{ (Cpu.liquid_config ~lanes:4) with Cpu.on_trace = Some on_trace }
      img
  in
  check "every scalar retirement observed" run.Cpu.stats.Stats.scalar_insns
    (!insns + !uops - run.Cpu.stats.Stats.vector_insns);
  check "one scalar region call" 1 !scalar_calls;
  check "one microcode region call" 1 !ucode_calls;
  check "one translation" 1 !translated;
  check_bool "microcode uops observed" true (!uops > 0)

let tests =
  tests
  @ [ Alcotest.test_case "trace events" `Quick test_trace_events ]
