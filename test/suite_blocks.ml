(* Differential tests for the translation-block engine (Blocks).

   The engine is an execution strategy, not a semantics change, so its
   whole contract is bit-identity: for every workload, variant and
   accelerator width, the run with blocks on must produce exactly the
   same counters, register file and memory as the step-by-step run with
   blocks off. The matrix below covers all fifteen workloads under
   baseline, Liquid-on-scalar, and Liquid/oracle/VLA at widths
   2/4/8/16 — every Stats field, the unit counters (caches, predictor,
   microcode cache) and FNV fingerprints of final register and memory
   state.

   Separate cases cover the fidelity fallbacks: an interrupt-driven run
   (epoch catch-up across block stretches), the engine's self-disable
   under fault hooks and trace observers (per-step observation must win
   over speed), and a seeded fault campaign run end-to-end with the
   engine left at its default. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_harness
open Liquid_workloads
module Stats = Liquid_machine.Stats

let regs_hash = Liquid_faults.Fingerprint.regs_hash
let mem_hash = Liquid_faults.Fingerprint.mem_hash

let widths = [ 2; 4; 8; 16 ]

let variants =
  [ Runner.Baseline; Runner.Liquid_scalar ]
  @ List.concat_map
      (fun w ->
        [
          Helpers.liquid w;
          Helpers.liquid ~oracle:true w;
          Helpers.liquid ~backend:Liquid_translate.Backend.Vla w;
          Helpers.liquid ~backend:Liquid_translate.Backend.Vla ~oracle:true w;
        ])
      widths

(* Compare two runs of the same (workload, variant) observable by
   observable. The cycle counter first and by name: it folds in every
   timing rule (stalls, penalties, miss latencies), so when the engine
   drifts this is the check that reads best in a failure. *)
let check_identical what (on : Cpu.run) (off : Cpu.run) =
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
  ck "register hash" (regs_hash off.Cpu.regs) (regs_hash on.Cpu.regs)

let check_variant w variant =
  match Runner.program_of w variant with
  | exception Codegen.Unsupported_width _ -> ()
  | program ->
      let image = Image.of_program program in
      let on = Runner.run_cached w variant in
      let off = Runner.run ~blocks:false w variant in
      let what =
        Printf.sprintf "%s/%s" w.Workload.name (Runner.variant_name variant)
      in
      check_identical what on.Runner.run off.Runner.run;
      Alcotest.(check int)
        (what ^ ": memory hash")
        (mem_hash image off.Runner.run.Cpu.memory)
        (mem_hash image on.Runner.run.Cpu.memory);
      (* The comparison is vacuous if the engine never actually ran. *)
      Alcotest.(check bool)
        (what ^ ": engine executed blocks")
        true
        (on.Runner.run.Cpu.block_execs > 0);
      Alcotest.(check int)
        (what ^ ": engine off stays off")
        0 off.Runner.run.Cpu.block_execs

let test_workload w () = List.iter (check_variant w) variants

(* --- interrupts: epoch catch-up across block stretches --- *)

(* Blocks never run [interrupt_check]; the countdown threshold catches
   up by division on the next step. The observable effects (aborted
   translator sessions, their retry translations) must still land on
   identical cycles. FFT at a 1000-cycle context-switch interval aborts
   several sessions mid-flight. *)
let test_interrupts () =
  let w =
    match Workload.find "FFT" with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    { (Cpu.liquid_config ~lanes:8) with Cpu.interrupt_interval = Some 1000 }
  in
  let on = Cpu.run ~config image in
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  check_identical "FFT/interrupt-1000" on off;
  Alcotest.(check bool)
    "interrupts actually fired (sessions aborted)" true
    (on.Cpu.stats.Stats.translations_aborted > 0);
  Alcotest.(check bool) "engine executed blocks" true (on.Cpu.block_execs > 0)

(* --- fidelity self-disable --- *)

let noop_hooks =
  {
    Cpu.fh_abort = (fun ~entry:_ ~observed:_ -> None);
    fh_corrupt = (fun ~entry:_ ~observed:_ -> false);
    fh_evict = (fun ~entry:_ ~call:_ -> false);
  }

(* Fault hooks and trace observers need per-step observation, so the
   engine must not run at all — and with no-op hooks the run must still
   match the unhooked one exactly. *)
let test_self_disable () =
  let w =
    match Workload.find "GSM Dec." with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = Cpu.liquid_config ~lanes:8 in
  let plain = Cpu.run ~config image in
  Alcotest.(check bool) "engine on by default" true (plain.Cpu.block_execs > 0);
  let faulted =
    Cpu.run ~config:{ config with Cpu.faults = Some noop_hooks } image
  in
  Alcotest.(check int) "fault hooks disable the engine" 0
    faulted.Cpu.block_execs;
  check_identical "GSM Dec./noop-fault-hooks" plain faulted;
  let traced =
    Cpu.run ~config:{ config with Cpu.on_trace = Some (fun _ -> ()) } image
  in
  Alcotest.(check int) "trace observer disables the engine" 0
    traced.Cpu.block_execs;
  check_identical "GSM Dec./noop-trace" plain traced;
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  Alcotest.(check int) "blocks=false builds no engine" 0 off.Cpu.blocks_compiled

(* The fault campaign runs with the config's default [blocks = true]:
   every injected case must still degrade to the scalar-identical state,
   because the campaign's hooks force the engine off underneath it. *)
let test_fault_campaign () =
  let w =
    match Workload.find "FIR" with Some w -> w | None -> assert false
  in
  let report =
    Liquid_faults.Campaign.run ~workloads:[ w ] ~widths:[ 8 ] ~seed:2007 ()
  in
  Alcotest.(check bool)
    "campaign survives with the engine at its default" true
    (Liquid_faults.Campaign.survived report)

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "differential %s" w.Workload.name)
        `Quick (test_workload w))
    (Workload.all ())
  @ [
      Alcotest.test_case "interrupt epoch catch-up" `Quick test_interrupts;
      Alcotest.test_case "fidelity self-disable" `Quick test_self_disable;
      Alcotest.test_case "fault campaign at default config" `Quick
        test_fault_campaign;
    ]
