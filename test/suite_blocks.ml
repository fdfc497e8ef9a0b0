(* Differential tests for the translation-block engine (Blocks).

   The engine is an execution strategy, not a semantics change, so its
   whole contract is bit-identity: for every workload, variant and
   accelerator width, the run with blocks on must produce exactly the
   same counters, register file and memory as the step-by-step run with
   blocks off. The default engine includes the trace-superblock tier, so
   this one differential covers blocks and superblocks together. The
   matrix below covers all fifteen workloads under baseline,
   Liquid-on-scalar, and fixed/VLA/RVV translation (plus the fixed and
   VLA oracles) at widths 2/4/8/16 — every Stats field, the unit
   counters (caches, predictor, microcode cache), the region reports,
   the translation latencies and FNV fingerprints of final register and
   memory state — plus the predication conservation law on both runs.

   Live translator sessions run their verified loop iterations through
   the engine too (an observed loop body with a value capture), so the
   translation path has its own cases: trip counts around the vector
   width, a session that aborts mid-verify, slow and software
   translators, and fuel that expires inside a verified iteration.

   Separate cases cover the fidelity fallbacks: an interrupt-driven run
   (epoch catch-up across block stretches; sessions step), the engine's
   self-disable under fault hooks and trace observers (per-step
   observation must win over speed; no block or superblock runs), and a
   seeded fault campaign run end-to-end with the engine left at its
   default. The superblock tier's own edge cases (formation threshold,
   guard re-entry, failed formation, fuel mid-trace) are in
   [Suite_superblocks]. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_harness
open Liquid_workloads
module Stats = Liquid_machine.Stats
module Backend = Liquid_translate.Backend

let widths = [ 2; 4; 8; 16 ]

let variants =
  [ Runner.Baseline; Runner.Liquid_scalar ]
  @ List.concat_map
      (fun w ->
        [
          Helpers.liquid w;
          Helpers.liquid ~oracle:true w;
          Helpers.liquid ~backend:Backend.Vla w;
          Helpers.liquid ~backend:Backend.Vla ~oracle:true w;
          Helpers.liquid ~backend:Backend.Rvv w;
        ])
      widths

(* Predicated vector dispatches split exactly into fast-path and masked
   executions, on the engine's closures as on the stepping
   interpreter. *)
let check_conservation what (r : Cpu.run) =
  Alcotest.(check int)
    (what ^ ": pred fast + masked = dispatched")
    r.Cpu.vla_pred_execs
    (r.Cpu.pred_fast_iters + r.Cpu.pred_masked_iters)

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
      Helpers.check_identical what on.Runner.run off.Runner.run;
      Alcotest.(check int)
        (what ^ ": memory hash")
        (Helpers.mem_hash image off.Runner.run.Cpu.memory)
        (Helpers.mem_hash image on.Runner.run.Cpu.memory);
      check_conservation (what ^ " [engine]") on.Runner.run;
      check_conservation (what ^ " [stepping]") off.Runner.run;
      (* The comparison is vacuous if the engine never actually ran. *)
      Alcotest.(check bool)
        (what ^ ": engine executed blocks")
        true
        (on.Runner.run.Cpu.block_execs > 0);
      Alcotest.(check int)
        (what ^ ": engine off stays off")
        0 off.Runner.run.Cpu.block_execs;
      Alcotest.(check int)
        (what ^ ": no compiled session iterations with the engine off")
        0 off.Runner.run.Cpu.session_iters_compiled;
      (* Every live-translating variant verifies at least one loop, so
         the compiled verify path must have carried some of it. *)
      match variant with
      | Runner.Liquid { oracle = false; _ } ->
          Alcotest.(check bool)
            (what ^ ": sessions verified through the engine")
            true
            (on.Runner.run.Cpu.session_iters_compiled > 0)
      | Runner.Liquid { oracle = true; _ }
      | Runner.Baseline | Runner.Liquid_scalar | Runner.Native _ ->
          ()

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
  Helpers.check_identical "FFT/interrupt-1000" on off;
  Alcotest.(check bool)
    "interrupts actually fired (sessions aborted)" true
    (on.Cpu.stats.Stats.translations_aborted > 0);
  Alcotest.(check bool) "engine executed blocks" true (on.Cpu.block_execs > 0);
  Alcotest.(check int) "live sessions step under interrupts" 0
    on.Cpu.session_iters_compiled

(* --- live translator sessions --- *)

(* A program calling region [f] [calls] times; [f] is [items] plus its
   return. *)
let region_calls_image ~calls ~data items =
  let open Build in
  let frame = r 15 in
  Image.of_program
    (Program.make ~name:"sessions"
       ~text:
         ([
            Program.Label "main";
            mov frame 0;
            label "frame_top";
            bl_region "f";
            addi frame frame 1;
            cmp frame (i calls);
            b ~cond:Liquid_isa.Cond.Lt "frame_top";
            halt;
            Program.Label "f";
          ]
         @ items @ [ ret ])
       ~data)

let ind = Vloop.induction

let session_loop ~top ~trips body =
  let open Build in
  [ mov ind 0; label top ]
  @ body
  @ [ addi ind ind 1; cmp ind (i trips); b ~cond:Liquid_isa.Cond.Lt top ]

let session_data =
  let words name f =
    Data.make ~name ~esize:Liquid_isa.Esize.Word (Array.init 64 f)
  in
  [ words "a" (fun e -> (e * 7) - 40); words "b" (fun e -> 3 - e); words "c" (fun _ -> 0) ]

let vadd_body =
  let open Build in
  [
    ld (r 1) "a" (ri ind);
    ld (r 2) "b" (ri ind);
    dp Liquid_isa.Opcode.Add (r 3) (r 1) (ri (r 2));
    st (r 3) "c" (ri ind);
  ]

let live_config ?(backend = Backend.Fixed) ?(lanes = 8) () =
  { (Cpu.liquid_config ~lanes) with Cpu.backend = Backend.of_kind backend }

(* Default engine against pure stepping on one image and config. *)
let check_session what config image =
  let on = Cpu.run ~config image in
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  Helpers.check_identical what on off;
  Helpers.check_memory_equal (what ^ ": memory") on off;
  on

let backends = [ Backend.Fixed; Backend.Vla; Backend.Rvv ]

(* Trip counts around the width W = 8 (one iteration, W - 1, W, W + 1)
   and past the superblock heat threshold (17, 18). The first call is
   one session: its Build iteration steps, every later iteration runs
   compiled, and none of them may heat a superblock. *)
let test_session_trips () =
  List.iter
    (fun backend ->
      List.iter
        (fun trips ->
          let what =
            Printf.sprintf "%s trips=%d"
              (Backend.name_of (Backend.of_kind backend))
              trips
          in
          let items = session_loop ~top:"top" ~trips vadd_body in
          let config = live_config ~backend () in
          let one =
            check_session (what ^ " one call") config
              (region_calls_image ~calls:1 ~data:session_data items)
          in
          Alcotest.(check int)
            (what ^ ": every verify iteration compiled")
            (trips - 1) one.Cpu.session_iters_compiled;
          Alcotest.(check int)
            (what ^ ": session iterations heat no superblock")
            0 one.Cpu.superblocks_compiled;
          ignore
            (check_session (what ^ " three calls") config
               (region_calls_image ~calls:3 ~data:session_data items)))
        [ 1; 7; 8; 9; 17; 18 ])
    backends

(* The region's second loop diverges from the first loop's pattern, so
   the session aborts in its Verify phase after compiled iterations; the
   failed session then runs the plain block engine to the region's
   return, still without heating a superblock on the 40-trip loop. *)
let test_session_abort_mid_verify () =
  let open Build in
  let items =
    session_loop ~top:"top1" ~trips:8 vadd_body
    @ session_loop ~top:"top2" ~trips:40
        [ ld (r 4) "a" (ri ind); st (r 4) "c" (ri ind) ]
  in
  List.iter
    (fun backend ->
      let what = Backend.name_of (Backend.of_kind backend) ^ " abort mid-verify" in
      let config = live_config ~backend () in
      let one =
        check_session what config
          (region_calls_image ~calls:1 ~data:session_data items)
      in
      Alcotest.(check int) (what ^ ": aborted") 1
        one.Cpu.stats.Stats.translations_aborted;
      Alcotest.(check int) (what ^ ": compiled before the abort") 7
        one.Cpu.session_iters_compiled;
      Alcotest.(check int) (what ^ ": no superblock under a session") 0
        one.Cpu.superblocks_compiled;
      ignore
        (check_session (what ^ " four calls") config
           (region_calls_image ~calls:4 ~data:session_data items)))
    backends

(* Translation latency and a software translator change when microcode
   becomes servable and what the core pays at region end, never what a
   session observes. *)
let test_session_translators () =
  List.iter
    (fun name ->
      let w =
        match Workload.find name with Some w -> w | None -> assert false
      in
      List.iter
        (fun backend ->
          let variant = Helpers.liquid ~backend 8 in
          let image = Image.of_program (Runner.program_of w variant) in
          List.iter
            (fun (label, translator) ->
              let config =
                { (Runner.config_of variant) with Cpu.translator = Some translator }
              in
              let what =
                Printf.sprintf "%s/%s %s" name (Runner.variant_name variant) label
              in
              let on = check_session what config image in
              Alcotest.(check bool)
                (what ^ ": sessions verified through the engine")
                true
                (on.Cpu.session_iters_compiled > 0))
            [
              ("cpi 10", { Cpu.cycles_per_insn = 10; kind = Cpu.Hardware });
              ("software", { Cpu.cycles_per_insn = 1; kind = Cpu.Software });
            ])
        backends)
    [ "FIR"; "FFT"; "MPEG2 Enc." ]

(* Fuel running out at every position of the first session's early
   verify iterations (the call's Build iteration ends at retired 10; the
   7-instruction body then repeats): the compiled path must decline the
   iteration fuel cannot cover and let [step] die on exactly the same
   instruction, cycle and retired count. *)
let test_session_fuel () =
  let image =
    region_calls_image ~calls:1 ~data:session_data
      (session_loop ~top:"top" ~trips:64 vadd_body)
  in
  List.iter
    (fun backend ->
      for fuel = 9 to 40 do
        let config = { (live_config ~backend ()) with Cpu.fuel } in
        match
          ( Cpu.run_result ~config image,
            Cpu.run_result ~config:{ config with Cpu.blocks = false } image )
        with
        | Error don, Error doff ->
            Alcotest.(check bool)
              (Printf.sprintf "fuel %d: identical diagnostics" fuel)
              true (don = doff);
            Alcotest.(check string)
              (Printf.sprintf "fuel %d: fuel fault" fuel)
              "fuel-exhausted"
              (Diag.fault_name don.Diag.fault)
        | _ -> Alcotest.failf "fuel %d: expected both runs to exhaust fuel" fuel
      done)
    backends

(* [translation_latencies] carries exactly the samples a trace collector
   turns into the translation-latency histogram. *)
let test_latencies_match_collector () =
  List.iter
    (fun (name, variant) ->
      let w =
        match Workload.find name with Some w -> w | None -> assert false
      in
      let image = Image.of_program (Runner.program_of w variant) in
      let collector = Liquid_obs.Collector.create () in
      let config = Liquid_obs.Collector.wrap collector (Runner.config_of variant) in
      let traced = Cpu.run ~config image in
      let hist = Liquid_obs.Hist.create () in
      List.iter (Liquid_obs.Hist.add hist) traced.Cpu.translation_latencies;
      let json h = Liquid_obs.Json.to_string (Liquid_obs.Hist.to_json h) in
      Alcotest.(check string)
        (name ^ ": histogram of the run's latencies")
        (json (Liquid_obs.Collector.translation_latency collector))
        (json hist);
      Alcotest.(check bool)
        (name ^ ": translations completed") true
        (traced.Cpu.translation_latencies <> []))
    [ ("FIR", Helpers.liquid 8); ("FFT", Helpers.liquid ~backend:Backend.Rvv 4) ]

(* --- fidelity self-disable --- *)

let noop_hooks =
  {
    Cpu.fh_abort = (fun ~entry:_ ~observed:_ -> None);
    fh_corrupt = (fun ~entry:_ ~observed:_ -> false);
    fh_evict = (fun ~entry:_ ~call:_ -> false);
  }

(* Telemetry of a run the engine never touched: no block, no superblock. *)
let check_engine_idle what (r : Cpu.run) =
  List.iter
    (fun (field, n) -> Alcotest.(check int) (what ^ ": " ^ field) 0 n)
    [
      ("blocks compiled", r.Cpu.blocks_compiled);
      ("block executions", r.Cpu.block_execs);
      ("superblocks formed", r.Cpu.superblocks_compiled);
      ("superblock iterations", r.Cpu.superblock_iters);
    ]

(* Fault hooks and trace observers need per-step observation, so neither
   the engine nor its superblock tier may run at all — and with no-op
   hooks the run must still match the unhooked one exactly. *)
let test_self_disable () =
  let w =
    match Workload.find "GSM Dec." with Some w -> w | None -> assert false
  in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = Cpu.liquid_config ~lanes:8 in
  let plain = Cpu.run ~config image in
  Alcotest.(check bool) "engine on by default" true (plain.Cpu.block_execs > 0);
  Alcotest.(check bool)
    "superblock tier on by default" true
    (plain.Cpu.superblocks_compiled > 0);
  let faulted =
    Cpu.run ~config:{ config with Cpu.faults = Some noop_hooks } image
  in
  check_engine_idle "fault hooks disable the engine" faulted;
  Helpers.check_identical "GSM Dec./noop-fault-hooks" plain faulted;
  let traced =
    Cpu.run ~config:{ config with Cpu.on_trace = Some (fun _ -> ()) } image
  in
  check_engine_idle "trace observer disables the engine" traced;
  Helpers.check_identical "GSM Dec./noop-trace" plain traced;
  let off = Cpu.run ~config:{ config with Cpu.blocks = false } image in
  check_engine_idle "blocks=false builds no engine" off

(* The fault campaign runs with the config's default [blocks = true], so
   the block engine and its superblock tier are both on: every injected
   case must still degrade to the scalar-identical state, because the
   campaign's hooks force the whole engine off underneath it. *)
let test_fault_campaign () =
  let w =
    match Workload.find "FIR" with Some w -> w | None -> assert false
  in
  let report =
    Liquid_faults.Campaign.run ~workloads:[ w ] ~widths:[ 8 ] ~seed:2007 ()
  in
  Alcotest.(check bool)
    "campaign survives with the engine and tier at their default" true
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
      Alcotest.test_case "session trip counts" `Quick test_session_trips;
      Alcotest.test_case "session abort mid-verify" `Quick
        test_session_abort_mid_verify;
      Alcotest.test_case "session translation cpi and software" `Quick
        test_session_translators;
      Alcotest.test_case "session fuel inside a verified iteration" `Quick
        test_session_fuel;
      Alcotest.test_case "translation latencies match the collector" `Quick
        test_latencies_match_collector;
    ]
