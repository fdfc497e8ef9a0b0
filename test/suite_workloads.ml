(* The benchmark correctness sweep: every workload must compute the same
   memory state under every binary/machine combination — scalar baseline,
   Liquid binary on a scalar machine, Liquid binary translated at every
   width, oracle mode, and native binaries where they exist. This is the
   central soundness claim of the system: translation is semantics-
   preserving and aborts fail safe. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_harness
open Liquid_workloads
module Stats = Liquid_machine.Stats
module Memory = Liquid_machine.Memory

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Compare the data arrays the two programs share by name (their layout
   is identical within a flavour but code/data addresses of baseline and
   liquid programs coincide here because layout only depends on data). *)
let output_arrays (w : Workload.t) =
  List.map (fun (d : Liquid_prog.Data.t) -> d.Data.name) w.program.Liquid_scalarize.Vloop.data

let array_values program (run : Cpu.run) name =
  let img = Image.of_program program in
  let addr = Image.array_addr img name in
  match Program.find_data program name with
  | None -> [||]
  | Some d ->
      let b = Liquid_isa.Esize.bytes d.Data.esize in
      Array.init (Array.length d.Data.values) (fun i ->
          Memory.read run.Cpu.memory ~addr:(addr + (i * b)) ~bytes:b ~signed:true)

let compare_runs (w : Workload.t) (ref_res : Runner.result) (res : Runner.result) =
  List.iter
    (fun name ->
      let expected = array_values ref_res.Runner.program ref_res.Runner.run name in
      let got = array_values res.Runner.program res.Runner.run name in
      if expected <> got then
        Alcotest.failf "%s: array %s differs between %s and %s" w.name name
          (Runner.variant_name ref_res.Runner.variant)
          (Runner.variant_name res.Runner.variant))
    (output_arrays w)

let sweep_workload (w : Workload.t) () =
  let base = Runner.run w Runner.Baseline in
  compare_runs w base (Runner.run w Runner.Liquid_scalar);
  List.iter
    (fun lanes ->
      compare_runs w base (Runner.run w (Helpers.liquid lanes));
      compare_runs w base (Runner.run w (Helpers.liquid ~oracle:true lanes));
      match Runner.run w (Runner.Native lanes) with
      | res -> compare_runs w base res
      | exception Liquid_scalarize.Codegen.Unsupported_width _ -> ())
    [ 2; 4; 8; 16 ]

let test_all_translate_at_8 () =
  (* At 8 lanes every benchmark must get real SIMD execution. *)
  List.iter
    (fun (w : Workload.t) ->
      let { Runner.run; _ } = Runner.run w (Helpers.liquid 8) in
      check_bool (w.name ^ " has ucode hits") true (run.Cpu.stats.Stats.ucode_hits > 0);
      check_bool (w.name ^ " executes vector instructions") true
        (run.Cpu.stats.Stats.vector_insns > 0))
    (Workload.all ())

let test_no_unexpected_aborts_at_8 () =
  List.iter
    (fun (w : Workload.t) ->
      let { Runner.run; _ } = Runner.run w (Helpers.liquid 8) in
      List.iter
        (fun (r : Cpu.region_report) ->
          match r.Cpu.outcome with
          | Cpu.R_installed _ -> ()
          | Cpu.R_failed reason ->
              Alcotest.failf "%s region %s aborted: %s" w.name r.Cpu.label
                (Liquid_translate.Abort.to_string reason)
          | Cpu.R_untried ->
              Alcotest.failf "%s region %s never translated" w.name r.Cpu.label)
        run.Cpu.regions)
    (Workload.all ())

let test_registry_complete () =
  check "fifteen benchmarks" 15 (List.length (Workload.all ()));
  check "eight SPECfp" 8
    (List.length (List.filter (fun w -> w.Workload.suite = Workload.Specfp) (Workload.all ())));
  check "four MediaBench" 4
    (List.length
       (List.filter (fun w -> w.Workload.suite = Workload.Mediabench) (Workload.all ())));
  check "three kernels" 3
    (List.length (List.filter (fun w -> w.Workload.suite = Workload.Kernel) (Workload.all ())));
  check_bool "find works" true (Workload.find "FIR" <> None);
  check_bool "find misses" true (Workload.find "nope" = None)

let test_loop_counts_match_paper () =
  (* The number of outlined loops per benchmark matches Table 6's loop
     counts (the sum of its three distance buckets). GSM Enc. is exempt:
     the paper's own tables disagree there (Table 5 reports distinct
     mean and max sizes, implying at least two loops, while Table 6
     lists one); we model two. *)
  List.iter
    (fun (w : Workload.t) ->
      if w.name <> "GSM Enc." then begin
        let measured =
          List.length (Liquid_scalarize.Codegen.outlined_sizes w.program)
        in
        let paper =
          w.paper.Workload.table6_lt150 + w.paper.Workload.table6_lt300
          + w.paper.Workload.table6_gt300
        in
        check (w.name ^ " loop count") paper measured
      end)
    (Workload.all ())

let test_programs_validate () =
  List.iter
    (fun (w : Workload.t) ->
      match Liquid_scalarize.Vloop.validate_program w.program with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" w.name m)
    (Workload.all ())

let test_buffer_limit_respected () =
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun (label, n) ->
          check_bool
            (Printf.sprintf "%s %s fits the buffer (%d)" w.name label n)
            true (n <= 64))
        (Liquid_scalarize.Codegen.outlined_sizes w.program))
    (Workload.all ())

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s: all flavours agree" w.name)
        `Slow (sweep_workload w))
    (Workload.all ())
  @ [
      Alcotest.test_case "all benchmarks translate at 8 lanes" `Slow
        test_all_translate_at_8;
      Alcotest.test_case "no unexpected aborts at 8 lanes" `Slow
        test_no_unexpected_aborts_at_8;
      Alcotest.test_case "registry complete" `Quick test_registry_complete;
      Alcotest.test_case "loop counts match paper" `Quick
        test_loop_counts_match_paper;
      Alcotest.test_case "programs validate" `Quick test_programs_validate;
      Alcotest.test_case "buffer limit respected" `Quick test_buffer_limit_respected;
    ]

(* --- cache-behaviour intent: the memory system sees what the paper's
   discussion of Figure 6 describes --- *)

let test_cache_behaviour_matches_intent () =
  let miss_rate name =
    let w = match Workload.find name with Some w -> w | None -> assert false in
    let { Runner.run; _ } = Runner.run w Runner.Baseline in
    let s = run.Cpu.stats in
    float_of_int s.Stats.dcache_misses
    /. float_of_int (max 1 (s.Stats.dcache_hits + s.Stats.dcache_misses))
  in
  let art = miss_rate "179.art" and fir = miss_rate "FIR" in
  check_bool "art misses a lot" true (art > 0.20);
  check_bool "FIR is cache resident" true (fir < 0.02);
  check_bool "art markedly worse than FIR" true (art > 10.0 *. fir)

let tests =
  tests
  @ [
      Alcotest.test_case "cache behaviour matches intent" `Slow
        test_cache_behaviour_matches_intent;
    ]
