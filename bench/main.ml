(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (printed first, in the paper's row/series format),
   then times the machinery behind each experiment with Bechamel — one
   Test.make per table/figure plus microbenchmarks of the core pipeline
   stages.

   Run with: dune exec bench/main.exe

   Every run also writes BENCH.json (machine-readable: per-test ns/run,
   report wall time, simulated cycle throughput) through the shared
   Liquid_obs.Bench_report emitter, which schema-validates the file it
   just wrote. Pass --json-only to suppress the human-readable output
   and only write the file; --smoke shrinks the run to a seconds-scale
   self-check (no reports, a short-quota Bechamel over the simulation
   microbenchmarks only, two-workload throughput, a one-workload fault
   campaign) so the test suite can exercise the whole emit path and
   `compare.exe --smoke` has the core simulation numbers to gate on. *)

open Bechamel
open Toolkit
open Liquid_prog
open Liquid_scalarize
open Liquid_pipeline
open Liquid_harness
open Liquid_workloads
module Hwmodel = Liquid_hwmodel.Hwmodel
module Backend = Liquid_translate.Backend

let find name = match Workload.find name with Some w -> w | None -> assert false
let json_only = Array.exists (fun a -> a = "--json-only") Sys.argv
let smoke = Array.exists (fun a -> a = "--smoke") Sys.argv

(* In --json-only mode the reports still run (their wall time is part of
   BENCH.json) but print into a formatter that discards everything. *)
let drain = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())
let out = if json_only then drain else Format.std_formatter

(* --- Part 1: regenerate the evaluation --- *)

let print_reports () =
  let pf fmt = Format.fprintf out fmt in
  pf "==============================================================@.";
  pf " Liquid SIMD: reproduction of the paper's evaluation (HPCA'07)@.";
  pf "==============================================================@.@.";
  pf "%a@.@." Experiments.pp_table2 (Experiments.table2 ());
  pf "%a@.@." Experiments.pp_table5 (Experiments.table5 ());
  pf "%a@.@." Experiments.pp_table6 (Experiments.table6 ());
  pf "%a@.@." Experiments.pp_figure6 (Experiments.figure6 ());
  pf "%a@.@." Experiments.pp_code_size (Experiments.code_size ());
  pf "%a@.@." Experiments.pp_ucode_cache (Experiments.ucode_cache ());
  pf "%a@.@." Experiments.pp_latency (Experiments.latency_ablation ());
  pf "%a@.@." Experiments.pp_overhead (Experiments.overhead_convergence ());
  pf "%a@.@."
    (Experiments.pp_sweep
       ~title:"Ablation: microcode cache capacity (8 hot loops round-robin)"
       ~value_label:"Entries")
    (Experiments.ucode_entries_ablation ());
  pf "%a@.@."
    (Experiments.pp_sweep
       ~title:"Ablation: microcode buffer capacity (101.tomcatv, largest loop 63 uops)"
       ~value_label:"Capacity")
    (Experiments.buffer_ablation ());
  pf "%a@.@."
    (Experiments.pp_sweep
       ~title:"Ablation: vector memory bus width (FIR, 16 lanes)"
       ~value_label:"Bus bytes")
    (Experiments.bus_ablation ());
  pf "%a@.@." Experiments.pp_kind (Experiments.translator_kind_ablation ())

(* --- Part 2: Bechamel timings, one per experiment --- *)

(* Table 2: the analytic synthesis model across widths. *)
let bench_table2 =
  Test.make ~name:"table2_synthesis"
    (Staged.stage (fun () ->
         List.map
           (fun lanes ->
             Hwmodel.estimate { Hwmodel.default_params with Hwmodel.lanes })
           [ 2; 4; 8; 16 ]))

(* Table 5: scalarizing every benchmark and sizing its outlined loops. *)
let bench_table5 =
  Test.make ~name:"table5_outlined_sizes"
    (Staged.stage (fun () ->
         List.map
           (fun (w : Workload.t) -> Codegen.outlined_sizes w.Workload.program)
           (Workload.all ())))

(* Table 6: a full simulation of the shortest-gap benchmark with region
   call tracking. *)
let bench_table6 =
  let w = find "MPEG2 Dec." in
  Test.make ~name:"table6_call_distances"
    (Staged.stage (fun () ->
         Experiments.region_first_gap
           (Runner.run w
              (Runner.Liquid { backend = Fixed; lanes = 8; oracle = false }))
             .Runner.run))

(* Figure 6: the headline measurement — baseline vs translated runs of
   the best-case benchmark. *)
let bench_figure6 =
  let w = find "FIR" in
  Test.make ~name:"figure6_speedup"
    (Staged.stage (fun () ->
         let base = (Runner.run w Runner.Baseline).Runner.run in
         let simd =
           (Runner.run w
              (Runner.Liquid { backend = Fixed; lanes = 8; oracle = false }))
             .Runner.run
         in
         Runner.speedup ~baseline:base simd))

(* Section 5 code size: encoding both binary flavours of every benchmark. *)
let bench_code_size =
  Test.make ~name:"sec5_code_size"
    (Staged.stage (fun () -> Experiments.code_size ()))

(* Section 5 microcode cache: a many-loop benchmark exercising
   install/evict. *)
let bench_ucode_cache =
  let w = find "104.hydro2d" in
  Test.make ~name:"sec5_ucode_cache"
    (Staged.stage (fun () ->
         (Runner.run w
            (Runner.Liquid { backend = Fixed; lanes = 16; oracle = false }))
           .Runner.run.Cpu.ucode_max_occupancy))

(* Section 5 translation latency: offline translation of the FFT regions. *)
let bench_translation =
  let w = find "FFT" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Test.make ~name:"sec5_translation_latency"
    (Staged.stage (fun () -> Offline.translate_all ~image ~lanes:8 ()))

(* The same regions through the VLA backend: FFT's butterflies are
   recovered as table lookups there (offset-stream matching, guard
   emission, load/store collapse), so this times the predicated
   translation path with permutation recovery on top. *)
let bench_translation_vla =
  let w = find "FFT" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Test.make ~name:"sec5_translation_latency_vla"
    (Staged.stage (fun () ->
         Offline.translate_all ~backend:Liquid_translate.Backend.vla ~image
           ~lanes:8 ()))

(* And through the RVV backend: the same permutation recovery plus the
   per-region LMUL grading pass (live-value pressure scan, group-factor
   selection, width re-derivation) and the vsetvl stripmine rewrite of
   every loop header and back-edge. *)
let bench_translation_rvv =
  let w = find "FFT" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Test.make ~name:"sec5_translation_latency_rvv"
    (Staged.stage (fun () ->
         Offline.translate_all ~backend:Liquid_translate.Backend.rvv ~image
           ~lanes:8 ()))

(* Microbenchmarks of the individual pipeline stages. *)

let bench_scalarize_fft =
  let stage =
    Kernels.fft_stage ~name:"bfft" ~count:128 ~block:8 ~re:"re" ~im:"im"
      ~wr:"wr" ~wi:"wi"
  in
  Test.make ~name:"core_scalarize_fft"
    (Staged.stage (fun () -> Scalarize.scalarize stage))

let bench_encode =
  let w = find "171.swim" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Test.make ~name:"core_encode_binary"
    (Staged.stage (fun () -> Encode.encode image.Image.code))

(* The same simulation with the translation-block engine on (the
   default) and off: the pair is the engine's own speedup measurement,
   and `bench/compare.exe` watches both so a regression in either
   execution strategy is caught. *)
let bench_simulate_scalar =
  let w = find "GSM Dec." in
  let image = Image.of_program (Codegen.baseline w.Workload.program) in
  Test.make ~name:"core_simulate_scalar"
    (Staged.stage (fun () -> Cpu.run ~config:Cpu.scalar_config image))

let bench_simulate_scalar_noblocks =
  let w = find "GSM Dec." in
  let image = Image.of_program (Codegen.baseline w.Workload.program) in
  let config = { Cpu.scalar_config with Cpu.blocks = false } in
  Test.make ~name:"core_simulate_scalar_noblocks"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* The same simulation with the trace-superblock tier off (blocks still
   on): the pair is the tier's own speedup measurement on the
   image-block path. *)
let bench_simulate_scalar_nosuper =
  let w = find "GSM Dec." in
  let image = Image.of_program (Codegen.baseline w.Workload.program) in
  let config = { Cpu.scalar_config with Cpu.superblocks = false } in
  Test.make ~name:"core_simulate_scalar_nosuper"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* MPEG2 Dec. is the region-richest workload (Table 6's shortest call
   gaps): after translation its time is dominated by microcode replay,
   so this pair exercises the engine's pre-compiled ucode segments
   rather than the image-block path the scalar pair already covers. *)
let bench_simulate_liquid =
  let w = find "MPEG2 Dec." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Test.make ~name:"core_simulate_liquid"
    (Staged.stage (fun () -> Cpu.run ~config:(Cpu.liquid_config ~lanes:8) image))

let bench_simulate_liquid_noblocks =
  let w = find "MPEG2 Dec." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = { (Cpu.liquid_config ~lanes:8) with Cpu.blocks = false } in
  Test.make ~name:"core_simulate_liquid_noblocks"
    (Staged.stage (fun () -> Cpu.run ~config image))

let bench_simulate_liquid_nosuper =
  let w = find "MPEG2 Dec." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config = { (Cpu.liquid_config ~lanes:8) with Cpu.superblocks = false } in
  Test.make ~name:"core_simulate_liquid_nosuper"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* GSM Enc. on the 16-lane VLA target is the predication headline (the
   40-sample subframes run predicated at full width instead of capping
   at effective width 8): this times microcode replay where most vector
   operations carry a governing predicate. *)
let bench_simulate_vla =
  let w = find "GSM Enc." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    {
      (Cpu.liquid_config ~lanes:16) with
      Cpu.backend = Liquid_translate.Backend.vla;
    }
  in
  Test.make ~name:"core_simulate_vla"
    (Staged.stage (fun () -> Cpu.run ~config image))

let bench_simulate_vla_nosuper =
  let w = find "GSM Enc." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    {
      (Cpu.liquid_config ~lanes:16) with
      Cpu.backend = Liquid_translate.Backend.vla;
      Cpu.superblocks = false;
    }
  in
  Test.make ~name:"core_simulate_vla_nosuper"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* FFT on the 8-lane VLA target is the permutation-recovery headline:
   before the table-lookup lowering its butterfly regions aborted as
   unportable and the whole workload degraded to scalar execution;
   now every region vectorizes (42516 -> 23676 simulated cycles, 1.80x)
   and this times the replay of Tbl/Tblst microcode. *)
let bench_simulate_vla_fft =
  let w = find "FFT" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    {
      (Cpu.liquid_config ~lanes:8) with
      Cpu.backend = Liquid_translate.Backend.vla;
    }
  in
  Test.make ~name:"core_simulate_vla_fft"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* MPEG2 Dec. on the 8-lane RVV target: the same microcode-replay-bound
   workload as core_simulate_liquid, but every trip passes through the
   vsetvl grant (full grants take the unmasked Vl fast path; the final
   trip of each loop replays under a shortened grant) and low-pressure
   regions run LMUL-grouped at twice the hardware width. The
   rvv/liquid ratio of this pair is gated by bench/compare.exe. *)
let bench_simulate_rvv =
  let w = find "MPEG2 Dec." in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    {
      (Cpu.liquid_config ~lanes:8) with
      Cpu.backend = Liquid_translate.Backend.rvv;
    }
  in
  Test.make ~name:"core_simulate_rvv"
    (Staged.stage (fun () -> Cpu.run ~config image))

(* FFT on the 8-lane RVV target: permutation recovery (Tblidx/Tbl
   replay) under vsetvl grants, with the register-hungry butterfly
   regions staying at m1 while the rest group to m2 — the
   mixed-grouping headline. *)
let bench_simulate_rvv_fft =
  let w = find "FFT" in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  let config =
    {
      (Cpu.liquid_config ~lanes:8) with
      Cpu.backend = Liquid_translate.Backend.rvv;
    }
  in
  Test.make ~name:"core_simulate_rvv_fft"
    (Staged.stage (fun () -> Cpu.run ~config image))

let bench_hwmodel =
  Test.make ~name:"core_hwmodel_estimate"
    (Staged.stage (fun () -> Hwmodel.estimate Hwmodel.default_params))

let tests =
  [
    bench_table2;
    bench_table5;
    bench_table6;
    bench_figure6;
    bench_code_size;
    bench_ucode_cache;
    bench_translation;
    bench_translation_vla;
    bench_translation_rvv;
    bench_scalarize_fft;
    bench_encode;
    bench_simulate_scalar;
    bench_simulate_scalar_noblocks;
    bench_simulate_scalar_nosuper;
    bench_simulate_liquid;
    bench_simulate_liquid_noblocks;
    bench_simulate_liquid_nosuper;
    bench_simulate_vla;
    bench_simulate_vla_nosuper;
    bench_simulate_vla_fft;
    bench_simulate_rvv;
    bench_simulate_rvv_fft;
    bench_hwmodel;
  ]

(* The smoke run keeps Bechamel but only over the simulation
   microbenchmarks (short quota): enough signal for the runtest-wired
   `compare.exe --smoke` gate without the full timing sweep. *)
let smoke_tests =
  [
    bench_simulate_scalar;
    bench_simulate_scalar_nosuper;
    bench_simulate_liquid;
    bench_simulate_liquid_nosuper;
    bench_simulate_vla;
    bench_simulate_vla_nosuper;
    bench_simulate_vla_fft;
    bench_simulate_rvv;
    bench_simulate_rvv_fft;
  ]

let run_benchmarks ~quota tests =
  Format.fprintf out
    "==============================================================@.";
  Format.fprintf out " Bechamel timings (wall-clock per invocation)@.";
  Format.fprintf out
    "==============================================================@.";
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second quota) () in
  let instances = Instance.[ monotonic_clock ] in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Format.fprintf out "  %-28s %12.0f ns/run@." name est
          | Some _ | None ->
              Format.fprintf out "  %-28s (no estimate)@." name)
        analysis)
    tests;
  List.rev !estimates

(* Simulated-cycle throughput: the given workloads under the four
   headline variants (scalar baseline, Liquid on the fixed 8-lane
   target, the 8-lane VLA target and the 8-lane RVV target), fresh
   simulations (no memo cache), cycles per wall second. Run with [blocks] on and off and
   with the superblock tier on and off; the identical sweep under the
   three execution strategies is the block engine's (and the trace
   tier's) speedup measurement — and a bit-identity smoke check: the
   cycle totals must match exactly. *)
let sim_throughput ~blocks ~superblocks workloads =
  let cycles_of w v =
    (Runner.run ~blocks ~superblocks w v).Runner.run.Cpu.stats
      .Liquid_machine.Stats.cycles
  in
  let t0 = Unix.gettimeofday () in
  let cycles =
    List.fold_left
      (fun acc (w : Workload.t) ->
        acc + cycles_of w Runner.Baseline
        + List.fold_left
            (fun acc b ->
              acc
              + cycles_of w
                  (Runner.Liquid
                     { backend = Backend.kind_of b; lanes = 8; oracle = false }))
            0 Backend.all)
      0 workloads
  in
  let wall = Unix.gettimeofday () -. t0 in
  (cycles, wall, float_of_int cycles /. wall)

(* Robustness overhead: one seeded fault campaign (one width, every
   abort class plus corruption/eviction/watchdog) timed wall-clock, so
   regressions in the graceful-degradation path show up next to the
   perf numbers. *)
let fault_campaign workloads =
  let t0 = Unix.gettimeofday () in
  let report =
    Liquid_faults.Campaign.run ~workloads ~widths:[ 8 ] ~seed:2007 ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  (report, wall)

(* Sweep-service throughput: a fixed job script — every workload under
   the four headline variants, each job submitted twice so the reply
   dedup is part of what's measured — through the in-process entry
   point, jobs replied per wall second. Fresh runner cache so the
   number reflects real simulations plus the supervision envelope, not
   a warm memo. *)
let service_throughput workloads =
  Runner.clear_cache ();
  let buf = Buffer.create 1024 in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun v ->
          for _ = 1 to 2 do
            Buffer.add_string buf
              (Printf.sprintf "{\"workload\": %S, \"variant\": %S}\n"
                 w.Workload.name v)
          done)
        [ "baseline"; "liquid:8"; "vla:8"; "rvv:8" ])
    workloads;
  let jobs = 8 * List.length workloads in
  let t0 = Unix.gettimeofday () in
  let replies = Liquid_service.Service.run_script (Buffer.contents buf) in
  let wall = Unix.gettimeofday () -. t0 in
  let replied =
    List.length
      (List.filter
         (fun l -> String.trim l <> "")
         (String.split_on_char '\n' replies))
  in
  if replied <> jobs then
    failwith
      (Printf.sprintf "service throughput: %d jobs submitted, %d replies"
         jobs replied);
  float_of_int jobs /. wall

(* Differential-fuzz throughput: a short fixed-seed campaign (every
   case through the 53-cell oracle matrix, faults included), generated
   cases per wall second — so a slowdown in the generator, the oracle
   fan-out or the differ shows up next to the other rates. The run is
   also a correctness tripwire: any divergence fails the bench. *)
let fuzz_throughput ~cases =
  let t0 = Unix.gettimeofday () in
  let report = Liquid_fuzz.Campaign.run ~seed:2026 ~cases () in
  let wall = Unix.gettimeofday () -. t0 in
  if report.Liquid_fuzz.Campaign.r_divergent <> [] then
    failwith
      (Printf.sprintf "fuzz throughput: %d divergent cases at seed 2026"
         (List.length report.Liquid_fuzz.Campaign.r_divergent));
  float_of_int cases /. wall

let () =
  let t0 = Unix.gettimeofday () in
  if not smoke then print_reports ();
  let report_wall_s = Unix.gettimeofday () -. t0 in
  let estimates =
    if smoke then run_benchmarks ~quota:0.05 smoke_tests
    else run_benchmarks ~quota:0.5 tests
  in
  Runner.clear_cache ();
  let sim_workloads =
    if smoke then [ find "FIR"; find "GSM Dec." ] else Workload.all ()
  in
  let fault_workloads = if smoke then [ find "FIR" ] else Workload.all () in
  let sim_cycles, sim_wall_s, sim_cycles_per_s =
    sim_throughput ~blocks:true ~superblocks:true sim_workloads
  in
  let nosuper_cycles, nosuper_wall_s, _ =
    sim_throughput ~blocks:true ~superblocks:false sim_workloads
  in
  let off_cycles, off_wall_s, _ =
    sim_throughput ~blocks:false ~superblocks:false sim_workloads
  in
  if off_cycles <> sim_cycles then
    failwith
      (Printf.sprintf
         "block engine not bit-identical: %d cycles with blocks, %d without"
         sim_cycles off_cycles);
  if nosuper_cycles <> sim_cycles then
    failwith
      (Printf.sprintf
         "superblock tier not bit-identical: %d cycles with superblocks, %d \
          without"
         sim_cycles nosuper_cycles);
  let block_speedup = off_wall_s /. sim_wall_s in
  let super_speedup = nosuper_wall_s /. sim_wall_s in
  let fault_report, fault_wall_s = fault_campaign fault_workloads in
  let service_jobs_s = service_throughput sim_workloads in
  let fuzz_cases_per_s = fuzz_throughput ~cases:(if smoke then 20 else 200) in
  (* Single shared emitter (Liquid_obs.Bench_report): builds the typed
     record, writes BENCH.json, and re-validates the written file
     against the documented schema — a shape regression fails here. *)
  Liquid_obs.Bench_report.write ~path:"BENCH.json"
    {
      Liquid_obs.Bench_report.b_report_wall_s = report_wall_s;
      b_sim_cycles = sim_cycles;
      b_sim_wall_s = sim_wall_s;
      b_sim_cycles_per_s = sim_cycles_per_s;
      b_block_speedup = block_speedup;
      b_super_speedup = super_speedup;
      b_fault_wall_s = fault_wall_s;
      b_fault_cases = List.length fault_report.Liquid_faults.Campaign.r_cases;
      b_fault_survived = Liquid_faults.Campaign.survived fault_report;
      b_service_jobs_s = service_jobs_s;
      b_fuzz_cases_per_s = fuzz_cases_per_s;
      b_tests =
        List.map
          (fun (name, ns) ->
            { Liquid_obs.Bench_report.t_name = name; t_ns_per_run = ns })
          estimates;
    };
  if not json_only then
    Format.printf
      "@.report wall %.3f s; block speedup %.2fx; superblock speedup %.2fx; \
       fault campaign %.3f s; service %.1f jobs/s; fuzz %.1f cases/s; \
       BENCH.json written@."
      report_wall_s block_speedup super_speedup fault_wall_s service_jobs_s
      fuzz_cases_per_s
