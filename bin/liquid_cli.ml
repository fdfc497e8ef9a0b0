(* Command-line driver: list workloads, disassemble binaries, run a
   benchmark under a chosen machine, inspect translated microcode, and
   regenerate the paper's tables and figures. *)

open Cmdliner
open Liquid_prog
open Liquid_pipeline
open Liquid_harness
open Liquid_workloads

let workload_conv =
  let parse s =
    match Workload.find s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown workload %S; try one of: %s" s
                (String.concat ", " (Workload.names ()))))
  in
  Arg.conv (parse, fun ppf (w : Workload.t) -> Format.pp_print_string ppf w.name)

(* The one shared parser (Runner.variant_of_string) — the CLI and the
   sweep-service protocol accept identical spellings by construction. *)
let variant_conv =
  let parse s =
    match Runner.variant_of_string s with
    | Ok v -> Ok v
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun ppf v -> Format.pp_print_string ppf (Runner.variant_to_string v))

(* A bounded integer option, rejected at parse time (a usage error, exit
   124) in the wording [Runner.variant_of_string] uses for a bad width. *)
let int_conv ~what ok =
  let parse s =
    match int_of_string_opt s with
    | Some n when ok n -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "bad %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let width_arg =
  Arg.(
    value
    & opt (int_conv ~what:"width" (fun n -> n > 0)) 8
    & info [ "w"; "width" ] ~docv:"LANES" ~doc:"Accelerator lane count.")

let workload_arg =
  Arg.(
    required
    & pos 0 (some workload_conv) None
    & info [] ~docv:"WORKLOAD" ~doc:"Benchmark name (see $(b,list)).")

let variant_arg =
  Arg.(
    value
    & opt variant_conv
        (Runner.Liquid
           { backend = Liquid_translate.Backend.Fixed; lanes = 8; oracle = false })
    & info [ "m"; "machine" ] ~docv:"VARIANT"
        ~doc:
          "Machine/binary flavour: $(b,baseline), $(b,liquid:scalar), \
           $(b,liquid:WIDTH), $(b,vla:WIDTH), $(b,rvv:WIDTH), \
           $(b,oracle:WIDTH), $(b,vla-oracle:WIDTH), $(b,rvv-oracle:WIDTH) \
           or $(b,native:WIDTH).")

let no_blocks_arg =
  Arg.(
    value & flag
    & info [ "no-blocks" ]
        ~doc:
          "Disable the pre-decoded translation-block engine and its \
           trace-superblock tier, and simulate instruction by instruction. \
           Counters are bit-identical either way; this is an escape hatch \
           for debugging the engine and for measuring its speedup.")

(* A machine fault (the watchdog, a wild pc, corrupt microcode, an
   instruction the machine cannot execute) is an outcome of the
   simulated run, not a crash of the simulator: the commands that run
   or translate a program print its diagnostic on one stderr line and
   exit with [fault_exit]. *)
let fault_exit = 2

let fault_exits =
  Cmd.Exit.info fault_exit
    ~doc:
      "when the simulated machine stops on a fault; the diagnostic is \
       printed on standard error."
  :: Cmd.Exit.defaults

let machine_fault name d =
  Format.eprintf "liquid_cli: %s: %a@." name Diag.pp d;
  exit fault_exit

(* --- list --- *)

let list_cmd =
  let doc = "List the available benchmarks" in
  let run () =
    List.iter
      (fun (w : Workload.t) ->
        Format.printf "%-12s  %-10s  %s@." w.name
          (Workload.suite_name w.suite)
          w.description)
      (Workload.all ())
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* --- disasm --- *)

let disasm_cmd =
  let doc = "Print a benchmark's program listing for a binary flavour" in
  let binary_arg =
    Arg.(
      value & flag
      & info [ "binary" ]
          ~doc:
            "Encode to the 32-bit binary format and disassemble it back              (annotated with recovered labels and symbols).")
  in
  let run w variant binary =
    match Runner.program_of w variant with
    | program ->
        if binary then print_string (Disasm.of_image (Image.of_program program))
        else print_string (Parse.emit program)
    | exception Liquid_scalarize.Codegen.Unsupported_width m ->
        Format.printf "cannot generate this binary: %s@." m;
        exit 1
  in
  Cmd.v (Cmd.info "disasm" ~doc)
    Term.(const run $ workload_arg $ variant_arg $ binary_arg)

(* --- exec: assemble a source file and run it --- *)

let machine_config variant = Runner.config_of variant

let pp_trace_event ppf = function
  | Cpu.T_insn { pc; insn } ->
      Format.fprintf ppf "@%-5d %a" pc Liquid_visa.Minsn.pp_exec insn
  | Cpu.T_uop { entry; index; uop } ->
      Format.fprintf ppf "u%d/%-4d %a" entry index Liquid_translate.Ucode.pp_uop
        uop
  | Cpu.T_region { label; event } ->
      Format.fprintf ppf ">> %s: %s" label
        (match event with
        | `Scalar_call -> "called (scalar)"
        | `Ucode_call -> "called (microcode)"
        | `Translated w -> Printf.sprintf "translated at %d lanes" w
        | `Aborted a -> "aborted: " ^ Liquid_translate.Abort.to_string a)
  | Cpu.T_translation { label; width; uops; latency; _ } ->
      Format.fprintf ppf ">> %s: microcode ready (%d-wide, %d uops, %d cycles)"
        label width uops latency

let exec_cmd =
  let doc = "Assemble a .s source file and simulate it" in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Assembly source file.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (int_conv ~what:"trace count" (fun n -> n >= 0)) 0
      & info [ "trace" ] ~docv:"N"
          ~doc:"Print the first $(docv) execution/region trace events.")
  in
  let run file variant trace_n no_blocks =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Parse.program ~name:(Filename.basename file) source with
    | exception Parse.Parse_error { line; message } ->
        Format.printf "%s:%d: %s@." file line message;
        exit 1
    | program -> (
        match Program.validate program with
        | Error m ->
            Format.printf "%s: %s@." file m;
            exit 1
        | Ok () ->
            let remaining = ref trace_n in
            let on_trace =
              if trace_n = 0 then None
              else
                Some
                  (fun ev ->
                    if !remaining > 0 then begin
                      decr remaining;
                      Format.printf "%a@." pp_trace_event ev
                    end)
            in
            let config =
              {
                (machine_config variant) with
                Cpu.on_trace;
                Cpu.blocks = not no_blocks;
              }
            in
            let run =
              match Cpu.run ~config (Image.of_program program) with
              | run -> run
              | exception Diag.Error d -> machine_fault program.Program.name d
            in
            Format.printf "%a@." Liquid_machine.Stats.pp run.Cpu.stats;
            List.iter
              (fun (r : Cpu.region_report) ->
                Format.printf "  region %-20s calls=%-3d ucode=%d@." r.Cpu.label
                  (List.length r.Cpu.calls) r.Cpu.ucode_served)
              run.Cpu.regions)
  in
  Cmd.v (Cmd.info "exec" ~doc ~exits:fault_exits)
    Term.(const run $ file_arg $ variant_arg $ trace_arg $ no_blocks_arg)

(* --- run --- *)

let run_cmd =
  let doc = "Simulate a benchmark and print statistics" in
  let run w variant no_blocks =
    match Runner.run ~blocks:(not no_blocks) w variant with
    | { Runner.run; _ } ->
        Format.printf "%s on %s:@.%a@." w.Workload.name
          (Runner.variant_name variant)
          Liquid_machine.Stats.pp run.Cpu.stats;
        List.iter
          (fun (r : Cpu.region_report) ->
            Format.printf "  region %-20s calls=%-3d ucode=%-3d %s@."
              r.Cpu.label (List.length r.Cpu.calls) r.Cpu.ucode_served
              (match r.Cpu.outcome with
              | Cpu.R_untried -> "never translated"
              | Cpu.R_installed { width; uops } ->
                  Printf.sprintf "translated (%d-wide, %d uops)" width uops
              | Cpu.R_failed a ->
                  "aborted: " ^ Liquid_translate.Abort.to_string a))
          run.Cpu.regions
    | exception Liquid_scalarize.Codegen.Unsupported_width m ->
        Format.printf "cannot generate this binary: %s@." m;
        exit 1
    | exception Diag.Error d -> machine_fault w.Workload.name d
  in
  Cmd.v (Cmd.info "run" ~doc ~exits:fault_exits)
    Term.(const run $ workload_arg $ variant_arg $ no_blocks_arg)

(* --- translate: show the microcode produced for each region --- *)

let translate_cmd =
  let doc = "Show the SIMD microcode the translator produces for a benchmark" in
  let backend_arg =
    let backend_conv =
      Arg.conv
        ( (fun s ->
            match Liquid_translate.Backend.of_string s with
            | Some b -> Ok b
            | None -> Error (`Msg "expected fixed, vla or rvv")),
          fun ppf b ->
            Format.pp_print_string ppf (Liquid_translate.Backend.name_of b) )
    in
    Arg.(
      value
      & opt backend_conv Liquid_translate.Backend.fixed
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Translation target: $(b,fixed) (Neon-like, width must divide \
             the trip count), $(b,vla) (length-agnostic with predicated \
             final iteration) or $(b,rvv) (vsetvl-stripmined with LMUL \
             register grouping).")
  in
  let run (w : Workload.t) lanes backend =
    let program = Liquid_scalarize.Codegen.liquid w.Workload.program in
    let image = Image.of_program program in
    match Offline.translate_all ~backend ~image ~lanes () with
    | exception Diag.Error d -> machine_fault w.Workload.name d
    | results ->
        List.iter
          (fun (_, label, result) ->
            Format.printf "=== %s ===@." label;
            match result with
            | Liquid_translate.Translator.Translated u ->
                Format.printf "%a@." Liquid_translate.Ucode.pp u
            | Liquid_translate.Translator.Aborted reason ->
                Format.printf "aborted: %a@." Liquid_translate.Abort.pp reason)
          results
  in
  Cmd.v (Cmd.info "translate" ~doc ~exits:fault_exits)
    Term.(const run $ workload_arg $ width_arg $ backend_arg)

(* --- report: the paper's tables/figures, or one workload's snapshot --- *)

(* [report <workload>] runs the workload once and prints the full
   observability snapshot of its run record as schema-valid JSON (stats,
   unit counters, per-region timelines, translation-latency and
   inter-call-gap histograms, invariant verdict). Any conservation
   violation is printed to stderr and exits non-zero — the same checks
   the test suite runs, available against a live machine. Only [--jsonl]
   attaches a trace collector, which makes that run step. *)
let report_snapshot (w : Workload.t) variant jsonl_path csv_dir =
  match Runner.program_of w variant with
  | exception Liquid_scalarize.Codegen.Unsupported_width m ->
      Format.printf "cannot generate this binary: %s@." m;
      exit 1
  | program ->
      let jsonl_oc = Option.map open_out jsonl_path in
      let config =
        match jsonl_oc with
        | None -> machine_config variant
        | Some oc ->
            Liquid_obs.Collector.wrap
              (Liquid_obs.Collector.create ~jsonl:oc)
              (machine_config variant)
      in
      let run =
        match Cpu.run ~config (Image.of_program program) with
        | run -> run
        | exception Diag.Error d ->
            Option.iter close_out jsonl_oc;
            machine_fault w.name d
      in
      Option.iter close_out jsonl_oc;
      let snap =
        Liquid_obs.Snapshot.of_run ~label:w.name
          ~variant:(Runner.variant_name variant) run
      in
      let json = Liquid_obs.Snapshot.to_json snap in
      (match Liquid_obs.Schema.snapshot json with
      | [] -> ()
      | errs ->
          List.iter (Format.eprintf "schema: %s@.") errs;
          exit 1);
      (* stdout carries the JSON document and nothing else (pipeable);
         the CSV notice goes to stderr. *)
      print_endline (Liquid_obs.Json.to_string ~pretty:true json);
      (match csv_dir with
      | None -> ()
      | Some dir ->
          let sanitized =
            String.map
              (fun c ->
                match c with
                | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
                | _ -> '_')
              w.name
          in
          let path = Filename.concat dir (sanitized ^ ".csv") in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Liquid_obs.Snapshot.to_csv snap));
          Format.eprintf "wrote %s@." path);
      (match Liquid_obs.Snapshot.violations snap with
      | [] -> ()
      | viols ->
          List.iter (Format.eprintf "invariant violated: %s@.") viols;
          exit 1)

let report_tables =
  [
    "table2";
    "table5";
    "table6";
    "figure6";
    "codesize";
    "ucode";
    "latency";
    "overhead";
    "translator";
    "ablations";
  ]

let report_cmd =
  let doc =
    "Regenerate the paper's tables and figures, or emit one workload's \
     observability snapshot as JSON"
  in
  let which_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"WHICH"
          ~doc:
            ("One of " ^ String.concat ", " report_tables
           ^ " (omit for all) — or a workload name (see $(b,list)) to emit \
              that run's observability snapshot as JSON."))
  in
  let csv_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "csv" ] ~docv:"DIR"
          ~doc:
            "Also write machine-readable CSVs (table5/table6/figure6, or the              workload snapshot) into $(docv).")
  in
  let jsonl_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Workload-snapshot mode: stream region-level trace events \
             (calls, translations, aborts) to $(docv), one JSON object per \
             line. The trace observer makes the run step instruction by \
             instruction, so its superblocks counters read 0.")
  in
  let run which csv_dir variant jsonl_path =
    let all = which = None in
    let want w = all || which = Some w in
    let write_csv name contents =
      match csv_dir with
      | None -> ()
      | Some dir ->
          let path = Filename.concat dir name in
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc contents);
          Format.printf "wrote %s@." path
    in
    match (which, Option.bind which Workload.find) with
    | _, Some w -> report_snapshot w variant jsonl_path csv_dir
    | Some name, None when not (List.mem name report_tables) ->
        Format.eprintf
          "liquid_cli: unknown report %S; expected one of %s, or a workload \
           name (see liquid_cli list)@."
          name
          (String.concat ", " report_tables);
        exit 1
    | _, None ->
    if want "table2" then
      Format.printf "%a@.@." Experiments.pp_table2 (Experiments.table2 ());
    if want "table5" then begin
      let rows = Experiments.table5 () in
      Format.printf "%a@.@." Experiments.pp_table5 rows;
      write_csv "table5.csv" (Experiments.csv_table5 rows)
    end;
    if want "table6" then begin
      let rows = Experiments.table6 () in
      Format.printf "%a@.@." Experiments.pp_table6 rows;
      write_csv "table6.csv" (Experiments.csv_table6 rows)
    end;
    if want "figure6" then begin
      let rows = Experiments.figure6 () in
      Format.printf "%a@.@." Experiments.pp_figure6 rows;
      write_csv "figure6.csv" (Experiments.csv_figure6 rows)
    end;
    if want "codesize" then
      Format.printf "%a@.@." Experiments.pp_code_size (Experiments.code_size ());
    if want "ucode" then
      Format.printf "%a@.@." Experiments.pp_ucode_cache
        (Experiments.ucode_cache ());
    if want "latency" then
      Format.printf "%a@.@." Experiments.pp_latency
        (Experiments.latency_ablation ());
    if want "overhead" then
      Format.printf "%a@.@." Experiments.pp_overhead
        (Experiments.overhead_convergence ());
    if want "translator" then
      Format.printf "%a@.@." Experiments.pp_kind
        (Experiments.translator_kind_ablation ());
    if want "ablations" then begin
      Format.printf "%a@.@."
        (Experiments.pp_sweep
           ~title:
             "Microcode cache capacity (8 hot loops round-robin, 8 lanes)"
           ~value_label:"Entries")
        (Experiments.ucode_entries_ablation ());
      Format.printf "%a@.@."
        (Experiments.pp_sweep
           ~title:
             "Microcode buffer capacity (101.tomcatv, largest loop 63 uops)"
           ~value_label:"Capacity")
        (Experiments.buffer_ablation ());
      Format.printf "%a@.@."
        (Experiments.pp_sweep
           ~title:"Vector memory bus width (FIR, 16 lanes)"
           ~value_label:"Bus bytes")
        (Experiments.bus_ablation ());
      Format.printf "%a@.@."
        (Experiments.pp_sweep
           ~title:
             "Context-switch interval in cycles (FFT, 8 lanes; 0 = never)"
           ~value_label:"Interval")
        (Experiments.interrupt_ablation ())
    end
  in
  Cmd.v (Cmd.info "report" ~doc ~exits:fault_exits)
    Term.(const run $ which_arg $ csv_arg $ variant_arg $ jsonl_arg)

(* --- encode: binary footprint breakdown --- *)

let encode_cmd =
  let doc = "Show the encoded binary footprint of a benchmark" in
  let run (w : Workload.t) variant =
    match Runner.program_of w variant with
    | exception Liquid_scalarize.Codegen.Unsupported_width m ->
        Format.printf "cannot generate this binary: %s@." m;
        exit 1
    | program ->
        let image = Image.of_program program in
        let enc = Encode.encode image.Image.code in
        let words = 4 * Array.length enc.Encode.words in
        let pool = 4 * Array.length enc.Encode.pool in
        Format.printf
          "%s (%s)@.  instructions: %6d (%d bytes)@.  literal pool: %6d            entries (%d bytes)@.  data segment: %6d bytes@.  total:                   %6d bytes@."
          w.Workload.name
          (Runner.variant_name variant)
          (Array.length enc.Encode.words)
          words
          (Array.length enc.Encode.pool)
          pool image.Image.data_bytes
          (words + pool + image.Image.data_bytes)
  in
  Cmd.v (Cmd.info "encode" ~doc) Term.(const run $ workload_arg $ variant_arg)

(* --- summary: one-line dashboard per benchmark --- *)

let summary_cmd =
  let doc = "Run every benchmark at one width and summarize" in
  let run lanes =
    Format.printf "%-12s %9s %9s %8s %6s %7s@." "benchmark" "baseline"
      "liquid" "speedup" "ucode%" "aborts";
    List.iter
      (fun (w : Workload.t) ->
        let base = (Runner.run w Runner.Baseline).Runner.run in
        let { Runner.run = lrun; _ } =
          Runner.run w
            (Runner.Liquid
               { backend = Liquid_translate.Backend.Fixed; lanes; oracle = false })
        in
        let stats = lrun.Cpu.stats in
        Format.printf "%-12s %9d %9d %7.2fx %5.0f%% %7d@." w.Workload.name
          base.Cpu.stats.Liquid_machine.Stats.cycles
          stats.Liquid_machine.Stats.cycles
          (Runner.speedup ~baseline:base lrun)
          (100.0
          *. float_of_int stats.Liquid_machine.Stats.ucode_hits
          /. float_of_int (max 1 stats.Liquid_machine.Stats.region_calls))
          stats.Liquid_machine.Stats.translations_aborted)
      (Workload.all ())
  in
  Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ width_arg)

(* --- hwmodel --- *)

let hwmodel_cmd =
  let doc = "Estimate translator area/delay for a configuration" in
  let lanes_arg =
    Arg.(value & opt int 8 & info [ "w"; "width" ] ~docv:"LANES" ~doc:"Lane count.")
  in
  let regs_arg =
    Arg.(
      value & opt int 16
      & info [ "r"; "registers" ] ~docv:"N" ~doc:"Architectural registers.")
  in
  let buffer_arg =
    Arg.(
      value & opt int 64
      & info [ "b"; "buffer" ] ~docv:"N" ~doc:"Microcode buffer entries.")
  in
  let target_arg =
    let module B = Liquid_translate.Backend in
    let target_conv =
      Arg.conv
        ( (fun s ->
            match B.of_string s with
            | Some b -> Ok (B.kind_of b)
            | None -> Error (`Msg "expected fixed, vla or rvv")),
          fun ppf k -> B.pp ppf (B.of_kind k) )
    in
    Arg.(
      value
      & opt target_conv B.Fixed
      & info [ "target" ] ~docv:"TARGET"
          ~doc:
            "Translation target the hardware emits for: $(b,fixed), \
             $(b,vla) (adds the whilelt comparator and predicate file) or \
             $(b,rvv) (adds the vsetvl grant unit and LMUL regroup muxes).")
  in
  let lmul_arg =
    Arg.(
      value & opt int 1
      & info [ "lmul" ] ~docv:"M"
          ~doc:
            "Register-group factor provisioned for the $(b,rvv) target \
             (sizes the previous-value state and regroup muxes); ignored \
             for the other targets.")
  in
  let run lanes registers buffer_entries target lmul =
    let module H = Liquid_hwmodel.Hwmodel in
    let rep = H.estimate { H.lanes; registers; buffer_entries; target; lmul } in
    Format.printf "%a@." H.pp_report rep;
    Format.printf
      "  decoder %d | legality %d | register state %d (%.0f%%) | opcode gen        %d | buffer %d cells@."
      rep.H.decoder_cells rep.H.legality_cells rep.H.regstate_cells
      (100.0 *. float_of_int rep.H.regstate_cells /. float_of_int rep.H.total_cells)
      rep.H.opgen_cells rep.H.buffer_cells;
    if rep.H.pred_cells > 0 then
      Format.printf "  predication (whilelt + predicate file) %d cells@."
        rep.H.pred_cells;
    if rep.H.tbl_cells > 0 then
      Format.printf
        "  table-lookup unit (pattern store + index adders) %d cells@."
        rep.H.tbl_cells
  in
  Cmd.v (Cmd.info "hwmodel" ~doc)
    Term.(const run $ lanes_arg $ regs_arg $ buffer_arg $ target_arg $ lmul_arg)

(* --- fuzz: the generative differential campaign over the Vloop IR --- *)

let fuzz_cmd =
  let doc = "Run a seeded differential fuzzing campaign" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random Vloop IR programs (arbitrary op mixes, \
         reductions, saturating idioms, permutations — including \
         fission-inducing mid-loop ones — strided and gathered memory, \
         adversarial trip counts), or with $(b,-b) takes the selected \
         workloads' programs, and runs every case through the full \
         differential matrix: pure-scalar reference vs the inline-loop \
         baseline binary, fixed-width, VLA and RVV translation at widths \
         2, 4, 8 and 16 with the block engine (trace-superblock tier \
         included) on and off, oracle translation, and three seeded \
         fault cells: a forced abort of any class, a corrupted feed, a \
         microcode eviction or a watchdog budget, at a site inside the \
         attacked variant's own clean run. Prints the campaign report; \
         for each failing case, re-derives and prints a shrunk minimal \
         repro. Exits non-zero on any divergence.";
    ]
  in
  let seed_arg =
    Arg.(
      value & opt int 2026
      & info [ "s"; "seed" ] ~docv:"SEED"
          ~doc:"Campaign seed; the same seed replays the same cases.")
  in
  let cases_arg =
    Arg.(
      value
      & opt (some (int_conv ~what:"case count" (fun n -> n >= 0))) None
      & info [ "n"; "cases" ] ~docv:"N"
          ~doc:"Number of cases (default 500, or one per $(b,-b) workload).")
  in
  let workloads_arg =
    Arg.(
      value & opt_all workload_conv []
      & info [ "b"; "benchmark" ] ~docv:"WORKLOAD"
          ~doc:"Take the cases from this workload (repeatable).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Quick mode for CI: 40 cases regardless of $(b,--cases).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains (default: the runtime's recommendation).")
  in
  let no_faults_arg =
    Arg.(
      value & flag
      & info [ "no-faults" ]
          ~doc:"Skip the seeded fault cells in each matrix.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the schema-validated JSON report instead.")
  in
  let run seed cases workloads smoke domains no_faults json =
    let module Campaign = Liquid_fuzz.Campaign in
    let default = if workloads = [] then 500 else List.length workloads in
    let cases = if smoke then 40 else Option.value cases ~default in
    let faults = not no_faults in
    let report = Campaign.run ?domains ~workloads ~faults ~seed ~cases () in
    if json then
      print_endline
        (Liquid_obs.Json.to_string ~pretty:true (Campaign.to_json report))
    else Format.printf "%a@." Campaign.pp report;
    if report.Campaign.r_divergent <> [] then begin
      List.iter
        (fun (index, program, _) ->
          match Campaign.shrunk_repro ~workloads ~faults ~seed ~index () with
          | None ->
              Format.eprintf "case %d: divergence did not reproduce in-process@."
                index
          | Some repro ->
              Format.eprintf
                "@[<v>shrunk repro of case %d (%s, fault seed %d):@ %a@]@."
                index program
                (Campaign.fault_seed_of ~seed ~index)
                Liquid_fuzz.Gen.pp_program repro)
        report.Campaign.r_divergent;
      exit 1
    end
  in
  Cmd.v (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ seed_arg $ cases_arg $ workloads_arg $ smoke_arg $ domains_arg
      $ no_faults_arg $ json_arg)

let main =
  let doc = "Liquid SIMD: dynamic mapping of scalarized loops onto SIMD accelerators" in
  Cmd.group (Cmd.info "liquid_cli" ~doc)
    [
      list_cmd;
      disasm_cmd;
      run_cmd;
      exec_cmd;
      translate_cmd;
      report_cmd;
      encode_cmd;
      summary_cmd;
      hwmodel_cmd;
      fuzz_cmd;
    ]

let () = exit (Cmd.eval main)
