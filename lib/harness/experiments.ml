open Liquid_pipeline
open Liquid_prog
open Liquid_scalarize
open Liquid_workloads
module Backend = Liquid_translate.Backend
module Hwmodel = Liquid_hwmodel.Hwmodel
module Stats = Liquid_machine.Stats

(* --- Table 2 --- *)

let table2 () =
  List.concat_map
    (fun backend ->
      let target = Backend.kind_of backend in
      List.map
        (fun lanes ->
          (* RVV rows are provisioned at the group factor the translator
             can actually reach at that base width: LMUL is bounded by
             the 16-lane maximum vector length, so a narrow datapath
             grades a high group factor and a 16-wide one none. *)
          let lmul = if target = Backend.Rvv then max 1 (16 / lanes) else 1 in
          Hwmodel.estimate
            { Hwmodel.default_params with Hwmodel.lanes; Hwmodel.target; Hwmodel.lmul })
        [ 2; 4; 8; 16 ])
    Backend.all

let pp_table2 ppf reports =
  Format.fprintf ppf
    "@[<v>Table 2: dynamic translator synthesis model (paper @ 8-wide: 16 \
     gates, 1.51 ns, 174,117 cells, <0.2 mm^2)@ \
     %-20s | %-10s | %-18s | %-12s | %s@ "
    "Description" "Crit. path" "Delay" "Cells" "Area";
  List.iter
    (fun (r : Hwmodel.report) ->
      Format.fprintf ppf "%-20s | %2d gates   | %.2f ns (%4.0f MHz) | %7d cells | %.3f mm^2@ "
        (Hwmodel.label r)
        r.Hwmodel.crit_path_gates r.Hwmodel.crit_path_ns r.Hwmodel.freq_mhz
        r.Hwmodel.total_cells r.Hwmodel.area_mm2)
    reports;
  Format.fprintf ppf "@]"

(* --- Table 5 --- *)

type table5_row = {
  t5_name : string;
  t5_loops : int;
  t5_mean : float;
  t5_max : int;
  t5_paper_mean : float;
  t5_paper_max : int;
}

let table5 () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let sizes = List.map snd (Codegen.outlined_sizes w.program) in
      let n = List.length sizes in
      {
        t5_name = w.name;
        t5_loops = n;
        t5_mean =
          (if n = 0 then 0.0
           else float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int n);
        t5_max = List.fold_left max 0 sizes;
        t5_paper_mean = w.paper.table5_mean;
        t5_paper_max = w.paper.table5_max;
      })
    (Workload.all ())

let pp_table5 ppf rows =
  Format.fprintf ppf
    "@[<v>Table 5: scalar instructions in outlined function(s)@ %-12s | %5s | %12s | %12s@ "
    "Benchmark" "Loops" "Mean (paper)" "Max (paper)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s | %5d | %5.1f (%5.1f) | %4d (%4d)@ " r.t5_name
        r.t5_loops r.t5_mean r.t5_paper_mean r.t5_max r.t5_paper_max)
    rows;
  Format.fprintf ppf "@]"

(* --- Table 6 --- *)

type table6_row = {
  t6_name : string;
  t6_lt150 : int;
  t6_lt300 : int;
  t6_gt300 : int;
  t6_mean : int;
  t6_paper : Workload.paper_ref;
}

(* The paper's Table 6 metric, read literally: cycles between the first
   two consecutive calls (start to start). Since translation proceeds
   during the first execution, everything beyond the first call's
   duration is slack for the translator. *)
let region_first_gap (run : Cpu.run) =
  List.filter_map
    (fun (r : Cpu.region_report) ->
      match r.Cpu.calls with
      | (start0, _) :: (start1, _) :: _ -> Some (r.Cpu.label, start1 - start0)
      | [ _ ] | [] -> None)
    run.Cpu.regions

let table6 () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let { Runner.run; _ } =
        Runner.run_cached w
          (Runner.Liquid { backend = Backend.Fixed; lanes = 8; oracle = false })
      in
      let gaps = List.map snd (region_first_gap run) in
      let n = List.length gaps in
      {
        t6_name = w.name;
        t6_lt150 = List.length (List.filter (fun g -> g < 150) gaps);
        t6_lt300 = List.length (List.filter (fun g -> g >= 150 && g < 300) gaps);
        t6_gt300 = List.length (List.filter (fun g -> g >= 300) gaps);
        t6_mean =
          (if n = 0 then 0 else List.fold_left ( + ) 0 gaps / n);
        t6_paper = w.paper;
      })
    (Workload.all ())

let pp_table6 ppf rows =
  Format.fprintf ppf
    "@[<v>Table 6: cycles between the first two consecutive calls to \
     outlined hot loops@ %-12s | %6s | %6s | %6s | %16s@ "
    "Benchmark" "<150" "<300" ">300" "Mean (paper)";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s | %2d (%2d) | %2d (%2d) | %2d (%2d) | %8d (%8d)@ "
        r.t6_name r.t6_lt150 r.t6_paper.Workload.table6_lt150 r.t6_lt300
        r.t6_paper.Workload.table6_lt300 r.t6_gt300
        r.t6_paper.Workload.table6_gt300 r.t6_mean
        r.t6_paper.Workload.table6_mean)
    rows;
  Format.fprintf ppf "@]"

(* --- Figure 6 --- *)

type fig6_row = {
  f6_name : string;
  f6_speedups : (int * float) list;
  f6_vla_speedups : (int * float) list;
  f6_rvv_speedups : (int * float) list;
  f6_native_delta : (int * float) list;
}

let figure6 ?(widths = [ 2; 4; 8; 16 ]) () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let base = (Runner.run_cached w Runner.Baseline).run in
      let speedups_on ?(oracle = false) backend =
        List.map
          (fun lanes ->
            let { Runner.run; _ } =
              Runner.run_cached w (Runner.Liquid { backend; lanes; oracle })
            in
            (lanes, Runner.speedup ~baseline:base run))
          widths
      in
      let speedups = speedups_on Backend.Fixed in
      (* Same binary, translator targeting the length-agnostic predicated
         backend: no width/trip-count divisibility aborts, predicated
         final iterations instead of scalar epilogues. *)
      let vla_speedups = speedups_on Backend.Vla in
      (* Same binary again, translator targeting the RVV-style
         stripmining backend: the vsetvl grant absorbs the remainder like
         VLA predication does, and LMUL register grouping may multiply
         the effective width on low-pressure regions. *)
      let rvv_speedups = speedups_on Backend.Rvv in
      let native_delta =
        (* The callout of Figure 6: re-run with translation removed from
           the picture (microcode present from the first call), i.e. a
           processor with built-in ISA support for the SIMD code. *)
        List.map2
          (fun (lanes, native) (_, translated) -> (lanes, native -. translated))
          (speedups_on ~oracle:true Backend.Fixed)
          speedups
      in
      {
        f6_name = w.name;
        f6_speedups = speedups;
        f6_vla_speedups = vla_speedups;
        f6_rvv_speedups = rvv_speedups;
        f6_native_delta = native_delta;
      })
    (Workload.all ())

let pp_figure6 ppf rows =
  Format.fprintf ppf
    "@[<v>Figure 6: speedup vs no-SIMD baseline (one Liquid binary per \
     benchmark)@ %-12s | %6s %6s %6s %6s | %6s %6s %6s %6s | %6s %6s %6s %6s \
     | %s@ "
    "Benchmark" "w=2" "w=4" "w=8" "w=16" "vla=2" "vla=4" "vla=8" "vla=16"
    "rvv=2" "rvv=4" "rvv=8" "rvv=16" "max native-ISA delta";
  List.iter
    (fun r ->
      let at l w = Option.value (List.assoc_opt w l) ~default:nan in
      let s = at r.f6_speedups and v = at r.f6_vla_speedups in
      let rv = at r.f6_rvv_speedups in
      let delta =
        List.fold_left (fun acc (_, d) -> Float.max acc (Float.abs d)) 0.0
          r.f6_native_delta
      in
      Format.fprintf ppf
        "%-12s | %6.2f %6.2f %6.2f %6.2f | %6.2f %6.2f %6.2f %6.2f | %6.2f \
         %6.2f %6.2f %6.2f | %.4f@ "
        r.f6_name (s 2) (s 4) (s 8) (s 16) (v 2) (v 4) (v 8) (v 16) (rv 2)
        (rv 4) (rv 8) (rv 16) delta)
    rows;
  Format.fprintf ppf "@]"

(* --- Code size --- *)

type size_row = {
  sz_name : string;
  sz_baseline : int;
  sz_liquid : int;
  sz_overhead_pct : float;
}

let code_size () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let base = Image.of_program (Codegen.baseline w.program) in
      let liquid = Image.of_program (Codegen.liquid w.program) in
      let bb = Encode.size_bytes base and lb = Encode.size_bytes liquid in
      {
        sz_name = w.name;
        sz_baseline = bb;
        sz_liquid = lb;
        sz_overhead_pct = 100.0 *. float_of_int (lb - bb) /. float_of_int bb;
      })
    (Workload.all ())

let pp_code_size ppf rows =
  Format.fprintf ppf
    "@[<v>Code size overhead (paper: <1%% worst case)@ %-12s | %9s | %9s | %s@ "
    "Benchmark" "Baseline" "Liquid" "Overhead";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s | %7d B | %7d B | %+.2f%%@ " r.sz_name
        r.sz_baseline r.sz_liquid r.sz_overhead_pct)
    rows;
  Format.fprintf ppf "@]"

(* --- Microcode cache --- *)

type ucode_row = {
  uc_name : string;
  uc_regions : int;
  uc_max_occupancy : int;
  uc_max_uops : int;
  uc_evictions : int;
}

let ucode_cache () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let { Runner.run; _ } =
        Runner.run_cached w
          (Runner.Liquid { backend = Backend.Fixed; lanes = 16; oracle = false })
      in
      let max_uops =
        List.fold_left
          (fun acc (r : Cpu.region_report) ->
            match r.Cpu.outcome with
            | Cpu.R_installed { uops; _ } -> max acc uops
            | Cpu.R_untried | Cpu.R_failed _ -> acc)
          0 run.Cpu.regions
      in
      {
        uc_name = w.name;
        uc_regions = List.length run.Cpu.regions;
        uc_max_occupancy = run.Cpu.ucode_max_occupancy;
        uc_max_uops = max_uops;
        uc_evictions = run.Cpu.stats.Stats.ucode_evictions;
      })
    (Workload.all ())

let pp_ucode_cache ppf rows =
  Format.fprintf ppf
    "@[<v>Microcode cache requirements (paper: 8 entries x 64 instructions \
     suffice)@ %-12s | %7s | %9s | %8s | %s@ "
    "Benchmark" "Regions" "Live max" "Max uops" "Evictions";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s | %7d | %9d | %8d | %d@ " r.uc_name r.uc_regions
        r.uc_max_occupancy r.uc_max_uops r.uc_evictions)
    rows;
  Format.fprintf ppf "@]"

(* --- Translation latency ablation --- *)

type latency_row = { lat_name : string; lat_speedups : (int * float) list }

let latency_ablation ?(costs = [ 1; 10; 30; 100 ]) () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let base = (Runner.run_cached w Runner.Baseline).run in
      let speedups =
        List.map
          (fun c ->
            let { Runner.run; _ } =
              Runner.run_cached ~translation_cpi:c w
                (Runner.Liquid
                   { backend = Backend.Fixed; lanes = 8; oracle = false })
            in
            (c, Runner.speedup ~baseline:base run))
          costs
      in
      { lat_name = w.name; lat_speedups = speedups })
    (Workload.all ())

let pp_latency ppf rows =
  Format.fprintf ppf
    "@[<v>Translation-latency sensitivity: speedup at 8 lanes vs cycles \
     spent per translated instruction@ %-12s |" "Benchmark";
  (match rows with
  | [] -> ()
  | r :: _ ->
      List.iter
        (fun (c, _) -> Format.fprintf ppf " %5s" (Printf.sprintf "c=%d" c))
        r.lat_speedups);
  Format.fprintf ppf "@ ";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s |" r.lat_name;
      List.iter (fun (_, s) -> Format.fprintf ppf " %5.2f" s) r.lat_speedups;
      Format.fprintf ppf "@ ")
    rows;
  Format.fprintf ppf "@]"

(* --- virtualization-overhead convergence --- *)

type overhead_row = {
  ov_frames : int;
  ov_liquid : float;
  ov_oracle : float;
  ov_delta : float;
}

let overhead_convergence ?(frames_list = [ 2; 5; 20; 80; 320 ]) () =
  let module Kernels = Liquid_workloads.Kernels in
  let module Build = Liquid_scalarize.Build in
  let program frames =
    let tap =
      Kernels.mac_chain ~name:"ov_tap" ~count:1024
        ~terms:[ ("ov_x", 5); ("ov_y", 3) ]
        ~out:"ov_o"
    in
    {
      Liquid_scalarize.Vloop.name = "ov";
      sections =
        Kernels.counted ~reg:(Build.r 15) ~label:"ov_frame" ~count:frames
          [ Liquid_scalarize.Vloop.Loop tap ];
      data =
        [
          Kernels.warray "ov_x" 1024 (fun i -> (i * 13 mod 255) - 127;);
          Kernels.warray "ov_y" 1024 (fun i -> (i * 7 mod 101) - 50);
          Kernels.wzeros "ov_o" 1024;
        ];
    }
  in
  Runner.run_many
    (fun frames ->
      let p = program frames in
      let base =
        Cpu.run ~config:Cpu.scalar_config
          (Image.of_program (Codegen.baseline p))
      in
      let image = Image.of_program (Codegen.liquid p) in
      let liquid = Cpu.run ~config:(Cpu.liquid_config ~lanes:8) image in
      let oracle =
        Cpu.run
          ~config:{ (Cpu.liquid_config ~lanes:8) with Cpu.oracle_translation = true }
          image
      in
      let speedup (r : Cpu.run) =
        float_of_int base.Cpu.stats.Stats.cycles
        /. float_of_int r.Cpu.stats.Stats.cycles
      in
      {
        ov_frames = frames;
        ov_liquid = speedup liquid;
        ov_oracle = speedup oracle;
        ov_delta = speedup oracle -. speedup liquid;
      })
    frames_list

let pp_overhead ppf rows =
  Format.fprintf ppf
    "@[<v>Virtualization overhead vs run length (paper: 0.001 worst case on \
     full-length runs)@ %8s | %8s | %8s | %s@ "
    "Calls" "Liquid" "Oracle" "Delta";
  List.iter
    (fun r ->
      Format.fprintf ppf "%8d | %8.3f | %8.3f | %.4f@ " r.ov_frames r.ov_liquid
        r.ov_oracle r.ov_delta)
    rows;
  Format.fprintf ppf "@]"

(* --- design-choice ablations --- *)

type sweep_row = { sw_value : int; sw_speedup : float; sw_hit_rate : float }

let sweep_workload name mk_config values =
  let w =
    match Workload.find name with Some w -> w | None -> invalid_arg name
  in
  let base = (Runner.run_cached w Runner.Baseline).Runner.run in
  let image = Image.of_program (Codegen.liquid w.Workload.program) in
  Runner.run_many
    (fun value ->
      let run = Cpu.run ~config:(mk_config value) image in
      let calls = run.Cpu.stats.Stats.region_calls in
      {
        sw_value = value;
        sw_speedup = Runner.speedup ~baseline:base run;
        sw_hit_rate =
          (if calls = 0 then 0.0
           else
             float_of_int run.Cpu.stats.Stats.ucode_hits /. float_of_int calls);
      })
    values

let ucode_entries_ablation ?(entries = [ 1; 2; 4; 8; 16 ]) () =
  (* Round-robin over eight hot loops: below eight entries, LRU evicts
     every loop before its next call and no microcode is ever reused. *)
  let module Kernels = Liquid_workloads.Kernels in
  let module Build = Liquid_scalarize.Build in
  let loops =
    List.init 8 (fun k ->
        Liquid_scalarize.Vloop.Loop
          (Kernels.saxpy
             ~name:(Printf.sprintf "uc_l%d" k)
             ~count:64 ~a:(k + 1) ~x:"uc_x" ~y:"uc_y" ~out:"uc_y"))
  in
  let p =
    {
      Liquid_scalarize.Vloop.name = "uc";
      sections =
        Kernels.counted ~reg:(Build.r 15) ~label:"uc_frame" ~count:6 loops;
      data =
        [
          Kernels.warray "uc_x" 64 (fun i -> i);
          Kernels.warray "uc_y" 64 (fun i -> i * 2);
        ];
    }
  in
  let base =
    Cpu.run ~config:Cpu.scalar_config (Image.of_program (Codegen.baseline p))
  in
  let image = Image.of_program (Codegen.liquid p) in
  Runner.run_many
    (fun n ->
      let run =
        Cpu.run
          ~config:{ (Cpu.liquid_config ~lanes:8) with Cpu.ucode_entries = n }
          image
      in
      let calls = run.Cpu.stats.Stats.region_calls in
      {
        sw_value = n;
        sw_speedup =
          float_of_int base.Cpu.stats.Stats.cycles
          /. float_of_int run.Cpu.stats.Stats.cycles;
        sw_hit_rate =
          (if calls = 0 then 0.0
           else
             float_of_int run.Cpu.stats.Stats.ucode_hits /. float_of_int calls);
      })
    entries

let buffer_ablation ?(capacities = [ 16; 32; 48; 64; 128 ]) () =
  sweep_workload "101.tomcatv"
    (fun n -> { (Cpu.liquid_config ~lanes:8) with Cpu.max_uops = n })
    capacities

let bus_ablation ?(widths = [ 4; 8; 16; 32; 64 ]) () =
  sweep_workload "FIR"
    (fun n -> { (Cpu.liquid_config ~lanes:16) with Cpu.vec_bus_bytes = n })
    widths

let pp_sweep ~title ~value_label ppf rows =
  Format.fprintf ppf "@[<v>%s@ %12s | %8s | %s@ " title value_label "Speedup"
    "Ucode hit rate";
  List.iter
    (fun r ->
      Format.fprintf ppf "%12d | %8.2f | %.2f@ " r.sw_value r.sw_speedup
        r.sw_hit_rate)
    rows;
  Format.fprintf ppf "@]"

(* --- hardware vs software translation --- *)

type kind_row = { kr_name : string; kr_hw : float; kr_sw : float }

let translator_kind_ablation ?(cost = 100) () =
  Runner.run_many
    (fun (w : Workload.t) ->
      let base = (Runner.run_cached w Runner.Baseline).Runner.run in
      (* The hardware column is the 8-lane fixed-width machine that
         table 6 runs too, so it comes from the memo. *)
      let hw =
        (Runner.run_cached w
           (Runner.Liquid { backend = Backend.Fixed; lanes = 8; oracle = false }))
          .Runner.run
      in
      let sw =
        Cpu.run
          ~config:
            {
              (Cpu.liquid_config ~lanes:8) with
              Cpu.translator =
                Some { Cpu.cycles_per_insn = cost; Cpu.kind = Cpu.Software };
            }
          (Image.of_program (Codegen.liquid w.Workload.program))
      in
      {
        kr_name = w.name;
        kr_hw = Runner.speedup ~baseline:base hw;
        kr_sw = Runner.speedup ~baseline:base sw;
      })
    (Workload.all ())

let pp_kind ppf rows =
  Format.fprintf ppf
    "@[<v>Hardware vs software translation (speedup at 8 lanes; software \
     JIT stalls the core)@ %-12s | %8s | %s@ "
    "Benchmark" "Hardware" "Software JIT";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s | %8.2f | %.2f@ " r.kr_name r.kr_hw r.kr_sw)
    rows;
  Format.fprintf ppf "@]"

let interrupt_ablation ?(intervals = [ 0; 100_000; 10_000; 1_000; 200 ]) () =
  sweep_workload "FFT"
    (fun n ->
      {
        (Cpu.liquid_config ~lanes:8) with
        Cpu.interrupt_interval = (if n = 0 then None else Some n);
      })
    intervals

(* --- CSV export --- *)

let csv_table5 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "benchmark,loops,mean,max,paper_mean,paper_max\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%.2f,%d,%.2f,%d\n" r.t5_name r.t5_loops r.t5_mean
           r.t5_max r.t5_paper_mean r.t5_paper_max))
    rows;
  Buffer.contents buf

let csv_table6 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "benchmark,lt150,lt300,gt300,mean,paper_lt150,paper_lt300,paper_gt300,paper_mean\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d\n" r.t6_name r.t6_lt150
           r.t6_lt300 r.t6_gt300 r.t6_mean r.t6_paper.Workload.table6_lt150
           r.t6_paper.Workload.table6_lt300 r.t6_paper.Workload.table6_gt300
           r.t6_paper.Workload.table6_mean))
    rows;
  Buffer.contents buf

let csv_figure6 rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "benchmark,width,speedup,vla_speedup,rvv_speedup,native_delta\n";
  List.iter
    (fun r ->
      List.iter
        (fun (w, s) ->
          let cell l =
            match List.assoc_opt w l with
            | Some v -> Printf.sprintf "%.4f" v
            | None -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.4f,%s,%s,%s\n" r.f6_name w s
               (cell r.f6_vla_speedups) (cell r.f6_rvv_speedups)
               (cell r.f6_native_delta)))
        r.f6_speedups)
    rows;
  Buffer.contents buf
