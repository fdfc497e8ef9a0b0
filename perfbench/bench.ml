(* Benchmark program: four seeded workloads of the Liquid SIMD
   reproduction, each measured as a closed loop in one process. README.md
   explains the workloads and metrics; BENCHMARK.json lists the metric
   names a run emits.

     bench.exe WORKLOAD [--seed N] [--seconds S] [--trace FILE] [--smoke]
     bench.exe all [--seed N] [--seconds S] [--smoke] [--spec FILE]
                   [--commit C]
     bench.exe history [FILE]

   A run sets up its inputs, runs one untimed warm-up unit, then runs one
   unit of work at a time, each after a full major GC and timed with the
   monotonic clock, until --seconds have passed. The last line of stdout
   is the result object {correct, attempted, failed, metrics}; the JSON
   document before it gives every metric's median, quartiles and sample
   count. With --trace each unit index runs twice, untraced and traced:
   the traced unit records a span around every library call and yields
   the per-layer metrics, and the spans go to FILE as Chrome trace JSON.

   bench.exe calls only the libraries' public functions. It stays off
   lib/service, lib/faults/campaign and the blocks/superblocks knobs, and
   spells variants as strings, so that code can be reshaped under an
   unchanged benchmark. *)

open Liquid_prog
open Liquid_pipeline
open Liquid_harness
open Liquid_workloads
module Json = Liquid_obs.Json
module Oracle = Liquid_faults.Oracle
module Translator = Liquid_translate.Translator
module Backend = Liquid_translate.Backend

let seconds_since t0 =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9

(* --- what the current unit did --- *)

let attempted = ref 0
let failed = ref 0
let correct = ref true

let ops ?(failures = 0) n =
  attempted := !attempted + n;
  failed := !failed + failures

let op ok = ops 1 ~failures:(if ok then 0 else 1)

let complain msg =
  correct := false;
  prerr_endline ("perfbench: " ^ msg)

(* Deterministic counts (simulated events, translations, fuzz runs):
   equal for every unit run on the same inputs, traced or not. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0. (Hashtbl.find_opt counts name))

let counti name v = count name (float_of_int v)

(* Memo hits and misses of the current unit. They depend on how the
   domain pool schedules runs, so they stay out of [counts]. *)
let memo = ref (0, 0)

let shuffle ~seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let variant spelling = Result.get_ok (Runner.variant_of_string spelling)

(* --- workloads --- *)

type workload = {
  name : string;
  unit_of_work : string;
  setup : seed:int -> smoke:bool -> int -> unit;
      (** builds the inputs and returns the unit of work, by unit index *)
}

(* The 13 Experiments calls of `liquid_cli report`, rendered with the
   CLI's printers and titles. The seed is unused: the report has no
   generated inputs. *)
let report =
  let unit_of_work _ =
    let before =
      Span.with_ "harness.other_s" (fun () ->
          Runner.clear_cache ();
          Runner.cache_counters ())
    in
    let buf = Buffer.create 16384 in
    let ppf = Format.formatter_of_buffer buf in
    let section span compute pp =
      let rows = Span.with_ span compute in
      Span.with_ "harness.other_s" (fun () ->
          Format.fprintf ppf "%a@.@." pp rows)
    in
    let sweep title value_label = Experiments.pp_sweep ~title ~value_label in
    section "harness.other_s" Experiments.table2 Experiments.pp_table2;
    section "harness.other_s" Experiments.table5 Experiments.pp_table5;
    section "harness.table6_s" Experiments.table6 Experiments.pp_table6;
    section "harness.figure6_s"
      (fun () -> Experiments.figure6 ())
      Experiments.pp_figure6;
    section "harness.other_s" Experiments.code_size Experiments.pp_code_size;
    section "harness.other_s" Experiments.ucode_cache
      Experiments.pp_ucode_cache;
    section "harness.latency_s"
      (fun () -> Experiments.latency_ablation ())
      Experiments.pp_latency;
    section "harness.overhead_s"
      (fun () -> Experiments.overhead_convergence ())
      Experiments.pp_overhead;
    section "harness.kind_s"
      (fun () -> Experiments.translator_kind_ablation ())
      Experiments.pp_kind;
    section "harness.other_s"
      (fun () -> Experiments.ucode_entries_ablation ())
      (sweep "Microcode cache capacity (8 hot loops round-robin, 8 lanes)"
         "Entries");
    section "harness.other_s"
      (fun () -> Experiments.buffer_ablation ())
      (sweep "Microcode buffer capacity (101.tomcatv, largest loop 63 uops)"
         "Capacity");
    section "harness.other_s"
      (fun () -> Experiments.bus_ablation ())
      (sweep "Vector memory bus width (FIR, 16 lanes)" "Bus bytes");
    section "harness.other_s"
      (fun () -> Experiments.interrupt_ablation ())
      (sweep "Context-switch interval in cycles (FFT, 8 lanes; 0 = never)"
         "Interval");
    let after = Runner.cache_counters () in
    memo :=
      ( after.Lru.l_hits - before.Lru.l_hits,
        after.Lru.l_misses - before.Lru.l_misses );
    let same = String.equal (Buffer.contents buf) Expected_report.text in
    if not same then
      prerr_endline "perfbench: report differs from expected/report.txt";
    op same
  in
  {
    name = "report";
    unit_of_work =
      "Runner.clear_cache, then the 13 Experiments calls of `liquid_cli \
       report`, rendered into a buffer";
    setup = (fun ~seed:_ ~smoke:_ -> unit_of_work);
  }

(* Geomeans of baseline cycles / variant cycles over the 15 workloads.
   The model is deterministic, so a different value is a changed
   simulation result, not noise. *)
let expected_speedups =
  [ ("liquid8", 2.9449); ("vla8", 2.9177); ("rvv8", 3.2077) ]

let sweep_variants =
  [
    ("baseline", "baseline");
    ("liquid8", "liquid:8");
    ("vla8", "vla:8");
    ("rvv8", "rvv:8");
  ]

let tally_run (run : Cpu.run) =
  let module S = Liquid_machine.Stats in
  let s = run.Cpu.stats in
  counti "sim.cycles" s.S.cycles;
  counti "sim.insns" (S.total_insns s);
  counti "pipeline.image_fetches" s.S.fetches;
  counti "pipeline.uops_retired" s.S.uops_retired;
  counti "pipeline.blocks_compiled" run.Cpu.blocks_compiled;
  counti "pipeline.block_execs" run.Cpu.block_execs;
  counti "pipeline.superblock_iters" run.Cpu.superblock_iters;
  counti "pipeline.superblock_bailouts" run.Cpu.superblock_bailouts;
  counti "sim.pred_masked" run.Cpu.pred_masked_iters;
  counti "sim.pred_execs" run.Cpu.vla_pred_execs;
  counti "translate.sessions_started" s.S.translations_started;
  counti "translate.sessions_aborted" s.S.translations_aborted;
  counti "translate.busy_cycles" s.S.translation_busy_cycles;
  counti "sim.icache_misses" s.S.icache_misses;
  counti "sim.icache_accesses" (s.S.icache_hits + s.S.icache_misses);
  counti "sim.dcache_misses" s.S.dcache_misses;
  counti "sim.dcache_accesses" (s.S.dcache_hits + s.S.dcache_misses);
  counti "sim.mispredicts" s.S.branch_mispredicts;
  counti "sim.branches" s.S.branches;
  counti "sim.ucode_hits" s.S.ucode_hits;
  counti "sim.region_calls" s.S.region_calls;
  counti "machine.ucode_evictions" s.S.ucode_evictions

(* One fresh simulation per (workload, variant), each followed by the
   snapshot path of `liquid_cli report WORKLOAD`. The seed shuffles the
   visit order. *)
let sweep =
  let setup ~seed ~smoke:_ =
    let workloads = Workload.all () in
    List.iter
      (fun w ->
        ignore (Oracle.reference w);
        ignore (Oracle.junk_mask w))
      workloads;
    let variants =
      List.map
        (fun (key, spelling) ->
          let v = variant spelling in
          (key, v, Runner.config_of v))
        sweep_variants
    in
    let jobs =
      shuffle ~seed
        (List.concat_map
           (fun w -> List.map (fun v -> (w, v)) variants)
           workloads)
    in
    let simulate (w : Workload.t) (key, variant, config) =
      let program =
        Span.with_ "scalarize.codegen_s" (fun () -> Runner.program_of w variant)
      in
      let image =
        Span.with_ "prog.layout_s" (fun () -> Image.of_program program)
      in
      let run =
        Span.with_ ("pipeline.cpu_run_s." ^ key) (fun () ->
            Cpu.run ~config image)
      in
      tally_run run;
      let oracle_ok =
        key = "baseline"
        || Span.with_ "faults.oracle_check_s" (fun () ->
               Result.is_ok (Oracle.check w image run))
      in
      let snapshot_errors =
        Span.with_ "obs.snapshot_s" (fun () ->
            let snap = Runner.snapshot { Runner.variant; program; run } in
            Liquid_obs.Snapshot.violations snap
            @ Liquid_obs.Schema.snapshot (Liquid_obs.Snapshot.to_json snap))
      in
      if not oracle_ok then
        Printf.eprintf "perfbench: %s %s diverges from the scalar reference\n%!"
          w.name key;
      List.iter
        (Printf.eprintf "perfbench: %s %s snapshot: %s\n%!" w.name key)
        snapshot_errors;
      ( run.Cpu.stats.Liquid_machine.Stats.cycles,
        oracle_ok && snapshot_errors = [] )
    in
    fun _ ->
      let cycles = Hashtbl.create 64 in
      List.iter
        (fun ((w : Workload.t), ((key, _, _) as v)) ->
          match simulate w v with
          | c, ok ->
              Hashtbl.replace cycles (w.name, key) c;
              op ok
          | exception e ->
              Printf.eprintf "perfbench: %s %s raised %s\n%!" w.name key
                (Printexc.to_string e);
              op false)
        jobs;
      List.iter
        (fun (key, want) ->
          let logs =
            List.filter_map
              (fun (w : Workload.t) ->
                match
                  ( Hashtbl.find_opt cycles (w.name, "baseline"),
                    Hashtbl.find_opt cycles (w.name, key) )
                with
                | Some b, Some c ->
                    Some (log (float_of_int b /. float_of_int c))
                | _ -> None)
              workloads
          in
          let geomean =
            exp
              (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
          in
          count ("speedup_" ^ key ^ "_geomean") geomean;
          if Float.abs (geomean -. want) > 5e-5 then
            complain
              (Printf.sprintf "speedup_%s_geomean is %.6f, expected %.4f" key
                 geomean want))
        expected_speedups
  in
  {
    name = "sweep";
    unit_of_work =
      "15 workloads x {baseline, liquid:8, vla:8, rvv:8}: program_of, \
       Image.of_program, Cpu.run, Oracle.check, snapshot + schema";
    setup;
  }

(* A seeded differential-fuzz campaign. Each unit index draws its own
   campaign seed from --seed, so a run's median is taken over many case
   mixes and the cost spread between single campaigns averages out. *)
let fuzz =
  let module Campaign = Liquid_fuzz.Campaign in
  let module Differ = Liquid_fuzz.Differ in
  let setup ~seed ~smoke =
    let cases = if smoke then 10 else 100 in
    fun i ->
      let seed = Random.State.bits (Random.State.make [| seed; i |]) in
      if !Span.enabled then
        (* Campaign.run's loop, unrolled so each call gets a span. *)
        for index = 0 to cases - 1 do
          let p =
            Span.with_ "fuzz.gen_s" (fun () ->
                Liquid_fuzz.Gen.generate ~seed ~index)
          in
          let o =
            Span.with_ "fuzz.differ_s" (fun () ->
                Differ.run_case
                  ~fault_seed:(Campaign.fault_seed_of ~seed ~index)
                  p)
          in
          counti "fuzz.runs" o.Differ.o_runs;
          counti "fuzz.installs" o.Differ.o_installs;
          List.iter (fun (_, n) -> counti "fuzz.aborts" n) o.Differ.o_aborts;
          op (o.Differ.o_divergences = [])
        done
      else begin
        let r = Campaign.run ~domains:1 ~seed ~cases () in
        counti "fuzz.runs" r.Campaign.r_runs;
        counti "fuzz.installs" r.Campaign.r_installs;
        List.iter (fun (_, n) -> counti "fuzz.aborts" n) r.Campaign.r_aborts;
        ops r.Campaign.r_cases ~failures:(List.length r.Campaign.r_divergent)
      end
  in
  {
    name = "fuzz";
    unit_of_work =
      "Liquid_fuzz.Campaign.run ~domains:1 over 100 generated cases";
    setup;
  }

(* The scalar retirement stream of one region call from the image's
   initial state, recorded the way Offline drives the translator. *)
let record_events (image : Image.t) entry =
  let mem = Liquid_machine.Memory.create () in
  Image.load_memory image mem;
  let ctx = Sem.create_ctx mem in
  let events = ref [] in
  let rec step pc =
    match image.Image.code.(pc) with
    | Liquid_visa.Minsn.V _ -> failwith "vector instruction inside a region"
    | Liquid_visa.Minsn.S insn -> (
        let outcome, eff = Sem.step_scalar ctx ~pc insn in
        events :=
          Liquid_translate.Event.make ~pc ?value:eff.Sem.value insn :: !events;
        match outcome with
        | Sem.Next -> step (pc + 1)
        | Sem.Jump t -> step t
        | Sem.Return | Sem.Stop | Sem.Call _ -> ())
  in
  step entry;
  Array.of_list (List.rev !events)

(* Every region of the 15 Liquid images through every backend and lane
   count, each session then replayed from its recorded events. The seed
   shuffles the order. *)
let translate =
  let setup ~seed ~smoke:_ =
    let liquid = variant "liquid:8" in
    let images =
      List.map
        (fun w ->
          let image = Image.of_program (Runner.program_of w liquid) in
          let events = Hashtbl.create 8 in
          List.iter
            (fun (entry, _) ->
              Hashtbl.replace events entry (record_events image entry))
            image.Image.region_entries;
          (image, events))
        (Workload.all ())
    in
    let jobs =
      shuffle ~seed
        (List.concat_map
           (fun image ->
             List.concat_map
               (fun backend ->
                 List.map
                   (fun lanes -> (image, backend, lanes))
                   [ 2; 4; 8; 16 ])
               Backend.all)
           images)
    in
    let round_trip (image : Image.t) =
      let code = image.Image.code in
      if Encode.decode (Encode.encode code) <> code then
        complain (image.Image.name ^ ": encode/decode round trip differs")
    in
    let replay backend lanes stream =
      let tr =
        Translator.create (Translator.default_config ~backend ~lanes ())
      in
      Array.iter (Translator.feed tr) stream;
      Translator.finish tr
    in
    fun _ ->
      List.iter
        (fun (image, _) ->
          Span.with_ "prog.encode_decode_s" (fun () -> round_trip image))
        images;
      List.iter
        (fun (((image : Image.t), events), backend, lanes) ->
          let span = "translate.offline_s." ^ Backend.name_of backend in
          match
            Span.with_ span (fun () ->
                Offline.translate_all ~backend ~image ~lanes ())
          with
          | exception Diag.Error d ->
              Printf.eprintf "perfbench: %s: %s\n%!" image.Image.name
                (Diag.to_string d);
              let n = List.length image.Image.region_entries in
              ops n ~failures:n
          | results ->
              List.iter
                (fun (entry, _, result) ->
                  let stream = Hashtbl.find events entry in
                  let replayed =
                    Span.with_ "translate.feed_s" (fun () ->
                        replay backend lanes stream)
                  in
                  counti "translate.translations" 1;
                  counti "translate.events_fed" (Array.length stream);
                  (match result with
                  | Translator.Translated _ -> counti "translate.installs" 1
                  | Translator.Aborted _ -> ());
                  op (replayed = result))
                results)
        jobs
  in
  {
    name = "translate";
    unit_of_work =
      "Offline.translate_all over 15 Liquid images x {fixed, vla, rvv} x \
       lanes {2, 4, 8, 16}, each session replayed from recorded events, \
       plus an encode/decode round trip per image";
    setup;
  }

let workloads = [ report; sweep; fuzz; translate ]

(* --- one unit, timed --- *)

type sample = {
  wall : float;
  cpu : float;
  minor : float;
  major : float;
  spans : (Span.t * float) list;  (** each span with its self time *)
  unit_counts : (string * float) list;
  memo_hits : int;
  memo_misses : int;
}

let run_unit ~traced run i =
  Hashtbl.reset counts;
  memo := (0, 0);
  Span.recorded := [];
  Gc.full_major ();
  Span.enabled := traced;
  Span.unit_ix := i;
  let g0 = Gc.quick_stat () in
  let c0 = Unix.times () in
  let t0 = Monotonic_clock.now () in
  Span.with_ "bench.unit" (fun () -> run i);
  let wall = seconds_since t0 in
  let c1 = Unix.times () in
  let g1 = Gc.quick_stat () in
  Span.enabled := false;
  let cpu_time (t : Unix.process_times) =
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  {
    wall;
    cpu = cpu_time c1 -. cpu_time c0;
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_words -. g0.Gc.major_words;
    spans = Span.self_times !Span.recorded;
    unit_counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    memo_hits = fst !memo;
    memo_misses = snd !memo;
  }

(* --- metrics --- *)

let ratio a b = if b = 0. then 0. else a /. b

let sum_spans (s : sample) keep value =
  List.fold_left
    (fun acc (sp, self) -> if keep sp then acc +. value sp self else acc)
    0. s.spans

let self_time s name =
  sum_spans s (fun sp -> sp.Span.name = name) (fun _ self -> self)

let cpu_run_s s =
  List.fold_left
    (fun acc (key, _) -> acc +. self_time s ("pipeline.cpu_run_s." ^ key))
    0. sweep_variants

let offline_s s =
  List.fold_left
    (fun acc b ->
      acc +. self_time s ("translate.offline_s." ^ Backend.name_of b))
    0. Backend.all

(* Share of the unit's root span covered by its direct children, the
   spans around library calls. *)
let coverage s =
  match List.find_opt (fun (sp, _) -> sp.Span.parent = -1) s.spans with
  | None -> 0.
  | Some (root, _) ->
      ratio
        (sum_spans s
           (fun sp -> sp.Span.parent = root.Span.id)
           (fun sp _ -> Span.duration sp))
        (Span.duration root)

(* Per-layer metrics of one traced unit, each named after the lib/
   module whose calls it measures. A layer the workload does not
   exercise reads 0. *)
let per_layer : (string * string * (sample -> float)) list =
  let span name = (name, "s", fun s -> self_time s name) in
  let c s name = Option.value ~default:0. (List.assoc_opt name s.unit_counts) in
  let counted name = (name, "count", fun s -> c s name) in
  let rate name num den = (name, "ratio", fun s -> ratio (c s num) (c s den)) in
  [
    span "harness.figure6_s";
    span "harness.latency_s";
    span "harness.kind_s";
    span "harness.table6_s";
    span "harness.overhead_s";
    span "harness.other_s";
    ( "harness.memo_hit_rate",
      "ratio",
      fun s ->
        let hits = float_of_int s.memo_hits in
        ratio hits (hits +. float_of_int s.memo_misses) );
    ("host.cpu_per_wall", "ratio", fun s -> ratio s.cpu s.wall);
    ("host.minor_mwords", "Mwords", fun s -> s.minor /. 1e6);
    ("host.major_mwords", "Mwords", fun s -> s.major /. 1e6);
    span "scalarize.codegen_s";
    span "prog.layout_s";
    span "prog.encode_decode_s";
    span "pipeline.cpu_run_s.baseline";
    span "pipeline.cpu_run_s.liquid8";
    span "pipeline.cpu_run_s.vla8";
    span "pipeline.cpu_run_s.rvv8";
    ( "pipeline.ns_per_insn",
      "ns",
      fun s -> 1e9 *. ratio (cpu_run_s s) (c s "sim.insns") );
    ( "pipeline.minor_words_per_insn",
      "words",
      fun s ->
        ratio
          (sum_spans s
             (fun sp ->
               String.starts_with ~prefix:"pipeline.cpu_run_s." sp.Span.name)
             (fun sp _ -> sp.Span.minor_words))
          (c s "sim.insns") );
    ( "pipeline.sim_mcycles_per_s",
      "Mcycles/s",
      fun s -> ratio (c s "sim.cycles" /. 1e6) (cpu_run_s s) );
    counted "pipeline.image_fetches";
    counted "pipeline.uops_retired";
    counted "pipeline.blocks_compiled";
    counted "pipeline.block_execs";
    counted "pipeline.superblock_iters";
    counted "pipeline.superblock_bailouts";
    rate "pipeline.pred_masked_share" "sim.pred_masked" "sim.pred_execs";
    ( "pipeline.step_s",
      "s",
      fun s -> offline_s s -. self_time s "translate.feed_s" );
    span "translate.offline_s.fixed";
    span "translate.offline_s.vla";
    span "translate.offline_s.rvv";
    span "translate.feed_s";
    counted "translate.events_fed";
    rate "translate.install_share" "translate.installs"
      "translate.translations";
    counted "translate.sessions_started";
    counted "translate.sessions_aborted";
    counted "translate.busy_cycles";
    rate "machine.icache_miss_rate" "sim.icache_misses" "sim.icache_accesses";
    rate "machine.dcache_miss_rate" "sim.dcache_misses" "sim.dcache_accesses";
    rate "machine.mispredict_rate" "sim.mispredicts" "sim.branches";
    rate "machine.ucode_hit_rate" "sim.ucode_hits" "sim.region_calls";
    counted "machine.ucode_evictions";
    span "obs.snapshot_s";
    span "faults.oracle_check_s";
    span "fuzz.gen_s";
    span "fuzz.differ_s";
    counted "fuzz.runs";
    counted "fuzz.installs";
    counted "fuzz.aborts";
    ( "fuzz.ms_per_run",
      "ms",
      fun s -> 1e3 *. ratio (self_time s "fuzz.differ_s") (c s "fuzz.runs") );
    ("trace.coverage", "ratio", coverage);
  ]

(* statistics.quantiles(xs, n=4) (method "exclusive"), so these
   quartiles agree with Python's; the middle one is the median. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

type metric = { m_name : string; m_unit : string; m_values : float list }

let metric_json m =
  let q1, median, q3 = quartiles m.m_values in
  Json.Obj
    [
      ("unit", Json.Str m.m_unit);
      ("median", Json.Float median);
      ("q1", Json.Float q1);
      ("q3", Json.Float q3);
      ("n", Json.Int (List.length m.m_values));
    ]

(* --- one workload in this process --- *)

(* Set-up is timed in fresh processes, from spawn to exit, so library
   initialisation and the process-wide memo tables count and every
   sample starts cold. *)
let setup_samples = 7

let time_setup_child name ~seed =
  let exe = Sys.executable_name in
  let t0 = Monotonic_clock.now () in
  let pid =
    Unix.create_process exe
      [| exe; name; "--seed"; string_of_int seed; "--setup-only" |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let dt = seconds_since t0 in
  if status <> Unix.WEXITED 0 then complain "set-up child failed";
  dt

let write_trace file traced =
  let spans = List.concat_map (fun s -> List.map fst s.spans) traced in
  Out_channel.with_open_text file (fun oc ->
      Json.to_channel ~pretty:false oc (Span.to_chrome spans));
  let back = In_channel.with_open_text file In_channel.input_all in
  if Result.is_error (Json.of_string back) then
    complain (file ^ " does not parse back")

(* Self time per layer, median over the traced units. *)
let layer_self_times traced =
  let layers =
    List.sort_uniq compare
      (List.concat_map
         (fun s -> List.map (fun (sp, _) -> Span.layer sp) s.spans)
         traced)
  in
  List.map
    (fun layer ->
      let per_unit s =
        sum_spans s (fun sp -> Span.layer sp = layer) (fun _ self -> self)
      in
      (layer, Json.Float (median (List.map per_unit traced))))
    layers

let run_workload w ~seed ~seconds ~trace_file ~smoke =
  let setup_times =
    if smoke then []
    else List.init setup_samples (fun _ -> time_setup_child w.name ~seed)
  in
  let t0 = Monotonic_clock.now () in
  let run = w.setup ~seed ~smoke in
  let setup_times = if smoke then [ seconds_since t0 ] else setup_times in
  if not smoke then ignore (run_unit ~traced:false run 0);
  attempted := 0;
  failed := 0;
  let traced_mode = smoke || trace_file <> None in
  let plain = ref [] and traced = ref [] in
  let start = Monotonic_clock.now () in
  let i = ref 1 in
  while !i = 1 || ((not smoke) && seconds_since start < seconds) do
    let p = run_unit ~traced:false run !i in
    plain := p :: !plain;
    if traced_mode then begin
      let t = run_unit ~traced:true run !i in
      if t.unit_counts <> p.unit_counts then
        complain
          (Printf.sprintf "unit %d: traced and untraced counts differ" !i);
      traced := t :: !traced
    end;
    incr i
  done;
  let plain = List.rev !plain and traced = List.rev !traced in
  let walls samples = List.map (fun s -> s.wall) samples in
  let peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let end_to_end =
    [
      { m_name = "wall_s"; m_unit = "s"; m_values = walls plain };
      { m_name = "setup_s"; m_unit = "s"; m_values = setup_times };
      { m_name = "peak_heap_mb"; m_unit = "MB"; m_values = [ peak_mb ] };
    ]
  in
  let layers () =
    List.map
      (fun (m_name, m_unit, f) ->
        { m_name; m_unit; m_values = List.map f traced })
      per_layer
    @ [
        {
          m_name = "trace.overhead";
          m_unit = "ratio";
          m_values = [ (median (walls traced) /. median (walls plain)) -. 1. ];
        };
      ]
  in
  let mode, reported =
    match (smoke, trace_file) with
    | true, _ -> ("smoke", end_to_end @ layers ())
    | false, None -> ("untraced", end_to_end)
    | false, Some file ->
        write_trace file traced;
        ("traced", layers ())
  in
  let ok = !correct && !failed = 0 in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str w.name);
        ("unit_of_work", Json.Str w.unit_of_work);
        ("seed", Json.Int seed);
        ("seconds", Json.Float seconds);
        ("mode", Json.Str mode);
        ("correct", Json.Bool ok);
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj (List.map (fun m -> (m.m_name, metric_json m)) reported) );
        ( "counts",
          Json.Obj
            (List.map
               (fun (k, v) -> (k, Json.Float v))
               (List.hd plain).unit_counts) );
        ("layer_self_s", Json.Obj (layer_self_times traced));
      ]
  in
  print_endline (Json.to_string ~pretty:true doc);
  let value m =
    Json.Obj
      [ ("value", Json.Float (median m.m_values)); ("unit", Json.Str m.m_unit) ]
  in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ( "metrics",
              Json.Obj (List.map (fun m -> (m.m_name, value m)) reported) );
          ]))

(* --- all: each workload in a fresh child process --- *)

let run_child args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let what = String.concat " " args in
  if status <> Unix.WEXITED 0 then failwith (what ^ ": child failed");
  (* Everything before the final result line is the metrics document. *)
  let body =
    String.sub out 0 (String.rindex_from out (String.length out - 2) '\n')
  in
  match Json.of_string body with
  | Ok doc -> doc
  | Error e -> failwith (what ^ ": " ^ e)

let member path doc =
  List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) path

let spec_names spec key =
  match member [ key ] spec with
  | Some (Json.List l) ->
      List.filter_map
        (fun m ->
          match Json.member "name" m with
          | Some (Json.Str s) -> Some s
          | _ -> None)
        l
  | _ -> []

(* The smoke checks: outputs correct, no failed op, the metric names
   BENCHMARK.json lists, and results that do not depend on the seed's
   visit order (sweep, translate), while fuzz inputs do depend on it. *)
let smoke_check ~spec_file ~seed docs =
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let spec =
    let text = In_channel.with_open_text spec_file In_channel.input_all in
    match Json.of_string text with
    | Ok s -> s
    | Error e -> failwith (spec_file ^ ": " ^ e)
  in
  let want =
    List.sort compare
      (spec_names spec "end_to_end" @ spec_names spec "per_layer")
  in
  List.iter
    (fun (name, doc) ->
      if member [ "correct" ] doc <> Some (Json.Bool true) then
        error "%s: not correct" name;
      if member [ "failed" ] doc <> Some (Json.Int 0) then
        error "%s: failed ops" name;
      let got =
        match member [ "metrics" ] doc with
        | Some (Json.Obj fields) -> List.sort compare (List.map fst fields)
        | _ -> []
      in
      if got <> want then
        error "%s: metric names differ from %s" name spec_file)
    docs;
  List.iter
    (fun name ->
      let other =
        run_child [ name; "--seed"; string_of_int (seed + 1); "--smoke" ]
      in
      let counts path doc = member ("counts" :: path) doc in
      let mine = List.assoc name docs in
      if name = "fuzz" then begin
        let installs = counts [ "fuzz.installs" ] in
        if installs mine = installs other then
          error "fuzz: fuzz.installs does not change with the seed"
      end
      else if not (Option.equal Json.equal (counts [] mine) (counts [] other))
      then error "%s: deterministic counts change with the seed" name)
    [ "sweep"; "translate"; "fuzz" ];
  List.iter
    (fun e -> prerr_endline ("perfbench smoke: " ^ e))
    (List.rev !errors);
  !errors = []

(* One line of history.jsonl: per workload, every metric's median,
   quartiles and sample count. *)
let run_all ~seed ~seconds ~smoke ~spec_file ~commit =
  let args name =
    [ name; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" seconds ]
    @ if smoke then [ "--smoke" ] else []
  in
  let docs = List.map (fun w -> (w.name, run_child (args w.name))) workloads in
  let summary doc =
    Json.Obj
      (List.filter_map
         (fun k -> Option.map (fun v -> (k, v)) (member [ k ] doc))
         [ "correct"; "attempted"; "failed"; "metrics" ])
  in
  print_endline
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ( "commit",
              Option.fold ~none:Json.Null ~some:(fun c -> Json.Str c) commit );
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ( "workloads",
              Json.Obj (List.map (fun (n, d) -> (n, summary d)) docs) );
          ]));
  if smoke && not (smoke_check ~spec_file ~seed docs) then exit 1

(* --- history: each metric's trend over the recorded sets --- *)

let history file =
  let records =
    In_channel.with_open_text file In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l ->
           match Json.of_string l with
           | Ok r -> r
           | Error e -> failwith (file ^ ": " ^ e))
  in
  List.iteri
    (fun i r ->
      let commit =
        match member [ "commit" ] r with Some (Json.Str c) -> c | _ -> "?"
      in
      Printf.printf "set %d: commit %s\n" (i + 1) commit)
    records;
  List.iter
    (fun w ->
      let metrics =
        List.sort_uniq compare
          (List.concat_map
             (fun r ->
               match member [ "workloads"; w.name; "metrics" ] r with
               | Some (Json.Obj f) -> List.map fst f
               | _ -> [])
             records)
      in
      List.iter
        (fun m ->
          let cell r =
            let field k = member [ "workloads"; w.name; "metrics"; m; k ] r in
            match (field "median", field "q1", field "q3") with
            | Some (Json.Float v), Some (Json.Float q1), Some (Json.Float q3) ->
                Printf.sprintf "%.4g [%.4g, %.4g]" v q1 q3
            | _ -> "-"
          in
          Printf.printf "%-10s %-13s %s\n" w.name m
            (String.concat " -> " (List.map cell records)))
        metrics)
    workloads

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: bench.exe (report|sweep|fuzz|translate) [--seed N] [--seconds S] \
     [--trace FILE] [--smoke]\n\
    \       bench.exe all [--seed N] [--seconds S] [--smoke] [--spec FILE] \
     [--commit C]\n\
    \       bench.exe history [FILE]";
  exit 2

let () =
  let seed = ref 2026 and seconds = ref 25. and trace_file = ref None in
  let smoke = ref false and setup_only = ref false in
  let spec_file = ref "BENCHMARK.json" and commit = ref None in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest ->
        seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
        parse rest
    | "--seconds" :: s :: rest ->
        seconds :=
          (match float_of_string_opt s with Some s -> s | None -> usage ());
        parse rest
    | "--trace" :: f :: rest ->
        trace_file := Some f;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--setup-only" :: rest ->
        setup_only := true;
        parse rest
    | "--spec" :: f :: rest ->
        spec_file := f;
        parse rest
    | "--commit" :: c :: rest ->
        commit := Some c;
        parse rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "history" ] -> history "perfbench/history.jsonl"
  | [ "history"; file ] -> history file
  | "all" :: rest ->
      parse rest;
      run_all ~seed:!seed ~seconds:!seconds ~smoke:!smoke ~spec_file:!spec_file
        ~commit:!commit
  | name :: rest -> (
      parse rest;
      match List.find_opt (fun w -> w.name = name) workloads with
      | None -> usage ()
      | Some w when !setup_only ->
          ignore (w.setup ~seed:!seed ~smoke:false : int -> unit)
      | Some w ->
          run_workload w ~seed:!seed ~seconds:!seconds ~trace_file:!trace_file
            ~smoke:!smoke)
  | [] -> usage ()
