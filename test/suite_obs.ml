(* The observability layer.

   Unit tests for the lib/obs building blocks (JSON tree + parser,
   power-of-two histograms), then the heavyweight guarantee: the conservation
   invariants of [Snapshot.violations] hold for every workload at every
   accelerator width under baseline, Liquid, oracle-translation and
   seeded fault injection. Any counter that acquires a second writer —
   the dual eviction bookkeeping this PR removed, for instance — fails
   here on every row at once. A snapshot reads only the run record, so
   the block engine's own counters (the registry's [engine] marker) are
   the only place a stepping run's snapshot may differ. *)

open Liquid_prog
open Liquid_harness
open Liquid_workloads
module Cpu = Liquid_pipeline.Cpu
module Stats = Liquid_machine.Stats
module Cache = Liquid_machine.Cache
module Branch_pred = Liquid_machine.Branch_pred
module Ucode_cache = Liquid_pipeline.Ucode_cache
module Json = Liquid_obs.Json
module Hist = Liquid_obs.Hist
module Collector = Liquid_obs.Collector
module Snapshot = Liquid_obs.Snapshot
module Schema = Liquid_obs.Schema

let find name = match Workload.find name with Some w -> w | None -> assert false

(* --- Json --- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.Str "a \"quoted\"\nline\twith \\ and \x01");
      ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [] ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.of_string (Json.to_string ~pretty sample_json) with
      | Ok j ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip (pretty=%b)" pretty)
            true (Json.equal sample_json j)
      | Error e -> Alcotest.failf "re-parse failed: %s" e)
    [ true; false ]

let test_json_parse () =
  (match Json.of_string {| {"a": [1, 2.5, "Aé"], "b": {"c": null}} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      (match Json.member "a" j with
      | Some (Json.List [ Json.Int 1; Json.Float 2.5; Json.Str s ]) ->
          Alcotest.(check string) "unicode escapes decode" "A\xc3\xa9" s
      | _ -> Alcotest.fail "field a has the wrong shape");
      match Json.member "b" j with
      | Some b ->
          Alcotest.(check bool)
            "nested member" true
            (Json.member "c" b = Some Json.Null)
      | None -> Alcotest.fail "field b missing"));
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

let test_json_nonfinite () =
  Alcotest.(check string)
    "non-finite floats emit as null" "[null,null,null]"
    (Json.to_string ~pretty:false
       (Json.List
          [ Json.Float Float.nan; Json.Float Float.infinity;
            Json.Float Float.neg_infinity ]))

(* --- Hist --- *)

let test_hist_buckets () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0; 1; 2; 3; 4; 7; 8; 1024; -5 ];
  Alcotest.(check int) "count" 9 (Hist.count h);
  Alcotest.(check int) "total (negative clamped)" 1049 (Hist.total h);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 1024 (Hist.max_value h);
  let buckets = ref [] in
  Hist.iter_buckets h (fun ~lo ~hi ~count -> buckets := (lo, hi, count) :: !buckets);
  Alcotest.(check (list (triple int int int)))
    "power-of-two bucket boundaries"
    [ (0, 0, 2); (1, 1, 1); (2, 3, 2); (4, 7, 2); (8, 15, 1); (1024, 2047, 1) ]
    (List.rev !buckets);
  match Json.member "count" (Hist.to_json h) with
  | Some (Json.Int 9) -> ()
  | _ -> Alcotest.fail "to_json count field"

(* --- the invariant matrix --- *)

let widths = [ 2; 4; 8; 16 ]

let matrix_variants =
  Runner.Baseline
  :: List.concat_map
       (fun w -> [ Helpers.liquid w; Helpers.liquid ~oracle:true w ])
       widths

(* The explicit single-writer assertions the issue calls out: the Stats
   mirror of each unit counter must equal the unit's own tally. These
   are also inside [Snapshot.violations]; stating them directly keeps
   the guarantee visible even if the violation list is refactored. *)
let explicit_mirror_mismatches (run : Cpu.run) =
  let s = run.Cpu.stats in
  let bad = ref [] in
  let expect name a b =
    if a <> b then bad := Printf.sprintf "%s: %d <> %d" name a b :: !bad
  in
  let ic = run.Cpu.icache_counters and dc = run.Cpu.dcache_counters in
  expect "icache hits" s.Stats.icache_hits ic.Cache.c_hits;
  expect "icache misses" s.Stats.icache_misses ic.Cache.c_misses;
  expect "dcache hits" s.Stats.dcache_hits dc.Cache.c_hits;
  expect "dcache misses" s.Stats.dcache_misses dc.Cache.c_misses;
  expect "branches" s.Stats.branches run.Cpu.bpred_counters.Branch_pred.p_lookups;
  expect "mispredicts" s.Stats.branch_mispredicts
    run.Cpu.bpred_counters.Branch_pred.p_mispredicts;
  expect "ucode installs" s.Stats.ucode_installs
    run.Cpu.ucache_counters.Ucode_cache.u_installs;
  expect "ucode evictions" s.Stats.ucode_evictions
    run.Cpu.ucache_counters.Ucode_cache.u_evictions;
  List.rev !bad

let check_case label (problems : string list) =
  if problems <> [] then
    Alcotest.failf "%s:@.  %s" label (String.concat "\n  " problems)

let test_invariant_matrix () =
  let jobs =
    List.concat_map
      (fun (w : Workload.t) -> List.map (fun v -> (w, v)) matrix_variants)
      (Workload.all ())
  in
  let results =
    Runner.run_many
      (fun ((w : Workload.t), v) ->
        let result = Runner.run_cached w v in
        let snap = Runner.snapshot result in
        let label =
          Printf.sprintf "%s / %s" w.Workload.name (Runner.variant_name v)
        in
        let problems =
          Snapshot.violations snap
          @ explicit_mirror_mismatches result.Runner.run
          @ List.map
              (fun e -> "schema: " ^ e)
              (Schema.snapshot (Snapshot.to_json snap))
        in
        (label, problems))
      jobs
  in
  Alcotest.(check int)
    "matrix covers all workloads x (baseline + liquid/oracle per width)"
    (List.length (Workload.all ()) * (1 + (2 * List.length widths)))
    (List.length results);
  List.iter (fun (label, problems) -> check_case label problems) results

(* The engine marker is the whole difference between the two engines'
   snapshots: for every workload under the baseline and the three
   translating backends, the default run and its [blocks = false] twin
   agree on every counter outside the marked sections, every region and
   every histogram, and the stepping run's marked counters are 0. *)
let test_engine_marker () =
  let marked =
    List.filter_map
      (fun (c : Snapshot.counter) ->
        if c.Snapshot.engine then Some (c.Snapshot.section ^ "." ^ c.Snapshot.key)
        else None)
      Snapshot.registry
  in
  Alcotest.(check (list string))
    "marked counters"
    [ "superblocks.compiled"; "superblocks.iterations"; "superblocks.bailouts" ]
    marked;
  let variants =
    List.map
      (fun s -> Result.get_ok (Runner.variant_of_string s))
      [ "baseline"; "liquid:8"; "vla:8"; "rvv:8" ]
  in
  let engine_ran = ref false in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun v ->
          let what = Printf.sprintf "%s / %s" w.Workload.name (Runner.variant_name v) in
          let on = Runner.snapshot (Runner.run_cached w v) in
          let off = Runner.snapshot (Runner.run ~blocks:false w v) in
          List.iteri
            (fun i (c : Snapshot.counter) ->
              let name = c.Snapshot.section ^ "." ^ c.Snapshot.key in
              if c.Snapshot.engine then begin
                Alcotest.(check int)
                  (what ^ ": stepping " ^ name) 0 off.Snapshot.s_counters.(i);
                if on.Snapshot.s_counters.(i) <> 0 then engine_ran := true
              end
              else
                Alcotest.(check int)
                  (what ^ ": " ^ name) off.Snapshot.s_counters.(i)
                  on.Snapshot.s_counters.(i))
            Snapshot.registry;
          Alcotest.(check bool)
            (what ^ ": regions") true
            (off.Snapshot.s_regions = on.Snapshot.s_regions);
          List.iter
            (fun (name, h) ->
              Alcotest.(check string)
                (what ^ ": histogram " ^ name)
                (Json.to_string (Hist.to_json (h off)))
                (Json.to_string (Hist.to_json (h on))))
            Snapshot.histograms)
        variants)
    (Workload.all ());
  Alcotest.(check bool) "the marked counters move on the engine" true !engine_ran

(* Fixed-seed fault targets: the invariants must also hold while the
   translation path is being actively attacked. Every workload at width
   8 gets every abort class, a corrupted feed, a mid-run eviction and a
   watchdog budget, each at a seeded site inside its clean run's space.
   Runs stopped by the fuel watchdog return [Error] and have no final
   counters to check; they are skipped. *)
let test_fault_campaign_invariants () =
  let module F = Liquid_faults.Fault in
  let width = 8 in
  let rng = F.Rng.make 2007 in
  let targets =
    List.concat_map
      (fun (w : Workload.t) ->
        let sp = Helpers.fault_space w ~width in
        let site n = F.Rng.int rng n in
        List.map
          (fun abort -> F.Force_abort { site = site sp.F.sp_feeds; abort })
          Liquid_translate.Abort.all
        @ [
            F.Corrupt_feed { site = site sp.F.sp_feeds };
            F.Evict_ucode { call = site sp.F.sp_calls };
            F.Exhaust_fuel { budget = site sp.F.sp_retired };
          ]
        |> List.map (fun f -> (w, f)))
      (Workload.all ())
  in
  Alcotest.(check int)
    "every workload x every kind, every abort class"
    (List.length (Workload.all ()) * (List.length Liquid_translate.Abort.all + 3))
    (List.length targets);
  let results =
    Runner.run_many
      (fun ((w : Workload.t), fault) ->
        let label =
          Printf.sprintf "%s / width %d / %s" w.Workload.name width
            (F.to_string fault)
        in
        match Helpers.run_fault w ~width fault with
        | _, Error _ -> (label, [])
        | _, Ok run ->
            let snap =
              Snapshot.of_run ~label:w.Workload.name ~variant:"liquid/faulted"
                run
            in
            (label, Snapshot.violations snap @ explicit_mirror_mismatches run))
      targets
  in
  List.iter (fun (label, problems) -> check_case label problems) results

(* --- collector + snapshot plumbing on one real run --- *)

let test_collector_fir () =
  let w = find "FIR" in
  let program = Runner.program_of w (Helpers.liquid 8) in
  let tmp = Filename.temp_file "liquid_obs" ".jsonl" in
  let oc = open_out tmp in
  let collector = Collector.create ~jsonl:oc in
  let config = Collector.wrap collector (Cpu.liquid_config ~lanes:8) in
  let run = Cpu.run ~config (Image.of_program program) in
  close_out oc;
  (* one event per retired instruction and uop, per region call, and
     per translation outcome (installs also emit [T_translation]) *)
  let s = run.Cpu.stats in
  Alcotest.(check int)
    "collector counts every trace event"
    (s.Stats.fetches + s.Stats.uops_retired + s.Stats.region_calls
    + (2 * s.Stats.ucode_installs) + s.Stats.translations_aborted)
    (Collector.events collector);
  let lines =
    In_channel.with_open_text tmp In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove tmp;
  Alcotest.(check bool) "jsonl sink wrote events" true (lines <> []);
  let parsed =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "jsonl line does not parse (%s): %s" e l)
      lines
  in
  let has_type ty =
    List.exists (fun j -> Json.member "type" j = Some (Json.Str ty)) parsed
  in
  let seqs =
    List.map
      (fun j ->
        match Json.member "seq" j with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.fail "jsonl line without a seq")
      parsed
  in
  Alcotest.(check bool)
    "seq numbers trace events: increasing, within the total" true
    (List.sort_uniq compare seqs = seqs
    && List.for_all (fun n -> n <= Collector.events collector) seqs);
  Alcotest.(check bool) "stream has region events" true (has_type "region");
  Alcotest.(check bool) "stream has translation events" true (has_type "translation");
  let snap = Snapshot.of_run ~label:w.Workload.name ~variant:"liquid/8-wide" run in
  check_case "FIR snapshot invariants" (Snapshot.violations snap);
  check_case "FIR snapshot schema" (Schema.snapshot (Snapshot.to_json snap));
  Alcotest.(check int)
    "one latency sample per completed translation"
    run.Cpu.stats.Stats.ucode_installs
    (Hist.count snap.Snapshot.s_latency_hist);
  let csv = Snapshot.to_csv snap in
  List.iter
    (fun needle ->
      if not
           (List.exists
              (fun line -> String.length line >= String.length needle
                           && String.sub line 0 (String.length needle) = needle)
              (String.split_on_char '\n' csv))
      then Alcotest.failf "csv is missing a %S row" needle)
    [ "stats.cycles,"; "ucode_cache.installs,"; "hist.inter_call_gap_cycles.count," ]

let test_schema_rejects () =
  let snap = Runner.snapshot (Runner.run_cached (find "FFT") (Helpers.liquid 8)) in
  let strip name = function
    | Json.Obj fields -> Json.Obj (List.remove_assoc name fields)
    | j -> j
  in
  let null name j =
    match strip name j with Json.Obj fields -> Json.Obj ((name, Json.Null) :: fields) | j -> j
  in
  let rejects what doc =
    if Schema.snapshot doc = [] then Alcotest.failf "schema accepted %s" what
  in
  let json = Snapshot.to_json snap in
  List.iter
    (fun name -> rejects ("a document without " ^ name) (strip name json))
    ([ "schema"; "label"; "variant"; "regions"; "histograms"; "invariants" ]
    @ Snapshot.sections);
  (* every unit exists on every machine, so no section may be [null] *)
  List.iter
    (fun name -> rejects ("a null " ^ name ^ " section") (null name json))
    Snapshot.sections

(* Every registered invariant can fire: on a clean FIR liquid:8 snapshot,
   nudging one counter the invariant reads yields exactly that named
   violation. [icache-fetches] reads only counters that another
   invariant also reads, so its perturbation fires that one too. *)
let test_invariants_fire () =
  let snap = Runner.snapshot (Runner.run_cached (find "FIR") (Helpers.liquid 8)) in
  check_case "clean snapshot" (Snapshot.violations snap);
  let bump name (snap : Snapshot.t) =
    let values = Array.copy snap.Snapshot.s_counters in
    let i = Snapshot.index name in
    values.(i) <- values.(i) + 1;
    { snap with Snapshot.s_counters = values }
  in
  (* a fresh snapshot of the same run, so the shared one stays clean *)
  let extra_gap (_ : Snapshot.t) =
    let snap = Runner.snapshot (Runner.run_cached (find "FIR") (Helpers.liquid 8)) in
    Hist.add snap.Snapshot.s_gap_hist 0;
    snap
  in
  let cases =
    [
      ("insn-conservation", bump "stats.uops_retired", []);
      ("icache-mirror", bump "stats.icache_hits", []);
      ("icache-fetches", bump "stats.fetches", [ "insn-conservation" ]);
      ("dcache-mirror", bump "stats.dcache_hits", []);
      ("branch-mirror", bump "stats.branches", []);
      ("region-calls", bump "stats.region_calls", []);
      ("ucode-hits", bump "stats.ucode_hits", []);
      ("ucache-mirror", bump "stats.ucode_evictions", []);
      ("ucache-occupancy", bump "ucode_cache.replacements", []);
      ("translation-sessions", bump "stats.translations_aborted", []);
      ("gap-samples", extra_gap, []);
      ("pred-conservation", bump "predication.dispatched", []);
      ("perm-conservation", bump "permutation.seen", []);
    ]
  in
  Alcotest.(check (list string))
    "one perturbation per registered invariant"
    (List.map fst Snapshot.invariants)
    (List.map (fun (n, _, _) -> n) cases);
  List.iter
    (fun (name, perturb, also) ->
      let fired =
        List.map
          (fun v -> List.hd (String.split_on_char ':' v))
          (Snapshot.violations (perturb snap))
      in
      Alcotest.(check (list string))
        (name ^ " fires")
        (List.sort compare (name :: also))
        (List.sort compare fired))
    cases

let tests =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parse;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite;
    Alcotest.test_case "histogram buckets" `Quick test_hist_buckets;
    Alcotest.test_case "collector + snapshot on FIR" `Quick test_collector_fir;
    Alcotest.test_case "schema rejects malformed documents" `Quick
      test_schema_rejects;
    Alcotest.test_case "every invariant can fire" `Quick test_invariants_fire;
    Alcotest.test_case "invariant matrix (all workloads x variants x widths)"
      `Slow test_invariant_matrix;
    Alcotest.test_case "invariants under fault campaign" `Slow
      test_fault_campaign_invariants;
    Alcotest.test_case "engine marker: stepping snapshots differ only there"
      `Slow test_engine_marker;
  ]
