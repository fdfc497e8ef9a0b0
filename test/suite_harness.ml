(* Tests for the hardware cost model and the experiment harness. *)

open Liquid_harness
open Liquid_workloads
module Hwmodel = Liquid_hwmodel.Hwmodel
module Backend = Liquid_translate.Backend

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- hardware model: calibrated to the paper's Table 2 --- *)

let test_hwmodel_matches_paper () =
  let rep = Hwmodel.estimate Hwmodel.default_params in
  check "total cells" 174_117 rep.Hwmodel.total_cells;
  check "critical path" 16 rep.Hwmodel.crit_path_gates;
  Alcotest.(check (float 0.001)) "delay" 1.51 rep.Hwmodel.crit_path_ns;
  check_bool "under 0.2 mm^2" true (rep.Hwmodel.area_mm2 < 0.2)

let test_hwmodel_register_state_share () =
  (* "this structure comprises 55% of the control generator die area" *)
  let rep = Hwmodel.estimate Hwmodel.default_params in
  let share =
    float_of_int rep.Hwmodel.regstate_cells /. float_of_int rep.Hwmodel.total_cells
  in
  check_bool "55% within a point" true (share > 0.54 && share < 0.56)

let test_hwmodel_scaling_laws () =
  let at lanes = Hwmodel.estimate { Hwmodel.default_params with Hwmodel.lanes } in
  (* register state grows linearly with vector length *)
  let r2 = at 2 and r4 = at 4 and r8 = at 8 in
  let d1 = r4.Hwmodel.regstate_cells - r2.Hwmodel.regstate_cells in
  let d2 = r8.Hwmodel.regstate_cells - r4.Hwmodel.regstate_cells in
  check "linear in width" (2 * d1) d2;
  (* the decoder does not scale *)
  check "decoder fixed" r2.Hwmodel.decoder_cells r8.Hwmodel.decoder_cells;
  (* critical path grows with log2 of the lane count *)
  check "one gate per doubling" 1 (r4.Hwmodel.crit_path_gates - r2.Hwmodel.crit_path_gates);
  (* more registers cost area *)
  let r32 = Hwmodel.estimate { Hwmodel.default_params with Hwmodel.registers = 32 } in
  check_bool "registers cost area" true (r32.Hwmodel.total_cells > r8.Hwmodel.total_cells)

(* Pin the VLA translator row the way the 8-wide fixed row is pinned:
   the paper's 174,117 cells plus the modeled whilelt comparator,
   predicate file, widened opcode generator and table-lookup permutation
   unit, and one extra critical-path gate for the governing-predicate
   mux (the table unit builds its index once per region call, off the
   per-uop path, so it adds area but no gates). *)
let test_hwmodel_vla_row () =
  let rep =
    Hwmodel.estimate { Hwmodel.default_params with Hwmodel.target = Backend.Vla }
  in
  check "total cells" 180_153 rep.Hwmodel.total_cells;
  check "predication cells" 2_436 rep.Hwmodel.pred_cells;
  check "table-lookup unit cells" 3_000 rep.Hwmodel.tbl_cells;
  check "critical path" 17 rep.Hwmodel.crit_path_gates;
  Alcotest.(check (float 0.001)) "delay" 1.604 rep.Hwmodel.crit_path_ns;
  check_bool "still under 0.2 mm^2" true (rep.Hwmodel.area_mm2 < 0.2);
  (* predicate file grows with log2 of the lane count only *)
  let at lanes =
    Hwmodel.estimate
      { Hwmodel.default_params with Hwmodel.lanes; Hwmodel.target = Backend.Vla }
  in
  let r4 = at 4 and r8 = at 8 and r16 = at 16 in
  check "one log step per doubling"
    (r8.Hwmodel.pred_cells - r4.Hwmodel.pred_cells)
    (r16.Hwmodel.pred_cells - r8.Hwmodel.pred_cells);
  (* index adders scale linearly with the lane count; the fixed target
     carries none of this *)
  check "linear per-lane index adders"
    (r8.Hwmodel.tbl_cells - r4.Hwmodel.tbl_cells)
    ((r16.Hwmodel.tbl_cells - r8.Hwmodel.tbl_cells) / 2);
  check "no table unit on the fixed target" 0
    (Hwmodel.estimate Hwmodel.default_params).Hwmodel.tbl_cells

let test_hwmodel_buffer_split () =
  (* "256 bytes of memory ... a little more than half of its cells" *)
  let rep = Hwmodel.estimate Hwmodel.default_params in
  check_bool "storage slightly above half" true
    (float_of_int (540 * 64) /. float_of_int rep.Hwmodel.buffer_cells > 0.5);
  Alcotest.check_raises "bad params" (Invalid_argument "Hwmodel.estimate: bad parameters")
    (fun () -> ignore (Hwmodel.estimate { Hwmodel.default_params with Hwmodel.lanes = 1 }))

(* --- experiments (structure checks on a trimmed width list) --- *)

let test_table5_structure () =
  let rows = Experiments.table5 () in
  check "fifteen rows" 15 (List.length rows);
  List.iter
    (fun (row : Experiments.table5_row) ->
      check_bool (row.Experiments.t5_name ^ " mean <= max") true
        (row.Experiments.t5_mean <= float_of_int row.Experiments.t5_max);
      check_bool
        (row.Experiments.t5_name ^ " within 25% of the paper mean")
        true
        (Float.abs (row.Experiments.t5_mean -. row.Experiments.t5_paper_mean)
        <= 0.25 *. row.Experiments.t5_paper_mean))
    rows

let test_table2_structure () =
  let rows = Experiments.table2 () in
  check "four widths x three targets" 12 (List.length rows);
  let target t (r : Hwmodel.report) = r.Hwmodel.params.Hwmodel.target = t in
  let fixed = List.filter (target Backend.Fixed) rows in
  let vla = List.filter (target Backend.Vla) rows in
  let rvv = List.filter (target Backend.Rvv) rows in
  check "four fixed rows" 4 (List.length fixed);
  check "four vla rows" 4 (List.length vla);
  check "four rvv rows" 4 (List.length rvv);
  let monotone rs =
    let cells = List.map (fun (r : Hwmodel.report) -> r.Hwmodel.total_cells) rs in
    List.sort compare cells = cells
  in
  check_bool "monotone area (fixed)" true (monotone fixed);
  check_bool "monotone area (vla)" true (monotone vla);
  List.iter2
    (fun (f : Hwmodel.report) (v : Hwmodel.report) ->
      check "same width" f.Hwmodel.params.Hwmodel.lanes
        v.Hwmodel.params.Hwmodel.lanes;
      check_bool "vla costs more cells" true
        (v.Hwmodel.total_cells > f.Hwmodel.total_cells))
    fixed vla;
  (* The RVV rows are provisioned at maximum grouping (lanes x lmul =
     16 throughout), so register state and table datapath are sized at
     effective width 16 on every row: area is near-constant (within 1%)
     and always above the same-width fixed translator. *)
  List.iter2
    (fun (f : Hwmodel.report) (r : Hwmodel.report) ->
      check "same width" f.Hwmodel.params.Hwmodel.lanes
        r.Hwmodel.params.Hwmodel.lanes;
      check "provisioned effective width 16" 16
        (r.Hwmodel.params.Hwmodel.lanes * r.Hwmodel.params.Hwmodel.lmul);
      check_bool "rvv costs more cells than fixed" true
        (r.Hwmodel.total_cells > f.Hwmodel.total_cells))
    fixed rvv;
  let rvv_cells =
    List.map (fun (r : Hwmodel.report) -> r.Hwmodel.total_cells) rvv
  in
  let lo = List.fold_left min max_int rvv_cells in
  let hi = List.fold_left max 0 rvv_cells in
  check_bool "near-constant provisioned area" true (hi - lo < hi / 100)

let test_code_size_structure () =
  let rows = Experiments.code_size () in
  check "fifteen rows" 15 (List.length rows);
  List.iter
    (fun (row : Experiments.size_row) ->
      check_bool (row.Experiments.sz_name ^ " liquid bigger") true
        (row.Experiments.sz_liquid >= row.Experiments.sz_baseline);
      (* The paper's <1% holds for its megabyte-scale binaries; our
         largest synthetic programs show the same, smaller ones are
         dominated by fixed overhead but still stay under 6%. *)
      check_bool (row.Experiments.sz_name ^ " overhead bounded") true
        (row.Experiments.sz_overhead_pct < 6.0))
    rows

let test_figure6_speedups_monotone_or_flat () =
  (* Check the key shape claims on two contrasting benchmarks at a
     reduced width list (cheap). *)
  let fir = match Workload.find "FIR" with Some w -> w | None -> assert false in
  let art = match Workload.find "179.art" with Some w -> w | None -> assert false in
  let speedup w lanes =
    let base = (Runner.run w Runner.Baseline).Runner.run in
    let run = (Runner.run w (Helpers.liquid lanes)).Runner.run in
    Runner.speedup ~baseline:base run
  in
  let fir2 = speedup fir 2 and fir8 = speedup fir 8 in
  check_bool "FIR grows with width" true (fir8 > fir2 && fir2 > 1.5);
  let art8 = speedup art 8 in
  check_bool "art is miss-bound" true (art8 < 1.5)

let test_region_first_gap () =
  let w = match Workload.find "GSM Dec." with Some w -> w | None -> assert false in
  let { Runner.run; _ } = Runner.run w (Helpers.liquid 8) in
  match Experiments.region_first_gap run with
  | [ (_, gap) ] -> check_bool "positive gap" true (gap > 0)
  | _ -> Alcotest.fail "one region expected"

(* Every variant shape: baseline, scalar Liquid, each backend x oracle
   x paper width, and native at each paper width. *)
let all_variants =
  let module B = Liquid_translate.Backend in
  let widths = [ 2; 4; 8; 16 ] in
  (Runner.Baseline :: Runner.Liquid_scalar
  :: List.map (fun w -> Runner.Native w) widths)
  @ List.concat_map
      (fun b ->
        List.concat_map
          (fun oracle ->
            List.map
              (fun lanes -> Runner.Liquid { backend = B.kind_of b; lanes; oracle })
              widths)
          [ false; true ])
      B.all

let test_runner_variants () =
  let w = match Workload.find "LU" with Some w -> w | None -> assert false in
  let names = List.map Runner.variant_name all_variants in
  check "display names are distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* LU's loops divide by 4, so only that native width must generate *)
  List.iter
    (fun v ->
      match v with
      | Runner.Native lanes when lanes <> 4 -> ()
      | _ -> ignore (Runner.program_of w v))
    all_variants

let test_variant_round_trip () =
  List.iter
    (fun v ->
      let s = Runner.variant_to_string v in
      check_bool ("round trip " ^ s) true (Runner.variant_of_string s = Ok v))
    all_variants;
  (* every [liquid-] alias normalizes to the canonical spelling *)
  List.iter
    (fun (alias, canonical) ->
      match Runner.variant_of_string alias with
      | Ok v -> Alcotest.(check string) alias canonical (Runner.variant_to_string v)
      | Error m -> Alcotest.failf "%s rejected: %s" alias m)
    [
      ("liquid-oracle:8", "oracle:8");
      ("liquid-vla:8", "vla:8");
      ("liquid-vla-oracle:8", "vla-oracle:8");
      ("liquid-rvv:8", "rvv:8");
      ("liquid-rvv-oracle:8", "rvv-oracle:8");
    ];
  List.iter
    (fun bad ->
      check_bool (bad ^ " rejected") true
        (Result.is_error (Runner.variant_of_string bad)))
    [ "vla:0"; "rvv:x"; "foo:8"; "liquid-liquid:8"; "native:-2"; "baseline:8" ]

let tests =
  [
    Alcotest.test_case "hwmodel matches Table 2" `Quick test_hwmodel_matches_paper;
    Alcotest.test_case "hwmodel register-state share" `Quick
      test_hwmodel_register_state_share;
    Alcotest.test_case "hwmodel scaling laws" `Quick test_hwmodel_scaling_laws;
    Alcotest.test_case "hwmodel VLA row pinned" `Quick test_hwmodel_vla_row;
    Alcotest.test_case "hwmodel buffer split" `Quick test_hwmodel_buffer_split;
    Alcotest.test_case "table5 structure" `Quick test_table5_structure;
    Alcotest.test_case "table2 structure" `Quick test_table2_structure;
    Alcotest.test_case "code size structure" `Slow test_code_size_structure;
    Alcotest.test_case "figure6 shape claims" `Slow
      test_figure6_speedups_monotone_or_flat;
    Alcotest.test_case "region first gap" `Quick test_region_first_gap;
    Alcotest.test_case "runner variants" `Quick test_runner_variants;
    Alcotest.test_case "runner variant round-trip" `Quick test_variant_round_trip;
  ]

(* --- CSV export --- *)

let test_csv_export () =
  let t5 = Experiments.csv_table5 (Experiments.table5 ()) in
  let lines = String.split_on_char '\n' (String.trim t5) in
  check "header + 15 rows" 16 (List.length lines);
  check_bool "header" true
    (List.hd lines = "benchmark,loops,mean,max,paper_mean,paper_max");
  check_bool "FIR row present" true
    (List.exists (fun l -> String.length l >= 3 && String.sub l 0 3 = "FIR") lines)

(* --- memoized and parallel running --- *)

let test_run_cached_matches_run () =
  let w = match Workload.find "GSM Enc." with Some w -> w | None -> assert false in
  Runner.clear_cache ();
  List.iter
    (fun v ->
      let fresh = Runner.run w v in
      let cached = Runner.run_cached w v in
      let again = Runner.run_cached w v in
      check_bool "same result object on repeat" true (cached == again);
      check
        ("cycles agree for " ^ Runner.variant_name v)
        fresh.Runner.run.Liquid_pipeline.Cpu.stats.Liquid_machine.Stats.cycles
        cached.Runner.run.Liquid_pipeline.Cpu.stats.Liquid_machine.Stats.cycles)
    [ Runner.Baseline; Helpers.liquid 8 ];
  (* The translation-latency knob must key the cache for Liquid runs. *)
  let slow = Runner.run_cached ~translation_cpi:100 w (Helpers.liquid 8) in
  let fast = Runner.run_cached ~translation_cpi:1 w (Helpers.liquid 8) in
  check_bool "cpi keys the cache" true (not (slow == fast));
  Runner.clear_cache ()

let test_run_many_deterministic () =
  let items = List.init 40 (fun i -> i) in
  let f i = (i * i * 7919) mod 1009 in
  let seq = List.map f items in
  check_bool "order preserved (pool)" true (Runner.run_many ~domains:4 f items = seq);
  check_bool "order preserved (sequential fallback)" true
    (Runner.run_many ~domains:1 f items = seq);
  check_bool "empty input" true (Runner.run_many ~domains:4 f [] = []);
  (* Exceptions surface instead of corrupting results. *)
  Alcotest.check_raises "first failure re-raised" Exit (fun () ->
      ignore (Runner.run_many ~domains:2 (fun _ -> raise Exit) items))

let test_run_many_result_isolation () =
  (* One poisoned item must come back [Error] in its slot — with the
     failing input and exception — while every other item still returns
     [Ok], in input order, and nothing escapes the pool. *)
  let items = [ 1; 2; 3; 4; 5 ] in
  let f i = if i = 3 then raise Exit else i * 10 in
  let got = Runner.run_many_result ~domains:4 f items in
  let expect =
    [
      Ok 10;
      Ok 20;
      Error { Runner.f_index = 2; f_item = 3; f_exn = Exit };
      Ok 40;
      Ok 50;
    ]
  in
  check_bool "poisoned item isolated, others Ok" true (got = expect);
  (* All items poisoned: all Error, none lost, still ordered. *)
  let all_bad = Runner.run_many_result ~domains:2 (fun _ -> raise Exit) items in
  check_bool "every failure reported" true
    (List.length all_bad = List.length items
    && List.for_all (function Error _ -> true | Ok _ -> false) all_bad);
  check_bool "failure order preserved" true
    (List.mapi (fun i _ -> i) items
    = List.filter_map
        (function Error { Runner.f_index; _ } -> Some f_index | Ok _ -> None)
        all_bad)

let test_run_many_simulations_agree () =
  (* A real workload fan-out: domains simulate concurrently and must
     reproduce the sequential cycle counts in order. *)
  let ws =
    List.filteri (fun i _ -> i < 4) (Workload.all ())
  in
  let cycles (w : Workload.t) =
    (Runner.run w Runner.Baseline).Runner.run.Liquid_pipeline.Cpu.stats
      .Liquid_machine.Stats.cycles
  in
  let seq = List.map cycles ws in
  let par = Runner.run_many ~domains:4 cycles ws in
  check_bool "parallel simulation equals sequential" true (par = seq)

(* --- the bounded LRU and the runner memo built on it --- *)

let test_lru_discipline () =
  let l : (int, string) Lru.t = Lru.create ~capacity:2 in
  check_bool "miss on empty" true (Lru.find l 1 = None);
  Lru.add l 1 "a";
  Lru.add l 2 "b";
  (* touch 1 so 2 is the LRU victim *)
  check_bool "hit" true (Lru.find l 1 = Some "a");
  Lru.add l 3 "c";
  check_bool "LRU evicted" true (Lru.find l 2 = None);
  check_bool "recent kept" true (Lru.find l 1 = Some "a");
  let k = Lru.counters l in
  check "evictions" 1 k.Lru.l_evictions;
  check "occupancy" 2 k.Lru.l_occupancy;
  check "capacity" 2 k.Lru.l_capacity;
  (* finds = hits + misses *)
  check "find accounting" (k.Lru.l_hits + k.Lru.l_misses) (2 + 2);
  Lru.clear l;
  let k' = Lru.counters l in
  check "clear empties" 0 k'.Lru.l_occupancy;
  check "clear keeps lifetime tallies" k.Lru.l_hits k'.Lru.l_hits

let test_runner_cache_counters () =
  Runner.clear_cache ();
  let w = match Workload.find "FIR" with Some w -> w | None -> assert false in
  let r1 = Runner.run_cached w (Helpers.liquid 8) in
  let r2 = Runner.run_cached w (Helpers.liquid 8) in
  check_bool "memo returns the shared result" true (r1 == r2);
  let k = Runner.cache_counters () in
  check "one resident entry" 1 k.Lru.l_occupancy;
  check_bool "hit counted" true (k.Lru.l_hits >= 1);
  check "capacity surfaced" Runner.cache_capacity k.Lru.l_capacity;
  Runner.clear_cache ()

let tests =
  tests
  @ [
      Alcotest.test_case "csv export" `Quick test_csv_export;
      Alcotest.test_case "lru: exact discipline + counters" `Quick
        test_lru_discipline;
      Alcotest.test_case "runner: memo counters" `Quick
        test_runner_cache_counters;
      Alcotest.test_case "run_cached matches run" `Slow test_run_cached_matches_run;
      Alcotest.test_case "run_many deterministic" `Quick test_run_many_deterministic;
      Alcotest.test_case "run_many_result isolates failures" `Quick
        test_run_many_result_isolation;
      Alcotest.test_case "run_many simulations agree" `Slow
        test_run_many_simulations_agree;
    ]
