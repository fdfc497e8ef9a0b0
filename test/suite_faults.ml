(* Fault injection and the abort-safety oracle.

   The paper's safety argument (§3.2/§4.2) is that translation may fail
   at any point — any DFA state, any abort class, a lost microcode
   entry, a watchdog stop — and the program still completes with
   pure-scalar architectural state. These tests attack that claim
   mechanically:

   - every [Abort.t] class is forced into a live translation session on
     every workload (widths rotated across the suite) and the final
     state is checked against the scalar-equivalence oracle, so a new
     abort class cannot ship untested ([Abort.class_name]'s exhaustive
     match breaks the build, and this sweep breaks the test run);
   - a microcode entry is evicted mid-run and the retranslation must
     reproduce byte-identical uop sequences, the same install shape,
     and oracle-equivalent state;
   - the oracle itself is falsifiable: corrupting one live register or
     one memory byte must flip it to a mismatch;
   - eviction sites count region calls from 0, the way the fuzz
     Differ draws them;
   - workload-source fuzz campaigns (the machinery behind
     `liquid_cli fuzz -b`) must be clean with every fault cell fired;
   - the oracle's per-workload reference is checked from two domains at
     once;
   - a fault is data the block engine honours, so every feed site and
     region call of the corpus programs (and every FIR w4 call) runs on
     the engine and must match its [blocks = false] twin exactly.

   Site spaces are read off a clean run's record
   ([Helpers.fault_space]); faulted runs carry the fault in their config
   ([Helpers.run_fault]) and report in their record whether it fired. *)

open Liquid_prog
open Liquid_translate
open Liquid_pipeline
open Liquid_workloads
open Liquid_harness
module Fault = Liquid_faults.Fault
module Oracle = Liquid_faults.Oracle
module Fingerprint = Liquid_faults.Fingerprint
module Stats = Liquid_machine.Stats
module Memory = Liquid_machine.Memory

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Rotate the paper's widths across the suite so every workload is
   attacked and every width appears, without paying 15 x 4 full runs
   per abort class in tier-1. *)
let rotated_pairs () =
  List.mapi (fun i w -> (w, List.nth [ 2; 4; 8; 16 ] (i mod 4))) (Workload.all ())

(* --- every abort class, every workload --- *)

let test_abort_classes_distinct () =
  let names = List.map Abort.class_name Abort.all in
  check_int "representative per class" 12 (List.length names);
  check_int "class names distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_abort_sweep w width () =
  let rng = Fault.Rng.make (Hashtbl.hash (w.Workload.name, width)) in
  let sp = Helpers.fault_space w ~width in
  check_bool "workload feeds the translator" true (sp.Fault.sp_feeds > 0);
  List.iter
    (fun abort ->
      let site = Fault.Rng.int rng sp.Fault.sp_feeds in
      let what = Printf.sprintf "%s@%d" (Abort.class_name abort) site in
      match Helpers.run_fault w ~width (Fault.Force_abort { site; abort }) with
      | image, Ok run ->
          check_bool (what ^ " fired") true run.Cpu.fault_fired;
          check_bool (what ^ " survives") true (Oracle.equivalent w image run)
      | _, Error d -> Alcotest.failf "%s crashed: %s" what (Diag.to_string d))
    Abort.all

(* --- eviction and retranslation --- *)

(* Evict a hot region's microcode mid-run: the region must retranslate,
   the reinstalled microcode must replay byte-identical uop sequences,
   and the run must still land on scalar state. *)
let test_evict_retranslate () =
  let w = Option.get (Workload.find "FIR") in
  let width = 4 in
  let program = Runner.program_of w (Helpers.liquid width) in
  let image = Image.of_program program in
  let sp = Helpers.fault_space w ~width in
  check_bool "enough region calls to evict between" true (sp.Fault.sp_calls > 4);
  let fault = Fault.Evict_ucode { call = sp.Fault.sp_calls / 2 } in
  (* Collect the executed uop stream of every microcode-served call.
     [`Ucode_call] is traced before its uops run, and region calls never
     nest, so the events between consecutive markers are one call. *)
  let finished = ref [] (* (entry, uops in order) per completed call *) in
  let current = ref None in
  let flush () =
    match !current with
    | Some (entry, acc) ->
        finished := (entry, List.rev acc) :: !finished;
        current := None
    | None -> ()
  in
  let on_trace = function
    | Cpu.T_region { event = `Ucode_call; _ } ->
        flush ();
        current := Some (-1, [])
    | Cpu.T_uop { entry; uop; _ } ->
        current :=
          (match !current with
          | Some (_, acc) -> Some (entry, uop :: acc)
          | None -> Some (entry, [ uop ]))
    | _ -> ()
  in
  let config =
    {
      (Cpu.liquid_config ~lanes:width) with
      Cpu.fault = Some fault;
      Cpu.on_trace = Some on_trace;
    }
  in
  let run = Cpu.run ~config image in
  check_bool "eviction fired" true run.Cpu.fault_fired;
  check_int "stats count the eviction" 1 run.Cpu.stats.Stats.ucode_evictions;
  (* Clean reference at the same width. *)
  let clean = Runner.run w (Helpers.liquid width) in
  check_int "one extra install for the retranslation"
    (clean.Runner.run.Cpu.stats.Stats.ucode_installs + 1)
    run.Cpu.stats.Stats.ucode_installs;
  check_int "one ucode hit lost to the evicted call"
    (clean.Runner.run.Cpu.stats.Stats.ucode_hits - 1)
    run.Cpu.stats.Stats.ucode_hits;
  (* Same final install shape per region as the clean run. *)
  List.iter2
    (fun (a : Cpu.region_report) (b : Cpu.region_report) ->
      Alcotest.(check string) "same region" a.Cpu.label b.Cpu.label;
      match (a.Cpu.outcome, b.Cpu.outcome) with
      | ( Cpu.R_installed { width = wa; uops = ua },
          Cpu.R_installed { width = wb; uops = ub } ) ->
          check_int ("install width of " ^ a.Cpu.label) wb wa;
          check_int ("uop count of " ^ a.Cpu.label) ub ua
      | oa, ob ->
          check_bool
            ("outcome of " ^ a.Cpu.label)
            true
            (oa = ob))
    run.Cpu.regions clean.Runner.run.Cpu.regions;
  (* Retranslated microcode replays byte-identical uop sequences: every
     microcode-served call of a region, before and after the eviction,
     executes the same uop stream. *)
  flush ();
  let calls = List.rev !finished in
  check_bool "uop trace saw microcode calls" true (calls <> []);
  let entries = List.sort_uniq compare (List.map fst calls) in
  List.iter
    (fun entry ->
      match List.filter_map
              (fun (e, uops) -> if e = entry then Some uops else None)
              calls
      with
      | [] | [ _ ] -> ()
      | first :: rest ->
          List.iteri
            (fun i call ->
              check_bool
                (Printf.sprintf "entry %d call %d replays identically" entry
                   (i + 1))
                true (call = first))
            rest)
    entries;
  check_bool "oracle equivalence after retranslation" true
    (Oracle.equivalent w image run)

(* --- the oracle is falsifiable --- *)

let test_oracle_catches_corruption () =
  let w = Option.get (Workload.find "FIR") in
  let { Runner.run; program; _ } = Runner.run w (Helpers.liquid 4) in
  let image = Image.of_program program in
  check_bool "clean translated run passes" true (Oracle.equivalent w image run);
  let mask = Oracle.junk_mask w in
  (* Flip a live (unmasked) register. *)
  let live =
    let rec find i = if mask.(i) then find (i + 1) else i in
    find 0
  in
  let saved = run.Cpu.regs.(live) in
  run.Cpu.regs.(live) <- saved + 1;
  check_bool "register corruption detected" false
    (Oracle.equivalent w image run);
  run.Cpu.regs.(live) <- saved;
  (* Flip a masked register: must NOT trip the oracle (dead scratch). *)
  let junk =
    let rec find i = if mask.(i) then i else find (i + 1) in
    find 0
  in
  let saved_junk = run.Cpu.regs.(junk) in
  run.Cpu.regs.(junk) <- saved_junk + 1;
  check_bool "dead-scratch corruption ignored" true
    (Oracle.equivalent w image run);
  run.Cpu.regs.(junk) <- saved_junk;
  (* Flip one byte of one data array. *)
  let _, addr, _ = List.hd image.Image.arrays in
  let b = Memory.read_byte run.Cpu.memory addr in
  Memory.write_byte run.Cpu.memory addr (b lxor 1);
  check_bool "memory corruption detected" false
    (Oracle.equivalent w image run);
  Memory.write_byte run.Cpu.memory addr b

(* --- fingerprints agree with the golden hashes --- *)

let test_fingerprint_matches_golden () =
  (* One spot value from the golden table (052.alvinn baseline): the
     shared module must produce the hash the golden suite pinned. *)
  let w = Option.get (Workload.find "052.alvinn") in
  let { Runner.run; program; _ } = Runner.run_cached w Runner.Baseline in
  check_bool "regs hash matches pinned golden" true
    (Fingerprint.regs_hash run.Cpu.regs = 0x4207be414f6fa218);
  check_bool "mem hash matches pinned golden" true
    (Fingerprint.mem_hash (Image.of_program program) run.Cpu.memory
    = 0x3414aedbe1508ed1)

(* --- watchdog exhaustion carries a machine snapshot --- *)

let test_fuel_campaign_case () =
  let w = Option.get (Workload.find "FIR") in
  let sp = Helpers.fault_space w ~width:4 in
  let budget = sp.Fault.sp_retired / 2 in
  match Helpers.run_fault w ~width:4 (Fault.Exhaust_fuel { budget }) with
  | _, Error d ->
      Alcotest.(check string)
        "watchdog stop is a safe structured abort"
        (Diag.fault_name Diag.Fuel_exhausted)
        (Diag.fault_name d.Diag.fault)
  | _, Ok _ -> Alcotest.fail "run completed under half its fuel"

(* --- eviction sites count from 0 --- *)

(* Both ends of [\[0, sp_calls)] fire and one past the end does not: the
   hook sees the same 0-based call numbers the Differ draws. *)
let test_evict_numbering () =
  let w = Option.get (Workload.find "FIR") in
  let sp = Helpers.fault_space w ~width:4 in
  check_int "FIR w4 region calls" 100 sp.Fault.sp_calls;
  List.iter
    (fun (call, fires) ->
      match Helpers.run_fault w ~width:4 (Fault.Evict_ucode { call }) with
      | _, Ok run ->
          check_bool (Printf.sprintf "call %d fired" call) fires run.Cpu.fault_fired
      | _, Error d ->
          Alcotest.failf "call %d crashed: %s" call (Diag.to_string d))
    [ (0, true); (sp.Fault.sp_calls - 1, true); (sp.Fault.sp_calls, false) ]

(* --- every site, on the engine and stepping --- *)

(* Run [fault] on the block engine and on its [blocks = false] twin and
   require the two to agree; the fault must fire on both. *)
let check_engine_twin what image config fault =
  let config = { config with Cpu.fault = Some fault } in
  let on = Helpers.outcome ~config image in
  let off = Helpers.outcome ~config:{ config with Cpu.blocks = false } image in
  Helpers.check_fault_twin what on off;
  match on with
  | Ok run -> check_bool (what ^ ": fired") true run.Cpu.fault_fired
  | Error d -> Alcotest.failf "%s crashed: %s" what (Diag.to_string d)

(* Every feed site of a corpus program at w4, under each backend, as a
   forced abort (the class rotated through [Abort.all] by site) and as a
   corrupted feed, plus every region call as an eviction. *)
let test_every_site (name, p) () =
  let image = Image.of_program (Liquid_scalarize.Codegen.liquid p) in
  List.iter
    (fun backend ->
      let config =
        Runner.config_of
          (Runner.Liquid { backend = Backend.kind_of backend; lanes = 4; oracle = false })
      in
      let sp = Fault.space_of (Cpu.run ~config image) in
      check_bool (name ^ ": the program feeds the translator") true
        (sp.Fault.sp_feeds > 0);
      let classes = Array.of_list Abort.all in
      List.concat
        (List.init sp.Fault.sp_feeds (fun site ->
             let abort = classes.(site mod Array.length classes) in
             [ Fault.Force_abort { site; abort }; Fault.Corrupt_feed { site } ]))
      @ List.init sp.Fault.sp_calls (fun call -> Fault.Evict_ucode { call })
      |> List.iter (fun fault ->
             check_engine_twin
               (Printf.sprintf "%s/%s/%s" name (Backend.name_of backend)
                  (Fault.to_string fault))
               image config fault))
    Backend.all

(* All 100 region calls of FIR w4 as evictions. *)
let test_every_eviction_fir () =
  let w = Option.get (Workload.find "FIR") in
  let image = Helpers.fault_image w ~width:4 in
  let config = Cpu.liquid_config ~lanes:4 in
  let sp = Fault.space_of (Cpu.run ~config image) in
  check_int "FIR w4 region calls" 100 sp.Fault.sp_calls;
  for call = 0 to sp.Fault.sp_calls - 1 do
    check_engine_twin
      (Printf.sprintf "FIR w4 evict call %d" call)
      image config (Fault.Evict_ucode { call })
  done

(* --- the seeded campaign itself --- *)

(* One workload-source campaign case per test: the workload's program
   through the whole Differ matrix with three seeded fault cells. The
   width in each test's name is the width it was first pinned at; the
   matrix covers it among every backend and width. *)
let test_campaign_survives w width () =
  let module C = Liquid_fuzz.Campaign in
  check_bool "matrix covers the width" true
    (List.mem width Liquid_fuzz.Differ.widths);
  let r = C.run ~workloads:[ w ] ~seed:2007 ~cases:1 () in
  check_int "the case is clean" 1 r.C.r_clean;
  check_int "no divergent case" 0 (List.length r.C.r_divergent);
  check_int "three fault cells" 3 r.C.r_fault_cells;
  check_int "every fault fired" r.C.r_fault_cells r.C.r_faults_fired

(* Two domains checking runs of the same workload must not share a
   mutable reference: the scalar run behind [Oracle.reference] is one
   cached result, and hashing its memory from both domains at once used
   to tear the memory's page cache and report spurious divergences on a
   2-core machine. For every workload, two faulted runs (an eviction and
   a forced abort) are checked from two domains started together, so
   both compute the reference at once. Run alone ([test faults
   <index>]) so the reference memo starts empty. *)
let test_campaign_two_domains () =
  List.iter
    (fun (w : Workload.t) ->
      let run fault =
        match Helpers.run_fault w ~width:2 fault with
        | image, Ok run -> (image, run)
        | _, Error d ->
            Alcotest.failf "%s crashed: %s" w.Workload.name (Diag.to_string d)
      in
      let checks =
        Runner.run_many ~domains:2
          (fun (image, run) -> Oracle.equivalent w image run)
          [
            run (Fault.Evict_ucode { call = 0 });
            run (Fault.Force_abort { site = 0; abort = List.hd Abort.all });
          ]
      in
      check_bool
        (w.Workload.name ^ " matches the scalar reference on both domains")
        true
        (checks = [ true; true ]))
    (Workload.all ())

let tests =
  [
    Alcotest.test_case "abort classes distinct" `Quick
      test_abort_classes_distinct;
  ]
  @ List.map
      (fun ((w : Workload.t), width) ->
        Alcotest.test_case
          (Printf.sprintf "abort sweep %s w%d" w.Workload.name width)
          `Slow (test_abort_sweep w width))
      (rotated_pairs ())
  @ [
      Alcotest.test_case "evict + retranslate identical" `Quick
        test_evict_retranslate;
      Alcotest.test_case "oracle catches corruption" `Quick
        test_oracle_catches_corruption;
      Alcotest.test_case "fingerprint matches golden" `Quick
        test_fingerprint_matches_golden;
      Alcotest.test_case "watchdog stop is safe" `Quick test_fuel_campaign_case;
      Alcotest.test_case "evict calls count from 0" `Quick test_evict_numbering;
    ]
  @ List.map
      (fun (name, width) ->
        Alcotest.test_case
          (Printf.sprintf "campaign %s w%d" name width)
          `Slow
          (test_campaign_survives (Option.get (Workload.find name)) width))
      [ ("FIR", 8); ("FFT", 16); ("LU", 2) ]
  @ [
      Alcotest.test_case "campaign on two domains" `Slow
        test_campaign_two_domains;
      Alcotest.test_case "engine = stepping at every FIR w4 eviction" `Slow
        test_every_eviction_fir;
    ]
  @ List.map
      (fun ((name, _) as case) ->
        Alcotest.test_case
          (Printf.sprintf "engine = stepping at every site of %s" name)
          `Slow (test_every_site case))
      Fuzz_corpus.Corpus.cases
