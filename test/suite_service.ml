(* The sweep service's supervision matrix: deadline expiry, transient
   retry-then-succeed, breaker trip -> degraded scalar reply (bit-identical
   to a direct baseline run), shedding under load, reply dedup, and a
   fixed-seed 500-job soak with fault injection asserting the metrics
   conservation invariant. Everything runs through the in-process entry
   points (Service.create/submit/sync and Service.run_script) with the
   default no-op sleep, so backoff is virtual and the tests are fast and
   deterministic. *)

open Liquid_harness
open Liquid_service
module Json = Liquid_obs.Json
module Fault = Liquid_faults.Fault
module Fingerprint = Liquid_faults.Fingerprint
module Workload = Liquid_workloads.Workload

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let find name =
  match Workload.find name with Some w -> w | None -> assert false

let mk ?(id = "") ?(variant = "liquid:8") ?(priority = 0) ?fuel ?deadline_ms
    ?retries ?fault_seed ?(ta = 0) workload =
  let v =
    match Runner.variant_of_string variant with
    | Ok v -> v
    | Error m -> Alcotest.fail m
  in
  {
    Job.j_id = id;
    j_workload = workload;
    j_variant = v;
    j_variant_str = Runner.variant_to_string v;
    j_priority = priority;
    j_fuel = fuel;
    j_deadline_ms = deadline_ms;
    j_retries = retries;
    j_blocks = true;
    j_superblocks = true;
    j_fault_seed = fault_seed;
    j_transient_attempts = ta;
  }

(* JSON reply accessors *)
let jstr name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "reply missing string field %S" name

let jint name j =
  match Json.member name j with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "reply missing int field %S" name

let jbool name j =
  match Json.member name j with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply missing bool field %S" name

let one_domain =
  { Service.default_config with Service.domains = Some 1 }

(* --- backoff --- *)

let test_backoff () =
  let delay attempt =
    Backoff.delay_ms ~base_ms:10.0 ~factor:4.0 ~jitter:0.25 ~seed:7 ~job:3
      ~attempt
  in
  (* deterministic: same coordinates, same delay *)
  check_bool "replayable" true (delay 1 = delay 1);
  (* within the jitter envelope around base * factor^(n-1) *)
  List.iter
    (fun attempt ->
      let ideal = 10.0 *. (4.0 ** float_of_int (attempt - 1)) in
      let d = delay attempt in
      check_bool
        (Printf.sprintf "attempt %d in envelope" attempt)
        true
        (d >= 0.75 *. ideal && d <= 1.25 *. ideal))
    [ 1; 2; 3; 4 ];
  (* distinct jobs de-correlate *)
  let other =
    Backoff.delay_ms ~base_ms:10.0 ~factor:4.0 ~jitter:0.25 ~seed:7 ~job:4
      ~attempt:1
  in
  check_bool "jobs de-correlate" true (other <> delay 1);
  (* the budget bound really bounds the worst case *)
  let budget =
    Backoff.budget_ms ~base_ms:10.0 ~factor:4.0 ~jitter:0.25 ~retries:3
  in
  check_bool "budget bounds the sum" true
    (delay 1 +. delay 2 +. delay 3 <= budget)

(* --- breaker --- *)

let breaker_state b =
  match Breaker.state b ~workload:"w" ~variant:"v" with
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half-open"

let test_breaker () =
  let b = Breaker.create ~threshold:3 ~cooldown:2 () in
  let fail () = Breaker.record_failure b ~workload:"w" ~variant:"v" in
  check "first failure" 1 (fail ());
  check "second failure" 2 (fail ());
  check_str "still closed" "closed" (breaker_state b);
  Breaker.record_success b ~workload:"w" ~variant:"v";
  check "success resets" 1 (fail ());
  check "counts up again" 2 (fail ());
  check "third consecutive trips" 3 (fail ());
  check_str "open" "open" (breaker_state b);
  check "one trip" 1 (Breaker.trips b);
  check "stays open, keeps counting" 4 (fail ());
  check "no double trip" 1 (Breaker.trips b);
  check_str "other keys unaffected" "closed"
    (match Breaker.state b ~workload:"w" ~variant:"other" with
    | Breaker.Closed -> "closed"
    | _ -> "not-closed");
  Alcotest.(check (list string))
    "open keys" [ Breaker.key ~workload:"w" ~variant:"v" ] (Breaker.open_keys b);
  Breaker.reset b;
  check_str "reset closes" "closed" (breaker_state b)

let test_breaker_half_open () =
  let b = Breaker.create ~threshold:2 ~cooldown:2 () in
  let fail () = ignore (Breaker.record_failure b ~workload:"w" ~variant:"v") in
  let ok () = Breaker.record_success b ~workload:"w" ~variant:"v" in
  let admit () = Breaker.admit b ~workload:"w" ~variant:"v" in
  check_bool "closed admits" true (admit ());
  fail ();
  fail ();
  check_str "tripped" "open" (breaker_state b);
  (* cooldown: two denials, then the third dispatch is the probe *)
  check_bool "denied during cooldown" false (admit ());
  check_bool "denied during cooldown (2)" false (admit ());
  check_bool "probe admitted" true (admit ());
  check_str "half-open while probing" "half-open" (breaker_state b);
  check "probe counted" 1 (Breaker.probes b);
  check_bool "one probe at a time" false (admit ());
  Alcotest.(check (list string))
    "half-open keys stay listed"
    [ Breaker.key ~workload:"w" ~variant:"v" ]
    (Breaker.open_keys b);
  (* the probe fails: back to open, cooldown restarts *)
  fail ();
  check_str "failed probe reopens" "open" (breaker_state b);
  check "reopen counted" 1 (Breaker.reopens b);
  check_bool "cooldown restarts" false (admit ());
  check_bool "cooldown restarts (2)" false (admit ());
  check_bool "second probe admitted" true (admit ());
  check "second probe counted" 2 (Breaker.probes b);
  (* this probe succeeds: the breaker closes and dispatch resumes *)
  ok ();
  check_str "successful probe closes" "closed" (breaker_state b);
  check_bool "closed admits again" true (admit ());
  check "no further reopens" 1 (Breaker.reopens b);
  (* a stale in-flight success while fully open does not close *)
  fail ();
  fail ();
  check_str "re-tripped" "open" (breaker_state b);
  ok ();
  check_str "stale success ignored while open" "open" (breaker_state b)

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
  let w = find "FIR" in
  let r1 = Runner.run_cached w (Helpers.liquid 8) in
  let r2 = Runner.run_cached w (Helpers.liquid 8) in
  check_bool "memo returns the shared result" true (r1 == r2);
  let k = Runner.cache_counters () in
  check "one resident entry" 1 k.Lru.l_occupancy;
  check_bool "hit counted" true (k.Lru.l_hits >= 1);
  check "capacity surfaced" Runner.cache_capacity k.Lru.l_capacity;
  Runner.clear_cache ()

(* --- protocol parsing and the dedup fingerprint --- *)

let test_parse_and_fingerprint () =
  (match Job.parse_request {|{"workload": "FIR"}|} with
  | Ok (Job.Job s) ->
      check_str "default variant" "liquid:8" s.Job.j_variant_str;
      check "default priority" 0 s.Job.j_priority;
      check_bool "blocks default on" true s.Job.j_blocks
  | _ -> Alcotest.fail "minimal job line must parse");
  (match Job.parse_request {|{"workload": "FIR", "variant": "nope:x"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad variant must not parse");
  (match Job.parse_request {|{"op": "quit"}|} with
  | Ok Job.Quit -> ()
  | _ -> Alcotest.fail "quit op");
  (match Job.parse_request {|{"op": "flush"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown op must not parse");
  let a = mk ~id:"x" ~priority:5 "FIR" in
  let b = mk ~id:"y" ~priority:0 "FIR" in
  check_bool "id/priority excluded from fingerprint" true
    (Job.fingerprint a = Job.fingerprint b);
  check_bool "fuel included" true
    (Job.fingerprint (mk ~fuel:100 "FIR") <> Job.fingerprint (mk "FIR"));
  check_bool "fault seed included" true
    (Job.fingerprint (mk ~fault_seed:1 "FIR") <> Job.fingerprint (mk "FIR"))

(* --- supervision edges --- *)

(* A fuel budget far below the workload's retirement count expires the
   watchdog mid-run (the superblock tier is on by default, so the stop
   lands mid-superblock); with no retries left the supervisor must
   account it as a deadline expiry, not a crash. *)
let test_deadline_expiry () =
  let t = Service.create ~config:one_domain () in
  ignore (Service.submit t (mk ~id:"d" ~fuel:64 ~retries:0 "FIR"));
  match Service.sync t with
  | [ r ] ->
      check_str "status" "failed" (jstr "status" r);
      check_str "reason" "deadline" (jstr "reason" r);
      check "single attempt" 1 (jint "attempts" r);
      let m = Metrics.totals (Service.metrics t) in
      check "deadline counted" 1 m.Metrics.m_deadline;
      check "failed counted" 1 m.Metrics.m_failed;
      check "no retries" 0 m.Metrics.m_retries
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs)

let test_retry_then_succeed () =
  let t = Service.create ~config:one_domain () in
  ignore (Service.submit t (mk ~id:"r" ~ta:1 "FIR"));
  (match Service.sync t with
  | [ r ] ->
      check_str "status" "ok" (jstr "status" r);
      check "second attempt wins" 2 (jint "attempts" r);
      (* the converged result is the same simulation a direct run gives *)
      let direct = Runner.run (find "FIR") (Helpers.liquid 8) in
      check "cycles match direct run"
        direct.Runner.run.Liquid_pipeline.Cpu.stats
          .Liquid_machine.Stats.cycles
        (jint "cycles" r);
      check "registers match direct run"
        (Fingerprint.regs_hash direct.Runner.run.Liquid_pipeline.Cpu.regs)
        (jint "regs_hash" r)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs));
  let m = Metrics.totals (Service.metrics t) in
  check "one transient failure" 1 m.Metrics.m_transient;
  check "one retry" 1 m.Metrics.m_retries;
  (* the retry converged within the backoff budget: the virtual delay
     spent is bounded by budget_ms for the configured retry count *)
  let c = one_domain in
  check_bool "backoff budget fits the deadline" true
    (Backoff.budget_ms ~base_ms:c.Service.backoff_base_ms
       ~factor:c.Service.backoff_factor ~jitter:c.Service.backoff_jitter
       ~retries:c.Service.retries
    <= c.Service.deadline_ms)

(* Three consecutive native:7 jobs (an impossible width for FIR's 1024
   trip count) trip the breaker; the third must come back degraded with
   the bit-identical scalar-baseline result, and a later job of the
   same shape answers from the dedup cache. *)
let test_breaker_degrades_to_baseline () =
  let t = Service.create ~config:one_domain () in
  for i = 1 to 3 do
    ignore (Service.submit t (mk ~id:(Printf.sprintf "n%d" i) ~variant:"native:7" "FIR"))
  done;
  (match Service.sync t with
  | [ r1; r2; r3 ] ->
      check_str "first fails" "failed" (jstr "status" r1);
      check_str "first is permanent" "permanent" (jstr "reason" r1);
      check_str "second fails" "failed" (jstr "status" r2);
      check_str "third degrades" "degraded" (jstr "status" r3);
      check_str "third ran baseline" "baseline" (jstr "ran" r3);
      check_str "third reason" "breaker-open" (jstr "reason" r3);
      let direct = Runner.run (find "FIR") Runner.Baseline in
      let image =
        Liquid_prog.Image.of_program direct.Runner.program
      in
      check "baseline cycles"
        direct.Runner.run.Liquid_pipeline.Cpu.stats
          .Liquid_machine.Stats.cycles
        (jint "cycles" r3);
      check "baseline registers"
        (Fingerprint.regs_hash direct.Runner.run.Liquid_pipeline.Cpu.regs)
        (jint "regs_hash" r3);
      check "baseline memory"
        (Fingerprint.mem_hash image direct.Runner.run.Liquid_pipeline.Cpu.memory)
        (jint "mem_hash" r3)
  | rs -> Alcotest.failf "expected three replies, got %d" (List.length rs));
  check "breaker tripped once" 1 (Breaker.trips (Service.breaker t));
  (* same job again: breaker is open at dispatch, and the degraded reply
     is already memoized *)
  ignore (Service.submit t (mk ~id:"n4" ~variant:"native:7" "FIR"));
  (match Service.sync t with
  | [ r4 ] ->
      check_str "fourth degrades" "degraded" (jstr "status" r4);
      check_bool "fourth from dedup" true (jbool "cached" r4);
      check_str "fourth keeps its own id" "n4" (jstr "id" r4)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs));
  let m = Metrics.totals (Service.metrics t) in
  check "accounting" m.Metrics.m_submitted
    (m.Metrics.m_ok + m.Metrics.m_degraded + m.Metrics.m_shed
   + m.Metrics.m_failed)

let test_shed_under_load () =
  let config = { one_domain with Service.high_water = 1 } in
  let t = Service.create ~config () in
  let shed1 = Service.submit t (mk ~id:"keep" ~priority:1 "FIR") in
  check "no shed below high water" 0 (List.length shed1);
  (* the newest submission is itself the lowest priority: it sheds *)
  let shed2 = Service.submit t (mk ~id:"low" ~priority:0 "FIR") in
  (match shed2 with
  | [ r ] ->
      check_str "victim" "low" (jstr "id" r);
      check_str "status" "shed" (jstr "status" r);
      check_str "reason" "overloaded" (jstr "reason" r)
  | rs -> Alcotest.failf "expected one shed reply, got %d" (List.length rs));
  (* a higher-priority arrival displaces the queued lower-priority job *)
  let shed3 = Service.submit t (mk ~id:"urgent" ~priority:2 "FIR") in
  (match shed3 with
  | [ r ] -> check_str "queued job displaced" "keep" (jstr "id" r)
  | rs -> Alcotest.failf "expected one shed reply, got %d" (List.length rs));
  (match Service.sync t with
  | [ r ] -> check_str "survivor runs" "urgent" (jstr "id" r)
  | rs -> Alcotest.failf "expected one reply, got %d" (List.length rs));
  let m = Metrics.totals (Service.metrics t) in
  check "two shed" 2 m.Metrics.m_shed;
  Alcotest.(check (list string))
    "conservation holds" [] (Metrics.violations m)

(* --- run_script front end --- *)

let test_run_script () =
  let out =
    Service.run_script
      "{\"id\": \"s1\", \"workload\": \"FIR\", \"variant\": \"baseline\"}\n\
       {\"op\": \"quit\"}\n\
       {\"id\": \"never\", \"workload\": \"FIR\"}\n"
  in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  check "quit stops the script" 1 (List.length lines);
  match Json.of_string (List.hd lines) with
  | Ok r ->
      check_str "the drained job replied" "s1" (jstr "id" r);
      check_str "ok" "ok" (jstr "status" r)
  | Error e -> Alcotest.failf "reply line does not parse: %s" e

(* --- the soak: 500 seeded jobs, faults included, books must balance --- *)

let test_soak_500 () =
  let rng = Fault.Rng.make 2007 in
  let workloads = [| "FIR"; "GSM Dec." |] in
  let variants =
    [| "baseline"; "liquid:4"; "liquid:8"; "vla:8"; "native:8"; "native:7" |]
  in
  let t = Service.create () in
  let specs = Hashtbl.create 512 in
  let replies = ref [] in
  let total = 500 in
  for i = 1 to total do
    let id = Printf.sprintf "s%d" i in
    let spec =
      mk ~id
        ~variant:variants.(Fault.Rng.int rng (Array.length variants))
        ~priority:(Fault.Rng.int rng 3)
        ?fault_seed:
          (if Fault.Rng.int rng 3 = 0 then Some (1 + Fault.Rng.int rng 4)
           else None)
        ~ta:(if Fault.Rng.int rng 4 = 0 then 1 else 0)
        workloads.(Fault.Rng.int rng (Array.length workloads))
    in
    Hashtbl.replace specs id spec;
    replies := Service.submit t spec @ !replies;
    if i mod 100 = 0 then replies := Service.sync t @ !replies
  done;
  replies := Service.sync t @ !replies;
  let replies = !replies in
  check "every job replied exactly once" total (List.length replies);
  (* zero supervisor crashes *)
  List.iter
    (fun r ->
      match Json.member "reason" r with
      | Some (Json.Str "supervisor-crash") ->
          Alcotest.failf "supervisor crash: %s" (Json.to_string ~pretty:false r)
      | _ -> ())
    replies;
  (* the conservation invariant, via both the typed totals and the
     schema-validated metrics document *)
  let m = Metrics.totals (Service.metrics t) in
  check "all submitted" total m.Metrics.m_submitted;
  check "books balance" total
    (m.Metrics.m_ok + m.Metrics.m_degraded + m.Metrics.m_shed
   + m.Metrics.m_failed);
  Alcotest.(check (list string)) "no violations" [] (Metrics.violations m);
  ignore (Service.metrics_json t);
  check_bool "work actually ran" true (m.Metrics.m_ok > 0);
  check_bool "faults actually tripped the breaker" true
    (Breaker.trips (Service.breaker t) >= 1);
  check_bool "transient retries happened" true (m.Metrics.m_retries > 0);
  check_bool "every retry followed a transient failure" true
    (m.Metrics.m_retries <= m.Metrics.m_transient);
  (* ok replies of unfaulted, untweaked jobs are bit-identical to a
     direct Runner.run of the same (workload, variant) *)
  let checked = ref 0 in
  List.iter
    (fun r ->
      if jstr "status" r = "ok" && not (jbool "cached" r) then begin
        let spec = Hashtbl.find specs (jstr "id" r) in
        if spec.Job.j_fault_seed = None && spec.Job.j_transient_attempts = 0
        then begin
          incr checked;
          let direct =
            Runner.run_cached (find spec.Job.j_workload) spec.Job.j_variant
          in
          check
            (Printf.sprintf "%s: cycles" spec.Job.j_id)
            direct.Runner.run.Liquid_pipeline.Cpu.stats
              .Liquid_machine.Stats.cycles
            (jint "cycles" r);
          check
            (Printf.sprintf "%s: registers" spec.Job.j_id)
            (Fingerprint.regs_hash direct.Runner.run.Liquid_pipeline.Cpu.regs)
            (jint "regs_hash" r)
        end
      end)
    replies;
  check_bool "bit-identity was actually exercised" true (!checked > 0)

let tests =
  [
    Alcotest.test_case "backoff: deterministic, bounded" `Quick test_backoff;
    Alcotest.test_case "breaker: trip/reset/open" `Quick test_breaker;
    Alcotest.test_case "breaker: half-open probe cycle" `Quick
      test_breaker_half_open;
    Alcotest.test_case "lru: exact discipline + counters" `Quick
      test_lru_discipline;
    Alcotest.test_case "runner: memo counters" `Quick
      test_runner_cache_counters;
    Alcotest.test_case "protocol: parse + fingerprint" `Quick
      test_parse_and_fingerprint;
    Alcotest.test_case "supervision: deadline expiry" `Quick
      test_deadline_expiry;
    Alcotest.test_case "supervision: retry then succeed" `Quick
      test_retry_then_succeed;
    Alcotest.test_case "supervision: breaker degrades to baseline" `Quick
      test_breaker_degrades_to_baseline;
    Alcotest.test_case "supervision: shed under load" `Quick
      test_shed_under_load;
    Alcotest.test_case "front end: run_script + quit" `Quick test_run_script;
    Alcotest.test_case "soak: 500 seeded jobs conserve" `Quick test_soak_500;
  ]
