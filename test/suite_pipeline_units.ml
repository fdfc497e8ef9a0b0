(* Unit tests for the remaining pipeline pieces: the microcode cache's
   LRU/readiness behaviour, the Vec growable array, events, abort
   classification and the offline translation harness. *)

open Liquid_isa
open Liquid_translate
open Liquid_pipeline

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let dummy_ucode n =
  {
    Ucode.uops = Array.make n Ucode.URet;
    width = 4;
    kind = Fixed;
    lmul = 1;
    source_insns = n;
    observed_insns = n;
    guards = [||];
  }

(* --- Ucode_cache --- *)

let test_ucache_hit_and_miss () =
  let c = Ucode_cache.create ~entries:2 in
  check_bool "empty misses" true (Ucode_cache.lookup c ~key:1 ~now:0 = None);
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 3);
  check "no eviction" 0 (Ucode_cache.evictions c);
  (match Ucode_cache.lookup c ~key:1 ~now:5 with
  | Some u -> check "payload" 3 (Ucode.length u)
  | None -> Alcotest.fail "expected hit");
  check "installs" 1 (Ucode_cache.installs c)

let test_ucache_readiness () =
  (* An entry installed with a future ready time is pending, not
     servable: the translation-latency model. *)
  let c = Ucode_cache.create ~entries:2 in
  Ucode_cache.install c ~key:7 ~ready:100 (dummy_ucode 1);
  check_bool "not ready at 50" true (Ucode_cache.lookup c ~key:7 ~now:50 = None);
  check_bool "pending at 50" true (Ucode_cache.pending c ~key:7 ~now:50);
  check_bool "ready at 100" true (Ucode_cache.lookup c ~key:7 ~now:100 <> None);
  check_bool "not pending once ready" false (Ucode_cache.pending c ~key:7 ~now:100)

let test_ucache_lru () =
  let c = Ucode_cache.create ~entries:2 in
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 1);
  Ucode_cache.install c ~key:2 ~ready:0 (dummy_ucode 1);
  (* Touch key 1 so key 2 is LRU. *)
  ignore (Ucode_cache.lookup c ~key:1 ~now:10);
  Ucode_cache.install c ~key:3 ~ready:0 (dummy_ucode 1);
  check "eviction count" 1 (Ucode_cache.evictions c);
  check_bool "key 1 kept" true (Ucode_cache.lookup c ~key:1 ~now:20 <> None);
  check_bool "key 2 evicted" true (Ucode_cache.lookup c ~key:2 ~now:20 = None);
  check "occupancy" 2 (Ucode_cache.occupancy c);
  check "high-water" 2 (Ucode_cache.max_occupancy c)

let test_ucache_reinstall_same_key () =
  let c = Ucode_cache.create ~entries:2 in
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 1);
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 9);
  check "no eviction on overwrite" 0 (Ucode_cache.evictions c);
  check "one replacement" 1 (Ucode_cache.replacements c);
  check "occupancy stays 1" 1 (Ucode_cache.occupancy c);
  match Ucode_cache.lookup c ~key:1 ~now:0 with
  | Some u -> check "newest payload" 9 (Ucode.length u)
  | None -> Alcotest.fail "hit expected"

let test_ucache_counter_conservation () =
  (* installs = replacements + evictions + occupancy, through installs,
     same-key overwrites, capacity evictions and forced evictions. *)
  let c = Ucode_cache.create ~entries:2 in
  let conserved () =
    let k = Ucode_cache.counters c in
    check "installs conserved" k.Ucode_cache.u_installs
      (k.Ucode_cache.u_replacements + k.Ucode_cache.u_evictions
     + k.Ucode_cache.u_occupancy);
    check_bool "occupancy below high-water" true
      (k.Ucode_cache.u_occupancy <= k.Ucode_cache.u_max_occupancy)
  in
  conserved ();
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 1);
  conserved ();
  Ucode_cache.install c ~key:1 ~ready:0 (dummy_ucode 2);
  conserved ();
  Ucode_cache.install c ~key:2 ~ready:0 (dummy_ucode 1);
  Ucode_cache.install c ~key:3 ~ready:0 (dummy_ucode 1);
  conserved ();
  check_bool "forced evict hits" true (Ucode_cache.evict c ~key:3);
  check_bool "forced evict misses" false (Ucode_cache.evict c ~key:99);
  conserved ()

(* --- Vec --- *)

let test_vec_basics () =
  let v = Vec.create () in
  check "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  check "length" 100 (Vec.length v);
  check "get" 84 (Vec.get v 42);
  Vec.set v 42 7;
  check "set" 7 (Vec.get v 42);
  check "fold" (List.fold_left ( + ) 0 (Vec.to_list v))
    (Vec.fold_left ( + ) 0 v);
  check_bool "exists" true (Vec.exists (fun x -> x = 198) v);
  check_bool "not exists" false (Vec.exists (fun x -> x = 199) v);
  check "array length" 100 (Array.length (Vec.to_array v));
  Alcotest.check_raises "oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 100))

(* --- Event / Abort --- *)

let test_event_pp () =
  let e =
    Event.make ~pc:3 ~value:42
      (Insn.Mov { cond = Cond.Al; dst = Reg.make 1; src = Imm 42 })
  in
  Alcotest.(check string) "pp" "@3 mov r1, #42  ; => 42"
    (Format.asprintf "%a" Event.pp e)

let test_abort_permanence () =
  let classify = Liquid_pipeline.Diag.classify_abort in
  check_bool "external is retryable" true
    (classify Abort.External_abort = `Transient);
  List.iter
    (fun a -> check_bool (Abort.to_string a) true (classify a = `Permanent))
    [
      Abort.Illegal_insn "x";
      Abort.Unknown_permutation;
      Abort.Non_periodic_offsets;
      Abort.Unrepresentable_value;
      Abort.Buffer_overflow;
      Abort.No_loop;
      Abort.No_induction;
      Abort.Bad_trip_count;
      Abort.Inconsistent_iteration "x";
      Abort.Dangling_address_combine;
    ]

(* --- Offline harness edge cases --- *)

let test_offline_bad_entry () =
  let prog =
    Liquid_prog.Program.make ~name:"t"
      ~text:[ Liquid_prog.Program.Label "main"; Liquid_scalarize.Build.halt ]
      ~data:[]
  in
  let image = Liquid_prog.Image.of_program prog in
  check_bool "halt closes the region stream" true
    (match Offline.translate_region ~image ~lanes:4 ~entry:0 () with
    | Translator.Aborted _ -> true
    | Translator.Translated _ -> false)

(* The region [f] of a program that only calls it, from raw items: no
   closing return is appended. *)
let open_region ~data items =
  let open Liquid_scalarize.Build in
  let image =
    Liquid_prog.Image.of_program
      (Liquid_prog.Program.make ~name:"t"
         ~text:
           ((Liquid_prog.Program.Label "main" :: bl_region "f" :: [ halt ])
           @ (Liquid_prog.Program.Label "f" :: items))
         ~data)
  in
  (image, Option.get (Liquid_prog.Image.find_label image "f"))

let offline_diag ~data items =
  let image, entry = open_region ~data items in
  match Offline.translate_region_result ~image ~lanes:4 ~entry () with
  | Error d -> (image, entry, d)
  | Ok _ -> Alcotest.fail "expected an offline diagnostic"

let check_fault what expected (d : Diag.t) =
  Alcotest.(check string) what (Diag.fault_name expected)
    (Diag.fault_name d.Diag.fault)

let a_data =
  [
    Liquid_prog.Data.make ~name:"a" ~esize:Esize.Word (Array.init 16 Fun.id);
  ]

(* A loop that verifies for 8,000,000 steps, past the budget: its later
   iterations are batched until the next one would cross the budget,
   which is declined and stepped, so the budget fires at exactly the
   step after it. *)
let test_offline_nonterminating () =
  let open Liquid_scalarize.Build in
  let ind = Liquid_scalarize.Vloop.induction in
  let _, _, d =
    offline_diag ~data:a_data
      [
        mov ind 0;
        label "f_top";
        ld (r 1) "a" (ri ind);
        addi ind ind 1;
        cmp ind (i 2_000_000);
        b ~cond:Cond.Lt "f_top";
        ret;
      ]
  in
  check_fault "fault" Diag.Region_nonterminating d;
  check "retired = budget + 1" (Offline.step_budget + 1) d.Diag.retired

(* A region that runs off the end of the image. *)
let test_offline_wild_pc () =
  let open Liquid_scalarize.Build in
  let image, entry, d = offline_diag ~data:a_data [ mov (r 1) 0 ] in
  check_fault "fault" Diag.Wild_pc d;
  check "pc past the image" (Array.length image.Liquid_prog.Image.code) d.Diag.pc;
  check "pc = entry + 1" (entry + 1) d.Diag.pc;
  check "retired" 2 d.Diag.retired

(* A vector instruction inside the region is reported, not run. *)
let test_offline_vector_insn () =
  let open Liquid_scalarize.Build in
  let vector = Liquid_prog.Program.I (Liquid_visa.Minsn.V (vld (v 1) "a")) in
  let _, entry, d = offline_diag ~data:a_data [ mov (r 1) 0; vector; ret ] in
  check_fault "fault" Diag.Region_vector_insn d;
  check "pc of the vector insn" (entry + 1) d.Diag.pc;
  check "retired" 2 d.Diag.retired

let tests =
  [
    Alcotest.test_case "ucache: hit and miss" `Quick test_ucache_hit_and_miss;
    Alcotest.test_case "ucache: readiness" `Quick test_ucache_readiness;
    Alcotest.test_case "ucache: LRU" `Quick test_ucache_lru;
    Alcotest.test_case "ucache: reinstall" `Quick test_ucache_reinstall_same_key;
    Alcotest.test_case "ucache: counter conservation" `Quick
      test_ucache_counter_conservation;
    Alcotest.test_case "vec: basics" `Quick test_vec_basics;
    Alcotest.test_case "event: pretty printing" `Quick test_event_pp;
    Alcotest.test_case "abort: permanence" `Quick test_abort_permanence;
    Alcotest.test_case "offline: degenerate region" `Quick test_offline_bad_entry;
    Alcotest.test_case "offline: nonterminating region" `Quick
      test_offline_nonterminating;
    Alcotest.test_case "offline: wild pc" `Quick test_offline_wild_pc;
    Alcotest.test_case "offline: vector instruction" `Quick
      test_offline_vector_insn;
  ]
