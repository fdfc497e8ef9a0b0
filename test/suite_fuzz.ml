(* The fuzzing tier itself: replay of the pinned regression corpus and
   a fixed-seed mini-campaign. Both must be completely clean — every
   corpus entry is a bug the campaign once surfaced, and a nonzero
   divergence count in the mini-campaign means a fresh translator or
   semantics regression. [LIQUID_FUZZ_CASES] scales the campaign up for
   an out-of-CI soak (the acceptance runs use 100000). *)

module Fuzz = Liquid_fuzz
module Campaign = Fuzz.Campaign

let check = Alcotest.check
let check_int = Alcotest.(check int)

let sig_to_string s =
  String.concat " " (List.map (fun (l, k) -> l ^ "/" ^ k) s)

let test_corpus_clean () =
  List.iter
    (fun (name, p) ->
      let o = Fuzz.Differ.run_case p in
      check Alcotest.string
        (Printf.sprintf "corpus %s replays clean" name)
        ""
        (sig_to_string (Fuzz.Differ.signature o));
      Alcotest.(check bool)
        (Printf.sprintf "corpus %s exercised the translator" name)
        true (o.Fuzz.Differ.o_installs > 0))
    Fuzz_corpus.Corpus.cases

let campaign_cases () =
  match Sys.getenv_opt "LIQUID_FUZZ_CASES" with
  | Some n -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg "LIQUID_FUZZ_CASES must be a positive integer")
  | None -> 120

let test_mini_campaign () =
  let cases = campaign_cases () in
  let r = Campaign.run ~seed:2026 ~cases () in
  check_int "every case is clean" cases r.Campaign.r_clean;
  (match r.Campaign.r_divergent with
  | [] -> ()
  | l ->
      Alcotest.failf "divergent cases: %s"
        (String.concat ", " (List.map (fun (i, _) -> string_of_int i) l)));
  (* matrix accounting: 38 fault-free runs per case (scalar reference,
     baseline, and per width the three backends x block engine on/off
     plus three oracles) plus 3 seeded fault runs, and the
     clean/divergent split partitions the cases *)
  check_int "runs per case" (cases * 41) r.Campaign.r_runs;
  check_int "clean + divergent = cases" cases
    (r.Campaign.r_clean + List.length r.Campaign.r_divergent);
  check_int "divergence histogram is empty" 0
    (List.fold_left (fun n (_, c) -> n + c) 0 r.Campaign.r_div_hist);
  Alcotest.(check bool)
    "translations installed" true (r.Campaign.r_installs > 0);
  List.iter
    (fun (cls, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "abort class %s count positive" cls)
        true (n > 0))
    r.Campaign.r_aborts;
  (* the report must pass its own schema *)
  ignore (Campaign.to_json r)

(* Every permutation the generator emits is a fixed-geometry catalog
   pattern read from a loop-invariant offset array — exactly the class
   the VLA and RVV backends recover as a table lookup. A seeded
   fault-free campaign must therefore never abort a translation as
   unportable-permutation, on any backend, at any width. *)
let test_no_unportable_aborts () =
  let cases = 30 in
  let total = Hashtbl.create 8 in
  for index = 0 to cases - 1 do
    let p = Fuzz.Gen.generate ~seed:2026 ~index in
    let o = Fuzz.Differ.run_case p in
    check Alcotest.string
      (Printf.sprintf "case %d runs clean" index)
      ""
      (sig_to_string (Fuzz.Differ.signature o));
    List.iter
      (fun (cls, n) ->
        Hashtbl.replace total cls
          (n + Option.value ~default:0 (Hashtbl.find_opt total cls)))
      o.Fuzz.Differ.o_aborts
  done;
  check_int "zero unportable-permutation aborts" 0
    (Option.value ~default:0 (Hashtbl.find_opt total "unportable-permutation"))

let test_generator_deterministic () =
  let p1 = Fuzz.Gen.generate ~seed:7 ~index:42 in
  let p2 = Fuzz.Gen.generate ~seed:7 ~index:42 in
  check Alcotest.string "same (seed, index), same program"
    (Format.asprintf "%a" Fuzz.Gen.pp_program p1)
    (Format.asprintf "%a" Fuzz.Gen.pp_program p2);
  Alcotest.(check bool)
    "different index, different program" true
    (Format.asprintf "%a" Fuzz.Gen.pp_program p1
    <> Format.asprintf "%a" Fuzz.Gen.pp_program
         (Fuzz.Gen.generate ~seed:7 ~index:43))

let test_shrinker_soundness () =
  (* The shrinker must refuse candidates that drop a def but keep a
     use: minimizing under an always-true predicate walks the whole
     candidate lattice, and every accepted step must stay a valid,
     scalar-sound program. *)
  List.iter
    (fun (name, p) ->
      let shrunk = Fuzz.Shrink.minimize ~failing:(fun _ -> true) p in
      match Liquid_scalarize.Vloop.validate_program shrunk with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "shrink of %s produced invalid program: %s" name m)
    Fuzz_corpus.Corpus.cases

let tests =
  [
    Alcotest.test_case "corpus: replay clean" `Slow test_corpus_clean;
    Alcotest.test_case "campaign: fixed-seed mini-run" `Slow test_mini_campaign;
    Alcotest.test_case "campaign: permutes recover, no unportable aborts"
      `Slow test_no_unportable_aborts;
    Alcotest.test_case "gen: deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "shrink: sound under any predicate" `Quick
      test_shrinker_soundness;
  ]
