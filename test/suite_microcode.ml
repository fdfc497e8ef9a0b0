(* Per-benchmark microcode regression: every region of every workload
   translates offline at 8 lanes, fits the buffer, is no larger than its
   scalar source, and contains the vector operations its kernel shape
   implies. *)

open Liquid_prog
open Liquid_visa
open Liquid_pipeline
open Liquid_translate
open Liquid_workloads

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let translated_regions (w : Workload.t) ~lanes =
  let image = Image.of_program (Liquid_scalarize.Codegen.liquid w.program) in
  List.map
    (fun (entry, label, result) ->
      match result with
      | Translator.Translated u -> (label, u)
      | Translator.Aborted reason ->
          Alcotest.failf "%s region %s (entry %d) aborted: %s" w.name label
            entry (Abort.to_string reason))
    (Offline.translate_all ~image ~lanes ())

let count_uops pred (u : Ucode.t) =
  Array.fold_left (fun n uop -> if pred uop then n + 1 else n) 0 u.Ucode.uops

let is_v pred = function Ucode.UV v -> pred v | _ -> false

let microcode_invariants (w : Workload.t) () =
  let sizes = Liquid_scalarize.Codegen.outlined_sizes w.program in
  List.iter
    (fun (label, u) ->
      let static = List.assoc label sizes in
      check_bool
        (Printf.sprintf "%s/%s fits buffer" w.name label)
        true
        (Ucode.length u <= 64);
      (* Microcode is never larger than its scalar source (idioms and
         offset loads collapse; pass-through is 1:1; the only additions
         are the return and scatter permutes). *)
      check_bool
        (Printf.sprintf "%s/%s no larger than scalar (%d vs %d)" w.name label
           (Ucode.length u) (static + 1))
        true
        (Ucode.length u <= static + 1);
      (* Exactly one back-edge and one return. *)
      check (Printf.sprintf "%s/%s one back-edge" w.name label) 1
        (count_uops (function Ucode.UB _ -> true | _ -> false) u);
      check (Printf.sprintf "%s/%s one return" w.name label) 1
        (count_uops (function Ucode.URet -> true | _ -> false) u);
      (* Width divides the compiled maximum. *)
      check_bool
        (Printf.sprintf "%s/%s width" w.name label)
        true
        (List.mem u.Ucode.width [ 2; 4; 8 ]))
    (translated_regions w ~lanes:8)

let shape_expectations () =
  let has name pred =
    let w = match Workload.find name with Some w -> w | None -> assert false in
    List.exists (fun (_, u) -> count_uops pred u > 0) (translated_regions w ~lanes:8)
  in
  check_bool "MPEG2 Dec. uses saturating adds" true
    (has "MPEG2 Dec." (is_v (function Vinsn.Vsat _ -> true | _ -> false)));
  check_bool "GSM Dec. uses saturating adds" true
    (has "GSM Dec." (is_v (function Vinsn.Vsat _ -> true | _ -> false)));
  check_bool "FFT uses permutations" true
    (has "FFT" (is_v (function Vinsn.Vperm _ -> true | _ -> false)));
  check_bool "171.swim uses permutations" true
    (has "171.swim" (is_v (function Vinsn.Vperm _ -> true | _ -> false)));
  check_bool "052.alvinn uses reductions" true
    (has "052.alvinn" (is_v (function Vinsn.Vred _ -> true | _ -> false)));
  check_bool "GSM Enc. uses reductions" true
    (has "GSM Enc." (is_v (function Vinsn.Vred _ -> true | _ -> false)));
  check_bool "104.hydro2d folds masks to constants" true
    (has "104.hydro2d"
       (is_v (function Vinsn.Vdp { src2 = VConst _; _ } -> true | _ -> false)))

(* The translator never emits what the block engine would decline:
   every vector and governed uop of every translation — 15 workloads x
   {fixed, vla, rvv} x {2, 4, 8, 16} — is total at its microcode width,
   so every segment of installed microcode compiles. *)
let only_total_ops () =
  List.iter
    (fun (w : Workload.t) ->
      let image = Image.of_program (Liquid_scalarize.Codegen.liquid w.program) in
      List.iter
        (fun backend ->
          List.iter
            (fun lanes ->
              List.iter
                (fun (_, label, result) ->
                  match result with
                  | Translator.Aborted _ -> ()
                  | Translator.Translated u ->
                      Array.iteri
                        (fun i uop ->
                          let total =
                            match uop with
                            | Ucode.UV v -> Sem.vector_total ~lanes:u.Ucode.width v
                            | Ucode.UG g -> Sem.governed_total ~lanes:u.Ucode.width g
                            | Ucode.US _ | Ucode.UB _ | Ucode.URet -> true
                          in
                          if not total then
                            Alcotest.failf "%s/%s %s/%d: uop %d is not total at %d lanes"
                              w.name label (Backend.name_of backend) lanes i u.Ucode.width)
                        u.Ucode.uops)
                (Offline.translate_all ~backend ~image ~lanes ()))
            [ 2; 4; 8; 16 ])
        Backend.all)
    (Workload.all ())

let tests =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s microcode invariants" w.name)
        `Quick (microcode_invariants w))
    (Workload.all ())
  @ [
      Alcotest.test_case "kernel-shape expectations" `Quick shape_expectations;
      Alcotest.test_case "every translation holds only total ops" `Quick
        only_total_ops;
    ]
