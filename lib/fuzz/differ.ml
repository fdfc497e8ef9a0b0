open Liquid_prog
open Liquid_pipeline
open Liquid_translate
open Liquid_scalarize
open Liquid_harness
module Fault = Liquid_faults.Fault
module Oracle = Liquid_faults.Oracle
module Fingerprint = Liquid_faults.Fingerprint

type kind = K_regs | K_mem | K_both | K_crash of string
type divergence = { d_label : string; d_kind : kind }

type outcome = {
  o_runs : int;
  o_installs : int;
  o_aborts : (string * int) list;
  o_divergences : divergence list;
}

let widths = [ 2; 4; 8; 16 ]

let kind_to_string = function
  | K_regs -> "regs"
  | K_mem -> "mem"
  | K_both -> "both"
  | K_crash d -> "crash:" ^ d

(* accumulator for one case *)
type acc = {
  mutable runs : int;
  mutable installs : int;
  aborts : (string, int) Hashtbl.t;
  mutable divs : divergence list;
}

let bump_abort acc cls =
  Hashtbl.replace acc.aborts cls (1 + Option.value ~default:0 (Hashtbl.find_opt acc.aborts cls))

let record_regions acc (run : Cpu.run) =
  List.iter
    (fun (r : Cpu.region_report) ->
      match r.Cpu.outcome with
      | Cpu.R_untried -> ()
      | Cpu.R_installed _ -> acc.installs <- acc.installs + 1
      | Cpu.R_failed a -> bump_abort acc (Abort.class_name a))
    run.Cpu.regions

type reference = { ref_regs : int; ref_mem : int; mask : bool array }

(* Execute [image] under [config] and compare against the reference
   fingerprint. [regs_checked] is false for the baseline binary, whose
   register file legitimately differs (different code layout). *)
let check acc refc ~label ?(regs_checked = true) image config =
  acc.runs <- acc.runs + 1;
  match Cpu.run_result ~config image with
  | Error diag ->
      acc.divs <- { d_label = label; d_kind = K_crash (Diag.to_string diag) } :: acc.divs
  | Ok run ->
      record_regions acc run;
      let mem_ok = Fingerprint.mem_hash image run.Cpu.memory = refc.ref_mem in
      let regs_ok =
        (not regs_checked)
        || Fingerprint.regs_hash_masked ~mask:refc.mask run.Cpu.regs = refc.ref_regs
      in
      let kind =
        match (regs_ok, mem_ok) with
        | true, true -> None
        | false, true -> Some K_regs
        | true, false -> Some K_mem
        | false, false -> Some K_both
      in
      Option.iter
        (fun k -> acc.divs <- { d_label = label; d_kind = k } :: acc.divs)
        kind

let engine_label blocks = if blocks then "" else "/noblocks"

let backends = List.map Backend.kind_of Backend.all

(* Every backend at every width, translated by the hardware translator
   or by the oracle. *)
let liquid_variants ~oracle w =
  List.map (fun backend -> Runner.Liquid { backend; lanes = w; oracle }) backends

let fault_variants =
  List.concat_map
    (fun backend ->
      List.map
        (fun lanes -> Runner.Liquid { backend; lanes; oracle = false })
        widths)
    backends

let draw_fault rng =
  match Fault.Rng.int rng 3 with
  | 0 ->
      Fault.Force_abort
        { site = Fault.Rng.int rng 48; abort = Fault.Rng.pick rng Abort.all }
  | 1 -> Fault.Corrupt_feed { site = Fault.Rng.int rng 48 }
  | _ -> Fault.Evict_ucode { call = Fault.Rng.int rng 6 }

let finish acc =
  {
    o_runs = acc.runs;
    o_installs = acc.installs;
    o_aborts =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc.aborts []);
    o_divergences = List.rev acc.divs;
  }

let run_case ?fault_seed (p : Vloop.program) =
  let acc = { runs = 0; installs = 0; aborts = Hashtbl.create 8; divs = [] } in
  (try
     let liquid = Codegen.liquid p in
     let image = Image.of_program liquid in
     let mask = Oracle.mask_of_image image in
     acc.runs <- acc.runs + 1;
     match Cpu.run_result ~config:Cpu.scalar_config image with
     | Error diag ->
         acc.divs <-
           [ { d_label = "scalar-reference"; d_kind = K_crash (Diag.to_string diag) } ]
     | Ok ref_run ->
         let refc =
           {
             ref_regs = Fingerprint.regs_hash_masked ~mask ref_run.Cpu.regs;
             ref_mem = Fingerprint.mem_hash image ref_run.Cpu.memory;
             mask;
           }
         in
         (* the inline-loop baseline binary: same arrays, memory must agree *)
         (try
            let base_image = Image.of_program (Codegen.baseline p) in
            check acc refc ~label:"baseline" ~regs_checked:false base_image
              Cpu.scalar_config
          with e ->
            acc.divs <-
              { d_label = "baseline"; d_kind = K_crash (Printexc.to_string e) }
              :: acc.divs);
         (* fixed, VLA and RVV at every width, block engine on/off *)
         List.iter
           (fun w ->
             List.iter
               (fun variant ->
                 let base_label = Runner.variant_to_string variant in
                 List.iter
                   (fun blocks ->
                     let config = { (Runner.config_of variant) with blocks } in
                     check acc refc
                       ~label:(base_label ^ engine_label blocks)
                       image config)
                   [ true; false ])
               (liquid_variants ~oracle:false w);
             (* oracle translation (microcode ready at first call) *)
             List.iter
               (fun variant ->
                 check acc refc
                   ~label:(Runner.variant_to_string variant)
                   image (Runner.config_of variant))
               (liquid_variants ~oracle:true w))
           widths;
         (* seeded translation-path faults *)
         (match fault_seed with
         | None -> ()
         | Some seed ->
             let rng = Fault.Rng.make seed in
             for _ = 1 to 3 do
               let fault = draw_fault rng in
               let variant = Fault.Rng.pick rng fault_variants in
               let armed = Fault.arm fault in
               let config =
                 { (Runner.config_of variant) with faults = armed.Fault.hooks }
               in
               check acc refc
                 ~label:
                   (Printf.sprintf "%s+%s"
                      (Runner.variant_to_string variant)
                      (Fault.to_string fault))
                 image config
             done)
   with e ->
     acc.divs <-
       { d_label = "generate"; d_kind = K_crash (Printexc.to_string e) } :: acc.divs);
  finish acc

let diverging ?fault_seed p = (run_case ?fault_seed p).o_divergences <> []

let kind_tag = function
  | K_regs -> "regs"
  | K_mem -> "mem"
  | K_both -> "both"
  | K_crash _ -> "crash"

let signature o =
  List.sort_uniq compare
    (List.map (fun d -> (d.d_label, kind_tag d.d_kind)) o.o_divergences)

let fails_like ?fault_seed sig_ p =
  List.exists
    (fun d -> List.mem (d.d_label, kind_tag d.d_kind) sig_)
    (run_case ?fault_seed p).o_divergences

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>runs %d, installs %d@ " o.o_runs o.o_installs;
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "abort %-24s %d@ " cls n)
    o.o_aborts;
  List.iter
    (fun d -> Format.fprintf ppf "DIVERGED %-24s %s@ " d.d_label (kind_to_string d.d_kind))
    o.o_divergences;
  Format.fprintf ppf "@]"
