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
  o_fault_cells : Fault.t list;
  o_faults_fired : int;
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
  mutable fault_cells : Fault.t list;
  mutable fired : int;
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

(* Execute [image] under [config], compare against the reference
   fingerprint and return the run's result. [regs_checked] is false for
   the baseline binary, whose register file legitimately differs
   (different code layout). A watchdog cell ([fuel_cell]) is meant to
   stop with [Fuel_exhausted]. *)
let check acc refc ~label ?(regs_checked = true) ?(fuel_cell = false) image
    config =
  acc.runs <- acc.runs + 1;
  let result =
    match Cpu.run ~config image with
    | run -> Ok run
    | exception Diag.Error d -> Error d
  in
  (match result with
  | Error { Diag.fault = Diag.Fuel_exhausted; _ } when fuel_cell -> ()
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
        kind);
  result

let backends = List.map Backend.kind_of Backend.all

(* Every backend at every width, translated by the hardware translator
   or by the oracle. *)
let liquid_variants ~oracle w =
  List.map (fun backend -> Runner.Liquid { backend; lanes = w; oracle }) backends

(* A fault drawn inside the clean-run site space [sp] of the variant it
   attacks: a kind with sites there, then a site uniform in them. *)
let draw_fault rng (sp : Fault.space) =
  let kinds =
    List.filter
      (fun (n, _) -> n > 0)
      [
        ( sp.Fault.sp_feeds,
          fun site ->
            Fault.Force_abort { site; abort = Fault.Rng.pick rng Abort.all } );
        (sp.Fault.sp_feeds, fun site -> Fault.Corrupt_feed { site });
        (sp.Fault.sp_calls, fun call -> Fault.Evict_ucode { call });
        (sp.Fault.sp_retired, fun budget -> Fault.Exhaust_fuel { budget });
      ]
  in
  let n, make = Fault.Rng.pick rng kinds in
  make (Fault.Rng.int rng n)

(* One seeded fault cell on the engine the variant runs by default. It
   fired when the run reached its site, or, for a watchdog cell, when
   the run stopped on its budget. *)
let fault_cell acc refc image variant fault =
  let label = Runner.variant_to_string variant ^ "+" ^ Fault.to_string fault in
  let fuel_cell = match fault with Fault.Exhaust_fuel _ -> true | _ -> false in
  let config = { (Runner.config_of variant) with Cpu.fault = Some fault } in
  let fired =
    match check acc refc ~label ~fuel_cell image config with
    | Error { Diag.fault = Diag.Fuel_exhausted; _ } -> fuel_cell
    | Error _ -> false
    | Ok run -> run.Cpu.fault_fired
  in
  acc.fault_cells <- fault :: acc.fault_cells;
  if fired then acc.fired <- acc.fired + 1

let finish acc =
  {
    o_runs = acc.runs;
    o_installs = acc.installs;
    o_aborts =
      List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc.aborts []);
    o_fault_cells = List.rev acc.fault_cells;
    o_faults_fired = acc.fired;
    o_divergences = List.rev acc.divs;
  }

let run_case ?fault_seed (p : Vloop.program) =
  let acc =
    {
      runs = 0;
      installs = 0;
      aborts = Hashtbl.create 8;
      fault_cells = [];
      fired = 0;
      divs = [];
    }
  in
  (try
     let liquid = Codegen.liquid p in
     let image = Image.of_program liquid in
     let mask = Oracle.mask_of_image image in
     acc.runs <- acc.runs + 1;
     match Cpu.run ~config:Cpu.scalar_config image with
     | exception Diag.Error diag ->
         acc.divs <-
           [ { d_label = "scalar-reference"; d_kind = K_crash (Diag.to_string diag) } ]
     | ref_run ->
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
            ignore
              (check acc refc ~label:"baseline" ~regs_checked:false base_image
                 Cpu.scalar_config)
          with e ->
            acc.divs <-
              { d_label = "baseline"; d_kind = K_crash (Printexc.to_string e) }
              :: acc.divs);
         (* fixed, VLA and RVV at every width, block engine on/off. The
            engine-off cell's run record sizes the variant's fault site
            space at no extra run. *)
         let spaces = ref [] in
         List.iter
           (fun w ->
             List.iter
               (fun variant ->
                 let label = Runner.variant_to_string variant in
                 let config = Runner.config_of variant in
                 ignore (check acc refc ~label image config);
                 match
                   check acc refc ~label:(label ^ "/noblocks") image
                     { config with blocks = false }
                 with
                 | Ok run -> spaces := (variant, Fault.space_of run) :: !spaces
                 | Error _ -> ())
               (liquid_variants ~oracle:false w);
             (* oracle translation (microcode ready at first call) *)
             List.iter
               (fun variant ->
                 ignore
                   (check acc refc
                      ~label:(Runner.variant_to_string variant)
                      image (Runner.config_of variant)))
               (liquid_variants ~oracle:true w))
           widths;
         (* seeded fault cells on the live variants; one whose engine-off
            cell crashed has no space, and the case already diverged *)
         (match (fault_seed, List.rev !spaces) with
         | None, _ | Some _, [] -> ()
         | Some seed, spaces ->
             let rng = Fault.Rng.make seed in
             for _ = 1 to 3 do
               let variant, sp = Fault.Rng.pick rng spaces in
               fault_cell acc refc image variant (draw_fault rng sp)
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
  Format.fprintf ppf "@[<v>runs %d, installs %d, faults fired %d/%d@ " o.o_runs
    o.o_installs o.o_faults_fired
    (List.length o.o_fault_cells);
  List.iter
    (fun (cls, n) -> Format.fprintf ppf "abort %-24s %d@ " cls n)
    o.o_aborts;
  List.iter
    (fun d -> Format.fprintf ppf "DIVERGED %-24s %s@ " d.d_label (kind_to_string d.d_kind))
    o.o_divergences;
  Format.fprintf ppf "@]"
