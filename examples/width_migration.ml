(* The forward-migration story the paper opens with: a conventional
   native SIMD binary is welded to one accelerator generation, while the
   Liquid binary migrates — forward to wider hardware, backward to
   narrower hardware, and all the way down to a core with no accelerator
   at all.

   Run with: dune exec examples/width_migration.exe *)

open Liquid_prog
open Liquid_scalarize
open Liquid_pipeline
module Kernels = Liquid_workloads.Kernels
module Stats = Liquid_machine.Stats

(* A program using an 8-element butterfly — a "generation 2" feature. *)
let program =
  let loop =
    Kernels.fft_stage ~name:"st" ~count:128 ~block:8 ~re:"re" ~im:"im" ~wr:"wr"
      ~wi:"wi"
  in
  {
    Vloop.name = "mig";
    sections =
      Kernels.counted ~reg:(Liquid_isa.Reg.make 15) ~label:"fr" ~count:6
        [ Vloop.Loop loop ];
    data =
      [
        Kernels.warray "re" 128 (fun i -> i * 3);
        Kernels.warray "im" 128 (fun i -> 200 - i);
        Kernels.warray "wr" 128 (fun i -> i mod 7);
        Kernels.warray "wi" 128 (fun i -> 3 - (i mod 3));
      ];
  }

let try_run name image config =
  match Cpu.run ~config image with
  | run ->
      Format.printf "  %-34s OK    (%7d cycles, %5d vector insns)@." name
        run.Cpu.stats.Stats.cycles run.Cpu.stats.Stats.vector_insns
  | exception Liquid_pipeline.Diag.Error { fault = Illegal msg; _ } ->
      Format.printf "  %-34s FAULT (%s)@." name msg
  | exception Liquid_pipeline.Diag.Error d ->
      Format.printf "  %-34s ERROR (%s)@." name
        (Liquid_pipeline.Diag.to_string d)

let () =
  (* The conventional route: one binary per accelerator width. *)
  Format.printf "Native binary compiled for a 16-lane accelerator:@.";
  let native16 = Image.of_program (Codegen.native ~width:16 program) in
  try_run "on the 16-lane machine" native16 (Cpu.native_config ~lanes:16);
  try_run "on an 8-lane machine" native16 (Cpu.native_config ~lanes:8);
  try_run "on a scalar machine" native16 Cpu.scalar_config;
  (match Codegen.native ~width:4 program with
  | _ -> Format.printf "  (4-lane native binary generated?!)@."
  | exception Codegen.Unsupported_width msg ->
      Format.printf "  4-lane native binary:              CANNOT BUILD (%s)@." msg);

  (* The Liquid route: one binary, every machine. *)
  Format.printf "@.Liquid binary (compiled once):@.";
  let liquid = Image.of_program (Codegen.liquid program) in
  List.iter
    (fun lanes ->
      try_run
        (Printf.sprintf "on a %d-lane machine" lanes)
        liquid (Cpu.liquid_config ~lanes))
    [ 16; 8; 4; 2 ];
  try_run "on a scalar machine" liquid Cpu.scalar_config;
  Format.printf
    "@.On 4- and 2-lane machines the 8-wide butterfly cannot map, so the \
     translator aborts and the loop simply runs in its scalar form — \
     slower, but correct. That is the delayed-binding guarantee.@."
