type fault =
  | Fuel_exhausted
  | Wild_pc
  | Ucode_index of int
  | Ucode_control_flow
  | Illegal of string
  | Region_nonterminating
  | Region_vector_insn

type t = { fault : fault; pc : int; cycle : int; retired : int }

exception Error of t

let make ~fault ~pc ~cycle ~retired = { fault; pc; cycle; retired }

let classify_abort (a : Liquid_translate.Abort.t) =
  let open Liquid_translate.Abort in
  match a with
  | External_abort -> `Transient
  | Illegal_insn _ | Unknown_permutation | Non_periodic_offsets
  | Unrepresentable_value | Buffer_overflow | No_loop | No_induction
  | Bad_trip_count | Inconsistent_iteration _ | Dangling_address_combine
  | Unportable_permutation ->
      `Permanent

let fault_name = function
  | Fuel_exhausted -> "fuel-exhausted"
  | Wild_pc -> "wild-pc"
  | Ucode_index _ -> "ucode-index"
  | Ucode_control_flow -> "ucode-control-flow"
  | Illegal _ -> "illegal"
  | Region_nonterminating -> "region-nonterminating"
  | Region_vector_insn -> "region-vector-insn"

let fault_to_string = function
  | Fuel_exhausted -> "instruction budget exhausted"
  | Wild_pc -> "wild pc"
  | Ucode_index i -> Printf.sprintf "microcode index %d out of range" i
  | Ucode_control_flow -> "control flow in scalar microcode"
  | Illegal s -> "illegal instruction: " ^ s
  | Region_nonterminating -> "region does not terminate"
  | Region_vector_insn -> "vector instruction in scalar region"

let to_string d =
  Printf.sprintf "%s (pc=%d cycle=%d retired=%d)" (fault_to_string d.fault)
    d.pc d.cycle d.retired

let pp ppf d = Format.pp_print_string ppf (to_string d)

let () =
  Printexc.register_printer (function
    | Error d -> Some ("Liquid_pipeline.Diag.Error: " ^ to_string d)
    | _ -> None)
