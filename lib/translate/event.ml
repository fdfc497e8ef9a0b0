open Liquid_isa

type t = { pc : int; insn : Insn.exec; value : int option }

let make ~pc ?value insn = { pc; insn; value }
let no_value = min_int
let value_code t = match t.value with Some v -> v | None -> no_value

let pp ppf t =
  Format.fprintf ppf "@%d %a%a" t.pc Insn.pp_exec t.insn
    (fun ppf -> function
      | None -> ()
      | Some v -> Format.fprintf ppf "  ; => %d" v)
    t.value
