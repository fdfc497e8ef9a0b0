open Liquid_isa

type preg = int

let preg_count = 8
let p0 = 0

let pp_preg ppf p = Format.fprintf ppf "p%d" p

type gov = Pred of preg | Vl

let slot_count = preg_count + 1
let slot = function Pred p -> p | Vl -> preg_count

type advance = Lanes | Granted

type t =
  | Set_active of { into : gov; counter : Reg.t; bound : int }
  | Advance of { dst : Reg.t; by : advance }
  | Op of { gov : gov; v : Vinsn.exec }
  | Tblidx of { gov : gov; pattern : Perm.t }
  | Tbl of {
      gov : gov;
      esize : Esize.t;
      signed : bool;
      dst : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }
  | Tblst of {
      gov : gov;
      esize : Esize.t;
      src : Vreg.t;
      base : int Insn.base;
      counter : Reg.t;
      pattern : Perm.t;
    }

let is_vector = function
  | Op _ | Tblidx _ | Tbl _ | Tblst _ -> true
  | Set_active _ | Advance _ -> false

let defs_vector = function
  | Op { v; _ } -> Vinsn.defs_vector v
  | Tbl { dst; _ } -> [ dst ]
  | Set_active _ | Advance _ | Tblidx _ | Tblst _ -> []

let uses_vector = function
  | Op { v; _ } -> Vinsn.uses_vector v
  | Tblst { src; _ } -> [ src ]
  | Set_active _ | Advance _ | Tblidx _ | Tbl _ -> []

(* The governor prefix of a governed datapath op: SVE's zeroing
   predicate ("p0/z ") or RVV's grant ("vl/"). *)
let pp_gov ppf = function
  | Pred p -> Format.fprintf ppf "%a/z " pp_preg p
  | Vl -> Format.pp_print_string ppf "vl/"

let pp_base ppf = function
  | Insn.Sym a -> Format.fprintf ppf "0x%x" a
  | Insn.Breg r -> Reg.pp ppf r

let spelling gov ~sve ~rvv = match gov with Pred _ -> sve | Vl -> rvv

let pp ppf = function
  | Set_active { into = Pred p; counter; bound } ->
      Format.fprintf ppf "whilelt %a, %a, #%d" pp_preg p Reg.pp counter bound
  | Set_active { into = Vl; counter; bound } ->
      Format.fprintf ppf "vsetvl vl, %a, #%d" Reg.pp counter bound
  | Advance { dst; by = Lanes } -> Format.fprintf ppf "incvl %a" Reg.pp dst
  | Advance { dst; by = Granted } ->
      Format.fprintf ppf "add %a, %a, vl" Reg.pp dst Reg.pp dst
  | Op { gov; v } -> Format.fprintf ppf "%a%a" pp_gov gov Vinsn.pp_exec v
  | Tblidx { gov; pattern } ->
      Format.fprintf ppf "%s %a"
        (spelling gov ~sve:"tblidx" ~rvv:"vidx")
        Perm.pp pattern
  | Tbl { gov; esize; signed; dst; base; counter; pattern } ->
      Format.fprintf ppf "%a%s%s%s.%a %a, [%a + %a]" pp_gov gov
        (spelling gov ~sve:"tbl" ~rvv:"vlux")
        (Esize.suffix esize)
        (if signed && esize <> Esize.Word then "s" else "")
        Perm.pp pattern Vreg.pp dst pp_base base Reg.pp counter
  | Tblst { gov; esize; src; base; counter; pattern } ->
      Format.fprintf ppf "%a%s%s.%a [%a + %a], %a" pp_gov gov
        (spelling gov ~sve:"tblst" ~rvv:"vsux")
        (Esize.suffix esize) Perm.pp pattern pp_base base Reg.pp counter
        Vreg.pp src
