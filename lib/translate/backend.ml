open Liquid_isa
open Liquid_visa

type kind = Ucode.kind = Fixed | Vla | Rvv

type perm_lowering = Perm_native | Perm_table | Perm_abort

module type S = sig
  val kind : kind
  val name : string
  val effective_width : lanes:int -> trips:int -> (int, Abort.t) result
  val register_group : lanes:int -> pressure:int -> int
  val permutation : perm_lowering
  val loop_header : induction:Reg.t -> bound:int -> Ucode.uop list
  val body_vector : Vinsn.exec -> Ucode.uop
  val induction_step : dst:Reg.t -> width:int -> Ucode.uop
  val trip_compare : insn:Insn.exec -> induction:Reg.t -> bound:int -> Ucode.uop

  val perm_index_build : pattern:Perm.t -> Ucode.uop

  val perm_gather :
    esize:Esize.t ->
    signed:bool ->
    dst:Vreg.t ->
    base:int Insn.base ->
    counter:Reg.t ->
    pattern:Perm.t ->
    Ucode.uop

  val perm_scatter :
    esize:Esize.t ->
    src:Vreg.t ->
    base:int Insn.base ->
    counter:Reg.t ->
    pattern:Perm.t ->
    Ucode.uop
end

type t = (module S)

let no_table_lowering name =
  invalid_arg
    (Printf.sprintf "Backend.%s: no table-lookup permutation lowering" name)

module Fixed_width : S = struct
  let kind = Fixed
  let name = "fixed"

  (* The widest lane count [2 <= w <= lanes] dividing the trip count: a
     binary compiled for the maximum vectorizable width still maps onto
     narrower accelerators, and short-vector loops map onto wider
     hardware at reduced width. *)
  let effective_width ~lanes ~trips =
    let rec go w =
      if w < 2 then Error Abort.Bad_trip_count
      else if trips mod w = 0 then Ok w
      else go (w / 2)
    in
    go lanes

  let register_group ~lanes:_ ~pressure:_ = 1
  let permutation = Perm_native
  let loop_header ~induction:_ ~bound:_ = []
  let body_vector v = Ucode.UV v

  let induction_step ~dst ~width =
    Ucode.US
      (Insn.Dp
         {
           cond = Cond.Al;
           op = Opcode.Add;
           dst;
           src1 = dst;
           src2 = Insn.Imm width;
         })

  let trip_compare ~insn ~induction:_ ~bound:_ = Ucode.US insn
  let perm_index_build ~pattern:_ = no_table_lowering name
  let perm_gather ~esize:_ ~signed:_ ~dst:_ ~base:_ ~counter:_ ~pattern:_ =
    no_table_lowering name
  let perm_scatter ~esize:_ ~src:_ ~base:_ ~counter:_ ~pattern:_ =
    no_table_lowering name
end

(* The emission hooks both governed targets share: every loop-control
   and datapath uop runs under one governor, and only the governor and
   the induction advance differ between VLA and RVV. *)
module Governed_hooks (G : sig
  val gov : Governed.gov
  val by : Governed.advance
end) =
struct
  let set_active ~induction ~bound =
    Ucode.UG (Governed.Set_active { into = G.gov; counter = induction; bound })

  (* Predication (resp. the vsetvl grant) absorbs any remainder: the
     loop always runs at the full hardware width, with ceil(trips /
     lanes) governed iterations and no divisibility requirement. *)
  let effective_width ~lanes ~trips =
    if trips > 0 then Ok lanes else Error Abort.Bad_trip_count

  let permutation = Perm_table
  let loop_header ~induction ~bound = [ set_active ~induction ~bound ]
  let body_vector v = Ucode.UG (Governed.Op { gov = G.gov; v })

  let induction_step ~dst ~width:_ =
    Ucode.UG (Governed.Advance { dst; by = G.by })

  let trip_compare ~insn:_ ~induction ~bound = set_active ~induction ~bound

  let perm_index_build ~pattern =
    Ucode.UG (Governed.Tblidx { gov = G.gov; pattern })

  let perm_gather ~esize ~signed ~dst ~base ~counter ~pattern =
    Ucode.UG
      (Governed.Tbl { gov = G.gov; esize; signed; dst; base; counter; pattern })

  let perm_scatter ~esize ~src ~base ~counter ~pattern =
    Ucode.UG
      (Governed.Tblst { gov = G.gov; esize; src; base; counter; pattern })
end

module Vla_target : S = struct
  let kind = Vla
  let name = "vla"

  include Governed_hooks (struct
    let gov = Governed.Pred Governed.p0
    let by = Governed.Lanes
  end)

  let register_group ~lanes:_ ~pressure:_ = 1
end

module Rvv_target : S = struct
  let kind = Rvv
  let name = "rvv"

  include Governed_hooks (struct
    let gov = Governed.Vl
    let by = Governed.Granted
  end)

  (* LMUL register grouping: gang [m] architectural vector registers
     into one logical operand, multiplying the datapath width the
     translator emits for. The group factor is bounded by the machine's
     maximum vector length (the simulator's lane arrays) and by this
     region's vector-register pressure — each of the region's [pressure]
     live vector values occupies [m] architectural registers, which must
     all fit the 16-entry vector file. *)
  let register_group ~lanes ~pressure =
    let max_lanes = Width.lanes Width.max in
    let pressure = max 1 pressure in
    let rec go m =
      if m <= 1 then 1
      else if lanes * m <= max_lanes && pressure * m <= Vreg.count then m
      else go (m / 2)
    in
    go 8
end

let fixed : t = (module Fixed_width)
let vla : t = (module Vla_target)
let rvv : t = (module Rvv_target)
let all = [ fixed; vla; rvv ]

let of_kind = function Fixed -> fixed | Vla -> vla | Rvv -> rvv

let kind_of (b : t) =
  let module B = (val b) in
  B.kind

let name_of (b : t) =
  let module B = (val b) in
  B.name

let of_string = function
  | "fixed" -> Some fixed
  | "vla" -> Some vla
  | "rvv" -> Some rvv
  | _ -> None

let pp ppf b = Format.pp_print_string ppf (name_of b)
