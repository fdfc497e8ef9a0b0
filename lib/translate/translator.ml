open Liquid_isa
open Liquid_visa

type config = { lanes : int; max_uops : int; backend : Backend.t }

let default_max_uops = 64

let default_config ?(backend = Backend.fixed) ~lanes () =
  { lanes; max_uops = default_max_uops; backend }

type result = Translated of Ucode.t | Aborted of Abort.t

type perm_tally = { seen : int; recovered : int; aborted : int }

(* Microcode buffer slots. [Cinc] and [Cperm] are placeholders resolved at
   [finish]; [Cb] is the loop back-edge whose target is remapped after
   compaction. [Cuop] holds a backend-resolved table-lookup op (a
   recovered permutation lowered through the backend's perm hooks),
   emitted verbatim. *)
type content =
  | Cs of Insn.exec
  | Cv of Vinsn.exec
  | Cperm of { dst : Vreg.t; src : Vreg.t; lineage : int; scatter : bool }
  | Cuop of Ucode.uop
  | Cinc of Reg.t
  | Cb of Cond.t

type slot = {
  pc : int;
  mutable valid : bool;
  mutable content : content;
  mutable const_candidate : (int * int) option;
      (* (pc of the load defining the operand, slot index of that load) *)
}

type vinfo = {
  esize : Esize.t;
  vsigned : bool;
  def_slot : int;
  lineage : int option;
      (* pc of the static load whose observed values this register
         carries — the paper's "previous values" register state *)
  addr_combine : bool;  (* result of Table 3 rule 8: induction + offsets *)
}

type rstate =
  | Rscalar
  | Rcandidate
  | Rinduction
  | Rvector of vinfo
  | Rscaled of { stride : int; phase : int }
      (* extension: the scaled induction variable feeding interleaved
         (strided) memory accesses *)

type pending_sat = {
  ps_reg : Reg.t;
  ps_info : vinfo;
  mutable clamps : (Cond.t * int) list;  (* reversed *)
  mutable awaiting : int option;  (* bound of a compare waiting for its mov *)
}

(* Per static load: the element size and the effective address of every
   observed execution, in stream order (parallel to the value stream in
   [values]). Constant-folding a load's values is only checkable later
   if every address was reconstructible from the concrete register
   shadow; otherwise the source is unsound for folding. *)
type fold_src = {
  f_bytes : int;
  f_signed : bool;
  f_addrs : int Vec.t;
  mutable f_sound : bool;
}

(* Verify-phase recorder of one pattern slot: where the slot's load
   pushes its observed value and effective address. Fixed when Verify
   begins: [Recorded] only for a load [finish] can consult (see
   [demanded_pcs]) whose stream the first iteration started,
   [Unrecorded] for every other slot. Sound because neither [values] nor
   [fold_srcs] gains or replaces an entry during Verify. *)
type recorder =
  | Unrecorded
  | Recorded of {
      stream : int Vec.t;
      src : fold_src;
      base : int Insn.base;
      index : Insn.operand;
      shift : int;
    }

type verify_state = {
  pattern : Event.t array;
  recs : recorder array;  (* parallel to [pattern] *)
  dsts : int array;
      (* parallel to [pattern]: the register each slot writes (the
         shadow it updates), -1 for none *)
  needs_values : bool;
      (* some slot is [Recorded]; otherwise a verified iteration is only
         a count, and the register shadow (read only by recorded loads'
         address reconstruction) is left as Build left it *)
  mutable next : int;
}

type phase = Build | Verify of verify_state

type t = {
  cfg : config;
  slots : slot Vec.t;
  regs : rstate array;
  values : (int, int Vec.t) Hashtbl.t;
  load_bases : (int, int) Hashtbl.t;
      (* static load pc -> base address of the array it reads, to judge
         whether a value stream can legally become a vector constant *)
  mutable store_bases : int list;
      (* base addresses the region stores to: arrays written inside the
         loop are not loop-invariant *)
  fold_srcs : (int, fold_src) Hashtbl.t;
      (* static load pc -> observed effective-address stream, feeding the
         live-invariance guards of constant-folded operands *)
  shadow : int array;
  shadow_ok : bool array;
      (* concrete values of the scalar registers as observed so far;
         [shadow_ok] marks registers whose value was actually seen (a
         register live-in from the caller has no observed def) *)
  mutable guards : Ucode.guard list;  (* reversed *)
  build_events : Event.t Vec.t;
  mutable phase : phase;
  mutable failure : Abort.t option;
  mutable pending : pending_sat option;
  mutable induction : Reg.t option;
  mutable bound : int option;
  mutable loop_top_pc : int;
  mutable iterations : int;
  mutable rule8_pending : int;
  mutable scaled_pending : int;
  mutable valid_count : int;
  mutable saw_ret : bool;
  mutable observed : int;
  mutable tbl_patterns : Perm.t list;
      (* distinct patterns recovered as table lookups, in recovery order:
         one [Tblidx] preamble uop is emitted per entry *)
  mutable perm_seen : int;
  mutable perm_recovered : int;
  mutable perm_aborted : int;
}

let scratch_vreg = Vreg.make 15

let create cfg =
  {
    cfg;
    slots = Vec.create ();
    regs = Array.make Reg.count Rscalar;
    values = Hashtbl.create 16;
    load_bases = Hashtbl.create 16;
    store_bases = [];
    fold_srcs = Hashtbl.create 16;
    shadow = Array.make Reg.count 0;
    shadow_ok = Array.make Reg.count false;
    guards = [];
    build_events = Vec.create ();
    phase = Build;
    failure = None;
    pending = None;
    induction = None;
    bound = None;
    loop_top_pc = -1;
    iterations = 0;
    rule8_pending = 0;
    scaled_pending = 0;
    valid_count = 0;
    saw_ret = false;
    observed = 0;
    tbl_patterns = [];
    perm_seen = 0;
    perm_recovered = 0;
    perm_aborted = 0;
  }

let observed t = t.observed

let perm_tally t =
  { seen = t.perm_seen; recovered = t.perm_recovered; aborted = t.perm_aborted }
let static_insns t = Vec.length t.build_events
let fail t reason = if t.failure = None then t.failure <- Some reason

let emit t ~pc content =
  let idx = Vec.length t.slots in
  Vec.push t.slots { pc; valid = true; content; const_candidate = None };
  t.valid_count <- t.valid_count + 1;
  (* +1 reserves room for the final return uop. *)
  if t.valid_count + 1 > t.cfg.max_uops then fail t Abort.Buffer_overflow;
  idx

let invalidate t idx =
  let s = Vec.get t.slots idx in
  if s.valid then begin
    s.valid <- false;
    t.valid_count <- t.valid_count - 1
  end

let record_value t pc v =
  let stream =
    match Hashtbl.find_opt t.values pc with
    | Some s -> s
    | None ->
        let s = Vec.create () in
        Hashtbl.replace t.values pc s;
        s
  in
  Vec.push_int stream v

let record_load_base t pc addr =
  if not (Hashtbl.mem t.load_bases pc) then Hashtbl.add t.load_bases pc addr

let fold_src t pc ~esize ~signed =
  match Hashtbl.find_opt t.fold_srcs pc with
  | Some s -> s
  | None ->
      let s =
        {
          f_bytes = Esize.bytes esize;
          f_signed = signed;
          f_addrs = Vec.create ();
          f_sound = true;
        }
      in
      Hashtbl.replace t.fold_srcs pc s;
      s

(* Reconstruct the load's effective address from the register shadow and
   append it to the load's stream. Mirrors [Sem.mem_addr]; a load whose
   index register was never defined inside the region (no shadow) makes
   the stream unsound for constant folding. *)
let push_load_addr t src ~base ~index ~shift =
  match (base, index) with
  | Insn.Sym a, Insn.Reg r when t.shadow_ok.(Reg.index r) ->
      Vec.push_int src.f_addrs
        (Word.add a (Word.shl t.shadow.(Reg.index r) shift))
  | Insn.Sym a, Insn.Imm v ->
      Vec.push_int src.f_addrs (Word.add a (Word.shl v shift))
  | (Insn.Sym _ | Insn.Breg _), _ -> src.f_sound <- false

let record_load_addr t pc ~esize ~signed ~base ~index ~shift =
  push_load_addr t (fold_src t pc ~esize ~signed) ~base ~index ~shift

(* Track concrete register values alongside the abstract translation
   state. Called after the build/verify work for each event, so a load
   that overwrites its own index register still resolves its address
   from the pre-load value. [value] is {!Event.no_value} when the
   instruction wrote nothing (a predicated move that did not fire). *)
let shadow_set t d value =
  if value = Event.no_value then Array.unsafe_set t.shadow_ok d false
  else begin
    Array.unsafe_set t.shadow d value;
    Array.unsafe_set t.shadow_ok d true
  end

(* The register an instruction writes, as a shadow index; -1 for none. *)
let shadow_dst (insn : Insn.exec) =
  match insn with
  | Insn.Mov { dst; _ } | Insn.Dp { dst; _ } | Insn.Ld { dst; _ } -> Reg.index dst
  | Insn.St _ | Insn.Cmp _ | Insn.B _ | Insn.Bl _ | Insn.Ret | Insn.Halt -> -1

let rstate t r = t.regs.(Reg.index r)
let set_rstate t r s = t.regs.(Reg.index r) <- s

let promote_induction t r =
  match t.induction with
  | Some r' when not (Reg.equal r r') ->
      fail t Abort.No_induction;
      false
  | _ ->
      t.induction <- Some r;
      set_rstate t r Rinduction;
      true

let larger_esize a b = if Esize.bytes a >= Esize.bytes b then a else b

(* --- saturation idiom resolution --- *)

let esize_of_unsigned_max b =
  List.find_opt (fun e -> Esize.max_unsigned e = b) Esize.all

let esize_of_signed_range lo hi =
  List.find_opt
    (fun e -> Esize.min_signed e = lo && Esize.max_signed e = hi)
    Esize.all

let classify_clamps clamps (sat_op : [ `Add | `Sub ]) =
  let norm = function
    | Cond.Gt | Cond.Ge -> `Hi
    | Cond.Lt | Cond.Le -> `Lo
    | Cond.Al | Cond.Eq | Cond.Ne -> `Bad
  in
  match List.map (fun (c, b) -> (norm c, b)) clamps with
  | [ (`Hi, b) ] when sat_op = `Add -> (
      match esize_of_unsigned_max b with
      | Some e -> Some (e, false)
      | None -> None)
  | [ (`Lo, 0) ] when sat_op = `Sub -> Some (Esize.Word, false)
  | [ (`Hi, hi); (`Lo, lo) ] | [ (`Lo, lo); (`Hi, hi) ] -> (
      match esize_of_signed_range lo hi with
      | Some e -> Some (e, true)
      | None -> None)
  | _ -> None

let resolve_pending t ~pc p =
  if p.awaiting <> None then fail t (Abort.Illegal_insn "compare without move")
  else begin
    let clamps = List.rev p.clamps in
    let vr = Vreg.of_scalar p.ps_reg in
    let saturated =
      p.ps_info.def_slot >= 0
      &&
      let slot = Vec.get t.slots p.ps_info.def_slot in
      slot.valid
      &&
      match slot.content with
      | Cv (Vinsn.Vdp { op = Opcode.Add | Opcode.Sub as op; dst; src1; src2 = VR s2 })
        when Vreg.equal dst vr -> (
          let sat_op = match op with Opcode.Add -> `Add | _ -> `Sub in
          match classify_clamps clamps sat_op with
          | Some (esize, signed) ->
              let esize =
                if signed then esize
                else if sat_op = `Sub then p.ps_info.esize
                else esize
              in
              slot.content <-
                Cv (Vinsn.Vsat { op = sat_op; esize; signed; dst; src1; src2 = s2 });
              true
          | None -> false)
      | Cs _ | Cv _ | Cperm _ | Cuop _ | Cinc _ | Cb _ -> false
    in
    if not saturated then
      (* Fall back to element-wise min/max: a one-sided clamp is exactly a
         vector min (or max) against a splatted bound. *)
      List.iter
        (fun (cond, b) ->
          let op =
            match cond with
            | Cond.Gt | Cond.Ge -> Some Opcode.Smin
            | Cond.Lt | Cond.Le -> Some Opcode.Smax
            | Cond.Al | Cond.Eq | Cond.Ne -> None
          in
          match op with
          | Some op ->
              ignore
                (emit t ~pc
                   (Cv (Vinsn.Vdp { op; dst = vr; src1 = vr; src2 = VImm b })))
          | None -> fail t (Abort.Illegal_insn "predicated move condition"))
        clamps
  end

let flush_pending t ~pc =
  match t.pending with
  | None -> ()
  | Some p ->
      t.pending <- None;
      resolve_pending t ~pc p

(* --- Build phase: Table 3 rules applied to the first iteration --- *)

let build_ld t (ev : Event.t) ~esize ~signed ~dst ~base ~index ~shift =
  match (base, index) with
  | Insn.Sym addr, Insn.Reg r -> (
      if shift <> Esize.shift esize then
        fail t (Abort.Illegal_insn "load index scaling")
      else
        let value =
          match ev.value with
          | Some v -> v
          | None ->
              fail t (Abort.Illegal_insn "load without value");
              0
        in
        let emit_vld ~ind =
          let slot =
            emit t ~pc:ev.pc
              (Cv
                 (Vinsn.Vld
                    {
                      esize;
                      signed;
                      dst = Vreg.of_scalar dst;
                      base = Insn.Sym addr;
                      index = ind;
                    }))
          in
          record_value t ev.pc value;
          record_load_base t ev.pc addr;
          record_load_addr t ev.pc ~esize ~signed ~base ~index ~shift;
          slot
        in
        match rstate t r with
        | Rcandidate ->
            if promote_induction t r then begin
              let slot = emit_vld ~ind:r in
              set_rstate t dst
                (Rvector
                   {
                     esize;
                     vsigned = signed;
                     def_slot = slot;
                     lineage = Some ev.pc;
                     addr_combine = false;
                   })
            end
        | Rinduction ->
            let slot = emit_vld ~ind:r in
            set_rstate t dst
              (Rvector
                 {
                   esize;
                   vsigned = signed;
                   def_slot = slot;
                   lineage = Some ev.pc;
                   addr_combine = false;
                 })
        | Rvector vi when vi.addr_combine -> (
            match (vi.lineage, t.induction) with
            | Some lineage, Some ind ->
                t.rule8_pending <- max 0 (t.rule8_pending - 1);
                if vi.def_slot >= 0 then invalidate t vi.def_slot;
                let _vld = emit_vld ~ind in
                let vd = Vreg.of_scalar dst in
                let pslot =
                  emit t ~pc:ev.pc
                    (Cperm { dst = vd; src = vd; lineage; scatter = false })
                in
                set_rstate t dst
                  (Rvector
                     {
                       esize;
                       vsigned = signed;
                       def_slot = pslot;
                       lineage = Some ev.pc;
                       addr_combine = false;
                     })
            | None, _ | _, None ->
                fail t (Abort.Illegal_insn "permuted load lineage"))
        | Rscaled { stride; phase } -> (
            match t.induction with
            | Some ind ->
                t.scaled_pending <- max 0 (t.scaled_pending - 1);
                let slot =
                  emit t ~pc:ev.pc
                    (Cv
                       (Vinsn.Vlds
                          {
                            esize;
                            signed;
                            dst = Vreg.of_scalar dst;
                            base = Insn.Sym addr;
                            index = ind;
                            stride;
                            phase;
                          }))
                in
                record_value t ev.pc value;
                record_load_base t ev.pc addr;
          record_load_addr t ev.pc ~esize ~signed ~base ~index ~shift;
                set_rstate t dst
                  (Rvector
                     {
                       esize;
                       vsigned = signed;
                       def_slot = slot;
                       lineage = Some ev.pc;
                       addr_combine = false;
                     })
            | None -> fail t Abort.No_induction)
        | Rvector vi ->
            (* Extension: a load indexed by a plain vector register is a
               runtime table lookup — the paper's unsupported VTBL,
               regenerated here as a vector gather. *)
            ignore vi;
            let slot =
              emit t ~pc:ev.pc
                (Cv
                   (Vinsn.Vgather
                      {
                        esize;
                        signed;
                        dst = Vreg.of_scalar dst;
                        base = Insn.Sym addr;
                        index_v = Vreg.of_scalar r;
                      }))
            in
            record_value t ev.pc value;
            record_load_base t ev.pc addr;
          record_load_addr t ev.pc ~esize ~signed ~base ~index ~shift;
            set_rstate t dst
              (Rvector
                 {
                   esize;
                   vsigned = signed;
                   def_slot = slot;
                   lineage = Some ev.pc;
                   addr_combine = false;
                 })
        | Rscalar -> fail t (Abort.Illegal_insn "load index class"))
  | Insn.Sym _, Insn.Imm _ ->
      (* Loop-invariant scalar load: legal only in the region prologue,
         which the body legality scan enforces once the loop is found. *)
      ignore (emit t ~pc:ev.pc (Cs ev.insn));
      set_rstate t dst Rscalar
  | Insn.Breg _, _ -> fail t (Abort.Illegal_insn "register-based load address")

let build_st t (ev : Event.t) ~esize ~src ~base ~index ~shift =
  match (base, index) with
  | Insn.Sym addr, Insn.Reg r -> (
      if not (List.mem addr t.store_bases) then
        t.store_bases <- addr :: t.store_bases;
      if shift <> Esize.shift esize then
        fail t (Abort.Illegal_insn "store index scaling")
      else
        let vsrc =
          match rstate t src with
          | Rvector vi when not vi.addr_combine -> Some vi
          | Rscalar | Rcandidate | Rinduction | Rvector _ | Rscaled _ -> None
        in
        match vsrc with
        | None -> fail t (Abort.Illegal_insn "store of scalar value")
        | Some _ -> (
            let emit_vst ~ind ~vsrc =
              ignore
                (emit t ~pc:ev.pc
                   (Cv
                      (Vinsn.Vst
                         { esize; src = vsrc; base = Insn.Sym addr; index = ind })))
            in
            match rstate t r with
            | Rcandidate ->
                if promote_induction t r then
                  emit_vst ~ind:r ~vsrc:(Vreg.of_scalar src)
            | Rinduction -> emit_vst ~ind:r ~vsrc:(Vreg.of_scalar src)
            | Rvector ri when ri.addr_combine -> (
                match (ri.lineage, t.induction) with
                | Some lineage, Some ind ->
                    t.rule8_pending <- max 0 (t.rule8_pending - 1);
                    if ri.def_slot >= 0 then invalidate t ri.def_slot;
                    ignore
                      (emit t ~pc:ev.pc
                         (Cperm
                            {
                              dst = scratch_vreg;
                              src = Vreg.of_scalar src;
                              lineage;
                              scatter = true;
                            }));
                    emit_vst ~ind ~vsrc:scratch_vreg
                | None, _ | _, None ->
                    fail t (Abort.Illegal_insn "permuted store lineage"))
            | Rscaled { stride; phase } -> (
                match t.induction with
                | Some ind ->
                    t.scaled_pending <- max 0 (t.scaled_pending - 1);
                    ignore
                      (emit t ~pc:ev.pc
                         (Cv
                            (Vinsn.Vsts
                               {
                                 esize;
                                 src = Vreg.of_scalar src;
                                 base = Insn.Sym addr;
                                 index = ind;
                                 stride;
                                 phase;
                               })))
                | None -> fail t Abort.No_induction)
            | Rscalar | Rvector _ ->
                fail t (Abort.Illegal_insn "store index class")))
  | Insn.Sym _, Insn.Imm _ | Insn.Breg _, _ ->
      fail t (Abort.Illegal_insn "store addressing mode")

let foldable_reduction = function
  | Opcode.Add | Opcode.Mul | Opcode.And | Opcode.Orr | Opcode.Eor
  | Opcode.Smin | Opcode.Smax ->
      true
  | Opcode.Sub | Opcode.Rsb | Opcode.Bic | Opcode.Lsl | Opcode.Lsr
  | Opcode.Asr ->
      false

let build_dp t (ev : Event.t) ~op ~dst ~src1 ~src2 =
  match src2 with
  | Insn.Reg r2 -> (
      match (rstate t src1, rstate t r2) with
      | Rvector a, Rvector b when (not a.addr_combine) && not b.addr_combine ->
          (* Table 3 rule 6 (and rule 7, resolved at finish when the
             operand's loaded values turn out to be periodic). *)
          let slot =
            emit t ~pc:ev.pc
              (Cv
                 (Vinsn.Vdp
                    {
                      op;
                      dst = Vreg.of_scalar dst;
                      src1 = Vreg.of_scalar src1;
                      src2 = VR (Vreg.of_scalar r2);
                    }))
          in
          (match b.lineage with
          | Some lpc when b.def_slot >= 0 ->
              (Vec.get t.slots slot).const_candidate <- Some (lpc, b.def_slot)
          | Some _ | None -> ());
          set_rstate t dst
            (Rvector
               {
                 esize = larger_esize a.esize b.esize;
                 vsigned = a.vsigned || b.vsigned;
                 def_slot = slot;
                 lineage = None;
                 addr_combine = false;
               })
      | Rinduction, Rvector b | Rvector b, Rinduction ->
          (* Table 3 rule 8: offsets + induction variable; generates no
             instruction, only copies the loaded values to [dst]. *)
          if not (Opcode.equal op Opcode.Add) then
            fail t (Abort.Illegal_insn "non-add address combine")
          else if b.addr_combine then
            fail t (Abort.Illegal_insn "chained address combine")
          else if b.lineage = None then
            fail t (Abort.Illegal_insn "address combine without loaded values")
          else begin
            t.rule8_pending <- t.rule8_pending + 1;
            set_rstate t dst (Rvector { b with addr_combine = true })
          end
      | (Rscalar | Rcandidate), Rvector b when Reg.equal dst src1 ->
          (* Table 3 rule 9: reduction into a scalar accumulator. *)
          if b.addr_combine then
            fail t (Abort.Illegal_insn "reduction of address combine")
          else if not (foldable_reduction op) then
            fail t (Abort.Illegal_insn "non-associative reduction")
          else begin
            ignore
              (emit t ~pc:ev.pc
                 (Cv (Vinsn.Vred { op; acc = dst; src = Vreg.of_scalar r2 })));
            set_rstate t dst Rscalar
          end
      | (Rscalar | Rcandidate), (Rscalar | Rcandidate) ->
          (* Rule 11: all-scalar sources pass through (prologue only). *)
          ignore (emit t ~pc:ev.pc (Cs ev.insn));
          set_rstate t dst Rscalar
      | Rinduction, _ | _, Rinduction ->
          fail t (Abort.Illegal_insn "induction arithmetic")
      | Rscaled _, _ | _, Rscaled _ ->
          fail t (Abort.Illegal_insn "scaled-induction arithmetic")
      | Rvector _, _ | _, Rvector _ ->
          fail t (Abort.Illegal_insn "mixed scalar/vector operands"))
  | Insn.Imm k -> (
      match rstate t src1 with
      | Rinduction ->
          if Opcode.equal op Opcode.Add && k = 1 && Reg.equal dst src1 then
            ignore (emit t ~pc:ev.pc (Cinc dst))
          else if
            (* extension: a scaled induction variable for interleaved
               accesses (stride 2 or 4); generates no instruction *)
            Opcode.equal op Opcode.Lsl
            && (k = 1 || k = 2)
            && not (Reg.equal dst src1)
          then begin
            t.scaled_pending <- t.scaled_pending + 1;
            set_rstate t dst (Rscaled { stride = 1 lsl k; phase = 0 })
          end
          else fail t (Abort.Illegal_insn "induction arithmetic")
      | Rcandidate
        when Opcode.equal op Opcode.Lsl
             && (k = 1 || k = 2)
             && not (Reg.equal dst src1) ->
          (* The scaled access may be the loop's first use of the
             induction variable: promote the candidate. *)
          if promote_induction t src1 then begin
            t.scaled_pending <- t.scaled_pending + 1;
            set_rstate t dst (Rscaled { stride = 1 lsl k; phase = 0 })
          end
      | Rscaled { stride; phase } ->
          if Opcode.equal op Opcode.Add && k > 0 && k < stride then
            set_rstate t dst (Rscaled { stride; phase = phase + k })
          else fail t (Abort.Illegal_insn "scaled-induction arithmetic")
      | Rvector a when not a.addr_combine ->
          (* Table 1 category 2: vector op with an encodable constant. *)
          let slot =
            emit t ~pc:ev.pc
              (Cv
                 (Vinsn.Vdp
                    {
                      op;
                      dst = Vreg.of_scalar dst;
                      src1 = Vreg.of_scalar src1;
                      src2 = VImm k;
                    }))
          in
          set_rstate t dst
            (Rvector
               {
                 esize = a.esize;
                 vsigned = a.vsigned;
                 def_slot = slot;
                 lineage = None;
                 addr_combine = false;
               })
      | Rvector _ -> fail t (Abort.Illegal_insn "address combine arithmetic")
      | Rscalar | Rcandidate ->
          ignore (emit t ~pc:ev.pc (Cs ev.insn));
          set_rstate t dst Rscalar)

(* Once the back-edge identifies the loop body, any pass-through scalar
   slot inside the body other than the trip-count compare is illegal:
   unlike the prologue, body instructions execute once per scalar element
   but only once per vector in the microcode. *)
let scan_body_legality t ~top_pc ~branch_pc =
  Vec.iteri
    (fun _ slot ->
      if slot.valid && slot.pc >= top_pc && slot.pc <= branch_pc then
        match slot.content with
        | Cs (Insn.Cmp _) | Cv _ | Cperm _ | Cuop _ | Cinc _ | Cb _ -> ()
        | Cs _ -> fail t (Abort.Illegal_insn "scalar instruction in loop body"))
    t.slots

(* The loads whose value and address streams [finish] can consult: the
   lineage of every constant-vector candidate (rule 7) and of every
   permutation placeholder. Both are fixed once Build ends, since Verify
   emits and invalidates nothing; a candidate [finish] later skips only
   makes the set larger than needed. *)
let demanded_pcs t =
  Vec.fold_left
    (fun acc s ->
      let acc =
        match s.const_candidate with Some (lpc, _) -> lpc :: acc | None -> acc
      in
      match s.content with
      | Cperm { lineage; _ } -> lineage :: acc
      | Cs _ | Cv _ | Cuop _ | Cinc _ | Cb _ -> acc)
    [] t.slots

(* The Verify recorder of one pattern event. *)
let recorder t demanded (e : Event.t) =
  match e.insn with
  | Insn.Ld { esize; signed; base; index; shift; _ }
    when List.exists (Int.equal e.pc) demanded -> (
      match Hashtbl.find_opt t.values e.pc with
      | Some stream ->
          Recorded
            { stream; src = fold_src t e.pc ~esize ~signed; base; index; shift }
      | None -> Unrecorded)
  | _ -> Unrecorded

let build_branch t (ev : Event.t) ~cond ~target =
  (* Locate the branch target among this region's already-retired
     instructions: a hit means a loop back-edge. *)
  let top =
    Vec.fold_left
      (fun acc (e : Event.t) -> if acc = None && e.pc = target then Some e.pc else acc)
      None t.build_events
  in
  match top with
  | None -> fail t (Abort.Illegal_insn "forward branch in region")
  | Some top_pc ->
      if cond <> Cond.Lt then fail t (Abort.Illegal_insn "loop branch condition")
      else if t.bound = None then fail t Abort.Bad_trip_count
      else if t.induction = None then fail t Abort.No_induction
      else begin
        ignore (emit t ~pc:ev.pc (Cb cond));
        t.loop_top_pc <- top_pc;
        scan_body_legality t ~top_pc ~branch_pc:ev.pc;
        let events = Vec.to_array t.build_events in
        let start =
          let rec find i =
            if i >= Array.length events then 0
            else if events.(i).Event.pc = top_pc then i
            else find (i + 1)
          in
          find 0
        in
        let pattern = Array.sub events start (Array.length events - start) in
        let recs = Array.map (recorder t (demanded_pcs t)) pattern in
        t.iterations <- 1;
        t.phase <-
          Verify
            {
              pattern;
              recs;
              dsts = Array.map (fun (e : Event.t) -> shadow_dst e.insn) pattern;
              needs_values =
                Array.exists
                  (function Recorded _ -> true | Unrecorded -> false)
                  recs;
              next = 0;
            }
      end

let build_step t (ev : Event.t) =
  Vec.push t.build_events ev;
  match ev.insn with
  | Insn.Mov { cond = Cond.Al; dst; src = Imm _ } ->
      flush_pending t ~pc:ev.pc;
      ignore (emit t ~pc:ev.pc (Cs ev.insn));
      set_rstate t dst Rcandidate
  | Insn.Mov { cond = Cond.Al; _ } ->
      fail t (Abort.Illegal_insn "register move")
  | Insn.Mov { cond; dst; src = Imm b } -> (
      (* Predicated move: must complete a pending saturation compare. *)
      match t.pending with
      | Some p when p.awaiting = Some b && Reg.equal p.ps_reg dst ->
          p.clamps <- (cond, b) :: p.clamps;
          p.awaiting <- None
      | Some _ | None -> fail t (Abort.Illegal_insn "unexpected predicated move"))
  | Insn.Mov { cond = _; _ } ->
      fail t (Abort.Illegal_insn "predicated register move")
  | Insn.Ld { esize; signed; dst; base; index; shift } ->
      flush_pending t ~pc:ev.pc;
      build_ld t ev ~esize ~signed ~dst ~base ~index ~shift
  | Insn.St { esize; src; base; index; shift } ->
      flush_pending t ~pc:ev.pc;
      build_st t ev ~esize ~src ~base ~index ~shift
  | Insn.Dp { cond = Cond.Al; op; dst; src1; src2 } ->
      flush_pending t ~pc:ev.pc;
      build_dp t ev ~op ~dst ~src1 ~src2
  | Insn.Dp { cond = _; _ } ->
      fail t (Abort.Illegal_insn "predicated data-processing")
  | Insn.Cmp { src1; src2 = Imm b } -> (
      match rstate t src1 with
      | Rinduction ->
          flush_pending t ~pc:ev.pc;
          t.bound <- Some b;
          ignore (emit t ~pc:ev.pc (Cs ev.insn))
      | Rvector vi when not vi.addr_combine -> (
          match t.pending with
          | Some p when Reg.equal p.ps_reg src1 && p.awaiting = None ->
              p.awaiting <- Some b
          | Some _ ->
              flush_pending t ~pc:ev.pc;
              t.pending <-
                Some { ps_reg = src1; ps_info = vi; clamps = []; awaiting = Some b }
          | None ->
              t.pending <-
                Some { ps_reg = src1; ps_info = vi; clamps = []; awaiting = Some b })
      | Rscalar | Rcandidate | Rvector _ | Rscaled _ ->
          fail t (Abort.Illegal_insn "compare operand class"))
  | Insn.Cmp { src2 = Reg _; _ } -> fail t Abort.Bad_trip_count
  | Insn.B { cond; target } ->
      flush_pending t ~pc:ev.pc;
      build_branch t ev ~cond ~target
  | Insn.Bl _ -> fail t (Abort.Illegal_insn "call inside region")
  | Insn.Ret ->
      flush_pending t ~pc:ev.pc;
      t.saw_ret <- true;
      fail t Abort.No_loop
  | Insn.Halt -> fail t (Abort.Illegal_insn "halt inside region")

(* --- Verify phase: later iterations must repeat the first --- *)

(* The work of one retired instruction that repeats its pattern slot:
   when the session needs values, push a recorded load's value and
   effective address and update the register shadow; always advance
   [observed], the slot cursor and the iteration count. The single
   per-slot definition behind both the per-event [feed] and
   [feed_iteration], so the two cannot drift. *)
let verify_slot t v value =
  let k = v.next in
  t.observed <- t.observed + 1;
  if v.needs_values then begin
    (if value <> Event.no_value then
       match Array.unsafe_get v.recs k with
       | Recorded { stream; src; base; index; shift } ->
           Vec.push_int stream value;
           push_load_addr t src ~base ~index ~shift
       | Unrecorded -> ());
    let d = Array.unsafe_get v.dsts k in
    if d >= 0 then shadow_set t d value
  end;
  if k + 1 = Array.length v.dsts then begin
    v.next <- 0;
    t.iterations <- t.iterations + 1
  end
  else v.next <- k + 1

(* A real stream retires the image's own insn values, so the physical
   test usually decides; a distinct copy falls through to the structural
   one. *)
let repeats (v : verify_state) (ev : Event.t) =
  let expected = v.pattern.(v.next) in
  ev.pc = expected.Event.pc
  && (ev.insn == expected.Event.insn || Insn.equal_exec ev.insn expected.Event.insn)

let feed t (ev : Event.t) =
  if t.failure = None then
    match t.phase with
    | Verify v when (not t.saw_ret) && repeats v ev ->
        verify_slot t v (Event.value_code ev)
    | phase -> (
        t.observed <- t.observed + 1;
        if t.saw_ret then fail t (Abort.Illegal_insn "instruction after return")
        else
          match (phase, ev.insn) with
          | Build, _ ->
              build_step t ev;
              let d = shadow_dst ev.insn in
              if d >= 0 then shadow_set t d (Event.value_code ev)
          | Verify v, Insn.Ret ->
              if v.next = 0 then t.saw_ret <- true
              else fail t (Abort.Inconsistent_iteration "return mid-iteration")
          | Verify _, _ ->
              fail t (Abort.Inconsistent_iteration "instruction stream diverged"))

let failed t = t.failure <> None

let iteration_top t =
  match t.phase with
  | Verify v when v.next = 0 && t.failure = None && not t.saw_ret ->
      t.loop_top_pc
  | Verify _ | Build -> -1

let iteration_pattern t =
  match t.phase with Verify v -> v.pattern | Build -> [||]

let needs_values t =
  match t.phase with Verify v -> v.needs_values | Build -> true

(* From the top, a count-only iteration leaves the cursor at 0 and does
   exactly what [verify_slot] would do slot by slot. *)
let feed_iteration t values =
  match t.phase with
  | Verify v
    when iteration_top t >= 0 && Array.length values = Array.length v.pattern
    ->
      if v.needs_values then
        for i = 0 to Array.length values - 1 do
          verify_slot t v (Array.unsafe_get values i)
        done
      else begin
        t.observed <- t.observed + Array.length values;
        t.iterations <- t.iterations + 1
      end
  | Verify _ | Build -> invalid_arg "Translator.feed_iteration"

let abort_external t = fail t Abort.External_abort
let inject t reason = fail t reason

(* --- Finalization --- *)

let fits_signed_bits v bits =
  v >= -(1 lsl (bits - 1)) && v <= (1 lsl (bits - 1)) - 1

let stream_values t lineage = Option.map Vec.to_array (Hashtbl.find_opt t.values lineage)

let periodic values width trips =
  Array.length values >= trips
  &&
  let ok = ref true in
  for e = 0 to trips - 1 do
    if values.(e) <> values.(e mod width) then ok := false
  done;
  !ok

(* Native lowering: match the observed offsets against the CAM at the
   translation width and rewrite the placeholder to a register permute
   ([Vperm]) between the partner load/store and the consumer. *)
let resolve_perm_native t ~width ~trips slot ~dst ~src ~scatter values =
  if Array.exists (fun v -> not (fits_signed_bits v 8)) values then
    fail t Abort.Unrepresentable_value
  else if not (periodic values width trips) then
    fail t Abort.Non_periodic_offsets
  else
    let in_range i = i >= 0 && i < width in
    let gather_offsets =
      if scatter then begin
        (* Scalar iterations scattered element [i] to position
           [i + off(i)]; the equivalent gather permutation is the
           inverse mapping. *)
        let target = Array.init width (fun i -> i + values.(i)) in
        if
          Array.for_all in_range target
          && List.length (List.sort_uniq compare (Array.to_list target)) = width
        then begin
          let inv = Array.make width 0 in
          Array.iteri (fun i ti -> inv.(ti) <- i) target;
          Some (Array.init width (fun j -> inv.(j) - j))
        end
        else None
      end
      else begin
        let src_idx = Array.init width (fun i -> i + values.(i)) in
        if Array.for_all in_range src_idx then
          Some (Array.init width (fun i -> values.(i)))
        else None
      end
    in
    match gather_offsets with
    | None -> fail t Abort.Unknown_permutation
    | Some offs -> (
        match Perm.find_by_offsets offs with
        | Some pattern -> slot.content <- Cv (Vinsn.Vperm { pattern; dst; src })
        | None -> fail t Abort.Unknown_permutation)

let record_tbl_pattern t pattern =
  if not (List.exists (Perm.equal pattern) t.tbl_patterns) then
    t.tbl_patterns <- t.tbl_patterns @ [ pattern ]

(* A recovered pattern is baked into the microcode, so the offset stream
   that produced it must be loop-invariant across region calls: guard
   every observed element, exactly as constant folding does. An offset
   stream that cannot be guarded is treated as genuinely data-dependent. *)
let guard_offset_stream t ~trips ~lineage values =
  let invariant =
    match Hashtbl.find_opt t.load_bases lineage with
    | Some base -> not (List.mem base t.store_bases)
    | None -> false
  in
  match Hashtbl.find_opt t.fold_srcs lineage with
  | Some src when invariant && src.f_sound && Vec.length src.f_addrs >= trips ->
      for e = 0 to trips - 1 do
        t.guards <-
          {
            Ucode.g_addr = Vec.get src.f_addrs e;
            g_bytes = src.f_bytes;
            g_signed = src.f_signed;
            g_expect = values.(e);
          }
          :: t.guards
      done;
      true
  | Some _ | None -> false

(* Table lowering (VLA / RVV): the permutation executes as a
   table-lookup memory op, so the placeholder and its partner load or
   store collapse into a single gather/scatter uop whose index vector is
   materialized at runtime from the actual vector length. The concrete
   encoding (a [Governed.Tbl] under a predicate or the [vl] grant) comes
   from the backend's perm hooks. The pattern is matched at its own
   period — the hardware width need not divide, or even reach, the
   period — and the offsets are matched element-wise over the whole
   observed stream, so no per-width CAM image is needed. *)
let resolve_perm_table t ~trips idx slot ~dst ~src ~scatter ~lineage values =
  let module B = (val t.cfg.backend) in
  if Array.length values < trips then fail t Abort.Non_periodic_offsets
  else if Array.exists (fun v -> not (fits_signed_bits v 8)) values then
    fail t Abort.Unrepresentable_value
  else
    match Perm.find_by_offset_stream values ~len:trips with
    | None -> fail t Abort.Unknown_permutation
    | Some pattern ->
        if not (guard_offset_stream t ~trips ~lineage values) then
          fail t Abort.Unportable_permutation
        else if scatter then begin
          (* The partner [Vst] was emitted immediately after this
             placeholder by the store rule; the store-side offsets encode
             the mapping directly (scalar iteration [e] wrote element
             [e + off(e)]), so the matched pattern needs no inversion. *)
          let pidx = idx + 1 in
          if pidx >= Vec.length t.slots then
            fail t (Abort.Illegal_insn "table-lookup store partner")
          else
            let partner = Vec.get t.slots pidx in
            match partner.content with
            | Cv (Vinsn.Vst { esize; src = vsrc; base; index })
              when partner.valid && Vreg.equal vsrc scratch_vreg ->
                slot.content <-
                  Cuop
                    (B.perm_scatter ~esize ~src ~base ~counter:index ~pattern);
                invalidate t pidx;
                record_tbl_pattern t pattern
            | _ -> fail t (Abort.Illegal_insn "table-lookup store partner")
        end
        else begin
          (* The partner [Vld] was emitted immediately before this
             placeholder by the load rule. *)
          let pidx = idx - 1 in
          if pidx < 0 then fail t (Abort.Illegal_insn "table-lookup load partner")
          else
            let partner = Vec.get t.slots pidx in
            match partner.content with
            | Cv (Vinsn.Vld { esize; signed; dst = vdst; base; index })
              when partner.valid && Vreg.equal vdst dst ->
                slot.content <-
                  Cuop
                    (B.perm_gather ~esize ~signed ~dst ~base ~counter:index
                       ~pattern);
                invalidate t pidx;
                record_tbl_pattern t pattern
            | _ -> fail t (Abort.Illegal_insn "table-lookup load partner")
        end

let resolve_perm t ~width ~trips idx slot =
  match slot.content with
  | Cperm { dst; src; lineage; scatter } ->
      t.perm_seen <- t.perm_seen + 1;
      (match stream_values t lineage with
      | None -> fail t (Abort.Illegal_insn "missing offset stream")
      | Some values -> (
          let module B = (val t.cfg.backend) in
          match B.permutation with
          | Backend.Perm_abort -> fail t Abort.Unportable_permutation
          | Backend.Perm_native ->
              resolve_perm_native t ~width ~trips slot ~dst ~src ~scatter values
          | Backend.Perm_table ->
              resolve_perm_table t ~trips idx slot ~dst ~src ~scatter ~lineage
                values));
      (* [resolve_perm] only runs on slots reached with no failure
         recorded, so the tally is per-placeholder exact:
         recovered + aborted = seen. *)
      if t.failure = None then t.perm_recovered <- t.perm_recovered + 1
      else t.perm_aborted <- t.perm_aborted + 1
  | Cs _ | Cv _ | Cuop _ | Cinc _ | Cb _ -> ()

let uop_uses_vector u =
  match u with
  | Ucode.UV v -> Vinsn.uses_vector v
  | Ucode.UG g -> Governed.uses_vector g
  | Ucode.US _ | Ucode.UB _ | Ucode.URet -> []

let uop_defs_vector u =
  match u with
  | Ucode.UV v -> Vinsn.defs_vector v
  | Ucode.UG g -> Governed.defs_vector g
  | Ucode.US _ | Ucode.UB _ | Ucode.URet -> []

let vreg_used_by content vr =
  match content with
  | Cv v -> List.exists (Vreg.equal vr) (Vinsn.uses_vector v)
  | Cperm { src; _ } -> Vreg.equal src vr
  | Cuop u -> List.exists (Vreg.equal vr) (uop_uses_vector u)
  | Cs _ | Cinc _ | Cb _ -> false

(* Vector-register pressure of the translated region: the number of
   distinct vector registers live in surviving slots. Feeds the RVV
   backend's LMUL choice — each live value occupies [lmul] architectural
   registers once grouped. *)
let vreg_pressure t =
  let seen = Array.make Vreg.count false in
  Vec.iteri
    (fun _ s ->
      if s.valid then begin
        let mark vr = seen.(Vreg.index vr) <- true in
        match s.content with
        | Cv v ->
            List.iter mark (Vinsn.defs_vector v);
            List.iter mark (Vinsn.uses_vector v)
        | Cuop u ->
            List.iter mark (uop_defs_vector u);
            List.iter mark (uop_uses_vector u)
        | Cperm { dst; src; _ } ->
            mark dst;
            mark src
        | Cs _ | Cinc _ | Cb _ -> ()
      end)
    t.slots;
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 seen

let resolve_const_operand t ~width ~trips slot =
  match (slot.const_candidate, slot.content) with
  | Some (lineage, def_idx), Cv (Vinsn.Vdp ({ src2 = VR vr; _ } as dp)) -> (
      match stream_values t lineage with
      | None -> ()
      | Some values ->
          (* Folding an operand's loaded values into a vector constant is
             only sound when the source array is loop-invariant: a load
             whose array the region itself stores to would bake values
             that go stale by the next region call (short loops make
             every stream trivially "periodic", so periodicity alone is
             no evidence of invariance). *)
          let invariant =
            match Hashtbl.find_opt t.load_bases lineage with
            | Some base -> not (List.mem base t.store_bases)
            | None -> false
          in
          (* A fold must also be guardable: stores from *other* regions
             (loop fission shares scratch arrays across regions) can
             invalidate the constant between calls, which only a
             per-call re-check of the folded elements can catch. *)
          let guardable =
            match Hashtbl.find_opt t.fold_srcs lineage with
            | Some src -> src.f_sound && Vec.length src.f_addrs >= trips
            | None -> false
          in
          if
            invariant && guardable
            && Array.length values >= trips
            && Array.for_all (fun v -> fits_signed_bits v 16) values
            && periodic values width trips
          then begin
            (let src = Hashtbl.find t.fold_srcs lineage in
             for e = 0 to trips - 1 do
               t.guards <-
                 {
                   Ucode.g_addr = Vec.get src.f_addrs e;
                   g_bytes = src.f_bytes;
                   g_signed = src.f_signed;
                   g_expect = values.(e);
                 }
                 :: t.guards
             done);
            (* Under the VLA backend the width can exceed the trip count
               (short loops); lanes past the observed elements are never
               active, so pad them with zero. *)
            let lane j = if j < Array.length values then values.(j) else 0 in
            slot.content <-
              Cv (Vinsn.Vdp { dp with src2 = VConst (Array.init width lane) });
            (* Remove the now-dead load of the constant array if nothing
               else consumes it — the paper's alignment-network
               collapse. *)
            let def = Vec.get t.slots def_idx in
            let still_used =
              Vec.exists (fun s -> s.valid && vreg_used_by s.content vr) t.slots
            in
            if def.valid && not still_used then invalidate t def_idx
          end)
  | _, _ -> ()

let finish t =
  let module B = (val t.cfg.backend) in
  (if t.failure = None && not t.saw_ret then
     fail t (Abort.Inconsistent_iteration "region closed without return"));
  (if t.failure = None then
     match t.phase with
     | Build -> fail t Abort.No_loop
     | Verify _ -> ());
  (if t.failure = None && (t.rule8_pending > 0 || t.scaled_pending > 0) then
     fail t Abort.Dangling_address_combine);
  let trips = t.iterations in
  (if t.failure = None then
     match t.bound with
     | Some b when b = trips -> ()
     | Some _ | None -> fail t (Abort.Inconsistent_iteration "trip count"));
  let base_width =
    match B.effective_width ~lanes:t.cfg.lanes ~trips with
    | Ok w -> w
    | Error reason ->
        if t.failure = None then fail t reason;
        0
  in
  if t.failure = None then
    Vec.iteri
      (fun i s ->
        if s.valid && t.failure = None then
          resolve_perm t ~width:base_width ~trips i s)
      t.slots;
  (* Register grouping (LMUL) is graded after permutation resolution, so
     the pressure count sees the final slot contents: the backend picks
     the group factor from how many vector registers the region keeps
     live, and the effective translation width scales by it. *)
  let lmul =
    if t.failure = None then
      B.register_group ~lanes:base_width ~pressure:(vreg_pressure t)
    else 1
  in
  let width = base_width * lmul in
  if t.failure = None then
    Vec.iteri
      (fun _ s -> if s.valid then resolve_const_operand t ~width ~trips s)
      t.slots;
  match t.failure with
  | Some reason -> Aborted reason
  | None ->
      (* Compact valid slots into the final microcode, remapping the
         back-edge to the first surviving slot of the loop body. The
         backend decides the encoding of the loop machinery: the header
         (if any) lands just before the back-edge target, and the
         trip-count compare, induction step and body vector ops are
         re-encoded through its emission hooks. *)
      let induction =
        match t.induction with Some r -> r | None -> assert false
      in
      let bound = match t.bound with Some b -> b | None -> assert false in
      let uops = Vec.create () in
      let target = ref 0 in
      let target_found = ref false in
      Vec.iteri
        (fun _ s ->
          if s.valid then begin
            let in_body = s.pc >= t.loop_top_pc in
            if (not !target_found) && in_body then begin
              (* Index-table materialization runs once per region call,
                 before the loop header, outside the back-edge. *)
              List.iter
                (fun pattern -> Vec.push uops (B.perm_index_build ~pattern))
                t.tbl_patterns;
              List.iter (Vec.push uops) (B.loop_header ~induction ~bound);
              target := Vec.length uops;
              target_found := true
            end;
            let uop =
              match s.content with
              | Cs (Insn.Cmp _ as i) when in_body ->
                  B.trip_compare ~insn:i ~induction ~bound
              | Cs i -> Ucode.US i
              | Cv v when in_body -> B.body_vector v
              | Cv v -> Ucode.UV v
              | Cuop u -> u
              | Cinc r -> B.induction_step ~dst:r ~width
              | Cb cond -> Ucode.UB { cond; target = 0 }
              | Cperm _ -> assert false
            in
            Vec.push uops uop
          end)
        t.slots;
      Vec.push uops Ucode.URet;
      let arr = Vec.to_array uops in
      Array.iteri
        (fun i u ->
          match u with
          | Ucode.UB { cond; target = _ } ->
              arr.(i) <- Ucode.UB { cond; target = !target }
          | Ucode.US _ | Ucode.UV _ | Ucode.UG _ | Ucode.URet -> ())
        arr;
      if Array.length arr > t.cfg.max_uops then Aborted Abort.Buffer_overflow
      else
        Translated
          {
            Ucode.uops = arr;
            width;
            kind = B.kind;
            lmul;
            source_insns = Vec.length t.build_events;
            observed_insns = t.observed;
            guards = Array.of_list (List.rev t.guards);
          }
