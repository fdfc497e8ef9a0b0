(* The translation-block engine: the simulator's own take on the
   paper's thesis. Just as the Liquid SIMD hardware stops re-deriving a
   region's SIMD form on every call by caching microcode, the simulator
   stops re-deciding what an instruction *is* on every visit by lazily
   compiling maximal straight-line runs of [Minsn.t] into flat arrays of
   pre-resolved micro-ops: register names become indices, immediates are
   word-normalized and shift-folded, per-instruction charge amounts
   (base cycle, [mul_extra], intra-block load-use stalls, static vector
   bus beats) are summed at compile time, and instruction-fetch cache
   lines are pre-grouped so each line is probed once per block.

   Two tiers execute the compiled form:

   - Every block carries its micro-ops twice: as data ([b_uops], for
     fault repair and superblock bookkeeping) and as specialized
     closures ([b_thunks]) — one [unit -> unit] per micro-op with
     operand indices, immediates, element sizes, opcode dispatch and the
     slot's icache line probe all baked in at compile time, so the hot
     replay loop is [thunk ()] with zero per-op matching.

   - When a block's conditional back-edge ([T_branch] with a
     backward target) has fired [hot_threshold] times, the loop body is
     flattened across the edge into a {e trace superblock}: the member
     blocks' thunks concatenated in trace order, executed whole
     iterations at a time with one batched stat delta per logical
     iteration. The latch condition, re-evaluated after each iteration,
     is the guard: while it holds the trace loops without ever touching
     the block dispatcher; when it fails (or fuel could expire inside
     the next iteration) the superblock bails out to the ordinary block
     path. Traces follow only unconditional edges, so the guard is the
     single conditional and a formed trace can never exit mid-iteration
     except by fault.

   This is an execution strategy, not a semantics change: every counter
   the golden suite pins must come out bit-identical to the step-by-step
   engine. The equivalences this file relies on:

   - The scratch effect fields the pre-resolved kernels skip are
     unobservable: outside a translator session nothing reads them, a
     failed session ignores them, and a verifying session gets its
     values from [exec_observed]'s capture instead. While a session is
     live the dispatcher in [Cpu] runs no blocks at all when interrupts
     are configured, so interrupt-epoch catch-up by division in
     [Cpu.interrupt_check] fires at the same cycle it would have under
     per-step checking.
   - Within a block, consecutive fetches of one icache line cannot be
     separated by any other access of that cache, so one real
     {!Liquid_machine.Cache.access} per line run plus
     {!Liquid_machine.Cache.credit_hits} for the rest is
     state- and counter-equivalent. The same holds per member block of a
     superblock, because the thunks preserve the exact probe sequence.
   - Load-use hazards are static within a block (the stall charge is
     baked into the slot's charge); only the hazard carried in from the
     previous block needs a dynamic probe, and the hazard carried out
     is precomputed per block ([b_exit_pending]). A superblock re-walks
     the junction probes per iteration ([iter_stalls]) — cheap, exact.
   - Fuel cannot expire inside a block or a trace iteration: the
     dispatcher falls back to [step] (and the superblock to the block
     path) whenever [retired + n > fuel], so the watchdog fires with
     exactly the per-step diagnostics.
   - Cycle totals are sums, so batching a trace iteration's static
     charges after its thunks (which interleave their own cache-miss
     charges) reorders additions only. Predictor updates are replayed
     in trace order after each iteration; no predictor lookup can occur
     inside a trace (internal edges are unconditional), so the update
     sequence the predictor observes is identical to the block path's.

   Blocks end at branches ([B] stays in-block as the terminator;
   [Bl]/[Ret]/[Halt] are excluded and routed to [step]), at
   vector/scalar mode changes, and at the end of the code array.
   Unconditional fallthrough/jump edges chain directly block-to-block
   without returning to the dispatcher. [run_ucode] replay gets the
   same treatment: straight-line microcode segments between [UB]/[URet]
   compile to the same closure arrays, keyed per cache entry and
   invalidated by install stamp when a region is retranslated. *)

open Liquid_isa
open Liquid_visa
open Liquid_machine
open Liquid_prog
open Liquid_translate

(* A pre-resolved micro-op. Scalar operands are register indices;
   immediates arrive with [Word] normalization and index shifts already
   applied. [Spred] (predicated moves/dp, rare) replays through the
   shared [Sem] executor. *)
type suop =
  | Smov_i of { dst : int; v : int }
  | Smov_r of { dst : int; src : int }
  | Sdp_i of { op : Opcode.t; dst : int; s1 : int; imm : int }
  | Sdp_r of { op : Opcode.t; dst : int; s1 : int; s2 : int }
  | Spred of Insn.exec
  | Scmp_i of { s1 : int; imm : int }
  | Scmp_r of { s1 : int; s2 : int }
  | Sld of {
      bytes : int;
      signed : bool;
      dst : int;
      breg : int;  (** base register index, [-1] when the base is a symbol *)
      bconst : int;  (** symbol address when [breg < 0] *)
      ireg : int;  (** index register index, [-1] for immediate indices *)
      iconst : int;  (** pre-shifted immediate index when [ireg < 0] *)
      shift : int;
    }
  | Sst of {
      bytes : int;
      src : int;
      breg : int;
      bconst : int;
      ireg : int;
      iconst : int;
      shift : int;
    }
  | Svec of Vinsn.exec
  | Sgov of Governed.t
      (** governed (VLA / RVV) uop (microcode replay only: image code
          never contains them) *)

type term =
  | T_fall of int  (** fallthrough into a step-handled pc or next block *)
  | T_jump of { key : int; target : int }  (** unconditional [B] *)
  | T_branch of { cond : Cond.t; key : int; target : int; fall : int }

type block = {
  b_pc : int;
  b_uops : suop array;
  b_bases : (unit -> unit) array;
      (* [b_uops] compiled to closures, no icache probes — the
         steady-state trace replay, whose fetches are known hits *)
  b_thunks : (unit -> unit) array;
      (* the same closures with slot icache probes baked in front *)
  b_charge : int array;
      (* static cycles per slot (uops, then the branch terminator):
         base cycle + mul_extra + intra-block load-use stall + static
         vector bus beats — everything [step] charges before exec *)
  b_n : int;  (* retired instructions, including a branch terminator *)
  b_scalar : int;
  b_vector : int;
  b_cycles : int;  (* sum of [b_charge] *)
  b_newline : int array;
      (* per slot: the icache line address when this slot's fetch starts
         a new line run, -1 otherwise (always -1 without an icache) *)
  b_nlines : int;
  b_first : Insn.exec option;  (* entry load-use hazard probe *)
  b_exit_pending : Reg.t option;
      (* hazard state a scalar block leaves behind (preallocated) *)
  b_passthrough : bool;  (* vector blocks: pending hazard flows through *)
  b_term : term;
  mutable b_next : block option;  (* chained unconditional successor *)
  mutable b_hot : int;
      (* times this block's conditional back-edge fired (latch blocks
         only); formation triggers exactly once, at [hot_threshold] *)
  mutable b_super : super option;  (* the trace rooted at our back-edge *)
}

(* A trace superblock: one whole loop iteration, flattened. Member
   blocks run head-first in trace order; the latch is always last and
   its [T_branch] condition is the guard. *)
and super = {
  s_head : int;  (* trace entry pc = the latch's back-edge target *)
  s_cond : Cond.t;  (* guard: the latch branch condition *)
  s_gmask : int;
  s_gval : int;
  s_gneg : bool;
      (* [s_cond] pre-split by {!Cond.mask_test}: the steady-state guard
         is the inline test [((flags land s_gmask) = s_gval) <> s_gneg] *)
  s_key : int;  (* latch predictor key *)
  s_fall : int;  (* latch fall-through: the bail-out pc *)
  s_blocks : block array;  (* members, trace order; last is the latch *)
  s_thunks : (unit -> unit) array;
      (* members' uop thunks plus branch-terminator fetch probes,
         execution order *)
  s_tblock : int array;  (* per thunk: index into [s_blocks] *)
  s_tslot : int array;
      (* per thunk: slot within its block, -1 for a terminator fetch
         probe (which cannot raise) *)
  s_jumps : int array;
      (* predictor keys of internal [T_jump] terminators, trace order *)
  s_n : int;  (* retired per iteration: sum of member [b_n] *)
  s_scalar : int;
  s_vector : int;
  s_cycles : int;  (* static cycles per iteration *)
  s_credits : int;  (* icache hit credits per iteration *)
  s_stall_ss : int;
      (* junction load-use stalls of a steady-state iteration: the
         hazard entering every iteration after the first is the trace's
         own exit hazard, so the per-block entry probes collapse to a
         constant *)
  s_fast : (unit -> unit) array;
      (* the members' base closures, no icache probes: the steady-state
         body. Valid only under [s_fast_ok] (all fetches provably hit
         and are credited in bulk). *)
  s_ftblock : int array;  (* per fast thunk: index into [s_blocks] *)
  s_ftslot : int array;  (* per fast thunk: slot within its block *)
  s_fast_ok : bool;
      (* the trace's fetch lines fit their cache sets, so after one
         real-probe iteration every line is resident and stays resident
         (the only icache traffic while the trace loops is the trace's
         own, and hits never evict) *)
}

type slot = S_unknown | S_noblock | S_block of block

(* Compiled microcode replay: straight-line segments between [UB]/[URet],
   lazily compiled per start index. [U_bail] marks segments the compiler
   declines (control flow inside [US], truncated microcode) — the
   interpreted loop handles those with exact diagnostics. *)
type uterm =
  | UT_branch of { cond : Cond.t; key : int; target : int; fall : int }
  | UT_ret

type useg = {
  us_uops : suop array;
  us_thunks : (unit -> unit) array;
  us_charge : int array;  (* per slot, terminator included *)
  us_n : int;  (* uops retired, terminator included *)
  us_scalar : int;
  us_vector : int;
  us_cycles : int;
  us_term : uterm;
}

type useg_slot = U_unknown | U_bail | U_seg of useg

type ucomp = {
  uc_entry : int;
  uc_stamp : int;  (* Ucode_cache install stamp; -1 for oracle microcode *)
  uc_ucode : Ucode.t;
  uc_segs : useg_slot array;
}

type uresult = U_done | U_resume of int

type t = {
  image : Image.t;
  ctx : Sem.ctx;
  stats : Stats.t;
  icache : Cache.t option;
  dcache : Cache.t option;
  bpred : Branch_pred.t;
  mem_latency : int;
  mul_extra : int;
  mispredict_penalty : int;
  vec_bus_bytes : int;
  lanes : int;  (* accelerator lanes, -1 when absent *)
  max_uops : int;
  fuel : int;
  slots : slot array;
  ucomps : (int, ucomp) Hashtbl.t;
  mutable last_ucomp : ucomp option;
      (* most recent replay's compilation: region calls cluster, so the
         common case skips the [Hashtbl] probe *)
  mutable out_pc : int;
  mutable out_retired : int;
  mutable out_pending : Reg.t option;
  mutable fault_thunk : int;
      (* trace index of the raising thunk, recorded by the wrapper
         around the (rare) micro-ops that can fault; lets the trace
         replay loops run without a position ref *)
  mutable blocks_built : int;
  mutable block_execs : int;
  mutable supers_built : int;
  mutable super_iters : int;
  mutable super_bailouts : int;
  mutable vla_preds : int;
}

(* Back-edge executions before a latch's trace is formed. High enough
   that one-shot and cold loops never pay formation, low enough that any
   loop worth the name compiles within its warm-up. Formation is
   attempted exactly once per latch (at equality), so a failed attempt
   is permanent and free thereafter. *)
let hot_threshold = 16

let max_super_blocks = 16  (* member blocks per trace *)
let max_super_thunks = 1024  (* closures per trace *)

let create ~image ~ctx ~stats ~icache ~dcache ~bpred ~mem_latency ~mul_extra
    ~mispredict_penalty ~vec_bus_bytes ~lanes ~max_uops ~fuel =
  {
    image;
    ctx;
    stats;
    icache;
    dcache;
    bpred;
    mem_latency;
    mul_extra;
    mispredict_penalty;
    vec_bus_bytes;
    lanes = (match lanes with Some l -> l | None -> -1);
    max_uops;
    fuel;
    slots = Array.make (Array.length image.Image.code) S_unknown;
    ucomps = Hashtbl.create 8;
    last_ucomp = None;
    out_pc = 0;
    out_retired = 0;
    out_pending = None;
    fault_thunk = 0;
    blocks_built = 0;
    block_execs = 0;
    supers_built = 0;
    super_iters = 0;
    super_bailouts = 0;
    vla_preds = 0;
  }

let out_pc eng = eng.out_pc
let out_retired eng = eng.out_retired
let out_pending eng = eng.out_pending
let built eng = eng.blocks_built
let execs eng = eng.block_execs
let supers_built eng = eng.supers_built
let super_iters eng = eng.super_iters
let super_bailouts eng = eng.super_bailouts
let vla_preds eng = eng.vla_preds

(* --- charge helpers (shared by thunks and repair) --- *)

let[@inline] charge eng c = eng.stats.Stats.cycles <- eng.stats.Stats.cycles + c

let[@inline] icache_access eng la =
  match eng.icache with
  | None -> ()
  | Some c -> (
      match Cache.access c la with
      | Cache.Hit -> ()
      | Cache.Miss -> charge eng eng.mem_latency)

let charge_data eng ~addr ~bytes ~write =
  let stats = eng.stats in
  (if write then stats.Stats.stores <- stats.Stats.stores + 1
   else stats.Stats.loads <- stats.Stats.loads + 1);
  match eng.dcache with
  | None -> ()
  | Some c ->
      let lines = Cache.lines_spanned c ~addr ~bytes in
      let line_bytes = Cache.line_bytes c in
      for i = 0 to lines - 1 do
        match Cache.access c (addr + (i * line_bytes)) with
        | Cache.Hit -> ()
        | Cache.Miss -> charge eng eng.mem_latency
      done

let charge_scratch eng =
  let ctx = eng.ctx in
  for i = 0 to ctx.Sem.e_nacc - 1 do
    charge_data eng ~addr:ctx.Sem.acc_addr.(i) ~bytes:ctx.Sem.acc_bytes.(i)
      ~write:ctx.Sem.acc_write.(i)
  done

let[@inline] record_branch eng ~key ~taken =
  if not (Branch_pred.predict_and_update eng.bpred ~pc:key ~taken) then
    charge eng eng.mispredict_penalty

(* --- compile --- *)

(* [None] for control flow; callers route those to [step] (image blocks)
   or the interpreted replay (microcode). *)
let compile_suop insn =
  match insn with
  | Insn.Mov { cond; dst; src } ->
      if not (Cond.equal cond Cond.Al) then Some (Spred insn)
      else
        Some
          (match src with
          | Insn.Imm v -> Smov_i { dst = Reg.index dst; v = Word.of_int v }
          | Insn.Reg r -> Smov_r { dst = Reg.index dst; src = Reg.index r })
  | Insn.Dp { cond; op; dst; src1; src2 } ->
      if not (Cond.equal cond Cond.Al) then Some (Spred insn)
      else
        Some
          (match src2 with
          | Insn.Imm v ->
              Sdp_i { op; dst = Reg.index dst; s1 = Reg.index src1; imm = v }
          | Insn.Reg r ->
              Sdp_r
                { op; dst = Reg.index dst; s1 = Reg.index src1; s2 = Reg.index r })
  | Insn.Ld { esize; signed; dst; base; index; shift } ->
      let breg, bconst =
        match base with
        | Insn.Sym a -> (-1, a)
        | Insn.Breg r -> (Reg.index r, 0)
      in
      let ireg, iconst =
        match index with
        | Insn.Imm v -> (-1, Word.shl v shift)
        | Insn.Reg r -> (Reg.index r, 0)
      in
      Some
        (Sld
           {
             bytes = Esize.bytes esize;
             signed;
             dst = Reg.index dst;
             breg;
             bconst;
             ireg;
             iconst;
             shift;
           })
  | Insn.St { esize; src; base; index; shift } ->
      let breg, bconst =
        match base with
        | Insn.Sym a -> (-1, a)
        | Insn.Breg r -> (Reg.index r, 0)
      in
      let ireg, iconst =
        match index with
        | Insn.Imm v -> (-1, Word.shl v shift)
        | Insn.Reg r -> (Reg.index r, 0)
      in
      Some
        (Sst
           {
             bytes = Esize.bytes esize;
             src = Reg.index src;
             breg;
             bconst;
             ireg;
             iconst;
             shift;
           })
  | Insn.Cmp { src1; src2 } ->
      Some
        (match src2 with
        | Insn.Imm v -> Scmp_i { s1 = Reg.index src1; imm = v }
        | Insn.Reg r -> Scmp_r { s1 = Reg.index src1; s2 = Reg.index r })
  | Insn.B _ | Insn.Bl _ | Insn.Ret | Insn.Halt -> None

(* Everything [step] charges before exec, statically known per
   instruction. *)
let scalar_charge eng (insn : Insn.exec) =
  match insn with Insn.Dp { op = Opcode.Mul; _ } -> 1 + eng.mul_extra | _ -> 1

let gather_charge ~bus ~lanes esize =
  1 + (lanes * ((Esize.bytes esize + bus - 1) / bus))

let vector_charge ~mul_extra ~bus ~lanes (v : Vinsn.exec) =
  let extra esize =
    let bytes = lanes * Esize.bytes esize in
    max 0 (((bytes + bus - 1) / bus) - 1)
  in
  match v with
  | Vinsn.Vdp { op = Opcode.Mul; _ } -> 1 + mul_extra
  | Vinsn.Vred _ -> 2
  | Vinsn.Vld { esize; _ } | Vinsn.Vst { esize; _ } -> 1 + extra esize
  | Vinsn.Vlds { esize; stride; _ } | Vinsn.Vsts { esize; stride; _ } ->
      1 + (stride * (extra esize + 1))
  | Vinsn.Vgather { esize; _ } -> gather_charge ~bus ~lanes esize
  | Vinsn.Vdp _ | Vinsn.Vsat _ | Vinsn.Vperm _ -> 1

let governed_charge ~mul_extra ~bus ~lanes (g : Governed.t) =
  match g with
  | Governed.Op { v; _ } -> vector_charge ~mul_extra ~bus ~lanes v
  | Governed.Tbl { esize; _ } | Governed.Tblst { esize; _ } ->
      gather_charge ~bus ~lanes esize
  | Governed.Tblidx _ | Governed.Set_active _ | Governed.Advance _ -> 1

(* --- closure compilation --- *)

let vinsn_accesses = function
  | Vinsn.Vld _ | Vinsn.Vst _ | Vinsn.Vlds _ | Vinsn.Vsts _ | Vinsn.Vgather _
    ->
      true
  | Vinsn.Vdp _ | Vinsn.Vsat _ | Vinsn.Vperm _ | Vinsn.Vred _ -> false

(* Specialized effective-address closure: the four base/index shapes
   collapse to a constant when both operands are immediate. *)
let compile_addr regs ~breg ~bconst ~ireg ~iconst ~shift =
  if breg >= 0 then
    if ireg >= 0 then fun () ->
      Word.add (Array.unsafe_get regs breg) (Word.shl (Array.unsafe_get regs ireg) shift)
    else fun () -> Word.add (Array.unsafe_get regs breg) iconst
  else if ireg >= 0 then fun () ->
    Word.add bconst (Word.shl (Array.unsafe_get regs ireg) shift)
  else
    let a = Word.add bconst iconst in
    fun () -> a

(* Specialized data-cache probe for a scalar access of a known size:
   at most two lines are spanned (scalar accesses are at most 4 bytes,
   lines at least that), and single-byte accesses span exactly one, so
   the generic [lines_spanned] loop collapses to one probe plus a
   compile-time-guarded boundary check. Probe order (low line first)
   matches [charge_data]. *)
let compile_probe eng c ~bytes =
  let lat = eng.mem_latency in
  let mask = lnot (Cache.line_bytes c - 1) in
  if bytes = 1 then fun addr ->
    match Cache.access c addr with
    | Cache.Hit -> ()
    | Cache.Miss -> charge eng lat
  else fun addr ->
    (match Cache.access c addr with
    | Cache.Hit -> ()
    | Cache.Miss -> charge eng lat);
    let last = addr + bytes - 1 in
    if last land mask <> addr land mask then (
      match Cache.access c last with
      | Cache.Hit -> ()
      | Cache.Miss -> charge eng lat)

(* One micro-op, compiled to a closure. The closure performs exactly
   what the old interpretive dispatch performed for the same [suop] —
   architectural effect, load/store counting, data-cache probes in
   access order — with every static decision (operand indices, opcode
   dispatch, element sizes, cache presence) paid here, once. *)
let compile_thunk eng ~lanes u =
  let ctx = eng.ctx in
  let regs = ctx.Sem.regs in
  match u with
  | Smov_i { dst; v } -> fun () -> Array.unsafe_set regs dst v
  | Smov_r { dst; src } ->
      fun () -> Array.unsafe_set regs dst (Word.of_int (Array.unsafe_get regs src))
  | Sdp_i { op; dst; s1; imm } -> (
      match op with
      | Opcode.Add ->
          fun () ->
            Array.unsafe_set regs dst (Word.add (Array.unsafe_get regs s1) imm)
      | Opcode.Sub ->
          fun () ->
            Array.unsafe_set regs dst (Word.sub (Array.unsafe_get regs s1) imm)
      | Opcode.Mul ->
          fun () ->
            Array.unsafe_set regs dst (Word.mul (Array.unsafe_get regs s1) imm)
      | _ ->
          let f = Opcode.fn op in
          fun () ->
            Array.unsafe_set regs dst (f (Array.unsafe_get regs s1) imm))
  | Sdp_r { op; dst; s1; s2 } -> (
      match op with
      | Opcode.Add ->
          fun () ->
            Array.unsafe_set regs dst
              (Word.add (Array.unsafe_get regs s1) (Array.unsafe_get regs s2))
      | Opcode.Sub ->
          fun () ->
            Array.unsafe_set regs dst
              (Word.sub (Array.unsafe_get regs s1) (Array.unsafe_get regs s2))
      | Opcode.Mul ->
          fun () ->
            Array.unsafe_set regs dst
              (Word.mul (Array.unsafe_get regs s1) (Array.unsafe_get regs s2))
      | _ ->
          let f = Opcode.fn op in
          fun () ->
            Array.unsafe_set regs dst
              (f (Array.unsafe_get regs s1) (Array.unsafe_get regs s2)))
  | Spred insn -> fun () -> ignore (Sem.exec_scalar ctx ~pc:0 insn)
  | Scmp_i { s1; imm } ->
      fun () -> ctx.Sem.flags <- Flags.of_compare (Array.unsafe_get regs s1) imm
  | Scmp_r { s1; s2 } ->
      fun () ->
        ctx.Sem.flags <-
          Flags.of_compare (Array.unsafe_get regs s1) (Array.unsafe_get regs s2)
  | Sld { bytes; signed; dst; breg; bconst; ireg; iconst; shift } -> (
      let addr_of = compile_addr regs ~breg ~bconst ~ireg ~iconst ~shift in
      let stats = eng.stats in
      match eng.dcache with
      | None ->
          fun () ->
            Sem.kernel_ld ctx ~addr:(addr_of ()) ~bytes ~signed ~dst;
            stats.Stats.loads <- stats.Stats.loads + 1
      | Some c ->
          let probe = compile_probe eng c ~bytes in
          fun () ->
            let addr = addr_of () in
            Sem.kernel_ld ctx ~addr ~bytes ~signed ~dst;
            stats.Stats.loads <- stats.Stats.loads + 1;
            probe addr)
  | Sst { bytes; src; breg; bconst; ireg; iconst; shift } -> (
      let addr_of = compile_addr regs ~breg ~bconst ~ireg ~iconst ~shift in
      let stats = eng.stats in
      match eng.dcache with
      | None ->
          fun () ->
            Sem.kernel_st ctx ~addr:(addr_of ()) ~bytes ~src;
            stats.Stats.stores <- stats.Stats.stores + 1
      | Some c ->
          let probe = compile_probe eng c ~bytes in
          fun () ->
            let addr = addr_of () in
            Sem.kernel_st ctx ~addr ~bytes ~src;
            stats.Stats.stores <- stats.Stats.stores + 1;
            probe addr)
  | Svec v ->
      let f = Sem.compile_vector ctx ~lanes v in
      if vinsn_accesses v then fun () ->
        f ();
        charge_scratch eng
      else f
  | Sgov g -> (
      let f = Sem.compile_governed ctx ~lanes g in
      match g with
      | Governed.Op { v; _ } ->
          (* count governed executions at the dispatch layer, so the obs
             conservation invariant (fast + masked = dispatched) has an
             independent left- and right-hand side. The masked path of
             an access op records accesses too, so the scratch charge
             follows the op shape, not the governor. *)
          if vinsn_accesses v then fun () ->
            eng.vla_preds <- eng.vla_preds + 1;
            f ();
            charge_scratch eng
          else fun () ->
            eng.vla_preds <- eng.vla_preds + 1;
            f ()
      | Governed.Tbl _ | Governed.Tblst _ ->
          (* recovered permutations are governed memory ops: dispatch
             counts here, and the per-lane accesses the closure recorded
             go through the scratch charge *)
          fun () ->
            eng.vla_preds <- eng.vla_preds + 1;
            f ();
            charge_scratch eng
      | Governed.Tblidx _ | Governed.Set_active _ | Governed.Advance _ -> f)

(* Bake the slot's icache line probe in front of its thunk, so the
   replay loop is a bare closure call per micro-op. *)
let wrap_icache eng la base =
  match eng.icache with
  | None -> base
  | Some c ->
      let lat = eng.mem_latency in
      fun () ->
        (match Cache.access c la with
        | Cache.Hit -> ()
        | Cache.Miss -> charge eng lat);
        base ()

let compile_block eng pc0 =
  let code = eng.image.Image.code in
  let addrs = eng.image.Image.addrs in
  let n_code = Array.length code in
  let vector = match code.(pc0) with Minsn.V _ -> true | Minsn.S _ -> false in
  match code.(pc0) with
  | Minsn.S (Insn.Bl _ | Insn.Ret | Insn.Halt) -> S_noblock
  | Minsn.V _ when eng.lanes < 0 ->
      (* no accelerator: [step] raises the exact Sigill *)
      S_noblock
  | Minsn.S _ | Minsn.V _ ->
      let uops = ref [] and charges = ref [] in
      let nu = ref 0 in
      let first_insn = ref None in
      let prev_ld : Reg.t option ref = ref None in
      let term = ref (T_fall n_code) in
      let term_is_insn = ref false in
      let pc = ref pc0 in
      let stop = ref false in
      while not !stop do
        if !pc >= n_code then begin
          term := T_fall !pc;
          stop := true
        end
        else begin
          match code.(!pc) with
          | Minsn.S (Insn.B { cond; target }) ->
              term :=
                (if Cond.equal cond Cond.Al then T_jump { key = !pc; target }
                 else T_branch { cond; key = !pc; target; fall = !pc + 1 });
              term_is_insn := true;
              stop := true
          | Minsn.S (Insn.Bl _ | Insn.Ret | Insn.Halt) ->
              term := T_fall !pc;
              stop := true
          | Minsn.S insn ->
              if vector then begin
                term := T_fall !pc;
                stop := true
              end
              else begin
                match compile_suop insn with
                | None ->
                    (* unreachable: control flow matched above *)
                    term := T_fall !pc;
                    stop := true
                | Some u ->
                    if !nu = 0 then first_insn := Some insn;
                    let hazard =
                      match !prev_ld with
                      | Some r when Insn.uses_reg insn r -> 1
                      | Some _ | None -> 0
                    in
                    uops := u :: !uops;
                    charges := (hazard + scalar_charge eng insn) :: !charges;
                    incr nu;
                    prev_ld :=
                      (match insn with
                      | Insn.Ld { dst; _ } -> Some dst
                      | _ -> None);
                    incr pc
              end
          | Minsn.V v ->
              if not vector then begin
                term := T_fall !pc;
                stop := true
              end
              else begin
                uops := Svec v :: !uops;
                charges :=
                  vector_charge ~mul_extra:eng.mul_extra ~bus:eng.vec_bus_bytes
                    ~lanes:eng.lanes v
                  :: !charges;
                incr nu;
                incr pc
              end
        end
      done;
      let b_n = !nu + if !term_is_insn then 1 else 0 in
      if b_n = 0 then S_noblock
      else begin
        let charge = Array.make b_n 1 in
        List.iteri (fun i c -> charge.(i) <- c) (List.rev !charges);
        (* a branch terminator costs exactly the base cycle (the fill) *)
        let newline = Array.make b_n (-1) in
        let nlines = ref 0 in
        (match eng.icache with
        | None -> ()
        | Some c ->
            let mask = lnot (Cache.line_bytes c - 1) in
            let prev = ref min_int in
            for k = 0 to b_n - 1 do
              let la = addrs.(pc0 + k) land mask in
              if la <> !prev then begin
                newline.(k) <- la;
                incr nlines;
                prev := la
              end
            done);
        let uarr = Array.of_list (List.rev !uops) in
        let bases = Array.map (compile_thunk eng ~lanes:eng.lanes) uarr in
        let thunks =
          Array.mapi
            (fun k base ->
              if newline.(k) >= 0 then wrap_icache eng newline.(k) base
              else base)
            bases
        in
        let b =
          {
            b_pc = pc0;
            b_uops = uarr;
            b_bases = bases;
            b_thunks = thunks;
            b_charge = charge;
            b_n;
            b_scalar = (if vector then 0 else b_n);
            b_vector = (if vector then b_n else 0);
            b_cycles = Array.fold_left ( + ) 0 charge;
            b_newline = newline;
            b_nlines = !nlines;
            b_first = !first_insn;
            b_exit_pending =
              (if vector || !term_is_insn then None else !prev_ld);
            b_passthrough = vector;
            b_term = !term;
            b_next = None;
            b_hot = 0;
            b_super = None;
          }
        in
        eng.blocks_built <- eng.blocks_built + 1;
        S_block b
      end

let slot_at eng pc =
  match Array.unsafe_get eng.slots pc with
  | S_unknown ->
      let s = compile_block eng pc in
      eng.slots.(pc) <- s;
      s
  | s -> s

(* --- execute --- *)

(* Dynamic entry hazard: a load in the previous block feeding the first
   instruction of this one. *)
let[@inline] entry_stall eng pending b =
  match pending with
  | Some r -> (
      match b.b_first with
      | Some insn when Insn.uses_reg insn r -> charge eng 1
      | Some _ | None -> ())
  | None -> ()

(* A micro-op raised mid-block (only [Svec]/[Sgov] can: Sigill on
   an unsupported permutation or mismatched constant width). Re-apply the
   per-step accounting [step] would have accumulated through the
   faulting slot, so the escaping diagnostics (pc, cycle, retired)
   match the step-by-step engine exactly. *)
let repair_block eng b k =
  let stats = eng.stats in
  let scalars = ref 0 and vectors = ref 0 and cyc = ref 0 and lines = ref 0 in
  for j = 0 to k do
    (match b.b_uops.(j) with
    | Svec _ -> incr vectors
    | _ -> incr scalars);
    cyc := !cyc + b.b_charge.(j);
    if b.b_newline.(j) >= 0 then incr lines
  done;
  stats.Stats.fetches <- stats.Stats.fetches + k + 1;
  stats.Stats.scalar_insns <- stats.Stats.scalar_insns + !scalars;
  stats.Stats.vector_insns <- stats.Stats.vector_insns + !vectors;
  charge eng !cyc;
  (match eng.icache with
  | Some c -> Cache.credit_hits c (k + 1 - !lines)
  | None -> ());
  eng.out_retired <- eng.out_retired + k + 1;
  eng.out_pending <- None;
  eng.out_pc <- b.b_pc + k

(* Everything a block owes once its micro-ops have run: the terminator's
   fetch probe, the batched stat delta, the hazard it leaves behind and
   the terminator's control transfer. *)
let[@inline] retire_block eng b =
  let nu = Array.length b.b_thunks in
  (if b.b_n > nu then
     let la = Array.unsafe_get b.b_newline nu in
     if la >= 0 then icache_access eng la);
  let stats = eng.stats in
  stats.Stats.fetches <- stats.Stats.fetches + b.b_n;
  stats.Stats.scalar_insns <- stats.Stats.scalar_insns + b.b_scalar;
  stats.Stats.vector_insns <- stats.Stats.vector_insns + b.b_vector;
  charge eng b.b_cycles;
  (match eng.icache with
  | Some c -> Cache.credit_hits c (b.b_n - b.b_nlines)
  | None -> ());
  eng.out_retired <- eng.out_retired + b.b_n;
  if not b.b_passthrough then eng.out_pending <- b.b_exit_pending;
  eng.block_execs <- eng.block_execs + 1;
  match b.b_term with
  | T_fall next -> eng.out_pc <- next
  | T_jump { key; target } ->
      record_branch eng ~key ~taken:true;
      eng.out_pc <- target
  | T_branch { cond; key; target; fall } ->
      (* [step] consults the predictor only on the taken path (a
         not-taken branch retires as [Next], bypassing [record_branch]);
         mirror that exactly or the lookup/mispredict tallies drift. *)
      let taken = Cond.holds cond eng.ctx.Sem.flags in
      if taken then record_branch eng ~key ~taken:true;
      eng.out_pc <- (if taken then target else fall)

let exec_block eng b =
  entry_stall eng eng.out_pending b;
  let thunks = b.b_thunks in
  let nu = Array.length thunks in
  let i = ref 0 in
  (try
     while !i < nu do
       (Array.unsafe_get thunks !i) ();
       incr i
     done
   with e ->
     repair_block eng b !i;
     raise e);
  retire_block eng b

(* --- superblocks --- *)

(* Junction load-use stalls for one trace iteration entered with
   [pending0], and the hazard state left for the next iteration. Exact
   replay of the per-block entry probes, O(member blocks) per
   iteration. *)
let iter_stalls sb pending0 =
  let stall = ref 0 in
  let p = ref pending0 in
  Array.iter
    (fun b ->
      (match !p with
      | Some r -> (
          match b.b_first with
          | Some insn when Insn.uses_reg insn r -> incr stall
          | Some _ | None -> ())
      | None -> ());
      if not b.b_passthrough then p := b.b_exit_pending)
    sb.s_blocks;
  (!stall, !p)

(* A thunk raised mid-trace. Nothing of this iteration has been batched
   yet (stats, stalls and predictor updates land after the thunks), so
   replay the completed member blocks' accounting in trace order —
   junction stall, block stats, icache credits, internal jump predictor
   updates — then let [repair_block] finish the faulting block through
   slot [k]. Cache state and cycle charges from inside the thunks are
   already exact. *)
let repair_super_at eng sb ~bi ~k =
  let stats = eng.stats in
  let p = ref eng.out_pending in
  for j = 0 to bi - 1 do
    let b = sb.s_blocks.(j) in
    entry_stall eng !p b;
    stats.Stats.fetches <- stats.Stats.fetches + b.b_n;
    stats.Stats.scalar_insns <- stats.Stats.scalar_insns + b.b_scalar;
    stats.Stats.vector_insns <- stats.Stats.vector_insns + b.b_vector;
    charge eng b.b_cycles;
    (match eng.icache with
    | Some c -> Cache.credit_hits c (b.b_n - b.b_nlines)
    | None -> ());
    eng.out_retired <- eng.out_retired + b.b_n;
    (match b.b_term with
    | T_jump { key; _ } -> record_branch eng ~key ~taken:true
    | T_fall _ | T_branch _ -> ());
    if not b.b_passthrough then p := b.b_exit_pending
  done;
  let fb = sb.s_blocks.(bi) in
  entry_stall eng !p fb;
  eng.super_bailouts <- eng.super_bailouts + 1;
  repair_block eng fb k

(* A fast-path iteration faulted: its fetch probes were elided, so
   replay them — every line-run start of the completed member blocks
   plus the faulting block's through slot [k] — before the repair
   routines credit the remaining fetches. All of them hit (the fast
   path only runs once the trace's lines are resident), so this
   restores exactly the hit tallies and LRU touches the real-probe path
   would have accumulated. *)
let replay_probes eng sb ~bi ~k =
  match eng.icache with
  | None -> ()
  | Some _ ->
      for j = 0 to bi - 1 do
        let b = sb.s_blocks.(j) in
        for s = 0 to b.b_n - 1 do
          let la = b.b_newline.(s) in
          if la >= 0 then icache_access eng la
        done
      done;
      let fb = sb.s_blocks.(bi) in
      for s = 0 to k do
        let la = fb.b_newline.(s) in
        if la >= 0 then icache_access eng la
      done

(* Steady-state loop execution: whole iterations of the flattened trace
   until the guard (the latch condition) fails or fuel could expire
   inside the next iteration. Entered with [out_pc = s_head]; leaves
   [out_pc] at the fall-through on a guard exit, or at the head on a
   fuel bail-out so the block path (whose per-block fuel check is
   finer) takes over.

   The first iteration replays everything live — real icache probes
   (which also make every trace line resident), per-branch predictor
   updates, dynamic junction stalls against the hazard carried in. The
   iterations after it are the simulator's true steady state, and every
   per-iteration quantity is provably constant:

   - the entry hazard is the trace's own exit hazard, so the junction
     stalls are the precomputed [s_stall_ss] (a trace with no scalar
     member has no hazard probes at all, and the constant is 0);
   - under [s_fast_ok] every fetch hits (lines resident, hits never
     evict, the trace's own fetches are the only icache traffic), so
     the body runs probe-free closures and the iteration credits
     [s_n] hits in bulk;
   - when every replayed branch is [Branch_pred.taken_saturated] — the
     warm-up plus first iteration all but guarantee it — a predictor
     update is a lookup tally and nothing else, so the updates batch
     into one [credit_lookups] at exit.

   The loop body is then just the closures, the guard test and a fuel
   bound; retired counts, cycles, stats, credits and lookups are
   applied once, multiplied by the iteration count, when the loop
   exits (or before repair, when a thunk faults mid-iteration). *)
let run_super eng sb =
  let stats = eng.stats in
  if eng.out_retired + sb.s_n > eng.fuel then
    eng.super_bailouts <- eng.super_bailouts + 1
  else begin
    (* --- first iteration: live replay --- *)
    let thunks = sb.s_thunks in
    let nt = Array.length thunks in
    (try
       for i = 0 to nt - 1 do
         (Array.unsafe_get thunks i) ()
       done
     with e ->
       (* only wrapped thunks raise, and the raiser recorded its own
          trace index on entry *)
       let ft = eng.fault_thunk in
       repair_super_at eng sb ~bi:sb.s_tblock.(ft) ~k:(max sb.s_tslot.(ft) 0);
       raise e);
    let stall, p1 = iter_stalls sb eng.out_pending in
    stats.Stats.fetches <- stats.Stats.fetches + sb.s_n;
    stats.Stats.scalar_insns <- stats.Stats.scalar_insns + sb.s_scalar;
    stats.Stats.vector_insns <- stats.Stats.vector_insns + sb.s_vector;
    charge eng (sb.s_cycles + stall);
    (match eng.icache with
    | Some c -> Cache.credit_hits c sb.s_credits
    | None -> ());
    eng.out_retired <- eng.out_retired + sb.s_n;
    eng.out_pending <- p1;
    eng.super_iters <- eng.super_iters + 1;
    Array.iter (fun key -> record_branch eng ~key ~taken:true) sb.s_jumps;
    if not (Cond.holds sb.s_cond eng.ctx.Sem.flags) then begin
      eng.out_pc <- sb.s_fall;
      eng.super_bailouts <- eng.super_bailouts + 1
    end
    else begin
      record_branch eng ~key:sb.s_key ~taken:true;
      (* --- steady state: batched replay --- *)
      let bpred = eng.bpred in
      let njumps = Array.length sb.s_jumps in
      let sat =
        Branch_pred.taken_saturated bpred ~pc:sb.s_key
        &&
        let ok = ref true in
        for j = 0 to njumps - 1 do
          if
            not
              (Branch_pred.taken_saturated bpred
                 ~pc:(Array.unsafe_get sb.s_jumps j))
          then ok := false
        done;
        !ok
      in
      let fastok = sb.s_fast_ok in
      let body = if fastok then sb.s_fast else sb.s_thunks in
      let nb = Array.length body in
      let iter_cycles = sb.s_cycles + sb.s_stall_ss in
      let per_credit = if fastok then sb.s_n else sb.s_credits in
      (* whole further iterations the fuel budget admits *)
      let max_iters = (eng.fuel - eng.out_retired) / sb.s_n in
      let iters = ref 0 in
      let flush ~latch_taken =
        let k = !iters in
        if k > 0 then begin
          stats.Stats.fetches <- stats.Stats.fetches + (k * sb.s_n);
          stats.Stats.scalar_insns <-
            stats.Stats.scalar_insns + (k * sb.s_scalar);
          stats.Stats.vector_insns <-
            stats.Stats.vector_insns + (k * sb.s_vector);
          charge eng (k * iter_cycles);
          (match eng.icache with
          | Some c -> Cache.credit_hits c (k * per_credit)
          | None -> ());
          eng.out_retired <- eng.out_retired + (k * sb.s_n);
          eng.super_iters <- eng.super_iters + k;
          if sat then
            Branch_pred.credit_lookups bpred ((k * njumps) + latch_taken)
        end
      in
      let gmask = sb.s_gmask and gval = sb.s_gval and gneg = sb.s_gneg in
      let running = ref true in
      let fuel_exit = ref false in
      (try
         while !running do
           if !iters >= max_iters then begin
             fuel_exit := true;
             running := false
           end
           else begin
             for fi = 0 to nb - 1 do
               (Array.unsafe_get body fi) ()
             done;
             incr iters;
             if not sat then
               for j = 0 to njumps - 1 do
                 record_branch eng
                   ~key:(Array.unsafe_get sb.s_jumps j)
                   ~taken:true
               done;
             let f = (eng.ctx.Sem.flags :> int) in
             if ((f land gmask) = gval) <> gneg then begin
               if not sat then record_branch eng ~key:sb.s_key ~taken:true
             end
             else running := false
           end
         done
       with e ->
         (* the faulting iteration is partial: batch the completed ones
            (each of which took the latch), restore its elided fetch
            probes, then repair per-step accounting up to the fault.
            Only wrapped thunks raise; the raiser recorded its index. *)
         flush ~latch_taken:!iters;
         let ft = eng.fault_thunk in
         let bi, k =
           if fastok then (sb.s_ftblock.(ft), sb.s_ftslot.(ft))
           else (sb.s_tblock.(ft), max sb.s_tslot.(ft) 0)
         in
         if fastok then replay_probes eng sb ~bi ~k;
         repair_super_at eng sb ~bi ~k;
         raise e);
      (* every completed iteration took the latch except the final one
         of a guard exit, whose not-taken retire never consults the
         predictor (mirrors [exec_block]/[step]) *)
      flush ~latch_taken:(!iters - if !fuel_exit then 0 else 1);
      if not !fuel_exit then eng.out_pc <- sb.s_fall;
      eng.super_bailouts <- eng.super_bailouts + 1
    end
  end

(* Try to flatten the loop body behind [latch]'s back-edge into a trace.
   Follows only unconditional edges from the head; fails (permanently —
   the hot counter passes the threshold exactly once) if the walk leaves
   compiled-block territory, meets another conditional branch, or the
   trace would be unreasonably large. *)
let form_super eng latch ~head ~cond ~key ~fall =
  let nslots = Array.length eng.slots in
  let rec collect pc acc nb =
    if nb > max_super_blocks || pc < 0 || pc >= nslots then None
    else
      match slot_at eng pc with
      | S_noblock | S_unknown -> None
      | S_block b ->
          if b == latch then Some (List.rev (b :: acc))
          else (
            match b.b_term with
            | T_branch _ -> None
            | T_fall next | T_jump { target = next; _ } ->
                collect next (b :: acc) (nb + 1))
  in
  match collect head [] 1 with
  | None -> ()
  | Some blocks ->
      let blks = Array.of_list blocks in
      let nmember = Array.length blks in
      let thunks = ref [] and tblock = ref [] and tslot = ref [] in
      let fast = ref [] and ftblock = ref [] and ftslot = ref [] in
      let jumps = ref [] in
      let nthunks = ref 0 and nfast = ref 0 in
      let n = ref 0 and scalars = ref 0 and vectors = ref 0 in
      let cycles = ref 0 and credits = ref 0 in
      (* Only micro-ops replayed through the shared executors can raise
         (the pre-resolved scalar kernels are total: every [Opcode] and
         [Word] op is defined everywhere, and [Memory] reads any
         address). Wrapping just those with a recorder that notes their
         trace index in [eng.fault_thunk] lets the replay loops run as
         plain counters; the handler reads the index back instead of
         the loop maintaining a position ref per thunk call. *)
      let can_raise = function
        | Spred _ | Svec _ | Sgov _ -> true
        | Smov_i _ | Smov_r _ | Sdp_i _ | Sdp_r _ | Scmp_i _ | Scmp_r _
        | Sld _ | Sst _ ->
            false
      in
      Array.iteri
        (fun bi b ->
          Array.iteri
            (fun k th ->
              let th =
                if can_raise b.b_uops.(k) then (
                  let idx = !nthunks in
                  fun () ->
                    eng.fault_thunk <- idx;
                    th ())
                else th
              in
              thunks := th :: !thunks;
              tblock := bi :: !tblock;
              tslot := k :: !tslot;
              incr nthunks)
            b.b_thunks;
          Array.iteri
            (fun k th ->
              let th =
                if can_raise b.b_uops.(k) then (
                  let idx = !nfast in
                  fun () ->
                    eng.fault_thunk <- idx;
                    th ())
                else th
              in
              fast := th :: !fast;
              ftblock := bi :: !ftblock;
              ftslot := k :: !ftslot;
              incr nfast)
            b.b_bases;
          (let nu = Array.length b.b_thunks in
           if b.b_n > nu && b.b_newline.(nu) >= 0 then begin
             let la = b.b_newline.(nu) in
             thunks := (fun () -> icache_access eng la) :: !thunks;
             tblock := bi :: !tblock;
             tslot := -1 :: !tslot;
             incr nthunks
           end);
          (if bi < nmember - 1 then
             match b.b_term with
             | T_jump { key = jk; _ } -> jumps := jk :: !jumps
             | T_fall _ | T_branch _ -> ());
          n := !n + b.b_n;
          scalars := !scalars + b.b_scalar;
          vectors := !vectors + b.b_vector;
          cycles := !cycles + b.b_cycles;
          credits := !credits + (b.b_n - b.b_nlines))
        blks;
      if !nthunks > max_super_thunks then ()
      else begin
        (* steady-state junction stalls: every iteration after the
           first enters with the trace's own exit hazard. A trace with
           no scalar member carries the entry hazard through unchanged,
           but then has no hazard probes either ([b_first] is [None]
           for vector blocks), so folding from [None] is exact. *)
        let exit_pending =
          Array.fold_left
            (fun p b -> if b.b_passthrough then p else b.b_exit_pending)
            None blks
        in
        let stall_ss, _ =
          let stall = ref 0 in
          let p = ref exit_pending in
          Array.iter
            (fun b ->
              (match !p with
              | Some r -> (
                  match b.b_first with
                  | Some insn when Insn.uses_reg insn r -> incr stall
                  | Some _ | None -> ())
              | None -> ());
              if not b.b_passthrough then p := b.b_exit_pending)
            blks;
          (!stall, !p)
        in
        (* the fast path elides fetch probes, which is exact only when
           steady-state residency is guaranteed: the trace's distinct
           fetch lines must fit their sets, so the first (real-probe)
           iteration leaves them all resident and the trace's own
           traffic — the only icache traffic while it loops — never
           evicts. Code is contiguous so this bounds far above any
           real trace; the check guards the theorem's hypothesis. *)
        let fast_ok =
          match eng.icache with
          | None -> true
          | Some c ->
              let cfg = Cache.config c in
              let n_sets =
                cfg.Cache.size_bytes / (cfg.Cache.line_bytes * cfg.Cache.assoc)
              in
              let seen = Hashtbl.create 16 in
              let per_set = Hashtbl.create 16 in
              let ok = ref true in
              Array.iter
                (fun b ->
                  Array.iter
                    (fun la ->
                      if la >= 0 && not (Hashtbl.mem seen la) then begin
                        Hashtbl.add seen la ();
                        let set = la / cfg.Cache.line_bytes mod n_sets in
                        let cnt =
                          match Hashtbl.find_opt per_set set with
                          | Some v -> v + 1
                          | None -> 1
                        in
                        Hashtbl.replace per_set set cnt;
                        if cnt > cfg.Cache.assoc then ok := false
                      end)
                    b.b_newline)
                blks;
              !ok
        in
        let gmask, gval, gneg = Cond.mask_test cond in
        latch.b_super <-
          Some
            {
              s_head = head;
              s_cond = cond;
              s_gmask = gmask;
              s_gval = gval;
              s_gneg = gneg;
              s_key = key;
              s_fall = fall;
              s_blocks = blks;
              s_thunks = Array.of_list (List.rev !thunks);
              s_tblock = Array.of_list (List.rev !tblock);
              s_tslot = Array.of_list (List.rev !tslot);
              s_jumps = Array.of_list (List.rev !jumps);
              s_n = !n;
              s_scalar = !scalars;
              s_vector = !vectors;
              s_cycles = !cycles;
              s_credits = !credits;
              s_stall_ss = stall_ss;
              s_fast = Array.of_list (List.rev !fast);
              s_ftblock = Array.of_list (List.rev !ftblock);
              s_ftslot = Array.of_list (List.rev !ftslot);
              s_fast_ok = fast_ok;
            };
        eng.supers_built <- eng.supers_built + 1
      end

(* Superblock hook, run after [exec_block] resolved the terminator: if
   this block owns a trace and the back-edge just fired, enter
   steady-state execution; otherwise warm the hot counter and form the
   trace at the threshold (then enter it immediately). *)
let[@inline] super_check eng b =
  match b.b_super with
  | Some sb -> if eng.out_pc = sb.s_head then run_super eng sb
  | None -> (
      match b.b_term with
      | T_branch { cond; key; target; fall }
        when target <= b.b_pc && eng.out_pc = target ->
          b.b_hot <- b.b_hot + 1;
          if b.b_hot = hot_threshold then begin
            form_super eng b ~head:target ~cond ~key ~fall;
            match b.b_super with
            | Some sb -> run_super eng sb
            | None -> ()
          end
      | _ -> ())

(* Successor block after [exec_block] (or [run_super]) set [out_pc].
   Unconditional edges (fallthrough, [B al]) have a single target,
   resolved once and cached on the edge; conditional branches have two,
   looked up in the slot array each time (an array read — not worth two
   cache fields). The engine keeps control as long as the next pc opens
   a block and the fuel budget survives the whole block: between blocks
   the dispatcher would only re-check conditions that cannot change
   while the engine runs (sessions open, halts happen and fuel expires
   only inside [step]; a pending interrupt epoch catches up by division
   when the next step fires). Returning to the dispatcher on every loop
   back-edge would pay the dispatch cost once per iteration for
   nothing. *)
let next_block eng b =
  let next =
    match b.b_term with
    | T_fall _ | T_jump _ -> (
        match b.b_next with
        | Some _ as n -> n
        | None -> (
            let pc = eng.out_pc in
            if pc < 0 || pc >= Array.length eng.slots then None
            else
              match slot_at eng pc with
              | S_block nb ->
                  b.b_next <- Some nb;
                  Some nb
              | S_noblock | S_unknown -> None))
    | T_branch _ -> (
        let pc = eng.out_pc in
        if pc < 0 || pc >= Array.length eng.slots then None
        else
          match Array.unsafe_get eng.slots pc with
          | S_block nb -> Some nb
          | S_unknown -> (
              match slot_at eng pc with S_block nb -> Some nb | _ -> None)
          | S_noblock -> None)
  in
  match next with
  | Some nb when eng.out_retired + nb.b_n <= eng.fuel -> next
  | Some _ | None -> None

let try_exec eng ~pc ~retired ~pending ~traces =
  if pc < 0 || pc >= Array.length eng.slots then false
  else
    match slot_at eng pc with
    | S_noblock | S_unknown -> false
    | S_block b ->
        if retired + b.b_n > eng.fuel then false
        else begin
          eng.out_retired <- retired;
          eng.out_pending <- pending;
          eng.out_pc <- pc;
          let rec go b =
            exec_block eng b;
            if traces then super_check eng b;
            match next_block eng b with Some nb -> go nb | None -> ()
          in
          go b;
          true
        end

(* --- observed loop bodies (live translator sessions) --- *)

(* A verifying translator session's loop body: the ordinary block at the
   loop top, which is exactly the observed iteration (a straight-line
   run ending in its back-edge), plus a value capture per slot. [o_cap]
   says where slot [k]'s retired value lives once its thunk has run: a
   destination register index ([Sem.exec_scalar] records exactly the
   value it writes), [cap_effect] for a predicated instruction (its
   thunk runs the shared executor, whose scratch effect holds the value
   or [Sem.no_value]), or [cap_none] for a store or compare. *)
type observed = {
  o_block : block;
  o_cap : int array;  (* per uop slot *)
  o_values : int array;  (* per retired instruction, back-edge included *)
}

let cap_none = -1
let cap_effect = -2

let observe_loop eng (pattern : Event.t array) =
  let n = Array.length pattern in
  if n = 0 then None
  else
    let top = pattern.(0).Event.pc in
    let code = eng.image.Image.code in
    let same k (ev : Event.t) =
      ev.Event.pc = top + k
      && top + k < Array.length code
      &&
      match code.(top + k) with
      | Minsn.S insn -> insn == ev.Event.insn || Insn.equal_exec insn ev.Event.insn
      | Minsn.V _ -> false
    in
    let rec all k = k >= n || (same k pattern.(k) && all (k + 1)) in
    if not (all 0) then None
    else
      match slot_at eng top with
      | S_block ({ b_term = T_branch { target; _ }; _ } as b)
        when target = top && b.b_n = n ->
          let cap =
            Array.map
              (function
                | Smov_i { dst; _ } | Smov_r { dst; _ } | Sdp_i { dst; _ }
                | Sdp_r { dst; _ } | Sld { dst; _ } ->
                    dst
                | Spred _ -> cap_effect
                | Scmp_i _ | Scmp_r _ | Sst _ | Svec _ | Sgov _ -> cap_none)
              b.b_uops
          in
          Some
            { o_block = b; o_cap = cap; o_values = Array.make n Sem.no_value }
      | S_block _ | S_noblock | S_unknown -> None

let observed_values ob = ob.o_values

let exec_observed eng ob ~retired ~pending =
  let b = ob.o_block in
  if retired + b.b_n > eng.fuel then false
  else begin
    eng.out_retired <- retired;
    eng.out_pending <- pending;
    eng.out_pc <- b.b_pc;
    entry_stall eng pending b;
    let ctx = eng.ctx in
    let regs = ctx.Sem.regs in
    let thunks = b.b_thunks and cap = ob.o_cap and values = ob.o_values in
    let nu = Array.length thunks in
    let i = ref 0 in
    (try
       while !i < nu do
         (Array.unsafe_get thunks !i) ();
         let d = Array.unsafe_get cap !i in
         Array.unsafe_set values !i
           (if d >= 0 then Array.unsafe_get regs d
            else if d = cap_effect then ctx.Sem.e_value
            else Sem.no_value);
         incr i
       done
     with e ->
       repair_block eng b !i;
       raise e);
    retire_block eng b;
    true
  end

(* --- microcode replay --- *)

let get_ucomp eng ~entry ~stamp u =
  let valid uc =
    uc.uc_entry = entry
    && (if stamp >= 0 then uc.uc_stamp = stamp else uc.uc_stamp < 0)
    && uc.uc_ucode == u
  in
  match eng.last_ucomp with
  | Some uc when valid uc -> uc
  | Some _ | None ->
      let uc =
        match Hashtbl.find_opt eng.ucomps entry with
        | Some uc when valid uc -> uc
        | Some _ | None ->
            let uc =
              {
                uc_entry = entry;
                uc_stamp = stamp;
                uc_ucode = u;
                uc_segs = Array.make (Array.length u.Ucode.uops) U_unknown;
              }
            in
            Hashtbl.replace eng.ucomps entry uc;
            uc
      in
      eng.last_ucomp <- Some uc;
      uc

let compile_useg eng uc j =
  let u = uc.uc_ucode in
  let uops = u.Ucode.uops in
  let n = Array.length uops in
  let width = u.Ucode.width in
  let acc = ref [] and charges = ref [] in
  let nu = ref 0 in
  let i = ref j in
  let term = ref None in
  while !term = None && !i < n do
    match uops.(!i) with
    | Ucode.US ins -> (
        match compile_suop ins with
        | Some su ->
            acc := su :: !acc;
            charges := scalar_charge eng ins :: !charges;
            incr nu;
            incr i
        | None -> term := Some `Bail)
    | Ucode.UV v ->
        acc := Svec v :: !acc;
        charges :=
          vector_charge ~mul_extra:eng.mul_extra ~bus:eng.vec_bus_bytes
            ~lanes:width v
          :: !charges;
        incr nu;
        incr i
    | Ucode.UG g ->
        acc := Sgov g :: !acc;
        charges :=
          governed_charge ~mul_extra:eng.mul_extra ~bus:eng.vec_bus_bytes
            ~lanes:width g
          :: !charges;
        incr nu;
        incr i
    | Ucode.UB { cond; target } -> term := Some (`B (cond, !i, target))
    | Ucode.URet -> term := Some `Ret
  done;
  match !term with
  | Some `Bail | None ->
      (* control flow inside [US], or microcode without a terminator:
         the interpreted loop owns the exact diagnostics *)
      None
  | Some ((`Ret | `B _) as t) ->
      let us_uops = Array.of_list (List.rev !acc) in
      let us_n = !nu + 1 in
      let us_charge = Array.make us_n 1 in
      List.iteri (fun k c -> us_charge.(k) <- c) (List.rev !charges);
      let vectors =
        Array.fold_left
          (fun a u ->
            match u with
            | Svec _ -> a + 1
            | Sgov g when Governed.is_vector g -> a + 1
            | _ -> a)
          0 us_uops
      in
      Some
        {
          us_uops;
          us_thunks = Array.map (compile_thunk eng ~lanes:width) us_uops;
          us_charge;
          us_n;
          us_scalar = us_n - vectors;
          us_vector = vectors;
          us_cycles = Array.fold_left ( + ) 0 us_charge;
          us_term =
            (match t with
            | `Ret -> UT_ret
            | `B (cond, idx, target) ->
                UT_branch
                  {
                    cond;
                    key =
                      Ucode.branch_key ~entry:uc.uc_entry
                        ~max_uops:eng.max_uops ~index:idx;
                    target;
                    fall = idx + 1;
                  });
        }

let get_useg eng uc ui =
  match uc.uc_segs.(ui) with
  | U_seg s -> Some s
  | U_bail -> None
  | U_unknown ->
      let s = compile_useg eng uc ui in
      uc.uc_segs.(ui) <-
        (match s with Some seg -> U_seg seg | None -> U_bail);
      s

let repair_useg eng seg k =
  let stats = eng.stats in
  let scalars = ref 0 and vectors = ref 0 and cyc = ref 0 in
  for j = 0 to k do
    (match seg.us_uops.(j) with
    | Svec _ -> incr vectors
    | Sgov g when Governed.is_vector g -> incr vectors
    | _ -> incr scalars);
    cyc := !cyc + seg.us_charge.(j)
  done;
  stats.Stats.uops_retired <- stats.Stats.uops_retired + k + 1;
  stats.Stats.scalar_insns <- stats.Stats.scalar_insns + !scalars;
  stats.Stats.vector_insns <- stats.Stats.vector_insns + !vectors;
  charge eng !cyc;
  eng.out_retired <- eng.out_retired + k + 1

let exec_useg eng seg =
  let thunks = seg.us_thunks in
  let nu = Array.length thunks in
  let i = ref 0 in
  (try
     while !i < nu do
       (Array.unsafe_get thunks !i) ();
       incr i
     done
   with e ->
     repair_useg eng seg !i;
     raise e);
  let stats = eng.stats in
  stats.Stats.uops_retired <- stats.Stats.uops_retired + seg.us_n;
  stats.Stats.scalar_insns <- stats.Stats.scalar_insns + seg.us_scalar;
  stats.Stats.vector_insns <- stats.Stats.vector_insns + seg.us_vector;
  charge eng seg.us_cycles;
  eng.out_retired <- eng.out_retired + seg.us_n

let exec_ucode eng ~entry ~stamp ~retired (u : Ucode.t) =
  let uc = get_ucomp eng ~entry ~stamp u in
  eng.out_retired <- retired;
  let n = Array.length u.Ucode.uops in
  let rec go ui =
    if ui < 0 || ui >= n then U_resume ui
    else
      match get_useg eng uc ui with
      | None -> U_resume ui
      | Some seg ->
          if eng.out_retired + seg.us_n > eng.fuel then U_resume ui
          else begin
            exec_useg eng seg;
            match seg.us_term with
            | UT_ret -> U_done
            | UT_branch { cond; key; target; fall } ->
                let taken = Cond.holds cond eng.ctx.Sem.flags in
                record_branch eng ~key ~taken;
                go (if taken then target else fall)
          end
  in
  go 0
