open Liquid_isa
open Liquid_prog
open Liquid_pipeline
open Liquid_workloads
open Liquid_harness

(* --- which registers count --- *)

(* A region call served from the microcode cache substitutes the whole
   outlined function for its SIMD translation. The translation
   reproduces the region's memory effects and the values post-region
   code reads, but the region's scratch registers — whatever its loop
   body writes — hold last-iteration junk at halt, and WHICH junk
   survives depends on which call of which region ran in which form.
   The mask is therefore static, not sampled from runs: every register
   with a def inside any outlined region body (scanned entry → ret in
   the image), plus [lr] (a microcode-served call substitutes the whole
   outlined function, so the branch-and-link never architecturally
   writes it). Everything outside the mask must match the pure-scalar
   run byte-for-byte, as must all of data memory — which is where every
   workload's results live, so region outputs remain checked
   end-to-end. *)

let mask_of_image (image : Image.t) =
  let mask = Array.make Reg.count false in
  mask.(Reg.index Reg.lr) <- true;
  List.iter
    (fun (entry, _label) ->
      let i = ref entry in
      let stop = ref false in
      while (not !stop) && !i < Array.length image.Image.code do
        (match image.Image.code.(!i) with
        | Liquid_visa.Minsn.S Insn.Ret -> stop := true
        | Liquid_visa.Minsn.S insn ->
            List.iter (fun r -> mask.(Reg.index r) <- true) (Insn.defs insn)
        | Liquid_visa.Minsn.V _ -> ());
        incr i
      done)
    image.Image.region_entries;
  mask

(* --- the scalar reference --- *)

type fp = { fp_regs : int; fp_mem : int }

let fp_of ~mask image (run : Cpu.run) =
  {
    fp_regs = Fingerprint.regs_hash_masked ~mask run.Cpu.regs;
    fp_mem = Fingerprint.mem_hash image run.Cpu.memory;
  }

(* The reference is the SAME Liquid binary on a core with no
   accelerator and no translator — not the inline-loop baseline binary,
   whose register file legitimately differs (different code layout,
   different loop bookkeeping). Anything the translation path does,
   including aborting at an arbitrary DFA state, must land on exactly
   this state.

   The run comes from the runner's process-wide cache, so every domain
   sees the same [Memory.t], and reading a memory updates its page
   cache: two domains hashing it at once tear that cache and hash the
   wrong page. The mask and fingerprint are therefore computed once per
   workload, the hashing under the lock, and only immutable results are
   shared. *)
type reference_entry = { r_mask : bool array; r_fp : fp }

let references : (string, reference_entry) Hashtbl.t = Hashtbl.create 16
let references_mutex = Mutex.create ()

let reference_entry (w : Workload.t) =
  let key = w.Workload.name in
  match
    Mutex.protect references_mutex (fun () -> Hashtbl.find_opt references key)
  with
  | Some e -> e
  | None ->
      let scalar = Runner.run_cached w Runner.Liquid_scalar in
      let image = Image.of_program scalar.Runner.program in
      let mask = mask_of_image image in
      Mutex.protect references_mutex (fun () ->
          match Hashtbl.find_opt references key with
          | Some winner -> winner
          | None ->
              let e =
                { r_mask = mask; r_fp = fp_of ~mask image scalar.Runner.run }
              in
              Hashtbl.replace references key e;
              e)

let junk_mask w = (reference_entry w).r_mask
let reference w = (reference_entry w).r_fp

let fingerprint w image run = fp_of ~mask:(junk_mask w) image run

type mismatch = { m_want : fp; m_got : fp }

let check w image run =
  let want = reference w in
  let got = fingerprint w image run in
  if want = got then Ok () else Error { m_want = want; m_got = got }

let equivalent w image run = Result.is_ok (check w image run)

let pp_mismatch ppf { m_want; m_got } =
  Format.fprintf ppf "regs %016x (want %016x)%s, mem %016x (want %016x)%s"
    m_got.fp_regs m_want.fp_regs
    (if m_got.fp_regs = m_want.fp_regs then " ok" else " DIVERGED")
    m_got.fp_mem m_want.fp_mem
    (if m_got.fp_mem = m_want.fp_mem then " ok" else " DIVERGED")
