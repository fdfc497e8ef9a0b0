(** The scalar-equivalence oracle.

    The paper's abort-safety claim (§3.2/§4.2): whatever the dynamic
    translator does — succeed, abort at any DFA state, lose its
    microcode to an eviction — the architectural state at [halt] must
    match what the pure scalar execution of the same binary produces.
    This module states that as a checkable predicate over FNV
    fingerprints ({!Fingerprint}): all of data memory byte-for-byte,
    and every register outside a measured dead-scratch mask
    ({!junk_mask}). *)

open Liquid_prog
open Liquid_pipeline
open Liquid_workloads

val mask_of_image : Image.t -> bool array
(** The dead-scratch register mask of one image, computed directly (no
    memoization): [lr] plus every register defined inside an outlined
    region body, scanned entry → ret. This is what differential drivers
    over {e generated} programs use — {!junk_mask} memoizes by workload
    name, which would alias distinct generated cases. *)

val junk_mask : Workload.t -> bool array
(** Registers whose final value is dead region scratch: [lr] (a
    microcode-served call substitutes the whole outlined function, so
    the branch-and-link never architecturally writes it) plus every
    register defined inside an outlined region body (scanned statically
    in the image, entry → ret). A correct translation is free to leave
    different last-iteration junk in those — and which region's junk
    survives at halt depends on which calls ran scalar versus from
    microcode — so the oracle zeroes them before hashing. Region
    results still get checked end-to-end: every workload stores its
    output to memory, which the oracle compares in full. Memoized per
    workload; treat the shared array as read-only. *)

type fp = { fp_regs : int; fp_mem : int }
(** Masked register hash plus [mem_hash] of the data arrays. *)

val reference : Workload.t -> fp
(** Fingerprint of the pure-scalar run of the {e Liquid} binary
    ([Runner.Liquid_scalar]), memoized per workload under a lock: the
    run is the shared {!Liquid_harness.Runner.run_cached} result, whose
    memory must not be read from two domains at once. Safe to call from
    multiple domains. *)

type mismatch = { m_want : fp; m_got : fp }

val check : Workload.t -> Image.t -> Cpu.run -> (unit, mismatch) result
val equivalent : Workload.t -> Image.t -> Cpu.run -> bool
val pp_mismatch : Format.formatter -> mismatch -> unit
