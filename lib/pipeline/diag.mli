(** Structured execution diagnostics.

    Every way a simulated run can fail — runaway execution, a corrupt
    microcode index, an instruction the machine cannot execute — is a
    typed fault carried with the machine context at the failure point
    (program counter, cycle count, retired-instruction count), replacing
    the earlier string-carrying [Execution_error] exception. A run
    ({!Cpu.run}) raises {!Error} and nothing else; offline translation
    returns [(_, Diag.t) result] ({!Offline.translate_region_result}),
    and its shims raise {!Error}. *)

type fault =
  | Fuel_exhausted  (** the retired-instruction watchdog budget ran out *)
  | Wild_pc  (** control transferred outside the image *)
  | Ucode_index of int  (** microcode back-edge target out of range *)
  | Ucode_control_flow
      (** a scalar microcode slot attempted a jump/call/return *)
  | Illegal of string
      (** the machine cannot execute this instruction: a vector
          instruction without an accelerator, or an interpreter
          {!Sem.Sigill} converted at the run boundary *)
  | Region_nonterminating  (** offline translation step budget exhausted *)
  | Region_vector_insn  (** a vector instruction inside a scalar region *)

type t = {
  fault : fault;
  pc : int;  (** program counter at the failure point *)
  cycle : int;  (** simulated cycle at the failure point *)
  retired : int;  (** instructions retired before the failure *)
}

exception Error of t

val make : fault:fault -> pc:int -> cycle:int -> retired:int -> t

val classify_abort : Liquid_translate.Abort.t -> [ `Transient | `Permanent ]
(** The single transient-vs-permanent authority over translation-abort
    reasons. [`Permanent]
    aborts will recur if the region is retranslated, so the pipeline
    marks the region failed and never retries; [`Transient] aborts
    ({!Liquid_translate.Abort.External_abort} — a context switch or
    interrupt) leave the region untried so a later execution
    retranslates. This replaces the old [Abort.permanent], so there is
    exactly one classification table in the tree. *)

val fault_name : fault -> string
val fault_to_string : fault -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
