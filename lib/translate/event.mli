(** Retirement events fed to the dynamic translator.

    The translator taps the retirement stage of the pipeline (paper §4):
    for every retired instruction inside an outlined region it receives
    the instruction, its PC, and the data value the instruction produced
    (the [Data] input in Figure 5) — the loaded value for loads, the ALU
    result for data-processing instructions. *)

open Liquid_isa

type t = {
  pc : int;  (** instruction index of the retired instruction *)
  insn : Insn.exec;
  value : int option;
      (** value written to the destination register, if any; [None] for
          stores, compares, branches and predicated instructions whose
          condition failed *)
}

val make : pc:int -> ?value:int -> Insn.exec -> t
(** Build an event; omit [value] for instructions that write no
    destination register. *)

val no_value : int
(** The absent-value sentinel of value arrays ([min_int], outside the
    32-bit word range every register value lies in): what a store,
    compare, branch or predicated instruction whose condition failed
    produces in {!Translator.feed_iteration}'s batches. *)

val value_code : t -> int
(** [value] with [None] as {!no_value}. *)

val pp : Format.formatter -> t -> unit
(** One event as [pc: insn = value], for translator traces. *)
