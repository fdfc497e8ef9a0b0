(** Standalone region translation: drive one outlined function through
    the architectural interpreter and feed its retirement stream to a
    fresh translator session.

    Used by the oracle-translation mode (the paper's "built-in ISA
    support" simulator configuration, §5), by the CLI's [translate]
    command, and by tests that want microcode without a full program
    run.

    By default the observation runs against the image's initial memory
    with zeroed registers. That is only sound when the region's operand
    values depend solely on static data (offset, mask and constant
    arrays): loop fission makes split regions communicate through spill
    arrays, which are still zero in the initial image, so value-based
    operand resolution can mis-fold a live register into a constant
    splat. Pass [?state] (the live interpreter context at the call
    site) to observe a copy of the real machine state instead — the
    copy keeps the observation side-effect free.

    The session's Build iteration, its prologue and anything irregular
    are stepped and fed one {!Event.t} at a time. Once the session
    verifies its loop, each later iteration that starts at the loop top
    is stepped as a batch when its pattern is the image's straight-line
    run ({!Blocks.is_image_run}) and the step budget admits all of it:
    no event is built, values are captured only when
    {!Translator.needs_values} says the session reads them, and the
    iteration goes to {!Translator.feed_iteration}. Every diagnostic
    fires at the same step either way: a batch cannot leave the image,
    meet a vector instruction or cross the budget. *)

open Liquid_prog
open Liquid_translate

val step_budget : int
(** Instructions a region observation may retire before it is declared
    nonterminating. *)

val translate_region_result :
  ?max_uops:int -> ?backend:Backend.t -> ?state:Sem.ctx ->
  ?tally:Translator.perm_tally ref -> image:Image.t ->
  lanes:int -> entry:int -> unit -> (Translator.result, Diag.t) result
(** [Error diag] when the region never returns within {!step_budget}
    retired instructions ([Region_nonterminating], retired
    [step_budget + 1]), escapes the image ([Wild_pc]), or reaches a
    vector instruction ([Region_vector_insn]). A translation {e abort}
    is not an error: it comes back as [Ok (Aborted _)]. [max_uops]
    defaults to {!Translator.default_max_uops}, [backend] to
    {!Backend.fixed}. When [tally] is given, the session's
    {!Translator.perm_tally} is written into it on the [Ok] paths (left
    untouched on [Error]). *)

val translate_region :
  ?max_uops:int -> ?backend:Backend.t -> ?state:Sem.ctx -> image:Image.t ->
  lanes:int -> entry:int -> unit -> Translator.result
(** {!translate_region_result}, raising {!Diag.Error} on [Error]. *)

val translate_all :
  ?max_uops:int -> ?backend:Backend.t -> image:Image.t -> lanes:int -> unit ->
  (int * string * Translator.result) list
(** Translate every region entry of the image, in
    [image.region_entries] order. The image's initial memory is loaded
    once; each region observes its own copy of that pristine memory with
    zeroed registers and initial flags, the same state as
    {!translate_region} without [state]. Raises {!Diag.Error} like
    {!translate_region}. *)
