(** The [--jsonl] writer of [liquid_cli report WORKLOAD]: a consumer for
    {!Liquid_pipeline.Cpu.config.on_trace} that streams region-level
    events (calls, translations, aborts) to a file, one compact JSON
    object per line. Each line's [seq] is the number of trace events
    observed so far, this one and every instruction and microcode
    retirement included.

    Like any trace observer it makes the run step instruction by
    instruction (no block engine). A snapshot does not need it: it
    reads the run record ({!Snapshot.of_run}). *)

open Liquid_pipeline

type t

val create : jsonl:out_channel -> t
(** [jsonl] receives one compact JSON line per region-level event; the
    channel is not closed by the collector. *)

val on_trace : t -> Cpu.trace_event -> unit

val wrap : t -> Cpu.config -> Cpu.config
(** Install {!on_trace} into a config, chaining after any hook already
    present (the existing consumer still sees every event). *)

val events : t -> int
(** Total trace events observed. *)
