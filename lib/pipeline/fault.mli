(** An injected fault: the data {!Cpu.config.fault} arms for one run.

    Every fault attacks the {e translation} path only — the executed
    scalar stream is never altered — so a correctly degrading machine
    still produces the pure-scalar architectural state (HPCA 2007
    §3.2/§4.2). Sites and calls count from 0: a run that offers [n] of
    them offers exactly [\[0, n)]. {!Liquid_faults.Fault} re-exports
    this type with its printers and site space. *)

type t =
  | Force_abort of { site : int; abort : Liquid_translate.Abort.t }
      (** inject [abort] into the live translation session right after
          feed event [site] (a global index over every event offered to
          a live session during the run) *)
  | Corrupt_feed of { site : int }
      (** replace the instruction of feed event [site] with an
          untranslatable one — a decode glitch on the translation path *)
  | Evict_ucode of { call : int }
      (** evict the region's microcode entry just before region call
          [call] of the run *)
  | Exhaust_fuel of { budget : int }
      (** run with a retired-instruction watchdog of [budget] in place
          of {!Cpu}'s 200,000,000; the run stops with a structured
          [Fuel_exhausted] diagnostic *)
