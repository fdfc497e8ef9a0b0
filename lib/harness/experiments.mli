(** The paper's evaluation, experiment by experiment. Each function
    returns structured results; each printer renders the same rows the
    paper's table or figure reports, with the published reference
    numbers alongside where available. *)

open Liquid_pipeline
open Liquid_workloads

(** {1 Table 2 — translator synthesis} *)

val table2 : unit -> Liquid_hwmodel.Hwmodel.report list
(** The paper's 8-wide row plus a width ablation (2..16 lanes). *)

val pp_table2 : Format.formatter -> Liquid_hwmodel.Hwmodel.report list -> unit

(** {1 Table 5 — scalar instructions per outlined function} *)

type table5_row = {
  t5_name : string;
  t5_loops : int;
  t5_mean : float;
  t5_max : int;
  t5_paper_mean : float;
  t5_paper_max : int;
}

val table5 : unit -> table5_row list
val pp_table5 : Format.formatter -> table5_row list -> unit

(** {1 Table 6 — cycles between the first two calls of each hot loop} *)

type table6_row = {
  t6_name : string;
  t6_lt150 : int;
  t6_lt300 : int;
  t6_gt300 : int;
  t6_mean : int;
  t6_paper : Workload.paper_ref;
}

val table6 : unit -> table6_row list
val pp_table6 : Format.formatter -> table6_row list -> unit

(** {1 Figure 6 — speedup over the no-SIMD baseline} *)

type fig6_row = {
  f6_name : string;
  f6_speedups : (int * float) list;  (** (width, speedup) for 2/4/8/16 *)
  f6_vla_speedups : (int * float) list;
      (** same widths through the VLA backend
          ([Runner.Liquid {backend = Vla; _}]): predicated final
          iterations instead of divisibility aborts *)
  f6_rvv_speedups : (int * float) list;
      (** same widths through the RVV backend
          ([Runner.Liquid {backend = Rvv; _}]): vsetvl-granted final
          iterations, with LMUL register grouping multiplying the
          effective width on low-pressure regions *)
  f6_native_delta : (int * float) list;
      (** (width, native speedup - liquid speedup): the callout's
          virtualization overhead, where a native binary exists *)
}

val figure6 : ?widths:int list -> unit -> fig6_row list
val pp_figure6 : Format.formatter -> fig6_row list -> unit

(** {1 §5 code size overhead} *)

type size_row = {
  sz_name : string;
  sz_baseline : int;
  sz_liquid : int;
  sz_overhead_pct : float;
}

val code_size : unit -> size_row list
val pp_code_size : Format.formatter -> size_row list -> unit

(** {1 §5 microcode cache requirements} *)

type ucode_row = {
  uc_name : string;
  uc_regions : int;
  uc_max_occupancy : int;
  uc_max_uops : int;
  uc_evictions : int;
}

val ucode_cache : unit -> ucode_row list
val pp_ucode_cache : Format.formatter -> ucode_row list -> unit

(** {1 §5 translation-latency sensitivity (ablation)} *)

type latency_row = { lat_name : string; lat_speedups : (int * float) list }
(** speedup at 8 lanes for each translation cost (cycles/instruction) *)

val latency_ablation : ?costs:int list -> unit -> latency_row list
val pp_latency : Format.formatter -> latency_row list -> unit

(** {1 Helpers} *)

val region_first_gap : Cpu.run -> (string * int) list
(** Per region: cycles between the starts of its first two calls. *)

(** {1 Virtualization-overhead convergence (ablation)}

    The paper's 0.001x worst-case overhead comes from billions-of-cycle
    runs in which the one scalar execution each region pays before its
    microcode exists is fully amortized. This ablation sweeps run length
    on a FIR-shaped workload and shows the oracle-vs-liquid delta
    decaying toward zero. *)

type overhead_row = {
  ov_frames : int;  (** hot-loop invocations in the run *)
  ov_liquid : float;  (** speedup of the Liquid binary *)
  ov_oracle : float;  (** speedup with built-in ISA support *)
  ov_delta : float;
}

val overhead_convergence : ?frames_list:int list -> unit -> overhead_row list
val pp_overhead : Format.formatter -> overhead_row list -> unit

(** {1 Design-choice ablations} *)

type sweep_row = { sw_value : int; sw_speedup : float; sw_hit_rate : float }

val ucode_entries_ablation : ?entries:int list -> unit -> sweep_row list
(** Microcode-cache capacity sweep on a synthetic program whose eight
    hot loops execute round-robin: the paper's 8 entries capture the
    working set; one fewer and LRU evicts every entry before reuse.
    [sw_hit_rate] is ucode hits / region calls. *)

val buffer_ablation : ?capacities:int list -> unit -> sweep_row list
(** Microcode-buffer capacity sweep on 101.tomcatv (whose largest
    outlined loop is 63 instructions): a runtime buffer smaller than
    the compile-time assumption silently degrades to scalar execution. *)

val bus_ablation : ?widths:int list -> unit -> sweep_row list
(** Vector memory bus sweep on FIR at 16 lanes: where wide-vector
    speedups saturate. [sw_hit_rate] is unused (0). *)

val pp_sweep :
  title:string -> value_label:string -> Format.formatter -> sweep_row list -> unit

(** {1 Hardware vs software translation (ablation)}

    The paper argues hardware translation is more efficient than a JIT
    but concedes nothing precludes software translation (§2). Here both
    run the same algorithm; the software variant additionally stalls the
    core for its translation work. *)

type kind_row = { kr_name : string; kr_hw : float; kr_sw : float }

val translator_kind_ablation : ?cost:int -> unit -> kind_row list
(** [cost] is the software JIT's cycles per translated static
    instruction (default 100; the hardware unit uses its usual 1). *)

val pp_kind : Format.formatter -> kind_row list -> unit

val interrupt_ablation : ?intervals:int list -> unit -> sweep_row list
(** Context-switch frequency sweep on FFT at 8 lanes: asynchronous
    aborts (paper §4.1) cancel in-flight translation sessions, which are
    simply retried on a later call. Interval 0 means no interrupts. *)

(** {1 CSV export}

    Machine-readable renditions of the plottable experiments, for
    external charting. Each function renders rows produced by the
    corresponding experiment. *)

val csv_table5 : table5_row list -> string
val csv_table6 : table6_row list -> string
val csv_figure6 : fig6_row list -> string
