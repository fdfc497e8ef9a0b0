open Liquid_machine
open Liquid_prog
open Liquid_translate
open Liquid_pipeline
open Liquid_workloads
open Liquid_harness

(* --- probing the addressable site space --- *)

(* One clean Liquid run per (workload, width) with counting-only hooks,
   so the planner knows how many translator feed events, region calls
   and retired instructions a run offers to attack. Memoized
   process-wide (probes are pure), safe across domains. *)

let probe_cache : (string * int * Backend.kind, Fault.space) Hashtbl.t =
  Hashtbl.create 64

let probe_mutex = Mutex.create ()

let probe ?(backend = Backend.fixed) (w : Workload.t) ~width =
  let key = (w.Workload.name, width, Backend.kind_of backend) in
  match
    Mutex.protect probe_mutex (fun () -> Hashtbl.find_opt probe_cache key)
  with
  | Some sp -> sp
  | None ->
      let program =
        Runner.program_of w
          (Runner.Liquid
             { backend = Backend.kind_of backend; lanes = width; oracle = false })
      in
      let hooks, feeds = Fault.counting_hooks () in
      let config =
        {
          (Cpu.liquid_config ~lanes:width) with
          Cpu.backend;
          Cpu.faults = Some hooks;
        }
      in
      let run = Cpu.run ~config (Image.of_program program) in
      let sp =
        {
          Fault.sp_feeds = !feeds;
          sp_calls = run.Cpu.stats.Stats.region_calls;
          sp_retired = Stats.total_insns run.Cpu.stats;
        }
      in
      Mutex.protect probe_mutex (fun () ->
          match Hashtbl.find_opt probe_cache key with
          | Some winner -> winner
          | None ->
              Hashtbl.replace probe_cache key sp;
              sp)

(* --- planning --- *)

type target = { t_workload : Workload.t; t_width : int; t_fault : Fault.t }

(* Every abort class at a seeded feed site, one corrupted feed, one
   microcode eviction, one watchdog budget — per (workload, width).
   Site draws come from one RNG walked in a fixed order, so a seed
   pins the whole campaign. *)
let plan_for ?backend rng (w : Workload.t) ~width =
  let sp = probe ?backend w ~width in
  let site () = if sp.Fault.sp_feeds <= 0 then 0 else Fault.Rng.int rng sp.Fault.sp_feeds in
  let aborts =
    List.map
      (fun abort -> Fault.Force_abort { site = site (); abort })
      Abort.all
  in
  let corrupt = [ Fault.Corrupt_feed { site = site () } ] in
  let evict =
    if sp.Fault.sp_calls <= 0 then []
    else [ Fault.Evict_ucode { call = Fault.Rng.int rng sp.Fault.sp_calls } ]
  in
  let fuel =
    if sp.Fault.sp_retired <= 1 then []
    else
      [ Fault.Exhaust_fuel { budget = 1 + Fault.Rng.int rng (sp.Fault.sp_retired - 1) } ]
  in
  List.map
    (fun f -> { t_workload = w; t_width = width; t_fault = f })
    (aborts @ corrupt @ evict @ fuel)

let default_widths = [ 2; 4; 8; 16 ]

let plan ?backend ?(workloads = Workload.all ()) ?(widths = default_widths)
    ~seed () =
  let rng = Fault.Rng.make seed in
  List.concat_map
    (fun w ->
      List.concat_map (fun width -> plan_for ?backend rng w ~width) widths)
    workloads

(* --- executing one case --- *)

type verdict =
  | Safe  (** fault fired; final state matches the scalar oracle, or the
              watchdog stopped the run with its structured diagnostic *)
  | Divergent  (** fault fired and the final state differs from scalar *)
  | Not_triggered  (** the planned site was never reached *)
  | Crashed of string  (** the machine failed to degrade gracefully *)

let verdict_name = function
  | Safe -> "safe"
  | Divergent -> "divergent"
  | Not_triggered -> "not-triggered"
  | Crashed _ -> "crashed"

type case = {
  c_workload : string;
  c_width : int;
  c_fault : Fault.t;
  c_verdict : verdict;
}

let run_case ?(backend = Backend.fixed) (w : Workload.t) ~width fault =
  let program =
    Runner.program_of w
      (Runner.Liquid
         { backend = Backend.kind_of backend; lanes = width; oracle = false })
  in
  let image = Image.of_program program in
  let armed = Fault.arm fault in
  let base = { (Cpu.liquid_config ~lanes:width) with Cpu.backend } in
  let config =
    {
      base with
      Cpu.faults = armed.Fault.hooks;
      Cpu.fuel = Option.value armed.Fault.fuel ~default:base.Cpu.fuel;
    }
  in
  let verdict =
    match Cpu.run_result ~config image with
    | Ok run -> (
        match fault with
        | Fault.Exhaust_fuel _ ->
            (* The budget was drawn below the clean run's retirement
               count, so completing means the plan was stale. *)
            Not_triggered
        | _ when armed.Fault.fired () = 0 -> Not_triggered
        | _ -> (
            match Oracle.check w image run with
            | Ok () -> Safe
            | Error m ->
                ignore m;
                Divergent))
    | Error d -> (
        match (fault, d.Diag.fault) with
        | Fault.Exhaust_fuel _, Diag.Fuel_exhausted ->
            (* exactly the promised structured stop *)
            Safe
        | _ -> Crashed (Diag.to_string d))
    | exception e -> Crashed (Printexc.to_string e)
  in
  {
    c_workload = w.Workload.name;
    c_width = width;
    c_fault = fault;
    c_verdict = verdict;
  }

(* --- the campaign --- *)

type report = {
  r_seed : int;
  r_cases : case list;
  r_injected : int;
  r_safe : int;
  r_divergent : int;
  r_not_triggered : int;
  r_crashed : int;
}

let survived r = r.r_divergent = 0 && r.r_crashed = 0

let summarize ~seed cases =
  let count p = List.length (List.filter p cases) in
  let safe = count (fun c -> c.c_verdict = Safe) in
  let divergent = count (fun c -> c.c_verdict = Divergent) in
  let not_triggered = count (fun c -> c.c_verdict = Not_triggered) in
  let crashed =
    count (fun c -> match c.c_verdict with Crashed _ -> true | _ -> false)
  in
  {
    r_seed = seed;
    r_cases = cases;
    r_injected = safe + divergent + crashed;
    r_safe = safe;
    r_divergent = divergent;
    r_not_triggered = not_triggered;
    r_crashed = crashed;
  }

let run ?domains ?backend ?workloads ?widths ~seed () =
  let targets = plan ?backend ?workloads ?widths ~seed () in
  let results =
    Runner.run_many_result ?domains
      (fun t -> run_case ?backend t.t_workload ~width:t.t_width t.t_fault)
      targets
  in
  let cases =
    List.map2
      (fun t -> function
        | Ok c -> c
        | Error { Runner.f_exn; _ } ->
            (* run_case already fences the machine; reaching this means
               the harness itself broke — still report, never raise. *)
            {
              c_workload = t.t_workload.Workload.name;
              c_width = t.t_width;
              c_fault = t.t_fault;
              c_verdict = Crashed (Printexc.to_string f_exn);
            })
      targets results
  in
  summarize ~seed cases

(* --- reporting --- *)

let pp_case ppf c =
  Format.fprintf ppf "%-14s w%-2d %-32s %s" c.c_workload c.c_width
    (Fault.to_string c.c_fault)
    (match c.c_verdict with
    | Crashed msg -> "CRASHED: " ^ msg
    | v -> verdict_name v)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>fault campaign (seed %d): %d cases, %d injected@ \
     aborted safely:  %d@ state-divergent: %d@ crashed:         %d@ \
     not triggered:   %d@ verdict: %s@]"
    r.r_seed (List.length r.r_cases) r.r_injected r.r_safe r.r_divergent
    r.r_crashed r.r_not_triggered
    (if survived r then "SURVIVED" else "FAILED")
