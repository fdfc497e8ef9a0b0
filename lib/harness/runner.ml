open Liquid_prog
open Liquid_pipeline
open Liquid_scalarize
open Liquid_translate
open Liquid_workloads

type variant =
  | Baseline
  | Liquid_scalar
  | Liquid of { backend : Backend.kind; lanes : int; oracle : bool }
  | Native of int

type result = { variant : variant; program : Program.t; run : Cpu.run }

(* The surface tag of a Liquid machine: "liquid" and "oracle" for the
   fixed-width backend, otherwise the backend's name, "-oracle"
   suffixed for oracle translation. *)
let liquid_tag ~backend ~oracle =
  match (backend, oracle) with
  | Backend.Fixed, false -> "liquid"
  | Backend.Fixed, true -> "oracle"
  | _, false -> Backend.name_of (Backend.of_kind backend)
  | _, true -> Backend.name_of (Backend.of_kind backend) ^ "-oracle"

let variant_name = function
  | Baseline -> "baseline"
  | Liquid_scalar -> "liquid/scalar"
  | Liquid { backend = Backend.Fixed; lanes; oracle = false } ->
      Printf.sprintf "liquid/%d-wide" lanes
  | Liquid { backend; lanes; oracle } ->
      Printf.sprintf "liquid-%s/%d-wide" (liquid_tag ~backend ~oracle) lanes
  | Native w -> Printf.sprintf "native/%d-wide" w

(* Every (backend, oracle) shape of a Liquid machine. A tag parses as
   its canonical spelling or, [liquid] itself aside, with a [liquid-]
   prefix. *)
let liquid_of_tag tag =
  List.find_opt
    (fun (backend, oracle) ->
      let t = liquid_tag ~backend ~oracle in
      tag = t || (t <> "liquid" && tag = "liquid-" ^ t))
    (List.concat_map
       (fun b -> [ (Backend.kind_of b, false); (Backend.kind_of b, true) ])
       Backend.all)

(* The inverse of [variant_to_string], with the [liquid-] aliases. *)
let variant_of_string s =
  let width ctor w =
    match int_of_string_opt w with
    | Some w when w > 0 -> Ok (ctor w)
    | Some _ | None -> Error (Printf.sprintf "bad width %S" w)
  in
  let unknown () =
    Error
      (Printf.sprintf
         "unknown variant %S; expected baseline, liquid:scalar, \
          liquid:<width>, vla:<width>, rvv:<width>, oracle:<width>, \
          vla-oracle:<width>, rvv-oracle:<width> or native:<width>"
         s)
  in
  match String.split_on_char ':' s with
  | [ "baseline" ] -> Ok Baseline
  | [ "liquid"; "scalar" ] -> Ok Liquid_scalar
  | [ "native"; w ] -> width (fun w -> Native w) w
  | [ tag; w ] -> (
      match liquid_of_tag tag with
      | Some (backend, oracle) ->
          width (fun lanes -> Liquid { backend; lanes; oracle }) w
      | None -> unknown ())
  | _ -> unknown ()

let variant_to_string = function
  | Baseline -> "baseline"
  | Liquid_scalar -> "liquid:scalar"
  | Liquid { backend; lanes; oracle } ->
      Printf.sprintf "%s:%d" (liquid_tag ~backend ~oracle) lanes
  | Native w -> Printf.sprintf "native:%d" w

let program_of (w : Workload.t) = function
  | Baseline -> Codegen.baseline w.program
  | Liquid_scalar | Liquid _ -> Codegen.liquid w.program
  | Native width -> Codegen.native ~width w.program

let config_of ?(translation_cpi = 1) = function
  | Baseline | Liquid_scalar -> Cpu.scalar_config
  | Liquid { backend; lanes; oracle } ->
      let config =
        { (Cpu.liquid_config ~lanes) with Cpu.backend = Backend.of_kind backend }
      in
      if oracle then { config with Cpu.oracle_translation = true }
      else
        {
          config with
          Cpu.translator =
            Some { Cpu.cycles_per_insn = translation_cpi; Cpu.kind = Cpu.Hardware };
        }
  | Native lanes -> Cpu.native_config ~lanes

let run ?translation_cpi ?(blocks = true) (w : Workload.t) variant =
  let program = program_of w variant in
  let config = { (config_of ?translation_cpi variant) with Cpu.blocks } in
  { variant; program; run = Cpu.run ~config (Image.of_program program) }

(* --- memoized runs --- *)

(* Simulations are pure functions of the workload, variant and machine
   knobs, and the experiment suite re-runs the same (workload, variant)
   pairs dozens of times (every table needs the baseline cycles of every
   workload). One process-wide table keyed on the input tuple turns
   those repeats into lookups. The [translation_cpi] knob only reaches
   the config of non-oracle [Liquid] variants, so it is normalized out
   of the key everywhere else.

   The table is a bounded exact-LRU [Lru] whose capacity comfortably
   covers one full experiment report's distinct keys, so the reports
   see pure lookups while memory stays at a flat ceiling. *)

type cache_key = { ck_workload : string; ck_variant : variant; ck_cpi : int }

let cache_capacity = 2048
let cache : (cache_key, result) Lru.t = Lru.create ~capacity:cache_capacity
let cache_mutex = Mutex.create ()

let cache_key (w : Workload.t) variant ~translation_cpi =
  {
    ck_workload = w.Workload.name;
    ck_variant = variant;
    ck_cpi =
      (match variant with
      | Liquid { oracle = false; _ } -> Option.value translation_cpi ~default:1
      | Baseline | Liquid_scalar | Liquid { oracle = true; _ } | Native _ -> 1);
  }

let run_cached ?translation_cpi (w : Workload.t) variant =
  let key = cache_key w variant ~translation_cpi in
  match Mutex.protect cache_mutex (fun () -> Lru.find cache key) with
  | Some r -> r
  | None ->
      let r = run ?translation_cpi w variant in
      Mutex.protect cache_mutex (fun () ->
          (* A racing domain may have finished the same key first; its
             entry wins so every caller shares one result. The re-probe
             counts as a second lookup in the cache counters, which is
             what it is. *)
          match Lru.find cache key with
          | Some winner -> winner
          | None ->
              Lru.add cache key r;
              r)

let clear_cache () = Mutex.protect cache_mutex (fun () -> Lru.clear cache)

let cache_counters () =
  Mutex.protect cache_mutex (fun () -> Lru.counters cache)

(* --- domain fan-out --- *)

type 'a failure = { f_index : int; f_item : 'a; f_exn : exn }

(* Per-item crash isolation: each application of [f] is fenced inside
   its worker, so one poisoned item yields [Error] in its slot while
   every other item still comes back [Ok] — a sweep never loses its
   completed results to one bad run. The try sits inside the worker
   loop (not around [Domain.join]), so no exception can escape a
   domain and tear the pool down. *)
let run_many_result ?domains f items =
  let items_a = Array.of_list items in
  let n = Array.length items_a in
  let workers =
    let d =
      match domains with
      | Some d -> d
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min d n)
  in
  let one i item =
    match f item with
    | r -> Ok r
    | exception e -> Error { f_index = i; f_item = item; f_exn = e }
  in
  if n = 0 then []
  else if workers = 1 then List.mapi one items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false
        else results.(i) <- Some (one i items_a.(i))
      done
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false)
         results)
  end

let run_many ?domains f items =
  List.map
    (function Ok r -> r | Error { f_exn; _ } -> raise f_exn)
    (run_many_result ?domains f items)

let snapshot { variant; program; run } =
  Liquid_obs.Snapshot.of_run ~label:program.Program.name
    ~variant:(variant_name variant) run

let speedup ~(baseline : Cpu.run) (run : Cpu.run) =
  float_of_int baseline.Cpu.stats.Liquid_machine.Stats.cycles
  /. float_of_int run.Cpu.stats.Liquid_machine.Stats.cycles
