open Liquid_translate
open Liquid_pipeline
module Stats = Liquid_machine.Stats

(* --- deterministic seeded RNG (splitmix64) --- *)

module Rng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Fault.Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int)
                    (Int64.of_int bound))

  let pick t l = List.nth l (int t (List.length l))
end

(* --- the fault taxonomy --- *)

type t =
  | Force_abort of { site : int; abort : Abort.t }
  | Corrupt_feed of { site : int }
  | Evict_ucode of { call : int }
  | Exhaust_fuel of { budget : int }

let kind_name = function
  | Force_abort _ -> "force-abort"
  | Corrupt_feed _ -> "corrupt-feed"
  | Evict_ucode _ -> "evict-ucode"
  | Exhaust_fuel _ -> "exhaust-fuel"

let to_string t =
  kind_name t
  ^
  match t with
  | Force_abort { site; abort } ->
      Printf.sprintf "[%s]@feed:%d" (Abort.class_name abort) site
  | Corrupt_feed { site } -> Printf.sprintf "@feed:%d" site
  | Evict_ucode { call } -> Printf.sprintf "@call:%d" call
  | Exhaust_fuel { budget } -> Printf.sprintf "@%d" budget

(* --- arming a fault as CPU hooks --- *)

type armed = {
  hooks : Cpu.fault_hooks option;
  fuel : int option;
  fired : unit -> int;
}

let no_hooks =
  {
    Cpu.fh_abort = (fun ~entry:_ ~observed:_ -> None);
    Cpu.fh_corrupt = (fun ~entry:_ ~observed:_ -> false);
    Cpu.fh_evict = (fun ~entry:_ ~call:_ -> false);
  }

(* Each armed fault closes over its own feed/call counters, so the
   trigger site is a global index across every translation session of
   the run — "the Nth instruction the translator ever observes" — which
   addresses arbitrary DFA states without the core knowing the plan. *)
let arm fault =
  let fired = ref 0 in
  let read () = !fired in
  match fault with
  | Force_abort { site; abort } ->
      let feeds = ref 0 in
      let hook ~entry:_ ~observed:_ =
        let i = !feeds in
        incr feeds;
        if i = site then begin
          incr fired;
          Some abort
        end
        else None
      in
      { hooks = Some { no_hooks with Cpu.fh_abort = hook }; fuel = None;
        fired = read }
  | Corrupt_feed { site } ->
      let feeds = ref 0 in
      let hook ~entry:_ ~observed:_ =
        let i = !feeds in
        incr feeds;
        if i = site then begin
          incr fired;
          true
        end
        else false
      in
      { hooks = Some { no_hooks with Cpu.fh_corrupt = hook }; fuel = None;
        fired = read }
  | Evict_ucode { call } ->
      let hook ~entry:_ ~call:c =
        if c = call then begin
          incr fired;
          true
        end
        else false
      in
      { hooks = Some { no_hooks with Cpu.fh_evict = hook }; fuel = None;
        fired = read }
  | Exhaust_fuel { budget } ->
      (* No hook: the watchdog itself is the injection point. "Fired" is
         judged from the run outcome, not a counter. *)
      { hooks = None; fuel = Some budget; fired = read }

let configure armed (config : Cpu.config) =
  {
    config with
    Cpu.faults = armed.hooks;
    Cpu.fuel = Option.value armed.fuel ~default:config.Cpu.fuel;
  }

(* --- measuring a clean run's addressable site space --- *)

type space = { sp_feeds : int; sp_calls : int; sp_retired : int }

let counting_hooks () =
  let feeds = ref 0 in
  let hooks =
    {
      no_hooks with
      Cpu.fh_abort =
        (fun ~entry:_ ~observed:_ ->
          incr feeds;
          None);
    }
  in
  let space_of (run : Cpu.run) =
    {
      sp_feeds = !feeds;
      sp_calls = run.Cpu.stats.Stats.region_calls;
      sp_retired = Stats.total_insns run.Cpu.stats;
    }
  in
  (hooks, space_of)
