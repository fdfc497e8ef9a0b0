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

type t = Liquid_pipeline.Fault.t =
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

(* --- the addressable site space of a clean run --- *)

type space = { sp_feeds : int; sp_calls : int; sp_retired : int }

let space_of (run : Cpu.run) =
  {
    sp_feeds = run.Cpu.feed_events;
    sp_calls = run.Cpu.stats.Stats.region_calls;
    sp_retired = Stats.total_insns run.Cpu.stats;
  }
