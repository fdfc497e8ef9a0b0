type t =
  | Force_abort of { site : int; abort : Liquid_translate.Abort.t }
  | Corrupt_feed of { site : int }
  | Evict_ucode of { call : int }
  | Exhaust_fuel of { budget : int }
