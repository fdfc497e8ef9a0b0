type t = Reverse of int | Halfswap of int | Rotate of { block : int; by : int }

let pairswap = Rotate { block = 2; by = 1 }
let period = function Reverse b | Halfswap b -> b | Rotate { block; _ } -> block
let is_pow2 n = n > 0 && n land (n - 1) = 0

let well_formed t =
  let b = period t in
  is_pow2 b && b >= 2 && b <= 16
  && match t with Rotate { by; _ } -> by > 0 && by < b | Reverse _ | Halfswap _ -> true

(* Floored block and position: the period is a power of two, so
   [i land (b - 1)] is in [0, b) for negative [i] too, and the compiled
   lookup's [offsets.(i land (b - 1))] agrees for every counter. *)
let src_index t i =
  let b = period t in
  let pos = i land (b - 1) in
  i - pos
  +
  match t with
  | Reverse _ -> b - 1 - pos
  | Halfswap _ -> (pos + (b / 2)) mod b
  | Rotate { by; _ } -> (pos + by) mod b

let offsets t =
  Array.init (period t) (fun i -> src_index t i - i)

let supported t ~lanes = lanes mod period t = 0

let offsets_for t ~lanes =
  if not (supported t ~lanes) then
    invalid_arg "Perm.offsets_for: pattern not supported at this width";
  let base = offsets t in
  Array.init lanes (fun i -> base.(i mod period t))

let apply t v =
  let n = Array.length v in
  if n mod period t <> 0 then
    invalid_arg "Perm.apply: vector length not a multiple of the period";
  Array.init n (fun i -> v.(src_index t i))

let inverse = function
  | Reverse b -> Reverse b
  | Halfswap b -> Halfswap b
  | Rotate { block; by } -> Rotate { block; by = (block - by) mod block }

let catalog =
  let blocks = [ 2; 4; 8; 16 ] in
  List.concat_map
    (fun b ->
      let rotates =
        if b = 2 then [ Rotate { block = 2; by = 1 } ]
        else [ Rotate { block = b; by = 1 }; Rotate { block = b; by = b - 1 } ]
      in
      (if b > 2 then [ Reverse b; Halfswap b ] else [])
      @ rotates)
    blocks

let equal (a : t) b = a = b

let find_by_offsets observed =
  let lanes = Array.length observed in
  let matches p =
    supported p ~lanes && offsets_for p ~lanes = observed
  in
  List.find_opt matches catalog

let find_by_offset_stream values ~len =
  if len < 1 || len > Array.length values then None
  else
    let matches p =
      let b = period p in
      len >= b
      &&
      let base = offsets p in
      let ok = ref true in
      for e = 0 to len - 1 do
        if values.(e) <> base.(e mod b) then ok := false
      done;
      !ok
    in
    List.find_opt matches catalog

let pp ppf = function
  | Reverse b -> Format.fprintf ppf "reverse.%d" b
  | Halfswap b -> Format.fprintf ppf "bfly.%d" b
  | Rotate { block; by } -> Format.fprintf ppf "rot.%d.%d" block by
