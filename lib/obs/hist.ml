type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
}

let create ?(buckets = 32) () =
  if buckets < 2 then invalid_arg "Hist.create: need at least two buckets";
  { counts = Array.make buckets 0; n = 0; sum = 0; min_v = max_int; max_v = 0 }

(* Bucket index = bit length of the value, capped to the last bucket:
   0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)
let bucket_of counts v =
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  min (bits 0 v) (Array.length counts - 1)

let add t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of t.counts v in
  t.counts.(b) <- t.counts.(b) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = t.max_v
let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

let bounds i =
  if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let iter_buckets t f =
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bounds i in
        f ~lo ~hi ~count:c)
    t.counts

let to_json t =
  let buckets = ref [] in
  iter_buckets t (fun ~lo ~hi ~count ->
      buckets :=
        Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int count) ]
        :: !buckets);
  Json.Obj
    [
      ("count", Json.Int t.n);
      ("total", Json.Int t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int t.max_v);
      ("mean", Json.Float (mean t));
      ("buckets", Json.List (List.rev !buckets));
    ]
