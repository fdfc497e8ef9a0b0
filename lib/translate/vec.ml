type 'a t = { mutable arr : 'a array; mutable len : int }

let create () = { arr = [||]; len = 0 }
let length t = t.len

let push t x =
  if t.len = Array.length t.arr then begin
    let cap = max 8 (2 * Array.length t.arr) in
    let arr = Array.make cap x in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  t.arr.(t.len) <- x;
  t.len <- t.len + 1

(* [push] specialized to immediate elements: the store skips the
   write barrier a polymorphic array store pays. *)
let push_int (t : int t) (x : int) =
  if t.len = Array.length t.arr then begin
    let arr = Array.make (max 8 (2 * Array.length t.arr)) 0 in
    Array.blit t.arr 0 arr 0 t.len;
    t.arr <- arr
  end;
  Array.unsafe_set t.arr t.len x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.arr.(i)

let set t i x =
  check t i;
  t.arr.(i) <- x

let to_array t = Array.sub t.arr 0 t.len
let to_list t = Array.to_list (to_array t)

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.arr.(i)
  done

let fold_left f init t =
  let acc = ref init in
  for i = 0 to t.len - 1 do
    acc := f !acc t.arr.(i)
  done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.arr.(i) || go (i + 1)) in
  go 0
