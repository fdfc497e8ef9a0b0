let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let addr_mask = 0xFFFFFFFF

(* Sparse paged memory with a one-entry page cache. Simulation touches
   the same page for long runs of consecutive accesses (code fetch aside,
   the working set of a loop iteration is a handful of arrays), so the
   cache turns the common case into a single comparison instead of a
   [Hashtbl] probe per byte. [no_page] is a zero-length sentinel standing
   for "page not allocated"; it can never be returned for a real page.

   The page table is keyed on plain ints, so it hashes and compares them
   monomorphically: every page-cache miss would otherwise pay for the
   polymorphic [caml_hash] and [compare_val]. The identity hash puts
   consecutive page indices in distinct buckets. *)

module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i land max_int
end)

type t = {
  pages : Bytes.t Pages.t;
  mutable last_idx : int;  (** page index held in [last_page]; -1 = none *)
  mutable last_page : Bytes.t;
}

let no_page = Bytes.create 0

let create () = { pages = Pages.create 64; last_idx = -1; last_page = no_page }

let copy m =
  let pages = Pages.create (Pages.length m.pages) in
  Pages.iter (fun k v -> Pages.replace pages k (Bytes.copy v)) m.pages;
  { pages; last_idx = -1; last_page = no_page }

(* Resolve a page for reading: [no_page] when untouched (reads as zero). *)
let[@inline] find_page m idx =
  if m.last_idx = idx then m.last_page
  else
    match Pages.find_opt m.pages idx with
    | Some p ->
        m.last_idx <- idx;
        m.last_page <- p;
        p
    | None -> no_page

(* Resolve a page for writing, allocating on first touch. *)
let page_of m idx =
  if m.last_idx = idx then m.last_page
  else begin
    let p =
      match Pages.find_opt m.pages idx with
      | Some p -> p
      | None ->
          let p = Bytes.make page_size '\000' in
          Pages.replace m.pages idx p;
          p
    in
    m.last_idx <- idx;
    m.last_page <- p;
    p
  end

let read_byte m addr =
  let addr = addr land addr_mask in
  let p = find_page m (addr lsr page_bits) in
  if p == no_page then 0 else Char.code (Bytes.unsafe_get p (addr land page_mask))

let write_byte m addr v =
  let addr = addr land addr_mask in
  let p = page_of m (addr lsr page_bits) in
  Bytes.unsafe_set p (addr land page_mask) (Char.unsafe_chr (v land 0xFF))

let sign_extend ~bits v =
  let shift = Sys.int_size - bits in
  (v lsl shift) asr shift

(* Slow path: byte-at-a-time assembly for accesses that cross a page
   boundary (each byte's address wraps within the 32-bit space, exactly
   as four separate [read_byte] calls would). *)
let read_slow m ~addr ~bytes ~signed =
  let raw =
    match bytes with
    | 1 -> read_byte m addr
    | 2 -> read_byte m addr lor (read_byte m (addr + 1) lsl 8)
    | 4 ->
        read_byte m addr
        lor (read_byte m (addr + 1) lsl 8)
        lor (read_byte m (addr + 2) lsl 16)
        lor (read_byte m (addr + 3) lsl 24)
    | n -> invalid_arg (Printf.sprintf "Memory.read: bad size %d" n)
  in
  if signed || bytes = 4 then sign_extend ~bits:(bytes * 8) raw else raw

let read m ~addr ~bytes ~signed =
  let addr = addr land addr_mask in
  let off = addr land page_mask in
  if off + bytes <= page_size then begin
    let p = find_page m (addr lsr page_bits) in
    if p == no_page then
      match bytes with
      | 1 | 2 | 4 -> 0
      | n -> invalid_arg (Printf.sprintf "Memory.read: bad size %d" n)
    else
      match bytes with
      | 1 ->
          let v = Bytes.get_uint8 p off in
          if signed then sign_extend ~bits:8 v else v
      | 2 -> if signed then Bytes.get_int16_le p off else Bytes.get_uint16_le p off
      | 4 ->
          (* two unboxed 16-bit reads; [get_int32_le] would box an
             [int32] on every word load *)
          sign_extend ~bits:32
            (Bytes.get_uint16_le p off lor (Bytes.get_uint16_le p (off + 2) lsl 16))
      | n -> invalid_arg (Printf.sprintf "Memory.read: bad size %d" n)
  end
  else read_slow m ~addr ~bytes ~signed

let write_slow m ~addr ~bytes v =
  match bytes with
  | 1 -> write_byte m addr v
  | 2 ->
      write_byte m addr v;
      write_byte m (addr + 1) (v asr 8)
  | 4 ->
      write_byte m addr v;
      write_byte m (addr + 1) (v asr 8);
      write_byte m (addr + 2) (v asr 16);
      write_byte m (addr + 3) (v asr 24)
  | n -> invalid_arg (Printf.sprintf "Memory.write: bad size %d" n)

let write m ~addr ~bytes v =
  let addr = addr land addr_mask in
  let off = addr land page_mask in
  if off + bytes <= page_size then
    let p = page_of m (addr lsr page_bits) in
    match bytes with
    | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xFF))
    | 2 -> Bytes.set_uint16_le p off (v land 0xFFFF)
    | 4 ->
        Bytes.set_uint16_le p off (v land 0xFFFF);
        Bytes.set_uint16_le p (off + 2) ((v asr 16) land 0xFFFF)
    | n -> invalid_arg (Printf.sprintf "Memory.write: bad size %d" n)
  else write_slow m ~addr ~bytes v

let read_block m ~addr ~len dst =
  if len < 0 || len > Bytes.length dst then
    invalid_arg "Memory.read_block: bad length";
  let addr = ref (addr land addr_mask) in
  let pos = ref 0 in
  while !pos < len do
    let off = !addr land page_mask in
    let n = min (len - !pos) (page_size - off) in
    let p = find_page m (!addr lsr page_bits) in
    if p == no_page then Bytes.fill dst !pos n '\000'
    else Bytes.blit p off dst !pos n;
    pos := !pos + n;
    addr := (!addr + n) land addr_mask
  done

let write_block m ~addr ~len src =
  if len < 0 || len > Bytes.length src then
    invalid_arg "Memory.write_block: bad length";
  let addr = ref (addr land addr_mask) in
  let pos = ref 0 in
  while !pos < len do
    let off = !addr land page_mask in
    let n = min (len - !pos) (page_size - off) in
    let p = page_of m (!addr lsr page_bits) in
    Bytes.blit src !pos p off n;
    pos := !pos + n;
    addr := (!addr + n) land addr_mask
  done

let blit_bytes m ~addr src = write_block m ~addr ~len:(Bytes.length src) src

let touched_pages m = Pages.length m.pages

let zero_page = Bytes.make page_size '\000'

let equal a b =
  let check pages_a pages_b =
    Pages.fold
      (fun idx pa acc ->
        acc
        &&
        match Pages.find_opt pages_b idx with
        | Some pb -> Bytes.equal pa pb
        | None -> Bytes.equal pa zero_page)
      pages_a true
  in
  check a.pages b.pages && check b.pages a.pages

let diff a b =
  let out = ref [] and count = ref 0 in
  let page_indices = Pages.create 16 in
  Pages.iter (fun k _ -> Pages.replace page_indices k ()) a.pages;
  Pages.iter (fun k _ -> Pages.replace page_indices k ()) b.pages;
  Pages.iter
    (fun idx () ->
      if !count < 32 then
        for off = 0 to page_size - 1 do
          let addr = (idx lsl page_bits) lor off in
          let va = read_byte a addr and vb = read_byte b addr in
          if va <> vb && !count < 32 then begin
            out := (addr, va, vb) :: !out;
            incr count
          end
        done)
    page_indices;
  List.rev !out
