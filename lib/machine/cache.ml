type config = { size_bytes : int; line_bytes : int; assoc : int }

let arm926_config = { size_bytes = 16 * 1024; line_bytes = 32; assoc = 64 }

(* Exact LRU at O(1) per access. Set [s] owns the slots
   [s * assoc .. s * assoc + assoc - 1]; its [fill.(s)] valid slots are
   packed at the front, so a slot's line stays put until it is evicted.

   - [lines.(slot)] is the line number a valid slot holds.
   - Recency is a circular doubly linked list per set. The slots are
     nodes [0 .. n_lines - 1], and node [n_lines + s] is set [s]'s
     sentinel: its [next] is the MRU slot and its [prev] the LRU one. A hit moves its
     slot to the front (nothing to do when it is already there); a miss
     takes a free slot while the set has one, else the tail.
   - A line is found through [index], an open-addressed line -> slot + 1
     table (0 = empty) of at least 2 x [n_lines] buckets, with linear
     probing from a multiplicative hash and backward-shift deletion, so
     no tombstones build up.

   The simulator probes a cache once per instruction fetch and once per
   data access, and every fuzz run builds two, so the footprint matters
   as much as the policy: the links ([prev] at byte [4 * node], [next]
   at [4 * node + 2]) and the index are unboxed uint16s in [Bytes],
   which holds the whole ARM926 model under 1,100 words. Native byte
   order is fine: a value is only read back by the process that wrote
   it. The uint16 encoding bounds a cache to fewer than 0xFFFF lines. *)
type t = {
  cfg : config;
  lines : int array;
  fill : int array;  (* valid slots per set *)
  links : Bytes.t;
  index : Bytes.t;
  n_lines : int;
  line_shift : int;
  set_mask : int;
  index_mask : int;
  hash_shift : int;
  mutable hits : int;
  mutable misses : int;
}

type outcome = Hit | Miss

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let[@inline] prev links n = get16 links (4 * n)
let[@inline] next links n = get16 links ((4 * n) + 2)
let[@inline] set_prev links n v = set16 links (4 * n) v
let[@inline] set_next links n v = set16 links ((4 * n) + 2) v

let[@inline] unlink links n =
  let p = prev links n and x = next links n in
  set_next links p x;
  set_prev links x p

let[@inline] push_front links sentinel n =
  let h = next links sentinel in
  set_prev links n sentinel;
  set_next links n h;
  set_prev links h n;
  set_next links sentinel n

(* Fibonacci hashing: the top [index_bits] bits of [line * 2^63 / phi]
   spread consecutive lines and power-of-two strides alike. *)
let[@inline] home t line = (line * 0x4F1BBCDCBFA53E0B) lsr t.hash_shift

let flush t =
  Array.fill t.fill 0 (Array.length t.fill) 0;
  Bytes.fill t.index 0 (Bytes.length t.index) '\000';
  for s = t.n_lines to t.n_lines + Array.length t.fill - 1 do
    set_prev t.links s s;
    set_next t.links s s
  done

let create cfg =
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two";
  let n_sets = cfg.size_bytes / (cfg.line_bytes * cfg.assoc) in
  if n_sets < 1 then invalid_arg "Cache.create: capacity below one set";
  if not (is_pow2 n_sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  let n_lines = n_sets * cfg.assoc in
  if n_lines >= 0xFFFF then invalid_arg "Cache.create: 65535 lines or more";
  let index_bits = log2 n_lines + 1 + if is_pow2 n_lines then 0 else 1 in
  let t =
    {
      cfg;
      lines = Array.make n_lines 0;
      fill = Array.make n_sets 0;
      links = Bytes.create (4 * (n_lines + n_sets));
      index = Bytes.create (2 lsl index_bits);
      n_lines;
      line_shift = log2 cfg.line_bytes;
      set_mask = n_sets - 1;
      index_mask = (1 lsl index_bits) - 1;
      hash_shift = Sys.int_size - index_bits;
      hits = 0;
      misses = 0;
    }
  in
  flush t;
  t

let config t = t.cfg

(* Drop [slot]'s index entry, then shift each later entry of the probe
   run back into the hole unless that would move it before its home. *)
let unindex t slot =
  let index = t.index and mask = t.index_mask in
  let hole = ref (home t (Array.unsafe_get t.lines slot)) in
  while get16 index (2 * !hole) <> slot + 1 do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  let e = ref (get16 index (2 * !j)) in
  while !e <> 0 do
    let h = home t (Array.unsafe_get t.lines (!e - 1)) in
    if (!j - h) land mask >= (!j - !hole) land mask then begin
      set16 index (2 * !hole) !e;
      hole := !j
    end;
    j := (!j + 1) land mask;
    e := get16 index (2 * !j)
  done;
  set16 index (2 * !hole) 0

let touch t line =
  let index = t.index and mask = t.index_mask and lines = t.lines in
  let b = ref (home t line) in
  let e = ref (get16 index (2 * !b)) in
  while !e <> 0 && Array.unsafe_get lines (!e - 1) <> line do
    b := (!b + 1) land mask;
    e := get16 index (2 * !b)
  done;
  let links = t.links in
  let set = line land t.set_mask in
  let sentinel = t.n_lines + set in
  if !e <> 0 then begin
    let slot = !e - 1 in
    if next links sentinel <> slot then begin
      unlink links slot;
      push_front links sentinel slot
    end;
    t.hits <- t.hits + 1;
    Hit
  end
  else begin
    let fill = Array.unsafe_get t.fill set in
    let slot =
      if fill < t.cfg.assoc then begin
        Array.unsafe_set t.fill set (fill + 1);
        (set * t.cfg.assoc) + fill
      end
      else begin
        let victim = prev links sentinel in
        unlink links victim;
        unindex t victim;
        (* the hole may have opened anywhere on [line]'s probe run *)
        b := home t line;
        while get16 index (2 * !b) <> 0 do
          b := (!b + 1) land mask
        done;
        victim
      end
    in
    Array.unsafe_set lines slot line;
    set16 index (2 * !b) (slot + 1);
    push_front links sentinel slot;
    t.misses <- t.misses + 1;
    Miss
  end

let access t addr = touch t (addr lsr t.line_shift)

let access_range t ~addr ~bytes =
  if bytes <= 0 then 0
  else begin
    let last = (addr + bytes - 1) lsr t.line_shift in
    let misses = ref 0 in
    for line = addr lsr t.line_shift to last do
      match touch t line with Hit -> () | Miss -> incr misses
    done;
    !misses
  end

(* Consecutive fetches of the same line always hit: the block engine
   performs one real [access] per line run and credits the rest here.
   That line is already its set's MRU slot, so the recency list needs
   no touch-up. *)
let credit_hits t n = t.hits <- t.hits + n

let line_bytes t = t.cfg.line_bytes
let set_of t addr = (addr lsr t.line_shift) land t.set_mask
let hits t = t.hits
let misses t = t.misses

type counters = { c_hits : int; c_misses : int }

let counters t = { c_hits = t.hits; c_misses = t.misses }

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
