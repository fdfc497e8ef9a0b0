(* Unit tests for the machine substrate: memory, cache, branch predictor. *)

open Liquid_machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Memory --- *)

let test_memory_zero_fresh () =
  let m = Memory.create () in
  check "fresh byte" 0 (Memory.read_byte m 0x1234);
  check "fresh word" 0 (Memory.read m ~addr:0xFFF0 ~bytes:4 ~signed:true)

let test_memory_byte_roundtrip () =
  let m = Memory.create () in
  Memory.write_byte m 0x42 0xAB;
  check "byte" 0xAB (Memory.read_byte m 0x42);
  Memory.write_byte m 0x42 0x100;
  check "byte truncated" 0 (Memory.read_byte m 0x42)

let test_memory_little_endian () =
  let m = Memory.create () in
  Memory.write m ~addr:0x100 ~bytes:4 0x12345678;
  check "lsb" 0x78 (Memory.read_byte m 0x100);
  check "msb" 0x12 (Memory.read_byte m 0x103);
  check "half low" 0x5678 (Memory.read m ~addr:0x100 ~bytes:2 ~signed:false);
  check "half high" 0x1234 (Memory.read m ~addr:0x102 ~bytes:2 ~signed:false)

let test_memory_sign_extension () =
  let m = Memory.create () in
  Memory.write m ~addr:0 ~bytes:1 0xFF;
  check "signed byte" (-1) (Memory.read m ~addr:0 ~bytes:1 ~signed:true);
  check "unsigned byte" 0xFF (Memory.read m ~addr:0 ~bytes:1 ~signed:false);
  Memory.write m ~addr:4 ~bytes:2 0x8000;
  check "signed half" (-32768) (Memory.read m ~addr:4 ~bytes:2 ~signed:true);
  check "unsigned half" 0x8000 (Memory.read m ~addr:4 ~bytes:2 ~signed:false);
  Memory.write m ~addr:8 ~bytes:4 (-5);
  check "word keeps sign" (-5) (Memory.read m ~addr:8 ~bytes:4 ~signed:true);
  check "word read is always signed" (-5)
    (Memory.read m ~addr:8 ~bytes:4 ~signed:false)

let test_memory_negative_word () =
  let m = Memory.create () in
  Memory.write m ~addr:0x2000 ~bytes:4 (-123456);
  check "negative word" (-123456) (Memory.read m ~addr:0x2000 ~bytes:4 ~signed:true)

let test_memory_page_boundary () =
  let m = Memory.create () in
  (* 4 KiB pages: a word written across 0x0FFE..0x1001 must span two. *)
  Memory.write m ~addr:0x0FFE ~bytes:4 0x11223344;
  check "cross-page word" 0x11223344
    (Memory.read m ~addr:0x0FFE ~bytes:4 ~signed:true);
  check_bool "two pages touched" true (Memory.touched_pages m >= 2)

let test_memory_copy_isolation () =
  let m = Memory.create () in
  Memory.write m ~addr:0x10 ~bytes:4 7;
  let m2 = Memory.copy m in
  Memory.write m2 ~addr:0x10 ~bytes:4 9;
  check "original unchanged" 7 (Memory.read m ~addr:0x10 ~bytes:4 ~signed:true);
  check "copy updated" 9 (Memory.read m2 ~addr:0x10 ~bytes:4 ~signed:true)

let test_memory_equal_and_diff () =
  let a = Memory.create () and b = Memory.create () in
  check_bool "fresh equal" true (Memory.equal a b);
  Memory.write_byte a 0x55 1;
  check_bool "differ" false (Memory.equal a b);
  (match Memory.diff a b with
  | [ (addr, va, vb) ] ->
      check "diff addr" 0x55 addr;
      check "diff a" 1 va;
      check "diff b" 0 vb
  | other -> Alcotest.failf "expected one diff, got %d" (List.length other));
  (* A touched-but-zero page still equals an untouched one. *)
  Memory.write_byte b 0x55 1;
  Memory.write_byte b 0x9000 0;
  check_bool "zero page equal" true (Memory.equal a b)

let test_memory_blit () =
  let m = Memory.create () in
  Memory.blit_bytes m ~addr:0x30 (Bytes.of_string "ab");
  check "blit 0" (Char.code 'a') (Memory.read_byte m 0x30);
  check "blit 1" (Char.code 'b') (Memory.read_byte m 0x31)

let test_memory_bad_size () =
  Alcotest.check_raises "read size 3" (Invalid_argument "Memory.read: bad size 3")
    (fun () -> ignore (Memory.read (Memory.create ()) ~addr:0 ~bytes:3 ~signed:false))

(* --- Cache --- *)

let small_cache () =
  Cache.create { Cache.size_bytes = 256; line_bytes = 32; assoc = 2 }

let test_cache_miss_then_hit () =
  let c = small_cache () in
  Alcotest.(check bool) "first is miss" true (Cache.access c 0x100 = Cache.Miss);
  Alcotest.(check bool) "second is hit" true (Cache.access c 0x100 = Cache.Hit);
  Alcotest.(check bool) "same line hits" true (Cache.access c 0x11F = Cache.Hit);
  Alcotest.(check bool) "next line misses" true (Cache.access c 0x120 = Cache.Miss)

let test_cache_lru_eviction () =
  (* 256 B / 32 B lines / 2-way -> 4 sets. Lines mapping to set 0 are
     multiples of 128 bytes apart. *)
  let c = small_cache () in
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x080);
  (* Touch the first line again so the second becomes LRU. *)
  ignore (Cache.access c 0x000);
  ignore (Cache.access c 0x100);
  (* evicts 0x080 *)
  Alcotest.(check bool) "kept MRU" true (Cache.access c 0x000 = Cache.Hit);
  Alcotest.(check bool) "evicted LRU" true (Cache.access c 0x080 = Cache.Miss)

let test_cache_stats_and_flush () =
  let c = small_cache () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  check "hits" 1 (Cache.hits c);
  check "misses" 1 (Cache.misses c);
  Cache.reset_stats c;
  check "reset hits" 0 (Cache.hits c);
  Cache.flush c;
  Alcotest.(check bool) "flush invalidates" true (Cache.access c 0 = Cache.Miss)

let test_cache_lines_spanned () =
  (* On a cold cache each line of the range misses once; again, none. *)
  let spanned ~addr ~bytes =
    let c = small_cache () in
    let misses = Cache.access_range c ~addr ~bytes in
    check "range again hits" 0 (Cache.access_range c ~addr ~bytes);
    misses
  in
  check "one line" 1 (spanned ~addr:0 ~bytes:32);
  check "two lines" 2 (spanned ~addr:16 ~bytes:32);
  check "empty" 0 (spanned ~addr:0 ~bytes:0);
  check "exact boundary" 1 (spanned ~addr:32 ~bytes:1);
  (* lines are probed low to high: in one 2-way set, three lines leave
     the upper two resident *)
  let c = Cache.create { Cache.size_bytes = 64; line_bytes = 32; assoc = 2 } in
  check "three lines" 3 (Cache.access_range c ~addr:0 ~bytes:96);
  Alcotest.(check bool) "lowest evicted" true (Cache.access c 0x00 = Cache.Miss);
  Alcotest.(check bool) "highest kept" true (Cache.access c 0x40 = Cache.Hit)

let test_cache_arm926_geometry () =
  (* 16 KiB, 64-way, 32-byte lines: 8 sets. 64 distinct lines in the
     same set all fit; the 65th evicts. *)
  let c = Cache.create Cache.arm926_config in
  for i = 0 to 63 do
    ignore (Cache.access c (i * 8 * 32))
  done;
  Alcotest.(check bool) "all 64 ways hit" true (Cache.access c 0 = Cache.Hit);
  (* Two more distinct lines in the same set evict the two oldest. *)
  ignore (Cache.access c (64 * 8 * 32));
  ignore (Cache.access c (65 * 8 * 32));
  Alcotest.(check bool) "oldest way evicted" true
    (Cache.access c (1 * 8 * 32) = Cache.Miss)

let test_cache_bad_config () =
  Alcotest.check_raises "line not pow2"
    (Invalid_argument "Cache.create: line size must be a power of two")
    (fun () ->
      ignore (Cache.create { Cache.size_bytes = 96; line_bytes = 24; assoc = 2 }));
  Alcotest.check_raises "too many lines"
    (Invalid_argument "Cache.create: 65535 lines or more")
    (fun () ->
      ignore (Cache.create { Cache.size_bytes = 0xFFFF * 32; line_bytes = 32; assoc = 0xFFFF }))

(* Every fuzz run builds two caches, so their size shows in its wall
   time: a 3,600-word variant of this model cost fuzz ~10% on a 2-vCPU
   host. *)
let test_cache_footprint () =
  let words = Obj.reachable_words (Obj.repr (Cache.create Cache.arm926_config)) in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 1,100" words) true (words <= 1_100)

(* --- Branch predictor --- *)

let test_bpred_warms_up () =
  let b = Branch_pred.create () in
  (* A loop back-edge: mispredicts at most the first couple of times,
     then predicts taken. *)
  ignore (Branch_pred.predict_and_update b ~pc:100 ~taken:true);
  ignore (Branch_pred.predict_and_update b ~pc:100 ~taken:true);
  Alcotest.(check bool) "warm predicts taken" true
    (Branch_pred.predict_and_update b ~pc:100 ~taken:true);
  Alcotest.(check bool) "exit mispredicts once" false
    (Branch_pred.predict_and_update b ~pc:100 ~taken:false)

let test_bpred_static_not_taken () =
  let b = Branch_pred.create () in
  Alcotest.(check bool) "cold not-taken is correct" true
    (Branch_pred.predict_and_update b ~pc:7 ~taken:false)

let test_bpred_aliasing () =
  let b = Branch_pred.create ~entries:4 () in
  (* pc 1 and pc 5 share a slot; training one evicts the other's tag. *)
  ignore (Branch_pred.predict_and_update b ~pc:1 ~taken:true);
  ignore (Branch_pred.predict_and_update b ~pc:1 ~taken:true);
  ignore (Branch_pred.predict_and_update b ~pc:5 ~taken:true);
  (* After the alias stole the slot, pc 1 is cold again. *)
  Alcotest.(check bool) "alias resets" false
    (Branch_pred.predict_and_update b ~pc:1 ~taken:true)

let test_bpred_counters () =
  let b = Branch_pred.create () in
  ignore (Branch_pred.predict_and_update b ~pc:3 ~taken:true);
  check "lookups" 1 (Branch_pred.lookups b);
  Branch_pred.reset_stats b;
  check "reset" 0 (Branch_pred.lookups b)

let tests =
  [
    Alcotest.test_case "memory: fresh reads zero" `Quick test_memory_zero_fresh;
    Alcotest.test_case "memory: byte roundtrip" `Quick test_memory_byte_roundtrip;
    Alcotest.test_case "memory: little endian" `Quick test_memory_little_endian;
    Alcotest.test_case "memory: sign extension" `Quick test_memory_sign_extension;
    Alcotest.test_case "memory: negative word" `Quick test_memory_negative_word;
    Alcotest.test_case "memory: page boundary" `Quick test_memory_page_boundary;
    Alcotest.test_case "memory: copy isolation" `Quick test_memory_copy_isolation;
    Alcotest.test_case "memory: equal/diff" `Quick test_memory_equal_and_diff;
    Alcotest.test_case "memory: blit" `Quick test_memory_blit;
    Alcotest.test_case "memory: bad size" `Quick test_memory_bad_size;
    Alcotest.test_case "cache: miss then hit" `Quick test_cache_miss_then_hit;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: stats and flush" `Quick test_cache_stats_and_flush;
    Alcotest.test_case "cache: lines spanned" `Quick test_cache_lines_spanned;
    Alcotest.test_case "cache: ARM926 geometry" `Quick test_cache_arm926_geometry;
    Alcotest.test_case "cache: bad config" `Quick test_cache_bad_config;
    Alcotest.test_case "cache: footprint" `Quick test_cache_footprint;
    Alcotest.test_case "bpred: warms up" `Quick test_bpred_warms_up;
    Alcotest.test_case "bpred: static not taken" `Quick test_bpred_static_not_taken;
    Alcotest.test_case "bpred: aliasing" `Quick test_bpred_aliasing;
    Alcotest.test_case "bpred: counters" `Quick test_bpred_counters;
  ]
