(* Differential golden tests.

   Every workload is simulated under the four headline variants
   (baseline scalar, Liquid at 8 fixed lanes, Liquid on the 8-lane
   VLA target, Liquid on the 8-lane RVV target — the latter often
   installing LMUL-grouped 16-wide microcode) and every observable of
   the run
   is pinned: the full [Stats.t] counter set plus FNV-1a hashes of the
   final register file and of every data array's bytes in memory. The
   pinned values were captured before the fast-path memory / zero-
   allocation stepping rewrite, so any behavioural drift in the
   simulation core — timing model or architectural state — fails here
   byte-for-byte.

   A separate case pins the Vgather bus charge: the old charge computed
   [lanes * (bytes + bus - 1) / bus] which, by precedence, multiplied
   before dividing and overcharged one beat per gather (9 instead of 8
   beats for 8 word lanes on a 16-byte bus). The corrected per-lane
   ceiling [lanes * ((bytes + bus - 1) / bus)] is asserted against the
   old formula explicitly, and a gather microprogram's total cycle
   count is pinned. *)

open Liquid_isa
open Liquid_prog
open Liquid_scalarize
open Liquid_harness
open Liquid_workloads
open Helpers
module Stats = Liquid_machine.Stats
module Memory = Liquid_machine.Memory

type golden = {
  g_cycles : int;
  g_scalar : int;
  g_vector : int;
  g_loads : int;
  g_stores : int;
  g_branches : int;
  g_mispredicts : int;
  g_dhits : int;
  g_dmisses : int;
  g_ihits : int;
  g_imisses : int;
  g_region_calls : int;
  g_ucode_hits : int;
  g_installs : int;
  g_fetches : int;
  g_uops : int;
  g_evictions : int;
  g_tr_started : int;
  g_tr_aborted : int;
  g_regs_hash : int;
  g_mem_hash : int;
}

(* The pinned fingerprints below ([Helpers.regs_hash]/[mem_hash], i.e.
   [Liquid_faults.Fingerprint]) predate the shared module and must
   survive any refactor of it. *)
let goldens =
  [
    ("052.alvinn", "baseline", { g_cycles = 281840; g_scalar = 212990; g_vector = 0; g_loads = 48720; g_stores = 6144; g_branches = 30263; g_mispredicts = 4; g_dhits = 54608; g_dmisses = 256; g_ihits = 212985; g_imisses = 5; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 212990; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x4207be414f6fa218; g_mem_hash = 0x3414aedbe1508ed1 });
    ("052.alvinn", "liquid/8-wide", { g_cycles = 151780; g_scalar = 104622; g_vector = 9856; g_loads = 24080; g_stores = 1216; g_branches = 20429; g_mispredicts = 48; g_dhits = 25040; g_dmisses = 256; g_ihits = 100327; g_imisses = 5; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 100332; g_uops = 14146; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0xf89f0cdb2a5c3af; g_mem_hash = 0x3414aedbe1508ed1 });
    ("056.ear", "baseline", { g_cycles = 954357; g_scalar = 616602; g_vector = 0; g_loads = 173480; g_stores = 15360; g_branches = 40329; g_mispredicts = 5; g_dhits = 188328; g_dmisses = 512; g_ihits = 616588; g_imisses = 14; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 616602; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x2d2a640cf575569; g_mem_hash = 0x4aa6e5e2b11bed55 });
    ("056.ear", "liquid/8-wide", { g_cycles = 335337; g_scalar = 179478; g_vector = 50112; g_loads = 56552; g_stores = 3264; g_branches = 28260; g_mispredicts = 35; g_dhits = 59304; g_dmisses = 512; g_ihits = 174225; g_imisses = 15; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 174240; g_uops = 55350; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x49246d2627a2fe14; g_mem_hash = 0x4aa6e5e2b11bed55 });
    ("093.nasa7", "baseline", { g_cycles = 2719488; g_scalar = 1670687; g_vector = 0; g_loads = 519568; g_stores = 36864; g_branches = 37251; g_mispredicts = 25; g_dhits = 556176; g_dmisses = 256; g_ihits = 1670610; g_imisses = 77; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 1670687; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x1aff8d73b60293dd; g_mem_hash = 0x15093959aff1d229 });
    ("093.nasa7", "liquid/8-wide", { g_cycles = 553738; g_scalar = 154559; g_vector = 178464; g_loads = 103152; g_stores = 7296; g_branches = 7815; g_mispredicts = 169; g_dhits = 110192; g_dmisses = 256; g_ihits = 141543; g_imisses = 80; g_region_calls = 144; g_ucode_hits = 132; g_installs = 12; g_fetches = 141623; g_uops = 191400; g_evictions = 4; g_tr_started = 12; g_tr_aborted = 0; g_regs_hash = 0x11c14de492fea2c4; g_mem_hash = 0x15093959aff1d229 });
    ("101.tomcatv", "baseline", { g_cycles = 415156; g_scalar = 266912; g_vector = 0; g_loads = 77680; g_stores = 8960; g_branches = 13619; g_mispredicts = 8; g_dhits = 86448; g_dmisses = 192; g_ihits = 266886; g_imisses = 26; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 266912; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x6f67f7f6030c1b24; g_mem_hash = 0x4a090c03d9722f86 });
    ("101.tomcatv", "liquid/8-wide", { g_cycles = 123022; g_scalar = 56504; g_vector = 23760; g_loads = 20944; g_stores = 1904; g_branches = 7625; g_mispredicts = 68; g_dhits = 22656; g_dmisses = 192; g_ihits = 53777; g_imisses = 27; g_region_calls = 60; g_ucode_hits = 54; g_installs = 6; g_fetches = 53804; g_uops = 26460; g_evictions = 0; g_tr_started = 6; g_tr_aborted = 0; g_regs_hash = 0x5d6b4a00d344c83c; g_mem_hash = 0x4a090c03d9722f86 });
    ("104.hydro2d", "baseline", { g_cycles = 2254062; g_scalar = 1425721; g_vector = 0; g_loads = 424436; g_stores = 55296; g_branches = 55777; g_mispredicts = 37; g_dhits = 479348; g_dmisses = 384; g_ihits = 1425650; g_imisses = 71; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 1425721; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x4e3d29527abce5bb; g_mem_hash = 0x2a80ca2f5e9cafdd });
    ("104.hydro2d", "liquid/8-wide", { g_cycles = 467454; g_scalar = 141353; g_vector = 142912; g_loads = 83348; g_stores = 10944; g_branches = 11623; g_mispredicts = 253; g_dhits = 93908; g_dmisses = 384; g_ihits = 121874; g_imisses = 75; g_region_calls = 216; g_ucode_hits = 198; g_installs = 18; g_fetches = 121949; g_uops = 162316; g_evictions = 10; g_tr_started = 18; g_tr_aborted = 0; g_regs_hash = 0x65fe4c48ce59fea5; g_mem_hash = 0x2a80ca2f5e9cafdd });
    ("171.swim", "baseline", { g_cycles = 1474851; g_scalar = 928616; g_vector = 0; g_loads = 283324; g_stores = 27648; g_branches = 28338; g_mispredicts = 19; g_dhits = 310652; g_dmisses = 320; g_ihits = 928571; g_imisses = 45; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 928616; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x2587f52fdfc0e710; g_mem_hash = 0x4d6da78b5f247dda });
    ("171.swim", "liquid/8-wide", { g_cycles = 307515; g_scalar = 90720; g_vector = 95040; g_loads = 55228; g_stores = 5472; g_branches = 6261; g_mispredicts = 127; g_dhits = 60380; g_dmisses = 320; g_ihits = 80971; g_imisses = 47; g_region_calls = 108; g_ucode_hits = 99; g_installs = 9; g_fetches = 81018; g_uops = 104742; g_evictions = 1; g_tr_started = 9; g_tr_aborted = 0; g_regs_hash = 0x342f2cc999a4d341; g_mem_hash = 0x4d6da78b5f247dda });
    ("172.mgrid", "baseline", { g_cycles = 1433354; g_scalar = 883838; g_vector = 0; g_loads = 274944; g_stores = 19968; g_branches = 19955; g_mispredicts = 26; g_dhits = 294752; g_dmisses = 160; g_ihits = 883757; g_imisses = 81; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 883838; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x58dd648452b6e4e7; g_mem_hash = 0x13512ebe969f78a2 });
    ("172.mgrid", "liquid/8-wide", { g_cycles = 293040; g_scalar = 81414; g_vector = 93984; g_loads = 54064; g_stores = 3952; g_branches = 4082; g_mispredicts = 182; g_dhits = 57856; g_dmisses = 160; g_ihits = 74180; g_imisses = 84; g_region_calls = 156; g_ucode_hits = 143; g_installs = 13; g_fetches = 74264; g_uops = 101134; g_evictions = 5; g_tr_started = 13; g_tr_aborted = 0; g_regs_hash = 0x65d8444875735f59; g_mem_hash = 0x13512ebe969f78a2 });
    ("179.art", "baseline", { g_cycles = 5041517; g_scalar = 1130537; g_vector = 0; g_loads = 270336; g_stores = 49152; g_branches = 159725; g_mispredicts = 8; g_dhits = 198144; g_dmisses = 121344; g_ihits = 1130527; g_imisses = 10; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 1130537; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x4f161a1b7125a780; g_mem_hash = 0x79642fbeb2290094 });
    ("179.art", "liquid/8-wide", { g_cycles = 4481500; g_scalar = 719943; g_vector = 34816; g_loads = 166912; g_stores = 20480; g_branches = 123895; g_mispredicts = 25; g_dhits = 69120; g_dmisses = 118272; g_ihits = 704550; g_imisses = 11; g_region_calls = 15; g_ucode_hits = 10; g_installs = 5; g_fetches = 704561; g_uops = 50198; g_evictions = 0; g_tr_started = 5; g_tr_aborted = 0; g_regs_hash = 0x63d1ff8f95d9500d; g_mem_hash = 0x79642fbeb2290094 });
    ("MPEG2 Dec.", "baseline", { g_cycles = 32207; g_scalar = 25732; g_vector = 0; g_loads = 4420; g_stores = 1280; g_branches = 3694; g_mispredicts = 5; g_dhits = 5637; g_dmisses = 63; g_ihits = 25727; g_imisses = 5; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 25732; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x5519977aad13fc54; g_mem_hash = 0x26544ea03304d210 });
    ("MPEG2 Dec.", "liquid/8-wide", { g_cycles = 19680; g_scalar = 13886; g_vector = 948; g_loads = 2761; g_stores = 174; g_branches = 2746; g_mispredicts = 5; g_dhits = 2872; g_dmisses = 63; g_ihits = 13090; g_imisses = 6; g_region_calls = 160; g_ucode_hits = 158; g_installs = 2; g_fetches = 13096; g_uops = 1738; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x1bcf0269b8440d7f; g_mem_hash = 0x26544ea03304d210 });
    ("MPEG2 Enc.", "baseline", { g_cycles = 63771; g_scalar = 43547; g_vector = 0; g_loads = 9800; g_stores = 2240; g_branches = 4864; g_mispredicts = 8; g_dhits = 11873; g_dmisses = 167; g_ihits = 43538; g_imisses = 9; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 43547; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x6e9e1f6a272b010b; g_mem_hash = 0x275f612760d7a748 });
    ("MPEG2 Enc.", "liquid/8-wide", { g_cycles = 30797; g_scalar = 17200; g_vector = 2362; g_loads = 4092; g_stores = 518; g_branches = 2910; g_mispredicts = 17; g_dhits = 4443; g_dmisses = 167; g_ihits = 15854; g_imisses = 10; g_region_calls = 185; g_ucode_hits = 181; g_installs = 4; g_fetches = 15864; g_uops = 3698; g_evictions = 0; g_tr_started = 4; g_tr_aborted = 0; g_regs_hash = 0x6a5115306df22006; g_mem_hash = 0x275f612760d7a748 });
    ("GSM Dec.", "baseline", { g_cycles = 15473; g_scalar = 12014; g_vector = 0; g_loads = 2100; g_stores = 480; g_branches = 1127; g_mispredicts = 3; g_dhits = 2571; g_dmisses = 9; g_ihits = 12010; g_imisses = 4; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 12014; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x32aa8a03ad0159a2; g_mem_hash = 0x56d5a25b100840b0 });
    ("GSM Dec.", "liquid/8-wide", { g_cycles = 6323; g_scalar = 4283; g_vector = 605; g_loads = 945; g_stores = 95; g_branches = 753; g_mispredicts = 15; g_dhits = 1031; g_dmisses = 9; g_ihits = 4091; g_imisses = 5; g_region_calls = 12; g_ucode_hits = 11; g_installs = 1; g_fetches = 4096; g_uops = 792; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x766a75295998790e; g_mem_hash = 0x56d5a25b100840b0 });
    ("GSM Enc.", "baseline", { g_cycles = 20234; g_scalar = 15122; g_vector = 0; g_loads = 3000; g_stores = 480; g_branches = 1535; g_mispredicts = 4; g_dhits = 3464; g_dmisses = 16; g_ihits = 15116; g_imisses = 6; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 15122; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x28278e77cd87b534; g_mem_hash = 0x3ea5bae8a05b640b });
    ("GSM Enc.", "liquid/8-wide", { g_cycles = 7374; g_scalar = 4500; g_vector = 825; g_loads = 1075; g_stores = 95; g_branches = 787; g_mispredicts = 28; g_dhits = 1154; g_dmisses = 16; g_ihits = 4087; g_imisses = 6; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 4093; g_uops = 1232; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x64d2d3159d824ee7; g_mem_hash = 0x3ea5bae8a05b640b });
    ("LU", "baseline", { g_cycles = 264901; g_scalar = 195170; g_vector = 0; g_loads = 45568; g_stores = 16384; g_branches = 29167; g_mispredicts = 3; g_dhits = 61696; g_dmisses = 256; g_ihits = 195167; g_imisses = 3; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 195170; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x7622662e8b5300ef; g_mem_hash = 0x3aed967999fc3d56 });
    ("LU", "liquid/8-wide", { g_cycles = 119061; g_scalar = 78082; g_vector = 9600; g_loads = 18688; g_stores = 2944; g_branches = 15742; g_mispredicts = 19; g_dhits = 21376; g_dmisses = 256; g_ihits = 72289; g_imisses = 3; g_region_calls = 16; g_ucode_hits = 15; g_installs = 1; g_fetches = 72292; g_uops = 15390; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x5601294057161143; g_mem_hash = 0x3aed967999fc3d56 });
    ("FFT", "baseline", { g_cycles = 71547; g_scalar = 48602; g_vector = 0; g_loads = 15720; g_stores = 2560; g_branches = 2889; g_mispredicts = 5; g_dhits = 18200; g_dmisses = 80; g_ihits = 48591; g_imisses = 11; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 48602; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x85cc5c4bbf0963f; g_mem_hash = 0x719465a51335200 });
    ("FFT", "liquid/8-wide", { g_cycles = 22335; g_scalar = 10142; g_vector = 3888; g_loads = 3768; g_stores = 544; g_branches = 1404; g_mispredicts = 35; g_dhits = 4232; g_dmisses = 80; g_ihits = 9428; g_imisses = 12; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 9440; g_uops = 4590; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x56cda5cd869430ab; g_mem_hash = 0x719465a51335200 });
    ("FIR", "baseline", { g_cycles = 1367421; g_scalar = 942202; g_vector = 0; g_loads = 208800; g_stores = 102400; g_branches = 106299; g_mispredicts = 3; g_dhits = 310816; g_dmisses = 384; g_ihits = 942199; g_imisses = 3; g_region_calls = 0; g_ucode_hits = 0; g_installs = 0; g_fetches = 942202; g_uops = 0; g_evictions = 0; g_tr_started = 0; g_tr_aborted = 0; g_regs_hash = 0x57f905d7fcb4a3c6; g_mem_hash = 0x382cb893bfb2c94e });
    ("FIR", "liquid/8-wide", { g_cycles = 227441; g_scalar = 68034; g_vector = 76032; g_loads = 31392; g_stores = 13696; g_branches = 17694; g_mispredicts = 103; g_dhits = 44704; g_dmisses = 384; g_ihits = 29817; g_imisses = 3; g_region_calls = 100; g_ucode_hits = 99; g_installs = 1; g_fetches = 29820; g_uops = 114246; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x6f0a169e11961692; g_mem_hash = 0x382cb893bfb2c94e });
    ("052.alvinn", "liquid-vla/8-wide", { g_cycles = 151742; g_scalar = 104644; g_vector = 9856; g_loads = 24080; g_stores = 1216; g_branches = 20429; g_mispredicts = 28; g_dhits = 25040; g_dmisses = 256; g_ihits = 100327; g_imisses = 5; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 100332; g_uops = 14168; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0xf89f0cdb2a5c3af; g_mem_hash = 0x3414aedbe1508ed1 });
    ("056.ear", "liquid-vla/8-wide", { g_cycles = 335364; g_scalar = 179505; g_vector = 50112; g_loads = 56552; g_stores = 3264; g_branches = 28260; g_mispredicts = 35; g_dhits = 59304; g_dmisses = 512; g_ihits = 174225; g_imisses = 15; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 174240; g_uops = 55377; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x49246d2627a2fe14; g_mem_hash = 0x4aa6e5e2b11bed55 });
    ("093.nasa7", "liquid-vla/8-wide", { g_cycles = 553870; g_scalar = 154691; g_vector = 178464; g_loads = 103152; g_stores = 7296; g_branches = 7815; g_mispredicts = 169; g_dhits = 110192; g_dmisses = 256; g_ihits = 141543; g_imisses = 80; g_region_calls = 144; g_ucode_hits = 132; g_installs = 12; g_fetches = 141623; g_uops = 191532; g_evictions = 4; g_tr_started = 12; g_tr_aborted = 0; g_regs_hash = 0x11c14de492fea2c4; g_mem_hash = 0x15093959aff1d229 });
    ("101.tomcatv", "liquid-vla/8-wide", { g_cycles = 124870; g_scalar = 56558; g_vector = 23490; g_loads = 22960; g_stores = 1904; g_branches = 7625; g_mispredicts = 84; g_dhits = 24672; g_dmisses = 192; g_ihits = 53777; g_imisses = 27; g_region_calls = 60; g_ucode_hits = 54; g_installs = 6; g_fetches = 53804; g_uops = 26244; g_evictions = 0; g_tr_started = 6; g_tr_aborted = 0; g_regs_hash = 0x5d6b4a00d344c83c; g_mem_hash = 0x4a090c03d9722f86 });
    ("104.hydro2d", "liquid-vla/8-wide", { g_cycles = 471898; g_scalar = 141551; g_vector = 142230; g_loads = 88276; g_stores = 10944; g_branches = 11623; g_mispredicts = 253; g_dhits = 98836; g_dmisses = 384; g_ihits = 121874; g_imisses = 75; g_region_calls = 216; g_ucode_hits = 198; g_installs = 18; g_fetches = 121949; g_uops = 161832; g_evictions = 10; g_tr_started = 18; g_tr_aborted = 0; g_regs_hash = 0x65fe4c48ce59fea5; g_mem_hash = 0x2a80ca2f5e9cafdd });
    ("171.swim", "liquid-vla/8-wide", { g_cycles = 316106; g_scalar = 90819; g_vector = 93676; g_loads = 65084; g_stores = 5472; g_branches = 6261; g_mispredicts = 127; g_dhits = 70236; g_dmisses = 320; g_ihits = 80971; g_imisses = 47; g_region_calls = 108; g_ucode_hits = 99; g_installs = 9; g_fetches = 81018; g_uops = 103477; g_evictions = 1; g_tr_started = 9; g_tr_aborted = 0; g_regs_hash = 0x342f2cc999a4d341; g_mem_hash = 0x4d6da78b5f247dda });
    ("172.mgrid", "liquid-vla/8-wide", { g_cycles = 295317; g_scalar = 81557; g_vector = 93654; g_loads = 56528; g_stores = 3952; g_branches = 4082; g_mispredicts = 182; g_dhits = 60320; g_dmisses = 160; g_ihits = 74180; g_imisses = 84; g_region_calls = 156; g_ucode_hits = 143; g_installs = 13; g_fetches = 74264; g_uops = 100947; g_evictions = 5; g_tr_started = 13; g_tr_aborted = 0; g_regs_hash = 0x65d8444875735f59; g_mem_hash = 0x13512ebe969f78a2 });
    ("179.art", "liquid-vla/8-wide", { g_cycles = 4493802; g_scalar = 719953; g_vector = 32772; g_loads = 181248; g_stores = 20480; g_branches = 123895; g_mispredicts = 25; g_dhits = 83456; g_dmisses = 118272; g_ihits = 704550; g_imisses = 11; g_region_calls = 15; g_ucode_hits = 10; g_installs = 5; g_fetches = 704561; g_uops = 48164; g_evictions = 0; g_tr_started = 5; g_tr_aborted = 0; g_regs_hash = 0x63d1ff8f95d9500d; g_mem_hash = 0x79642fbeb2290094 });
    ("MPEG2 Dec.", "liquid-vla/8-wide", { g_cycles = 19838; g_scalar = 14044; g_vector = 948; g_loads = 2761; g_stores = 174; g_branches = 2746; g_mispredicts = 5; g_dhits = 2872; g_dmisses = 63; g_ihits = 13090; g_imisses = 6; g_region_calls = 160; g_ucode_hits = 158; g_installs = 2; g_fetches = 13096; g_uops = 1896; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x1bcf0269b8440d7f; g_mem_hash = 0x26544ea03304d210 });
    ("MPEG2 Enc.", "liquid-vla/8-wide", { g_cycles = 30966; g_scalar = 17381; g_vector = 2362; g_loads = 4092; g_stores = 518; g_branches = 2910; g_mispredicts = 13; g_dhits = 4443; g_dmisses = 167; g_ihits = 15854; g_imisses = 10; g_region_calls = 185; g_ucode_hits = 181; g_installs = 4; g_fetches = 15864; g_uops = 3879; g_evictions = 0; g_tr_started = 4; g_tr_aborted = 0; g_regs_hash = 0x6a5115306df22006; g_mem_hash = 0x275f612760d7a748 });
    ("GSM Dec.", "liquid-vla/8-wide", { g_cycles = 6334; g_scalar = 4294; g_vector = 605; g_loads = 945; g_stores = 95; g_branches = 753; g_mispredicts = 15; g_dhits = 1031; g_dmisses = 9; g_ihits = 4091; g_imisses = 5; g_region_calls = 12; g_ucode_hits = 11; g_installs = 1; g_fetches = 4096; g_uops = 803; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x766a75295998790e; g_mem_hash = 0x56d5a25b100840b0 });
    ("GSM Enc.", "liquid-vla/8-wide", { g_cycles = 7396; g_scalar = 4522; g_vector = 825; g_loads = 1075; g_stores = 95; g_branches = 787; g_mispredicts = 28; g_dhits = 1154; g_dmisses = 16; g_ihits = 4087; g_imisses = 6; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 4093; g_uops = 1254; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x64d2d3159d824ee7; g_mem_hash = 0x3ea5bae8a05b640b });
    ("LU", "liquid-vla/8-wide", { g_cycles = 119076; g_scalar = 78097; g_vector = 9600; g_loads = 18688; g_stores = 2944; g_branches = 15742; g_mispredicts = 19; g_dhits = 21376; g_dmisses = 256; g_ihits = 72289; g_imisses = 3; g_region_calls = 16; g_ucode_hits = 15; g_installs = 1; g_fetches = 72292; g_uops = 15405; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x5601294057161143; g_mem_hash = 0x3aed967999fc3d56 });
    ("FFT", "liquid-vla/8-wide", { g_cycles = 23676; g_scalar = 10169; g_vector = 3690; g_loads = 5280; g_stores = 544; g_branches = 1404; g_mispredicts = 35; g_dhits = 5744; g_dmisses = 80; g_ihits = 9428; g_imisses = 12; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 9440; g_uops = 4419; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x56cda5cd869430ab; g_mem_hash = 0x719465a51335200 });
    ("FIR", "liquid-vla/8-wide", { g_cycles = 227540; g_scalar = 68133; g_vector = 76032; g_loads = 31392; g_stores = 13696; g_branches = 17694; g_mispredicts = 103; g_dhits = 44704; g_dmisses = 384; g_ihits = 29817; g_imisses = 3; g_region_calls = 100; g_ucode_hits = 99; g_installs = 1; g_fetches = 29820; g_uops = 114345; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x6f0a169e11961692; g_mem_hash = 0x382cb893bfb2c94e });
    ("052.alvinn", "liquid-rvv/8-wide", { g_cycles = 145054; g_scalar = 102532; g_vector = 4928; g_loads = 22320; g_stores = 864; g_branches = 19725; g_mispredicts = 28; g_dhits = 25040; g_dmisses = 256; g_ihits = 100327; g_imisses = 5; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 100332; g_uops = 7128; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0xf89f0cdb2a5c3af; g_mem_hash = 0x3414aedbe1508ed1 });
    ("056.ear", "liquid-rvv/8-wide", { g_cycles = 308580; g_scalar = 176913; g_vector = 25056; g_loads = 48200; g_stores = 2400; g_branches = 27396; g_mispredicts = 35; g_dhits = 59304; g_dmisses = 512; g_ihits = 174225; g_imisses = 15; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 174240; g_uops = 27729; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x49246d2627a2fe14; g_mem_hash = 0x4aa6e5e2b11bed55 });
    ("093.nasa7", "liquid-rvv/8-wide", { g_cycles = 460414; g_scalar = 148355; g_vector = 89232; g_loads = 73408; g_stores = 5184; g_branches = 5703; g_mispredicts = 169; g_dhits = 110192; g_dmisses = 256; g_ihits = 141543; g_imisses = 80; g_region_calls = 144; g_ucode_hits = 132; g_installs = 12; g_fetches = 141623; g_uops = 95964; g_evictions = 4; g_tr_started = 12; g_tr_aborted = 0; g_regs_hash = 0x11c14de492fea2c4; g_mem_hash = 0x15093959aff1d229 });
    ("101.tomcatv", "liquid-rvv/8-wide", { g_cycles = 112270; g_scalar = 55262; g_vector = 11754; g_loads = 19216; g_stores = 1400; g_branches = 7193; g_mispredicts = 84; g_dhits = 24672; g_dmisses = 192; g_ihits = 53777; g_imisses = 27; g_region_calls = 60; g_ucode_hits = 54; g_installs = 6; g_fetches = 53804; g_uops = 13212; g_evictions = 0; g_tr_started = 6; g_tr_aborted = 0; g_regs_hash = 0x5d6b4a00d344c83c; g_mem_hash = 0x4a090c03d9722f86 });
    ("104.hydro2d", "liquid-rvv/8-wide", { g_cycles = 394634; g_scalar = 132047; g_vector = 71126; g_loads = 64868; g_stores = 7776; g_branches = 8455; g_mispredicts = 253; g_dhits = 98836; g_dmisses = 384; g_ihits = 121874; g_imisses = 75; g_region_calls = 216; g_ucode_hits = 198; g_installs = 18; g_fetches = 121949; g_uops = 81224; g_evictions = 10; g_tr_started = 18; g_tr_aborted = 0; g_regs_hash = 0x65fe4c48ce59fea5; g_mem_hash = 0x2a80ca2f5e9cafdd });
    ("171.swim", "liquid-rvv/8-wide", { g_cycles = 265418; g_scalar = 86067; g_vector = 46860; g_loads = 50300; g_stores = 3888; g_branches = 4677; g_mispredicts = 127; g_dhits = 70236; g_dmisses = 320; g_ihits = 80971; g_imisses = 47; g_region_calls = 108; g_ucode_hits = 99; g_installs = 9; g_fetches = 81018; g_uops = 51909; g_evictions = 1; g_tr_started = 9; g_tr_aborted = 0; g_regs_hash = 0x342f2cc999a4d341; g_mem_hash = 0x4d6da78b5f247dda });
    ("172.mgrid", "liquid-rvv/8-wide", { g_cycles = 246037; g_scalar = 78125; g_vector = 46838; g_loads = 41128; g_stores = 2808; g_branches = 2938; g_mispredicts = 182; g_dhits = 60320; g_dmisses = 160; g_ihits = 74180; g_imisses = 84; g_region_calls = 156; g_ucode_hits = 143; g_installs = 13; g_fetches = 74264; g_uops = 50699; g_evictions = 5; g_tr_started = 13; g_tr_aborted = 0; g_regs_hash = 0x65d8444875735f59; g_mem_hash = 0x13512ebe969f78a2 });
    ("179.art", "liquid-rvv/8-wide", { g_cycles = 4472810; g_scalar = 712273; g_vector = 16388; g_loads = 176640; g_stores = 18432; g_branches = 121335; g_mispredicts = 25; g_dhits = 83456; g_dmisses = 118272; g_ihits = 704550; g_imisses = 11; g_region_calls = 15; g_ucode_hits = 10; g_installs = 5; g_fetches = 704561; g_uops = 24100; g_evictions = 0; g_tr_started = 5; g_tr_aborted = 0; g_regs_hash = 0x63d1ff8f95d9500d; g_mem_hash = 0x79642fbeb2290094 });
    ("MPEG2 Dec.", "liquid-rvv/8-wide", { g_cycles = 20154; g_scalar = 14044; g_vector = 948; g_loads = 2761; g_stores = 174; g_branches = 2746; g_mispredicts = 5; g_dhits = 2872; g_dmisses = 63; g_ihits = 13090; g_imisses = 6; g_region_calls = 160; g_ucode_hits = 158; g_installs = 2; g_fetches = 13096; g_uops = 1896; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x1bcf0269b8440d7f; g_mem_hash = 0x26544ea03304d210 });
    ("MPEG2 Enc.", "liquid-rvv/8-wide", { g_cycles = 30424; g_scalar = 17189; g_vector = 1594; g_loads = 3836; g_stores = 454; g_branches = 2846; g_mispredicts = 13; g_dhits = 4443; g_dmisses = 167; g_ihits = 15854; g_imisses = 10; g_region_calls = 185; g_ucode_hits = 181; g_installs = 4; g_fetches = 15864; g_uops = 2919; g_evictions = 0; g_tr_started = 4; g_tr_aborted = 0; g_regs_hash = 0x6a5115306df22006; g_mem_hash = 0x275f612760d7a748 });
    ("GSM Dec.", "liquid-rvv/8-wide", { g_cycles = 6114; g_scalar = 4228; g_vector = 363; g_loads = 879; g_stores = 73; g_branches = 731; g_mispredicts = 15; g_dhits = 943; g_dmisses = 9; g_ihits = 4091; g_imisses = 5; g_region_calls = 12; g_ucode_hits = 11; g_installs = 1; g_fetches = 4096; g_uops = 495; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x766a75295998790e; g_mem_hash = 0x56d5a25b100840b0 });
    ("GSM Enc.", "liquid-rvv/8-wide", { g_cycles = 6978; g_scalar = 4390; g_vector = 495; g_loads = 965; g_stores = 73; g_branches = 743; g_mispredicts = 28; g_dhits = 1022; g_dmisses = 16; g_ihits = 4087; g_imisses = 6; g_region_calls = 24; g_ucode_hits = 22; g_installs = 2; g_fetches = 4093; g_uops = 792; g_evictions = 0; g_tr_started = 2; g_tr_aborted = 0; g_regs_hash = 0x64d2d3159d824ee7; g_mem_hash = 0x3ea5bae8a05b640b });
    ("LU", "liquid-rvv/8-wide", { g_cycles = 113316; g_scalar = 75217; g_vector = 4800; g_loads = 16768; g_stores = 1984; g_branches = 14782; g_mispredicts = 19; g_dhits = 21376; g_dmisses = 256; g_ihits = 72289; g_imisses = 3; g_region_calls = 16; g_ucode_hits = 15; g_installs = 1; g_fetches = 72292; g_uops = 7725; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x5601294057161143; g_mem_hash = 0x3aed967999fc3d56 });
    ("FFT", "liquid-rvv/8-wide", { g_cycles = 22200; g_scalar = 9953; g_vector = 2322; g_loads = 4848; g_stores = 472; g_branches = 1332; g_mispredicts = 35; g_dhits = 5744; g_dmisses = 80; g_ihits = 9428; g_imisses = 12; g_region_calls = 30; g_ucode_hits = 27; g_installs = 3; g_fetches = 9440; g_uops = 2835; g_evictions = 0; g_tr_started = 3; g_tr_aborted = 0; g_regs_hash = 0x56cda5cd869430ab; g_mem_hash = 0x719465a51335200 });
    ("FIR", "liquid-rvv/8-wide", { g_cycles = 176852; g_scalar = 49125; g_vector = 38016; g_loads = 18720; g_stores = 7360; g_branches = 11358; g_mispredicts = 103; g_dhits = 44704; g_dmisses = 384; g_ihits = 29817; g_imisses = 3; g_region_calls = 100; g_ucode_hits = 99; g_installs = 1; g_fetches = 29820; g_uops = 57321; g_evictions = 0; g_tr_started = 1; g_tr_aborted = 0; g_regs_hash = 0x6f0a169e11961692; g_mem_hash = 0x382cb893bfb2c94e });
  ]

let variant_of_name = function
  | "baseline" -> Runner.Baseline
  | "liquid/8-wide" -> liquid 8
  | "liquid-vla/8-wide" -> liquid ~backend:Liquid_translate.Backend.Vla 8
  | "liquid-rvv/8-wide" -> liquid ~backend:Liquid_translate.Backend.Rvv 8
  | s -> invalid_arg ("variant_of_name: " ^ s)

let check_row (wname, vname, g) () =
  let w =
    match Workload.find wname with
    | Some w -> w
    | None -> Alcotest.failf "unknown workload %s" wname
  in
  let { Runner.run; program; _ } = Runner.run_cached w (variant_of_name vname) in
  let s = run.Cpu.stats in
  let ck what = Alcotest.(check int) what in
  ck "cycles" g.g_cycles s.Stats.cycles;
  ck "scalar insns" g.g_scalar s.Stats.scalar_insns;
  ck "vector insns" g.g_vector s.Stats.vector_insns;
  ck "loads" g.g_loads s.Stats.loads;
  ck "stores" g.g_stores s.Stats.stores;
  ck "branches" g.g_branches s.Stats.branches;
  ck "mispredicts" g.g_mispredicts s.Stats.branch_mispredicts;
  ck "dcache hits" g.g_dhits s.Stats.dcache_hits;
  ck "dcache misses" g.g_dmisses s.Stats.dcache_misses;
  ck "icache hits" g.g_ihits s.Stats.icache_hits;
  ck "icache misses" g.g_imisses s.Stats.icache_misses;
  ck "region calls" g.g_region_calls s.Stats.region_calls;
  ck "ucode hits" g.g_ucode_hits s.Stats.ucode_hits;
  ck "ucode installs" g.g_installs s.Stats.ucode_installs;
  ck "fetches" g.g_fetches s.Stats.fetches;
  ck "uops retired" g.g_uops s.Stats.uops_retired;
  ck "ucode evictions" g.g_evictions s.Stats.ucode_evictions;
  ck "translations started" g.g_tr_started s.Stats.translations_started;
  ck "translations aborted" g.g_tr_aborted s.Stats.translations_aborted;
  (* The derived counters must equal the units' own tallies — the
     single-writer discipline with no second bookkeeper. *)
  let c = run.Cpu.icache_counters in
  ck "stats icache hits = cache hits" s.Stats.icache_hits c.Liquid_machine.Cache.c_hits;
  ck "stats icache misses = cache misses" s.Stats.icache_misses
    c.Liquid_machine.Cache.c_misses;
  ck "stats mispredicts = predictor mispredicts" s.Stats.branch_mispredicts
    run.Cpu.bpred_counters.Liquid_machine.Branch_pred.p_mispredicts;
  ck "stats evictions = ucache evictions" s.Stats.ucode_evictions
    run.Cpu.ucache_counters.Liquid_pipeline.Ucode_cache.u_evictions;
  ck "register file hash" g.g_regs_hash (Helpers.regs_hash run.Cpu.regs);
  ck "memory hash" g.g_mem_hash
    (Helpers.mem_hash (Image.of_program program) run.Cpu.memory)

(* --- Vgather bus charge regression --- *)

let gather_loop =
  let open Build in
  {
    Vloop.name = "gat";
    count = 16;
    body = [ vld (v 1) "gidx"; vtbl (v 2) "gtab" (v 1); vst (v 2) "gout" ];
    reductions = [];
  }

let gather_data =
  [
    Kernels.warray "gidx" 16 (fun i -> 15 - i);
    Kernels.warray "gtab" 16 (fun i -> 3 * i);
    Kernels.wzeros "gout" 16;
  ]

let test_gather_charge () =
  let cfg = Cpu.liquid_config ~lanes:8 in
  let lanes = 8 in
  let bus = cfg.Cpu.vec_bus_bytes in
  let bytes = Esize.bytes Esize.Word in
  (* The corrected charge takes the per-lane ceiling; the pre-fix
     expression associated left-to-right and overcharged a beat. *)
  Alcotest.(check int) "bus bytes" 16 bus;
  Alcotest.(check int)
    "per-gather beats (corrected)" 8
    (lanes * ((bytes + bus - 1) / bus));
  Alcotest.(check int)
    "per-gather beats (old precedence, one beat too many)" 9
    (lanes * (bytes + bus - 1) / bus);
  let p = simple_program ~name:"gatp" ~frames:4 ~data:gather_data gather_loop in
  let prog = Codegen.liquid p in
  let run = run_image ~config:cfg prog in
  check_arrays "gather result"
    (Array.init 16 (fun i -> 3 * (15 - i)))
    (read_array run prog "gout");
  (* Three of the four frames run from microcode, 16/8 = 2 gathers per
     frame: 6 vector gathers at one extra beat each under the old
     formula, which reported 520 cycles where the fix reports 514. *)
  Alcotest.(check int) "pinned gather cycles" 514 run.Cpu.stats.Stats.cycles

let tests =
  List.map
    (fun ((wname, vname, _) as row) ->
      Alcotest.test_case
        (Printf.sprintf "%s / %s" wname vname)
        `Quick (check_row row))
    goldens
  @ [ Alcotest.test_case "vgather bus charge" `Quick test_gather_charge ]
