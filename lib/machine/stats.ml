type t = {
  mutable cycles : int;
  mutable fetches : int;
  mutable scalar_insns : int;
  mutable vector_insns : int;
  mutable uops_retired : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable branch_mispredicts : int;
  mutable icache_hits : int;
  mutable icache_misses : int;
  mutable dcache_hits : int;
  mutable dcache_misses : int;
  mutable region_calls : int;
  mutable ucode_hits : int;
  mutable ucode_installs : int;
  mutable ucode_evictions : int;
  mutable translations_started : int;
  mutable translations_aborted : int;
  mutable translation_busy_cycles : int;
}

let create () =
  {
    cycles = 0;
    fetches = 0;
    scalar_insns = 0;
    vector_insns = 0;
    uops_retired = 0;
    loads = 0;
    stores = 0;
    branches = 0;
    branch_mispredicts = 0;
    icache_hits = 0;
    icache_misses = 0;
    dcache_hits = 0;
    dcache_misses = 0;
    region_calls = 0;
    ucode_hits = 0;
    ucode_installs = 0;
    ucode_evictions = 0;
    translations_started = 0;
    translations_aborted = 0;
    translation_busy_cycles = 0;
  }

let fields =
  [
    ("cycles", fun t -> t.cycles);
    ("fetches", fun t -> t.fetches);
    ("scalar_insns", fun t -> t.scalar_insns);
    ("vector_insns", fun t -> t.vector_insns);
    ("uops_retired", fun t -> t.uops_retired);
    ("loads", fun t -> t.loads);
    ("stores", fun t -> t.stores);
    ("branches", fun t -> t.branches);
    ("branch_mispredicts", fun t -> t.branch_mispredicts);
    ("icache_hits", fun t -> t.icache_hits);
    ("icache_misses", fun t -> t.icache_misses);
    ("dcache_hits", fun t -> t.dcache_hits);
    ("dcache_misses", fun t -> t.dcache_misses);
    ("region_calls", fun t -> t.region_calls);
    ("ucode_hits", fun t -> t.ucode_hits);
    ("ucode_installs", fun t -> t.ucode_installs);
    ("ucode_evictions", fun t -> t.ucode_evictions);
    ("translations_started", fun t -> t.translations_started);
    ("translations_aborted", fun t -> t.translations_aborted);
    ("translation_busy_cycles", fun t -> t.translation_busy_cycles);
  ]

let total_insns t = t.scalar_insns + t.vector_insns

let pp ppf t =
  Format.fprintf ppf
    "@[<v>cycles: %d@ fetches: %d (+ %d uops)@ scalar insns: %d@ vector \
     insns: %d@ loads/stores: %d/%d@ branches: %d (mispred %d)@ icache: %d \
     hit / %d miss@ dcache: %d hit / %d miss@ region calls: %d (ucode hits \
     %d, installs %d, evictions %d)@ translations: %d started / %d aborted \
     (busy %d cycles)@]"
    t.cycles t.fetches t.uops_retired t.scalar_insns t.vector_insns t.loads
    t.stores t.branches t.branch_mispredicts t.icache_hits t.icache_misses
    t.dcache_hits t.dcache_misses t.region_calls t.ucode_hits t.ucode_installs
    t.ucode_evictions t.translations_started t.translations_aborted
    t.translation_busy_cycles
