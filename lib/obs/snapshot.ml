open Liquid_machine
open Liquid_pipeline

type counter = {
  section : string;
  key : string;
  doc : string;
  get : Cpu.run -> int;
  engine : bool;
}

let name c = c.section ^ "." ^ c.key

let registry =
  let section ?(engine = false) name fields =
    List.map (fun (key, doc, get) -> { section = name; key; doc; get; engine }) fields
  in
  let cache name unit_of =
    section name
      [
        ("hits", "hits, the cache's own tally", fun r -> (unit_of r).Cache.c_hits);
        ("misses", "misses, the cache's own tally", fun r -> (unit_of r).Cache.c_misses);
      ]
  in
  let bpred f r = f r.Cpu.bpred_counters and ucache f r = f r.Cpu.ucache_counters in
  section "stats"
    (List.map (fun (key, read) -> (key, "see Stats.t", fun r -> read r.Cpu.stats)) Stats.fields)
  @ cache "icache" (fun r -> r.Cpu.icache_counters)
  @ cache "dcache" (fun r -> r.Cpu.dcache_counters)
  @ section "branch_pred"
      [
        ("lookups", "predictions, the predictor's own tally",
          bpred (fun p -> p.Branch_pred.p_lookups));
        ("mispredicts", "wrong predictions, the predictor's own tally",
          bpred (fun p -> p.Branch_pred.p_mispredicts));
      ]
  @ section "ucode_cache"
      [
        ("installs", "translations installed, the cache's own tally",
          ucache (fun u -> u.Ucode_cache.u_installs));
        ("replacements", "installs over an older translation of the same region",
          ucache (fun u -> u.Ucode_cache.u_replacements));
        ("evictions", "entries evicted (capacity and forced)",
          ucache (fun u -> u.Ucode_cache.u_evictions));
        ("occupancy", "entries resident at halt", ucache (fun u -> u.Ucode_cache.u_occupancy));
        ("max_occupancy", "high-water mark of resident entries",
          ucache (fun u -> u.Ucode_cache.u_max_occupancy));
      ]
  @ section ~engine:true "superblocks"
      [
        ("compiled", "trace superblocks formed", fun r -> r.Cpu.superblocks_compiled);
        ("iterations", "whole loop iterations run through one", fun r -> r.Cpu.superblock_iters);
        ("bailouts", "exits back to the block path (guard fails + fuel)", fun r ->
          r.Cpu.superblock_bailouts);
      ]
  @ section "predication"
      [
        ("fast_iters", "governed vector ops on the all-lanes fast path", fun r ->
          r.Cpu.pred_fast_iters);
        ("masked_iters", "governed vector ops through the masked path", fun r ->
          r.Cpu.pred_masked_iters);
        ("dispatched", "governed vector uops dispatched", fun r -> r.Cpu.vla_pred_execs);
      ]
  @ section "permutation"
      [
        ("seen", "permutation slots resolved over all sessions", fun r -> r.Cpu.permutes_seen);
        ("recovered", "lowered to a native Vperm or a table lookup", fun r ->
          r.Cpu.permutes_recovered);
        ("aborted", "killed their translation session", fun r -> r.Cpu.permutes_aborted);
        ("tbl_index_builds", "index-table builds (Tblidx executions)", fun r ->
          r.Cpu.tbl_index_builds);
      ]

let sections =
  List.fold_left
    (fun acc c -> if List.mem c.section acc then acc else acc @ [ c.section ])
    [] registry

(* Each section's counters with their registry index. *)
let members =
  let indexed = List.mapi (fun i c -> (i, c)) registry in
  List.map (fun s -> (s, List.filter (fun (_, c) -> c.section = s) indexed)) sections

let names = List.map name registry

let index n =
  match List.find_index (String.equal n) names with
  | Some i -> i
  | None -> invalid_arg ("Snapshot: unregistered counter " ^ n)

type region = {
  r_label : string;
  r_entry : int;
  r_calls : int;
  r_ucode_served : int;
  r_scalar_calls : int;
  r_outcome : string;
  r_width : int;
  r_uops : int;
}

type t = {
  s_label : string;
  s_variant : string;
  s_counters : int array;
  s_regions : region list;
  s_latency_hist : Hist.t;
  s_gap_hist : Hist.t;
  s_uops_hist : Hist.t;
}

let histograms =
  [
    ("translation_latency_cycles", fun t -> t.s_latency_hist);
    ("inter_call_gap_cycles", fun t -> t.s_gap_hist);
    ("region_uops", fun t -> t.s_uops_hist);
  ]

let region_of_report (r : Cpu.region_report) =
  let calls = List.length r.Cpu.calls in
  let outcome, width, uops =
    match r.Cpu.outcome with
    | Cpu.R_untried -> ("untried", 0, 0)
    | Cpu.R_installed { width; uops } -> ("installed", width, uops)
    | Cpu.R_failed a ->
        ("failed: " ^ Liquid_translate.Abort.to_string a, 0, 0)
  in
  {
    r_label = r.Cpu.label;
    r_entry = r.Cpu.entry;
    r_calls = calls;
    r_ucode_served = r.Cpu.ucode_served;
    r_scalar_calls = calls - r.Cpu.ucode_served;
    r_outcome = outcome;
    r_width = width;
    r_uops = uops;
  }

let of_run ?(label = "run") ?(variant = "unknown") (run : Cpu.run) =
  let gap = Hist.create () in
  List.iter
    (fun (r : Cpu.region_report) ->
      let rec gaps = function
        | (_, fin) :: ((start, _) :: _ as rest) ->
            Hist.add gap (start - fin);
            gaps rest
        | _ -> ()
      in
      gaps r.Cpu.calls)
    run.Cpu.regions;
  let uops_hist = Hist.create () in
  List.iter
    (fun (r : Cpu.region_report) ->
      match r.Cpu.outcome with
      | Cpu.R_installed { uops; _ } -> Hist.add uops_hist uops
      | _ -> ())
    run.Cpu.regions;
  let latency = Hist.create () in
  List.iter (Hist.add latency) run.Cpu.translation_latencies;
  {
    s_label = label;
    s_variant = variant;
    s_counters = Array.of_list (List.map (fun c -> c.get run) registry);
    s_regions = List.map region_of_report run.Cpu.regions;
    s_latency_hist = latency;
    s_gap_hist = gap;
    s_uops_hist = uops_hist;
  }

(* --- conservation invariants: relations over registered names --- *)

(* Tallies over the regions and histograms that relations also read. *)
let derived =
  let regions f t = List.fold_left (fun acc r -> acc + f r) 0 t.s_regions in
  [
    ("regions.calls", regions (fun r -> r.r_calls));
    ("regions.ucode_served", regions (fun r -> r.r_ucode_served));
    ("regions.call_pairs", regions (fun r -> max 0 (r.r_calls - 1)));
    ("regions.overserved", regions (fun r -> Bool.to_int (r.r_ucode_served > r.r_calls)));
    ("hist.inter_call_gap_cycles.count", fun t -> Hist.count t.s_gap_hist);
  ]

(* One side of a relation: a sum ["a + b + 1"] of registered names,
   derived tallies and integer literals. It is parsed once, so an
   unregistered name fails as the module initialises. *)
let side s =
  List.map
    (fun n ->
      let n = String.trim n in
      match (int_of_string_opt n, List.assoc_opt n derived) with
      | Some k, _ -> (None, fun _ -> k)
      | None, Some f -> (Some n, f)
      | None, None ->
          let i = index n in
          (Some n, fun t -> t.s_counters.(i)))
    (String.split_on_char '+' s)

(* A relation returns [None] when it holds and the offending values
   otherwise. *)
let rel sym holds lhs rhs =
  let lhs = side lhs and rhs = side rhs in
  let rec total t = function [] -> 0 | (_, read) :: terms -> read t + total t terms in
  fun t ->
    if holds (total t lhs) (total t rhs) then None
    else
      let show terms =
        String.concat " + "
          (List.map
             (fun (n, read) ->
               match n with
               | Some n -> Printf.sprintf "%s %d" n (read t)
               | None -> string_of_int (read t))
             terms)
      in
      Some (Printf.sprintf "expected %s %s %s" (show lhs) sym (show rhs))

let eq = rel "=" ( = )
let le = rel "<=" ( <= )
let all rels t = List.find_map (fun r -> r t) rels
let any rels t = if List.exists (fun r -> r t = None) rels then None else (List.hd rels) t

let invariants =
  [
    ( "insn-conservation",
      eq "stats.scalar_insns + stats.vector_insns" "stats.fetches + stats.uops_retired" );
    ( "icache-mirror",
      all [ eq "stats.icache_hits" "icache.hits"; eq "stats.icache_misses" "icache.misses" ] );
    ("icache-fetches", eq "icache.hits + icache.misses" "stats.fetches");
    ( "dcache-mirror",
      all [ eq "stats.dcache_hits" "dcache.hits"; eq "stats.dcache_misses" "dcache.misses" ] );
    ( "branch-mirror",
      all
        [
          eq "stats.branches" "branch_pred.lookups";
          eq "stats.branch_mispredicts" "branch_pred.mispredicts";
          le "stats.branch_mispredicts" "stats.branches";
        ] );
    ("region-calls", all [ eq "regions.calls" "stats.region_calls"; eq "regions.overserved" "0" ]);
    ( "ucode-hits",
      all
        [ eq "regions.ucode_served" "stats.ucode_hits"; le "stats.ucode_hits" "stats.region_calls" ]
    );
    ( "ucache-mirror",
      all
        [
          eq "stats.ucode_installs" "ucode_cache.installs";
          eq "stats.ucode_evictions" "ucode_cache.evictions";
        ] );
    ( "ucache-occupancy",
      all
        [
          eq "ucode_cache.installs"
            "ucode_cache.replacements + ucode_cache.evictions + ucode_cache.occupancy";
          le "ucode_cache.occupancy" "ucode_cache.max_occupancy";
        ] );
    (* at most one session is still open at halt; oracle runs install
       without opening sessions *)
    ( "translation-sessions",
      let started = "stats.translations_started"
      and ended = "stats.ucode_installs + stats.translations_aborted" in
      any
        [
          eq started ended;
          eq started (ended ^ " + 1");
          all [ eq started "0"; eq "stats.translations_aborted" "0" ];
        ] );
    ("gap-samples", eq "hist.inter_call_gap_cycles.count" "regions.call_pairs");
    ( "pred-conservation",
      eq "predication.fast_iters + predication.masked_iters" "predication.dispatched" );
    ("perm-conservation", eq "permutation.recovered + permutation.aborted" "permutation.seen");
  ]

let invariant_count = List.length invariants

let violations t =
  List.filter_map (fun (n, holds) -> Option.map (fun d -> n ^ ": " ^ d) (holds t)) invariants

(* --- emitters --- *)

let region_json r =
  Json.Obj
    [
      ("label", Json.Str r.r_label);
      ("entry", Json.Int r.r_entry);
      ("calls", Json.Int r.r_calls);
      ("ucode_served", Json.Int r.r_ucode_served);
      ("scalar_calls", Json.Int r.r_scalar_calls);
      ("outcome", Json.Str r.r_outcome);
      ("width", Json.Int r.r_width);
      ("uops", Json.Int r.r_uops);
    ]

let section_json t counters =
  Json.Obj (List.map (fun (i, c) -> (c.key, Json.Int t.s_counters.(i))) counters)

(* Schema liquid-obs-snapshot/1 places the per-region timelines between
   the hardware-unit sections and the engine sections. *)
let regions_follow = "ucode_cache"

let to_json t =
  let counters =
    List.concat_map
      (fun (s, counters) ->
        (s, section_json t counters)
        :: (if s = regions_follow then [ ("regions", Json.List (List.map region_json t.s_regions)) ]
            else []))
      members
  in
  Json.Obj
    ([
       ("schema", Json.Str "liquid-obs-snapshot/1");
       ("label", Json.Str t.s_label);
       ("variant", Json.Str t.s_variant);
     ]
    @ counters
    @ [
        ("histograms", Json.Obj (List.map (fun (n, h) -> (n, Hist.to_json (h t))) histograms));
        ( "invariants",
          Json.Obj
            [
              ("checked", Json.Int invariant_count);
              ("violations", Json.List (List.map (fun v -> Json.Str v) (violations t)));
            ] );
      ])

let to_csv t =
  let buf = Buffer.create 1024 in
  let quote s =
    if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
      "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
    else s
  in
  let row k v = Buffer.add_string buf (Printf.sprintf "%s,%s\n" (quote k) v) in
  let int_row k v = row k (string_of_int v) in
  row "key" "value";
  row "label" (quote t.s_label);
  row "variant" (quote t.s_variant);
  List.iteri (fun i n -> int_row n t.s_counters.(i)) names;
  List.iter
    (fun r ->
      let p k v = int_row (Printf.sprintf "region.%s.%s" r.r_label k) v in
      p "calls" r.r_calls;
      p "ucode_served" r.r_ucode_served;
      p "scalar_calls" r.r_scalar_calls;
      row (Printf.sprintf "region.%s.outcome" r.r_label) (quote r.r_outcome);
      p "width" r.r_width;
      p "uops" r.r_uops)
    t.s_regions;
  List.iter
    (fun (name, h) ->
      let name = "hist." ^ name and h = h t in
      int_row (name ^ ".count") (Hist.count h);
      int_row (name ^ ".total") (Hist.total h);
      int_row (name ^ ".min") (Hist.min_value h);
      int_row (name ^ ".max") (Hist.max_value h);
      row (name ^ ".mean") (Printf.sprintf "%.3f" (Hist.mean h));
      Hist.iter_buckets h (fun ~lo ~hi ~count ->
          int_row (Printf.sprintf "%s.bucket.%d-%d" name lo hi) count))
    histograms;
  List.iter (fun v -> row "invariant.violation" (quote v)) (violations t);
  Buffer.contents buf
