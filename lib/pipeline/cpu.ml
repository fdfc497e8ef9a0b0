open Liquid_isa
open Liquid_visa
open Liquid_machine
open Liquid_prog
open Liquid_translate

type trace_event =
  | T_insn of { pc : int; insn : Minsn.exec }
  | T_uop of { entry : int; index : int; uop : Ucode.uop }
  | T_region of {
      label : string;
      event :
        [ `Scalar_call | `Ucode_call | `Translated of int | `Aborted of Abort.t ];
    }
  | T_translation of {
      entry : int;
      label : string;
      width : int;
      uops : int;
      latency : int;
    }

type translation_kind =
  | Hardware
      (** post-retirement hardware: translation proceeds in parallel with
          execution; only the microcode-ready time is delayed *)
  | Software
      (** a JIT routine on the main core: the same work stalls the
          processor at region end (paper §2's software alternative) *)

type translation = { cycles_per_insn : int; kind : translation_kind }

type config = {
  accel_lanes : int option;
  translator : translation option;
  backend : Backend.t;
  vec_bus_bytes : int;
  oracle_translation : bool;
  interrupt_interval : int option;
  on_trace : (trace_event -> unit) option;
  ucode_entries : int;
  max_uops : int;
  fault : Fault.t option;
  blocks : bool;
}

(* The watchdog's retired-instruction budget when no [Exhaust_fuel]
   fault sets one. *)
let default_fuel = 200_000_000

let scalar_config =
  {
    accel_lanes = None;
    translator = None;
    backend = Backend.fixed;
    vec_bus_bytes = 16;
    oracle_translation = false;
    interrupt_interval = None;
    on_trace = None;
    ucode_entries = 8;
    max_uops = Translator.default_max_uops;
    fault = None;
    blocks = true;
  }

let native_config ~lanes = { scalar_config with accel_lanes = Some lanes }

let liquid_config ~lanes =
  {
    scalar_config with
    accel_lanes = Some lanes;
    translator = Some { cycles_per_insn = 1; kind = Hardware };
  }

type region_outcome =
  | R_untried
  | R_installed of { width : int; uops : int }
  | R_failed of Abort.t

type region_report = {
  label : string;
  entry : int;
  calls : (int * int) list;
  ucode_served : int;
  outcome : region_outcome;
}

type run = {
  stats : Stats.t;
  memory : Memory.t;
  regs : int array;
  regions : region_report list;
  ucode_max_occupancy : int;
  icache_counters : Cache.counters;
  dcache_counters : Cache.counters;
  bpred_counters : Branch_pred.counters;
  ucache_counters : Ucode_cache.counters;
  blocks_compiled : int;
  block_execs : int;
  superblocks_compiled : int;
  superblock_iters : int;
  superblock_bailouts : int;
  pred_fast_iters : int;
  pred_masked_iters : int;
  vla_pred_execs : int;
  permutes_seen : int;
  permutes_recovered : int;
  permutes_aborted : int;
  tbl_index_builds : int;
  session_iters_compiled : int;
  translation_latencies : int list;
  feed_events : int;
  fault_fired : bool;
}

type racc = {
  r_label : string;
  mutable calls_rev : (int * int) list;
  mutable served : int;
  mutable outcome : region_outcome;
}

(* A verifying session's loop body in the block engine, compiled at the
   first loop top the session reaches. *)
type body = Body_unknown | Body_declined | Body of Blocks.observed

type session = {
  tr : Translator.t;
  s_entry : int;
  s_start_cycle : int;
  s_start_depth : int;
  mutable s_body : body;
}

type state = {
  cfg : config;
  image : Image.t;
  ctx : Sem.ctx;
  stats : Stats.t;
  icache : Cache.t;
  dcache : Cache.t;
  bpred : Branch_pred.t;
  ucache : Ucode_cache.t;
  fuel : int;
      (* the watchdog's retired-instruction budget: an armed
         [Exhaust_fuel]'s, else [default_fuel] *)
  oracle : (int, Ucode.t option) Hashtbl.t;
      (* oracle-translation mode: microcode served as if the binary
         carried native SIMD instructions, bypassing the cache.
         Translated lazily at first call from the live machine state —
         translating at init from the pristine image would observe
         fission spill arrays as all-zero and mis-fold operands into
         constants. [None] caches a translation abort. *)
  regions : (int, racc) Hashtbl.t;
  region_labels : (int, string) Hashtbl.t;
      (* Image.region_entries as a table: the label lookup runs on every
         first call of a region, and the assoc list scan was linear *)
  mutable pc : int;
  mutable depth : int;
  mutable session : session option;
  mutable open_regions : (racc * int * int) list;
      (* scalar-mode region calls awaiting their return:
         (accumulator, start cycle, depth inside the region) *)
  mutable last_load_dst : Reg.t option;
  mutable next_interrupt_at : int;
      (* first cycle at which the next interrupt fires ([max_int] when
         interrupts are off): a countdown threshold instead of a
         per-step division *)
  mutable retired : int;
  mutable halted : bool;
  mutable vla_preds : int;
      (* predicated vector uops dispatched by the stepping interpreter;
         the engine keeps its own tally — together they form the
         right-hand side of the obs predication conservation invariant *)
  mutable perm_seen : int;
  mutable perm_recovered : int;
  mutable perm_aborted : int;
      (* permutation placeholders across every finished translation
         session (cached and oracle alike), accumulated from each
         session's [Translator.perm_tally] *)
  eng : Blocks.t option;
      (* the translation-block engine; [None] when disabled by config or
         when a trace consumer demands stepping throughout *)
  mutable session_iters : int;
      (* verify iterations run through the engine's observed bodies *)
  mutable latencies_rev : int list;
      (* [T_translation] latency of every completed translation *)
  mutable feeds : int;
      (* events offered to a live session so far, failed ones included *)
  mutable feed_site : int;
      (* the armed fault's feed event, [max_int] when none is armed or
         once it fired: the engine's one comparison per verify iteration *)
  mutable fired : bool;
}

let charge st c = st.stats.Stats.cycles <- st.stats.Stats.cycles + c

let trace st ev =
  match st.cfg.on_trace with None -> () | Some f -> f ev

(* Hot-path variants: build the event record only when a consumer is
   attached, so tracing costs nothing when off. *)
let[@inline] trace_insn st pc insn =
  match st.cfg.on_trace with
  | None -> ()
  | Some f -> f (T_insn { pc; insn })

let[@inline] trace_uop st entry index uop =
  match st.cfg.on_trace with
  | None -> ()
  | Some f -> f (T_uop { entry; index; uop })

(* The caches keep their own hit/miss tallies (the single writers; the
   [Stats] mirrors are derived at [collect]); the core only owes the
   timing consequence of a miss. *)
let charge_icache st addr =
  st.stats.Stats.fetches <- st.stats.Stats.fetches + 1;
  match Cache.access st.icache addr with
  | Cache.Hit -> ()
  | Cache.Miss -> charge st Blocks.mem_latency

let charge_dcache st ~addr ~bytes ~write =
  (if write then st.stats.Stats.stores <- st.stats.Stats.stores + 1
   else st.stats.Stats.loads <- st.stats.Stats.loads + 1);
  charge st (Cache.access_range st.dcache ~addr ~bytes * Blocks.mem_latency)

(* Account every memory access the last [Sem.exec_*] recorded in the
   context scratch buffer. *)
let charge_accesses st =
  let ctx = st.ctx in
  for i = 0 to ctx.Sem.e_nacc - 1 do
    charge_dcache st ~addr:ctx.Sem.acc_addr.(i) ~bytes:ctx.Sem.acc_bytes.(i)
      ~write:ctx.Sem.acc_write.(i)
  done

(* The static charges of one vector-instruction dispatch (see
   {!Blocks.vector_charge}). A wide memory access moves
   [lanes * element] bytes over the bus, one extra cycle per beat after
   the first: this is what makes wide vectors saturate (the paper's
   diminishing returns from 8 to 16 lanes on memory-bound loops). *)
let charge_vector st (v : Vinsn.exec) =
  st.stats.Stats.vector_insns <- st.stats.Stats.vector_insns + 1;
  charge st
    (Blocks.vector_charge ~bus:st.cfg.vec_bus_bytes ~lanes:st.ctx.Sem.lanes v)

let diag st fault =
  Diag.Error
    (Diag.make ~fault ~pc:st.pc ~cycle:st.stats.Stats.cycles
       ~retired:st.retired)

(* The watchdog: a run that exceeds its retired-instruction budget stops
   with a [Fuel_exhausted] diagnostic carrying a snapshot of the machine
   position (pc, cycle, retired count) instead of a bare string. *)
let fuel_check st =
  st.retired <- st.retired + 1;
  if st.retired > st.fuel then raise (diag st Diag.Fuel_exhausted)

(* The single accounting site for conditional branches: the predictor
   owns the lookup/mispredict counters (the [Stats] mirror is derived at
   [collect]); the core only applies the refill penalty. [key] is the pc
   for image branches and a synthetic id for microcode branches. *)
let record_branch st ~key ~taken =
  if not (Branch_pred.predict_and_update st.bpred ~pc:key ~taken) then
    charge st Blocks.mispredict_penalty

let load_use_stall st insn =
  (match st.last_load_dst with
  | Some r when Insn.uses_reg insn r -> charge st 1
  | Some _ | None -> ());
  st.last_load_dst <- None

let region_acc st entry =
  match Hashtbl.find_opt st.regions entry with
  | Some r -> r
  | None ->
      let label =
        match Hashtbl.find_opt st.region_labels entry with
        | Some l -> l
        | None -> Printf.sprintf "@%d" entry
      in
      let r = { r_label = label; calls_rev = []; served = 0; outcome = R_untried } in
      Hashtbl.replace st.regions entry r;
      r

let close_session st s =
  st.session <- None;
  let acc = region_acc st s.s_entry in
  (* Translation work is proportional to the static instructions mapped
     (the first iteration); later iterations stream past at retirement
     rate. The microcode becomes visible once that work completes, no
     earlier than the region's end. *)
  let work = Translator.static_insns s.tr in
  let cpi, kind =
    match st.cfg.translator with
    | Some t -> (t.cycles_per_insn, t.kind)
    | None -> (1, Hardware)
  in
  st.stats.Stats.translation_busy_cycles <-
    st.stats.Stats.translation_busy_cycles + (work * cpi);
  (* A software translator runs on the core itself: the region's caller
     stalls while the JIT routine executes. *)
  (match kind with Software -> charge st (work * cpi) | Hardware -> ());
  let result = Translator.finish s.tr in
  let tally = Translator.perm_tally s.tr in
  st.perm_seen <- st.perm_seen + tally.Translator.seen;
  st.perm_recovered <- st.perm_recovered + tally.Translator.recovered;
  st.perm_aborted <- st.perm_aborted + tally.Translator.aborted;
  match result with
  | Translator.Translated u ->
      trace st
        (T_region { label = acc.r_label; event = `Translated u.Ucode.width });
      let ready = max st.stats.Stats.cycles (s.s_start_cycle + (work * cpi)) in
      st.latencies_rev <- (ready - s.s_start_cycle) :: st.latencies_rev;
      trace st
        (T_translation
           {
             entry = s.s_entry;
             label = acc.r_label;
             width = u.Ucode.width;
             uops = Array.length u.Ucode.uops;
             latency = ready - s.s_start_cycle;
           });
      Ucode_cache.install st.ucache ~key:s.s_entry ~ready u;
      acc.outcome <-
        R_installed { width = u.Ucode.width; uops = Array.length u.Ucode.uops }
  | Translator.Aborted reason ->
      trace st (T_region { label = acc.r_label; event = `Aborted reason });
      st.stats.Stats.translations_aborted <-
        st.stats.Stats.translations_aborted + 1;
      acc.outcome <-
        (if Diag.classify_abort reason = `Permanent then R_failed reason
         else R_untried)

(* An untranslatable stand-in for a corrupted decode: a call inside a
   region has no Table 3 rule in any DFA state, so the session aborts
   whether it is building or verifying. *)
let poison_insn = Insn.Bl { target = 0; region = false }

(* Feed only the session that was live before the current instruction:
   the region branch-and-link that just opened a session is not part of
   the region's own retirement stream. The destination value is read
   from the context scratch effect. Once the translator has failed it
   ignores every event, so none is built; the event still counts, so
   an armed feed site is reached at the same index either way. *)
let feed_session st session pc insn =
  match session with
  | None -> ()
  | Some s -> (
      let fault =
        if st.feeds = st.feed_site then begin
          st.feed_site <- max_int;
          st.fired <- true;
          st.cfg.fault
        end
        else None
      in
      st.feeds <- st.feeds + 1;
      let insn =
        match fault with Some (Fault.Corrupt_feed _) -> poison_insn | _ -> insn
      in
      (if not (Translator.failed s.tr) then
         let value =
           let v = st.ctx.Sem.e_value in
           if v = Sem.no_value then None else Some v
         in
         Translator.feed s.tr (Event.make ~pc ?value insn));
      match fault with
      | Some (Fault.Force_abort { abort; _ }) -> Translator.inject s.tr abort
      | _ -> ())

(* Execute translated microcode in place of the outlined function.
   When the block engine is on, replay runs through its pre-compiled
   straight-line segments; the interpreted loop below continues from
   wherever the engine handed back control (declined segment, fuel
   proximity, out-of-range index) so diagnostics stay per-step exact:
   a segment holding an op that would fault is declined, and the op
   faults here.
   [stamp] is the microcode cache's install stamp for this entry ([-1]
   for oracle microcode), which invalidates compiled segments when a
   region is retranslated. *)
let run_ucode st ~entry ~stamp (u : Ucode.t) =
  let saved_lanes = st.ctx.Sem.lanes in
  st.ctx.Sem.lanes <- u.Ucode.width;
  let start =
    match st.eng with
    | None -> 0
    | Some eng -> (
        let r = Blocks.exec_ucode eng ~entry ~stamp ~retired:st.retired u in
        st.retired <- Blocks.out_retired eng;
        match r with Blocks.U_done -> -1 | Blocks.U_resume ui -> ui)
  in
  let n = Array.length u.Ucode.uops in
  let ui = ref start in
  let running = ref (start >= 0) in
  while !running do
    if !ui < 0 || !ui >= n then raise (diag st (Diag.Ucode_index !ui));
    trace_uop st entry !ui u.Ucode.uops.(!ui);
    st.stats.Stats.uops_retired <- st.stats.Stats.uops_retired + 1;
    (match u.Ucode.uops.(!ui) with
    | Ucode.US i ->
        fuel_check st;
        st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
        charge st (Blocks.scalar_charge i);
        (match Sem.exec_scalar st.ctx ~pc:(-1) i with
        | Sem.Next -> ()
        | Sem.Jump _ | Sem.Call _ | Sem.Return | Sem.Stop ->
            raise (diag st Diag.Ucode_control_flow));
        charge_accesses st;
        incr ui
    | Ucode.UV v ->
        fuel_check st;
        charge_vector st v;
        Sem.exec_vector st.ctx v;
        charge_accesses st;
        incr ui
    | Ucode.UG g ->
        fuel_check st;
        (* Governor and counter management is loop-control overhead and
           accounts as scalar work; a governed datapath op is vector
           work with the static charges of its ungoverned form. *)
        if Governed.is_vector g then
          st.stats.Stats.vector_insns <- st.stats.Stats.vector_insns + 1
        else st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
        (match g with
        | Governed.Op _ | Governed.Tbl _ | Governed.Tblst _ ->
            st.vla_preds <- st.vla_preds + 1
        | Governed.Tblidx _ | Governed.Set_active _ | Governed.Advance _ -> ());
        charge st
          (Blocks.governed_charge ~bus:st.cfg.vec_bus_bytes ~lanes:st.ctx.Sem.lanes
             g);
        Sem.exec_governed st.ctx g;
        charge_accesses st;
        incr ui
    | Ucode.UB { cond; target } ->
        fuel_check st;
        st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
        charge st 1;
        let taken = Cond.holds cond st.ctx.Sem.flags in
        record_branch st
          ~key:(Ucode.branch_key ~entry ~max_uops:st.cfg.max_uops ~index:!ui)
          ~taken;
        if taken then ui := target else incr ui
    | Ucode.URet ->
        fuel_check st;
        st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
        charge st 1;
        running := false)
  done;
  st.ctx.Sem.lanes <- saved_lanes

(* Oracle mode (the paper's "built-in ISA support" configuration):
   microcode is available with zero translation latency, as if the
   binary carried native SIMD instructions. The translation itself
   still observes a real execution — a side-effect-free replay of the
   region from a copy of the live machine state at its first call — so
   it resolves operands from the same values the dynamic translator
   would see. The result (including an abort) is cached per entry. *)
let oracle_lookup st target =
  match Hashtbl.find_opt st.oracle target with
  | Some cached -> cached
  | None ->
      if not st.cfg.oracle_translation then None
      else
        let tally =
          ref { Translator.seen = 0; recovered = 0; aborted = 0 }
        in
        let res =
          match (st.cfg.accel_lanes, st.cfg.translator) with
          | Some lanes, Some _ -> (
              match
                Offline.translate_region_result ~max_uops:st.cfg.max_uops
                  ~backend:st.cfg.backend ~state:st.ctx ~tally ~image:st.image
                  ~lanes ~entry:target ()
              with
              | Ok (Translator.Translated u) ->
                  (region_acc st target).outcome <-
                    R_installed
                      {
                        width = u.Ucode.width;
                        uops = Array.length u.Ucode.uops;
                      };
                  Some u
              | Ok (Translator.Aborted reason) ->
                  (region_acc st target).outcome <-
                    (if Diag.classify_abort reason = `Permanent then
                       R_failed reason
                     else R_untried);
                  None
              | Error _ -> None)
          | _, _ -> None
        in
        st.perm_seen <- st.perm_seen + !tally.Translator.seen;
        st.perm_recovered <- st.perm_recovered + !tally.Translator.recovered;
        st.perm_aborted <- st.perm_aborted + !tally.Translator.aborted;
        Hashtbl.replace st.oracle target res;
        res

(* Re-check the live-invariance guards of constant-folded operands
   before reusing microcode: the translator baked loaded values into a
   vector constant, which a later store to the source array (e.g. a
   fission scratch array rewritten by an earlier region each frame)
   silently invalidates. A failed guard drops the translation so the
   region retranslates against current memory. *)
let guards_ok st (u : Ucode.t) =
  Array.for_all
    (fun (g : Ucode.guard) ->
      Memory.read st.ctx.Sem.mem ~addr:g.Ucode.g_addr ~bytes:g.Ucode.g_bytes
        ~signed:g.Ucode.g_signed
      = g.Ucode.g_expect)
    u.Ucode.guards

(* Handle a region-marked branch-and-link. Returns [true] when the call
   was served from the microcode cache (and [st.pc] already advanced). *)
let region_call st ~pc ~target =
  let acc = region_acc st target in
  let now = st.stats.Stats.cycles in
  let call = st.stats.Stats.region_calls in
  st.stats.Stats.region_calls <- call + 1;
  let oracle_u =
    match oracle_lookup st target with
    | Some u when not (guards_ok st u) ->
        Hashtbl.remove st.oracle target;
        oracle_lookup st target
    | o -> o
  in
  match oracle_u with
  | Some u ->
      acc.served <- acc.served + 1;
      st.stats.Stats.ucode_hits <- st.stats.Stats.ucode_hits + 1;
      trace st (T_region { label = acc.r_label; event = `Ucode_call });
      run_ucode st ~entry:target ~stamp:(-1) u;
      acc.calls_rev <- (now, st.stats.Stats.cycles) :: acc.calls_rev;
      st.pc <- pc + 1;
      true
  | None -> (
  match (st.cfg.accel_lanes, st.cfg.translator) with
  | Some _, Some _ when st.session = None -> (
      (* Injected mid-run eviction: the entry disappears as if the cache
         had been power-gated or flushed; the call below misses, the
         region runs in scalar form and retranslates. *)
      (match st.cfg.fault with
      | Some (Fault.Evict_ucode { call = c }) when c = call ->
          st.fired <- true;
          ignore (Ucode_cache.evict st.ucache ~key:target)
      | _ -> ());
      match
        match Ucode_cache.lookup st.ucache ~key:target ~now with
        | Some u when not (guards_ok st u) ->
            ignore (Ucode_cache.evict st.ucache ~key:target);
            None
        | o -> o
      with
      | Some u ->
          acc.served <- acc.served + 1;
          st.stats.Stats.ucode_hits <- st.stats.Stats.ucode_hits + 1;
          trace st (T_region { label = acc.r_label; event = `Ucode_call });
          run_ucode st ~entry:target
            ~stamp:(Ucode_cache.stamp_of st.ucache ~key:target)
            u;
          acc.calls_rev <- (now, st.stats.Stats.cycles) :: acc.calls_rev;
          st.pc <- pc + 1;
          true
      | None ->
          (if not (Ucode_cache.pending st.ucache ~key:target ~now) then
             match acc.outcome with
             | R_failed _ -> ()
             | R_untried | R_installed _ ->
                 (* [R_installed] with a cache miss means the entry was
                    evicted: translate again on this execution. *)
                 st.stats.Stats.translations_started <-
                   st.stats.Stats.translations_started + 1;
                 st.session <-
                   Some
                     {
                       tr =
                         Translator.create
                           {
                             Translator.lanes =
                               (match st.cfg.accel_lanes with
                               | Some l -> l
                               | None -> assert false);
                             max_uops = st.cfg.max_uops;
                             backend = st.cfg.backend;
                           };
                       s_entry = target;
                       s_start_cycle = now;
                       s_start_depth = st.depth + 1;
                       s_body = Body_unknown;
                     });
          false)
  | _ -> false)

(* Asynchronous interrupts (context switches): the paper's hardware
   aborts any in-flight translation session when one arrives (§4.1);
   the abort is not permanent, so a later execution of the region
   retries. We model an interrupt every [interrupt_interval] cycles. *)
let interrupt_check st =
  let now = st.stats.Stats.cycles in
  if now >= st.next_interrupt_at then begin
    (* The threshold catches up by division only when it actually fires
       (equivalent to tracking the epoch every step: [now >= (e+1)*p]
       iff [now/p > e]), so the hot path is one comparison. Blocks defer
       the check to the next [step]; no session can be live meanwhile,
       so the first stepped instruction observes the same epoch
       transition the per-step engine would have. *)
    (match st.cfg.interrupt_interval with
    | None -> assert false (* threshold stays at [max_int] *)
    | Some period -> st.next_interrupt_at <- ((now / period) + 1) * period);
    match st.session with
    | Some s ->
        Translator.abort_external s.tr;
        st.stats.Stats.translations_aborted <-
          st.stats.Stats.translations_aborted + 1;
        st.session <- None
    | None -> ()
  end

let step st =
  if st.pc < 0 || st.pc >= Array.length st.image.Image.code then
    raise (diag st Diag.Wild_pc);
  interrupt_check st;
  let pc = st.pc in
  let pre_session = st.session in
  charge_icache st (Array.unsafe_get st.image.Image.addrs pc);
  match st.image.Image.code.(pc) with
  | Minsn.S (Insn.Bl { target; region = true } as insn)
    when region_call st ~pc ~target ->
      (* Served from the microcode cache; account for the branch itself
         and notify any outer translator session (which aborts, as a
         call inside a region is untranslatable). *)
      fuel_check st;
      trace_insn st pc (Minsn.S insn);
      st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
      charge st 1;
      (* the microcode run left its own scratch effect behind; the
         branch itself has none *)
      st.ctx.Sem.e_value <- Sem.no_value;
      feed_session st pre_session pc insn
  | Minsn.S insn -> (
      fuel_check st;
      trace_insn st pc (Minsn.S insn);
      st.stats.Stats.scalar_insns <- st.stats.Stats.scalar_insns + 1;
      charge st (Blocks.scalar_charge insn);
      load_use_stall st insn;
      let outcome = Sem.exec_scalar st.ctx ~pc insn in
      charge_accesses st;
      (match insn with
      | Insn.Ld { dst; _ } -> st.last_load_dst <- Some dst
      | _ -> ());
      feed_session st pre_session pc insn;
      match outcome with
      | Sem.Next -> st.pc <- pc + 1
      | Sem.Jump target ->
          record_branch st ~key:pc ~taken:(st.ctx.Sem.e_taken = 1);
          st.pc <- target
      | Sem.Call { target; region } ->
          st.depth <- st.depth + 1;
          if region then begin
            trace st
              (T_region
                 { label = (region_acc st target).r_label; event = `Scalar_call });
            st.open_regions <-
              (region_acc st target, st.stats.Stats.cycles, st.depth)
              :: st.open_regions
          end;
          st.pc <- target
      | Sem.Return ->
          st.depth <- st.depth - 1;
          (match st.session with
          | Some s when st.depth < s.s_start_depth -> close_session st s
          | Some _ | None -> ());
          let rec pop = function
            | (acc, start, d) :: rest when d > st.depth ->
                acc.calls_rev <- (start, st.stats.Stats.cycles) :: acc.calls_rev;
                pop rest
            | remaining -> st.open_regions <- remaining
          in
          pop st.open_regions;
          st.pc <- st.ctx.Sem.regs.(Reg.index Reg.lr)
      | Sem.Stop -> st.halted <- true)
  | Minsn.V v -> (
      match st.cfg.accel_lanes with
      | None ->
          raise (diag st (Diag.Illegal "vector instruction without SIMD accelerator"))
      | Some _ ->
          fuel_check st;
          trace_insn st pc (Minsn.V v);
          charge_vector st v;
          Sem.exec_vector st.ctx v;
          charge_accesses st;
          st.pc <- pc + 1)

let init_state config image =
  let fuel =
    match config.fault with
    | Some (Fault.Exhaust_fuel { budget }) -> budget
    | _ -> default_fuel
  in
  let mem = Memory.create () in
  Image.load_memory image mem;
  let ctx = Sem.create_ctx mem in
  (match config.accel_lanes with
  | Some l -> ctx.Sem.lanes <- l
  | None -> ());
  let stats = Stats.create () in
  let icache = Cache.create Cache.arm926_config in
  let dcache = Cache.create Cache.arm926_config in
  let bpred = Branch_pred.create () in
  (* The block engine is an execution strategy with bit-identical
     counters; it still yields to [step] whenever fidelity demands
     per-instruction observation. A trace consumer demands it for the
     whole run, so the engine is not built at all. An armed fault does
     not: region calls (evictions) always step, the fuel bail-out
     honours a watchdog budget, and the dispatcher steps the verify
     iteration that holds a feed site. *)
  let eng =
    if config.blocks && Option.is_none config.on_trace then
      Some
        (Blocks.create ~image ~ctx ~stats ~icache ~dcache ~bpred
           ~vec_bus_bytes:config.vec_bus_bytes ~lanes:config.accel_lanes
           ~max_uops:config.max_uops ~fuel)
    else None
  in
  let st =
    {
      cfg = config;
      image;
      ctx;
      stats;
      icache;
      dcache;
      bpred;
      ucache = Ucode_cache.create ~entries:config.ucode_entries;
      fuel;
      oracle = Hashtbl.create 8;
      regions = Hashtbl.create 8;
      region_labels =
        (let t = Hashtbl.create 8 in
         (* keep the first binding per entry, like [List.assoc_opt] *)
         List.iter
           (fun (entry, label) ->
             if not (Hashtbl.mem t entry) then Hashtbl.add t entry label)
           image.Image.region_entries;
         t);
      pc = image.Image.entry;
      depth = 0;
      session = None;
      open_regions = [];
      last_load_dst = None;
      next_interrupt_at =
        (match config.interrupt_interval with
        | Some period -> period
        | None -> max_int);
      retired = 0;
      halted = false;
      vla_preds = 0;
      perm_seen = 0;
      perm_recovered = 0;
      perm_aborted = 0;
      eng;
      session_iters = 0;
      latencies_rev = [];
      feeds = 0;
      feed_site =
        (match config.fault with
        | Some (Fault.Force_abort { site; _ } | Fault.Corrupt_feed { site }) ->
            site
        | _ -> max_int);
      fired = false;
    }
  in
  (st, mem, ctx)

(* Derive the [Stats] mirrors of per-unit counters from the units
   themselves. Each unit is the single writer of its tally; this is the
   only place the mirror fields are assigned, so they cannot drift. *)
let sync_stats st =
  let s = st.stats in
  s.Stats.icache_hits <- Cache.hits st.icache;
  s.Stats.icache_misses <- Cache.misses st.icache;
  s.Stats.dcache_hits <- Cache.hits st.dcache;
  s.Stats.dcache_misses <- Cache.misses st.dcache;
  s.Stats.branches <- Branch_pred.lookups st.bpred;
  s.Stats.branch_mispredicts <- Branch_pred.mispredicts st.bpred;
  s.Stats.ucode_installs <- Ucode_cache.installs st.ucache;
  s.Stats.ucode_evictions <- Ucode_cache.evictions st.ucache

let collect st mem ctx =
  sync_stats st;
  let regions =
    Hashtbl.fold
      (fun entry (r : racc) acc ->
        {
          label = r.r_label;
          entry;
          calls = List.rev r.calls_rev;
          ucode_served = r.served;
          outcome = r.outcome;
        }
        :: acc)
      st.regions []
    |> List.sort (fun a b -> compare a.entry b.entry)
  in
  {
    stats = st.stats;
    memory = mem;
    regs = Array.copy ctx.Sem.regs;
    regions;
    ucode_max_occupancy = Ucode_cache.max_occupancy st.ucache;
    icache_counters = Cache.counters st.icache;
    dcache_counters = Cache.counters st.dcache;
    bpred_counters = Branch_pred.counters st.bpred;
    ucache_counters = Ucode_cache.counters st.ucache;
    blocks_compiled = (match st.eng with Some e -> Blocks.built e | None -> 0);
    block_execs = (match st.eng with Some e -> Blocks.execs e | None -> 0);
    superblocks_compiled =
      (match st.eng with Some e -> Blocks.supers_built e | None -> 0);
    superblock_iters =
      (match st.eng with Some e -> Blocks.super_iters e | None -> 0);
    superblock_bailouts =
      (match st.eng with Some e -> Blocks.super_bailouts e | None -> 0);
    pred_fast_iters = ctx.Sem.n_pred_fast;
    pred_masked_iters = ctx.Sem.n_pred_masked;
    vla_pred_execs =
      (st.vla_preds
      + match st.eng with Some e -> Blocks.vla_preds e | None -> 0);
    permutes_seen = st.perm_seen;
    permutes_recovered = st.perm_recovered;
    permutes_aborted = st.perm_aborted;
    tbl_index_builds = ctx.Sem.n_tbl_builds;
    session_iters_compiled = st.session_iters;
    translation_latencies = List.rev st.latencies_rev;
    feed_events = st.feeds;
    fault_fired = st.fired;
  }

(* One block-engine dispatch at [st.pc]; [false] when the engine
   declines and the caller must step. *)
let dispatch_blocks st eng ~traces =
  Blocks.try_exec eng ~pc:st.pc ~retired:st.retired ~pending:st.last_load_dst
    ~traces
  && begin
       st.pc <- Blocks.out_pc eng;
       st.retired <- Blocks.out_retired eng;
       st.last_load_dst <- Blocks.out_pending eng;
       true
     end

(* A live session at its loop top in the Verify phase: run the next
   iteration as the loop body's block closures and hand the captured
   values to the translator in one batch (without the capture when the
   session reads no values, which then only counts the iteration).
   [false] when the session is elsewhere, the iteration holds the armed
   feed site, its body is not a straight-line run ending in the
   back-edge, or fuel could expire inside the iteration. *)
let dispatch_session st eng s =
  let top = Translator.iteration_top s.tr in
  top >= 0 && top = st.pc
  && st.feed_site >= st.feeds + Array.length (Translator.iteration_pattern s.tr)
  &&
  let body =
    match s.s_body with
    | Body b -> Some b
    | Body_declined -> None
    | Body_unknown -> (
        match Blocks.observe_loop eng (Translator.iteration_pattern s.tr) with
        | Some b ->
            s.s_body <- Body b;
            Some b
        | None ->
            s.s_body <- Body_declined;
            None)
  in
  match body with
  | None -> false
  | Some b ->
      Blocks.exec_observed eng b
        ~capture:(Translator.needs_values s.tr)
        ~retired:st.retired ~pending:st.last_load_dst
      && begin
           st.pc <- Blocks.out_pc eng;
           st.retired <- Blocks.out_retired eng;
           st.last_load_dst <- Blocks.out_pending eng;
           let values = Blocks.observed_values b in
           Translator.feed_iteration s.tr values;
           st.feeds <- st.feeds + Array.length values;
           st.session_iters <- st.session_iters + 1;
           true
         end

(* A session whose translator has failed ignores what it is fed, so the
   plain block engine runs for it. [step] would have fed it every image
   scalar instruction the blocks retired (a region's blocks hold no
   microcode), so those count as feed events, and an armed site among
   them fires exactly as it would have there: on a failed session
   neither fault changes anything. *)
let dispatch_failed_session st eng =
  let before = st.stats.Stats.scalar_insns in
  dispatch_blocks st eng ~traces:false
  && begin
       st.feeds <- st.feeds + st.stats.Stats.scalar_insns - before;
       if st.feed_site < st.feeds then begin
         st.feed_site <- max_int;
         st.fired <- true
       end;
       true
     end

(* The main loop. With the block engine on, every pc is first offered to
   the block cache; the engine declines (and we step faithfully) at
   region calls, returns, halts, wild pcs and under fuel pressure.
   Sessions open and close only inside [step], so checking the session
   at dispatch granularity is exact. A live session observes every
   retired instruction: it steps through its Build iteration, the region
   return and whatever else the engine declines, while its verified
   iterations run through the loop body's closures, with a value capture
   when the translator reads values ([dispatch_session]). A session
   whose translator has failed ignores what it is fed, so the plain
   block engine (no trace superblocks, which stepping would not have
   heated) runs until the region returns.
   Interrupts force stepping for as long as a session is live. *)
let exec_loop st =
  match st.eng with
  | None ->
      while not st.halted do
        step st
      done
  | Some eng ->
      while not st.halted do
        match st.session with
        | None -> if not (dispatch_blocks st eng ~traces:true) then step st
        | Some s -> (
            match st.cfg.interrupt_interval with
            | Some _ ->
                (* an interrupt aborts the session at a cycle only [step]
                   checks *)
                step st
            | None ->
                if Translator.failed s.tr then (
                  if not (dispatch_failed_session st eng) then step st)
                else if not (dispatch_session st eng s) then step st)
      done

(* The one place a [Sem.Sigill] becomes a diagnostic: only the
   interpreters raise it ([step] and the interpreted microcode loop),
   since compiled code cannot fault, and the machine position is the
   faulting instruction's (a microcode op reports its region call). *)
let run ?(config = scalar_config) image =
  let st, mem, ctx = init_state config image in
  (try exec_loop st with Sem.Sigill m -> raise (diag st (Diag.Illegal m)));
  collect st mem ctx
