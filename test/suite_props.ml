(* Property-based tests (qcheck): randomized invariants over the word
   domain, memory, cache, encoder, permutations, and — most importantly —
   end-to-end semantic equivalence of random vector programs under every
   execution flavour. *)

open Liquid_isa
open Liquid_visa
open Liquid_prog
open Liquid_scalarize
module Cpu = Liquid_pipeline.Cpu
module Sem = Liquid_pipeline.Sem
open Helpers
open Build
module Kernels = Liquid_workloads.Kernels
module Memory = Liquid_machine.Memory
module Cache = Liquid_machine.Cache

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* --- Word vs Int32 oracle --- *)

let int32_pair = QCheck.(pair (int_range (-1 lsl 31) ((1 lsl 31) - 1)) (int_range (-1 lsl 31) ((1 lsl 31) - 1)))

let against_int32 f g (a, b) =
  f a b = Int32.to_int (g (Int32.of_int a) (Int32.of_int b))

let word_props =
  [
    qtest "word add = int32 add" int32_pair (against_int32 Word.add Int32.add);
    qtest "word sub = int32 sub" int32_pair (against_int32 Word.sub Int32.sub);
    qtest "word mul = int32 mul" int32_pair (against_int32 Word.mul Int32.mul);
    qtest "word and = int32 and" int32_pair (against_int32 Word.logand Int32.logand);
    qtest "word or = int32 or" int32_pair (against_int32 Word.logor Int32.logor);
    qtest "word xor = int32 xor" int32_pair (against_int32 Word.logxor Int32.logxor);
    qtest "of_int is canonical" QCheck.int (fun v ->
        let w = Word.of_int v in
        w >= -0x80000000 && w <= 0x7FFFFFFF && Word.of_int w = w);
    (* The machine saturation must equal the scalar cmp/movc idiom the
       translator recovers it from: wrap at 32 bits, then clamp both
       sides when signed, only the high bound for unsigned add, only
       zero for unsigned sub. *)
    qtest "sat matches the scalar clamp idiom"
      QCheck.(
        pair int32_pair
          (triple
             (make (Gen.oneofl [ Esize.Byte; Esize.Half; Esize.Word ]))
             bool bool))
      (fun ((a, b), (esize, signed, is_add)) ->
        let d = if is_add then Word.add a b else Word.sub a b in
        let expect =
          if signed then
            let hi = Esize.max_signed esize and lo = Esize.min_signed esize in
            let d = if d > hi then hi else d in
            if d < lo then lo else d
          else if is_add then
            let hi = Esize.max_unsigned esize in
            if d > hi then hi else d
          else if d < 0 then 0
          else d
        in
        let f = if is_add then Word.sat_add else Word.sat_sub in
        f esize ~signed a b = expect);
    qtest "sat stays in range on in-domain inputs"
      QCheck.(triple (int_range 0 255) (int_range 0 255) bool)
      (fun (a0, b0, signed) ->
        let conv v = if signed then v - 128 else v in
        let v = Word.sat_add Esize.Byte ~signed (conv a0) (conv b0) in
        if signed then v >= -128 && v <= 127 else v >= 0 && v <= 255);
  ]

(* --- Memory vs array model --- *)

let mem_ops =
  QCheck.(
    small_list
      (triple (int_range 0 255) (make (Gen.oneofl [ 1; 2; 4 ])) int))

let memory_props =
  [
    qtest "memory agrees with byte-array model" mem_ops (fun ops ->
        let m = Memory.create () in
        let model = Array.make 512 0 in
        List.iter
          (fun (addr, bytes, v) ->
            Memory.write m ~addr ~bytes v;
            for k = 0 to bytes - 1 do
              model.(addr + k) <- (v asr (8 * k)) land 0xFF
            done)
          ops;
        let ok = ref true in
        for a = 0 to 511 do
          if Memory.read_byte m a <> model.(a) then ok := false
        done;
        !ok);
    qtest "write/read roundtrip"
      QCheck.(pair (int_range 0 4000) int)
      (fun (addr, v) ->
        let m = Memory.create () in
        Memory.write m ~addr ~bytes:4 v;
        Memory.read m ~addr ~bytes:4 ~signed:true = Word.of_int v);
    qtest "copy equality" mem_ops (fun ops ->
        let m = Memory.create () in
        List.iter (fun (addr, bytes, v) -> Memory.write m ~addr ~bytes v) ops;
        Memory.equal m (Memory.copy m));
  ]

(* --- Cache vs reference LRU model --- *)

(* [Touch (addr, k)] accesses [addr], then [k] more fetches of its line
   (the cache credits them through [credit_hits]). *)
type cache_op = Touch of int * int | Flush

(* The spec: per set, the resident lines, most recent first. *)
let reference_lru ~sets ~assoc ~line ops =
  let state = Array.make sets [] in
  let hits = ref 0 and misses = ref 0 in
  let touch addr =
    let lineno = addr / line in
    let set = lineno mod sets in
    let ways = state.(set) in
    let hit = List.mem lineno ways in
    if hit then incr hits else incr misses;
    let ways = lineno :: List.filter (fun l -> l <> lineno) ways in
    state.(set) <- List.filteri (fun i _ -> i < assoc) ways;
    hit
  in
  let outcomes =
    List.filter_map
      (function
        | Touch (addr, k) ->
            let hit = touch addr in
            for _ = 1 to k do
              ignore (touch addr)
            done;
            Some hit
        | Flush ->
            Array.fill state 0 sets [];
            None)
      ops
  in
  (outcomes, !hits, !misses)

let run_cache cfg ops =
  let c = Cache.create cfg in
  let outcomes =
    List.filter_map
      (function
        | Touch (addr, k) ->
            let hit = Cache.access c addr = Cache.Hit in
            Cache.credit_hits c k;
            Some hit
        | Flush ->
            Cache.flush c;
            None)
      ops
  in
  (outcomes, Cache.hits c, Cache.misses c)

(* 1 set x {1, 2, 64} ways, 4 x 2, and the ARM926's 8 x 64. *)
let cache_geometries =
  List.map
    (fun (sets, assoc) -> { Cache.size_bytes = sets * assoc * 32; line_bytes = 32; assoc })
    [ (1, 1); (1, 2); (1, 64); (4, 2) ]
  @ [ Cache.arm926_config ]

(* Addresses span 2-4x the capacity; half of them fall in a hot half of
   the capacity, so hits (at the MRU slot and deeper) mix with
   evictions. Streams run up to 8x the lines the range covers, long
   enough to fill every set. *)
let cache_case =
  let open QCheck.Gen in
  let* cfg = oneofl cache_geometries in
  let* mult = int_range 2 4 in
  let cap = cfg.Cache.size_bytes in
  let addr = frequency [ (1, int_bound ((mult * cap) - 1)); (1, int_bound ((cap / 2) - 1)) ] in
  let credit = frequency [ (3, return 0); (1, int_range 1 7) ] in
  let op = frequency [ (40, map2 (fun a k -> Touch (a, k)) addr credit); (1, return Flush) ] in
  let* n = int_range 1 ((8 * mult * cap / cfg.Cache.line_bytes) + 64) in
  let+ ops = list_repeat n op in
  (cfg, ops)

let print_cache_case (cfg, ops) =
  Printf.sprintf "%d B / %d-way, %d ops" cfg.Cache.size_bytes cfg.Cache.assoc (List.length ops)

let cache_props =
  [
    qtest "cache matches reference LRU"
      (QCheck.make ~print:print_cache_case cache_case)
      (fun (cfg, ops) ->
        let sets = cfg.Cache.size_bytes / (cfg.Cache.line_bytes * cfg.Cache.assoc) in
        run_cache cfg ops
        = reference_lru ~sets ~assoc:cfg.Cache.assoc ~line:cfg.Cache.line_bytes ops);
  ]

(* --- Permutations --- *)

let perm_gen = QCheck.Gen.oneofl Perm.catalog
let perm_arb = QCheck.make ~print:(Format.asprintf "%a" Perm.pp) perm_gen

let perm_props =
  [
    qtest "inverse composes to identity"
      QCheck.(pair perm_arb (small_list int))
      (fun (p, seed) ->
        let lanes = Perm.period p in
        let v = Array.init lanes (fun i -> match List.nth_opt seed i with Some x -> x | None -> i) in
        Perm.apply (Perm.inverse p) (Perm.apply p v) = v);
    qtest "apply is a bijection" perm_arb (fun p ->
        let lanes = Perm.period p in
        let v = Array.init lanes (fun i -> i) in
        let w = Perm.apply p v in
        List.sort_uniq compare (Array.to_list w) = Array.to_list v);
    qtest "CAM is sound"
      QCheck.(pair perm_arb (QCheck.make (QCheck.Gen.oneofl [ 2; 4; 8; 16 ])))
      (fun (p, lanes) ->
        (not (Perm.supported p ~lanes))
        ||
        match Perm.find_by_offsets (Perm.offsets_for p ~lanes) with
        | None -> false
        | Some q ->
            let v = Array.init lanes (fun i -> i * 7) in
            Perm.apply p v = Perm.apply q v);
  ]

(* --- Encoder roundtrip over random instructions --- *)

let gen_reg = QCheck.Gen.map Reg.make (QCheck.Gen.int_range 0 15)
let gen_vreg = QCheck.Gen.map Vreg.make (QCheck.Gen.int_range 0 15)
let gen_cond = QCheck.Gen.oneofl Cond.all
let gen_opcode = QCheck.Gen.oneofl Opcode.all
let gen_esize = QCheck.Gen.oneofl Esize.all
let gen_imm = QCheck.Gen.oneofl [ 0; 1; -1; 127; -128; 8191; -8192; 1 lsl 20; -(1 lsl 20); 0x7FFFFFFF ]

let gen_operand =
  QCheck.Gen.(
    oneof [ map (fun r -> Insn.Reg r) gen_reg; map (fun k -> Insn.Imm k) gen_imm ])

let gen_base =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> Insn.Breg r) gen_reg;
        map (fun k -> Insn.Sym (0x100000 + (k * 64))) (int_range 0 100);
      ])

let gen_scalar_insn : Insn.exec QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        map3 (fun cond dst src -> Insn.Mov { cond; dst; src }) gen_cond gen_reg gen_operand;
        (fun st ->
          let cond = gen_cond st and op = gen_opcode st and dst = gen_reg st in
          let src1 = gen_reg st and src2 = gen_operand st in
          Insn.Dp { cond; op; dst; src1; src2 });
        (fun st ->
          let esize = gen_esize st and signed = bool st and dst = gen_reg st in
          let base = gen_base st and index = gen_operand st in
          Insn.Ld { esize; signed; dst; base; index; shift = int_range 0 3 st });
        (fun st ->
          let esize = gen_esize st and src = gen_reg st in
          let base = gen_base st and index = gen_operand st in
          Insn.St { esize; src; base; index; shift = int_range 0 3 st });
        map2 (fun src1 src2 -> Insn.Cmp { src1; src2 }) gen_reg gen_operand;
        map2 (fun cond target -> Insn.B { cond; target }) gen_cond (int_range 0 10000);
        map2 (fun target region -> Insn.Bl { target; region }) (int_range 0 10000) bool;
        return Insn.Ret;
        return Insn.Halt;
      ])

let gen_vector_insn : int Vinsn.t QCheck.Gen.t =
  QCheck.Gen.(
    oneof
      [
        (fun st ->
          Vinsn.Vld
            {
              esize = gen_esize st;
              signed = bool st;
              dst = gen_vreg st;
              base = gen_base st;
              index = gen_reg st;
            });
        (fun st ->
          Vinsn.Vst
            { esize = gen_esize st; src = gen_vreg st; base = gen_base st; index = gen_reg st });
        (fun st ->
          let src2 =
            match int_range 0 2 st with
            | 0 -> Vinsn.VR (gen_vreg st)
            | 1 -> Vinsn.VImm (gen_imm st)
            | _ -> Vinsn.VConst (Array.init (1 + int_range 0 15 st) (fun i -> i - 3))
          in
          Vinsn.Vdp { op = gen_opcode st; dst = gen_vreg st; src1 = gen_vreg st; src2 });
        (fun st ->
          Vinsn.Vsat
            {
              op = (if bool st then `Add else `Sub);
              esize = gen_esize st;
              signed = bool st;
              dst = gen_vreg st;
              src1 = gen_vreg st;
              src2 = gen_vreg st;
            });
        (fun st ->
          Vinsn.Vperm { pattern = perm_gen st; dst = gen_vreg st; src = gen_vreg st });
        (fun st ->
          Vinsn.Vred { op = gen_opcode st; acc = gen_reg st; src = gen_vreg st });
      ])

let gen_minsn =
  QCheck.Gen.(
    oneof [ map (fun i -> Minsn.S i) gen_scalar_insn; map (fun v -> Minsn.V v) gen_vector_insn ])

let minsn_arb =
  QCheck.make ~print:(Format.asprintf "%a" Minsn.pp_exec) gen_minsn

let encode_props =
  [
    qtest ~count:500 "encode/decode identity"
      (QCheck.list_of_size (QCheck.Gen.int_range 1 40) minsn_arb)
      (fun insns ->
        let arr = Array.of_list insns in
        let decoded = Encode.decode (Encode.encode arr) in
        Array.length decoded = Array.length arr
        && Array.for_all2 Minsn.equal_exec decoded arr);
  ]

(* --- end-to-end: random vector loops are semantics-preserving --- *)

type genstate = { mutable defined : int list; mutable ilo_phases : int list }

let gen_body : Vinsn.asm list QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let state = { defined = []; ilo_phases = [] } in
  let fresh () = 1 + int_range 0 8 st in
  let any_defined () =
    match state.defined with
    | [] -> None
    | l -> Some (List.nth l (int_range 0 (List.length l - 1) st))
  in
  let input_syms = [ "a"; "b"; "d" ] in
  let pick_input () = List.nth input_syms (int_range 0 2 st) in
  let n = int_range 2 10 st in
  let body = ref [] in
  let emit i = body := i :: !body in
  (* always start with a load *)
  let d0 = fresh () in
  emit (vld (v d0) (pick_input ()));
  state.defined <- [ d0 ];
  for _ = 2 to n do
    match int_range 0 10 st with
    | 0 | 1 ->
        let d = fresh () in
        emit (vld (v d) (pick_input ()));
        if not (List.mem d state.defined) then state.defined <- d :: state.defined
    | 2 | 3 | 4 -> (
        match any_defined () with
        | Some s1 ->
            let d = fresh () in
            let op =
              List.nth
                [ Opcode.Add; Opcode.Sub; Opcode.Mul; Opcode.And; Opcode.Orr; Opcode.Eor; Opcode.Smin; Opcode.Smax ]
                (int_range 0 7 st)
            in
            let src2 =
              match int_range 0 2 st with
              | 0 -> (
                  match any_defined () with
                  | Some s2 -> vr (v s2)
                  | None -> vi (int_range (-8) 8 st))
              | 1 -> vi (int_range (-8) 8 st)
              | _ ->
                  let period = List.nth [ 2; 4; 8 ] (int_range 0 2 st) in
                  vc (Array.init period (fun i -> (i mod 3) - 1))
            in
            emit (vdp op (v d) (v s1) src2);
            if not (List.mem d state.defined) then state.defined <- d :: state.defined
        | None -> ())
    | 5 -> (
        (* permutation: on a defined register, random placement *)
        match any_defined () with
        | Some s ->
            let p = List.nth [ Perm.pairswap; Perm.Reverse 4; Perm.Halfswap 4; Perm.Halfswap 8; Perm.Rotate { block = 4; by = 1 } ] (int_range 0 4 st) in
            emit (Vinsn.Vperm { pattern = p; dst = v s; src = v s })
        | None -> ())
    | 6 -> (
        (* reduction into r10 *)
        match any_defined () with
        | Some s -> emit (vred Opcode.Add (r 10) (v s))
        | None -> ())
    | 7 | 8 -> (
        match any_defined () with
        | Some s -> emit (vst (v s) (if bool st then "o1" else "o2"))
        | None -> ())
    | 9 ->
        (* extension: strided (interleaved) access pair; strided writes
           to one array must use pairwise-distinct phases, so hand them
           out in order and stop at two *)
        let d = fresh () in
        let phase = int_range 0 1 st in
        emit (vlds ~stride:2 ~phase (v d) "il");
        (match state.ilo_phases with
        | [] ->
            emit (vsts ~stride:2 ~phase:0 (v d) "ilo");
            state.ilo_phases <- [ 0 ]
        | [ 0 ] ->
            emit (vsts ~stride:2 ~phase:1 (v d) "ilo");
            state.ilo_phases <- [ 0; 1 ]
        | _ -> ());
        if not (List.mem d state.defined) then state.defined <- d :: state.defined
    | _ ->
        (* unsigned saturating add over freshly loaded byte data *)
        let d1 = fresh () and d2 = fresh () in
        emit (vld ~esize:Esize.Byte ~signed:false (v d1) "pix1");
        emit (vld ~esize:Esize.Byte ~signed:false (v d2) "pix2");
        emit (Vinsn.Vsat { op = `Add; esize = Esize.Byte; signed = false; dst = v d1; src1 = v d1; src2 = v d2 });
        emit (vst ~esize:Esize.Byte (v d1) "pixo");
        state.defined <- List.sort_uniq compare (d1 :: d2 :: state.defined)
  done;
  (* make sure something observable happened *)
  (match state.defined with
  | s :: _ -> emit (vst (v s) "o1")
  | [] -> ());
  List.rev !body

let body_arb =
  QCheck.make
    ~print:(fun body ->
      String.concat "\n" (List.map (Format.asprintf "%a" Vinsn.pp_asm) body))
    gen_body

let random_loop_data count =
  [
    Kernels.warray "a" count (fun i -> ((i * 13) mod 201) - 100);
    Kernels.warray "b" count (fun i -> ((i * 7) mod 151) - 75);
    Kernels.warray "d" count (fun i -> ((i * 29) mod 61) - 30);
    Kernels.wzeros "o1" count;
    Kernels.wzeros "o2" count;
    Kernels.barray "pix1" count (fun i -> (i * 37) mod 256);
    Kernels.barray "pix2" count (fun i -> (i * 11) mod 256);
    Kernels.bzeros "pixo" count;
    Kernels.warray "il" (2 * count) (fun i -> ((i * 19) mod 91) - 45);
    Kernels.wzeros "ilo" (2 * count);
    Kernels.wzeros "redout" 16;
  ]

let equivalence_prop body =
  let count = 16 in
  let loop = { Vloop.name = "rnd"; count; body; reductions = [ (r 10, 0) ] } in
  let store_acc = Vloop.Code [ st (r 10) "redout" (i 0) ] in
  let vprog =
    {
      Vloop.name = "rndp";
      sections = [ Vloop.Loop loop; store_acc ];
      data = random_loop_data count;
    }
  in
  match Vloop.validate loop with
  | Error _ -> QCheck.assume_fail ()
  | Ok () -> (
      match Codegen.baseline vprog with
      | exception Scalarize.Error _ -> QCheck.assume_fail ()
      | base_prog ->
          let base = run_image base_prog in
          let liquid_prog = Codegen.liquid vprog in
          List.for_all
            (fun lanes ->
              let config =
                match lanes with
                | 0 -> Cpu.scalar_config
                | l -> Cpu.liquid_config ~lanes:l
              in
              let run = run_image ~config liquid_prog in
              List.for_all
                (fun name ->
                  read_array base base_prog name = read_array run liquid_prog name)
                [ "o1"; "o2"; "pixo"; "redout"; "a"; "b"; "d"; "ilo" ])
            [ 0; 2; 4; 8; 16 ])

let e2e_props =
  [
    qtest ~count:120 "random loops: baseline == liquid at every width" body_arb
      equivalence_prop;
  ]


(* --- assembler round-trip over random programs --- *)

(* Reuse the random loop-body generator: wrap bodies into programs with
   data and glue, emit assembly text, re-parse, and compare. *)
let gen_program =
  QCheck.Gen.map
    (fun body ->
      let loop = { Vloop.name = "rnd"; count = 16; body; reductions = [] } in
      let vprog =
        {
          Vloop.name = "rndp";
          sections = [ Vloop.Loop loop ];
          data = random_loop_data 16;
        }
      in
      Codegen.liquid vprog)
    gen_body

let program_arb = QCheck.make ~print:Parse.emit gen_program

let items_equal a b =
  match (a, b) with
  | Program.Label l1, Program.Label l2 -> l1 = l2
  | Program.I i1, Program.I i2 -> i1 = i2
  | Program.Label _, Program.I _ | Program.I _, Program.Label _ -> false

let parse_props =
  [
    qtest ~count:100 "asm emit/parse round-trip" program_arb (fun p ->
        let q = Parse.program ~name:p.Program.name (Parse.emit p) in
        List.length p.Program.text = List.length q.Program.text
        && List.for_all2 items_equal p.Program.text q.Program.text
        && p.Program.data = q.Program.data);
    qtest ~count:100 "encoded size accounting" program_arb (fun p ->
        let img = Image.of_program p in
        let enc = Encode.encode img.Image.code in
        Encode.size_bytes img
        = (4 * Array.length enc.Encode.words)
          + (4 * Array.length enc.Encode.pool)
          + img.Image.data_bytes);
    qtest ~count:60 "scalarized segments respect the buffer budget"
      body_arb
      (fun body ->
        let loop = { Vloop.name = "rnd"; count = 16; body; reductions = [] } in
        match Scalarize.scalarize loop with
        | exception Scalarize.Error _ -> QCheck.assume_fail ()
        | out ->
            List.for_all (fun (_, n) -> n <= 64) out.Scalarize.static_sizes);
  ]

let tests =
  word_props @ memory_props @ cache_props @ perm_props @ encode_props
  @ e2e_props @ parse_props

(* --- translator structural properties over random loops --- *)

let translate_random body ~lanes =
  let loop = { Vloop.name = "rnd"; count = 16; body; reductions = [ (r 10, 0) ] } in
  match Vloop.validate loop with
  | Error _ -> None
  | Ok () -> (
      match
        Codegen.liquid
          { Vloop.name = "rndp"; sections = [ Vloop.Loop loop ]; data = random_loop_data 16 }
      with
      | exception Scalarize.Error _ -> None
      | prog ->
          let image = Liquid_prog.Image.of_program prog in
          let sizes = Codegen.outlined_sizes
              { Vloop.name = "rndp"; sections = [ Vloop.Loop loop ]; data = random_loop_data 16 }
          in
          Some (Liquid_pipeline.Offline.translate_all ~image ~lanes (), sizes))

let translator_props =
  [
    qtest ~count:80 "microcode never exceeds its scalar source" body_arb
      (fun body ->
        match translate_random body ~lanes:4 with
        | None -> QCheck.assume_fail ()
        | Some (results, sizes) ->
            List.for_all
              (fun (_, label, result) ->
                match result with
                | Liquid_translate.Translator.Aborted _ -> true
                | Liquid_translate.Translator.Translated u ->
                    Liquid_translate.Ucode.length u
                    <= List.assoc label sizes + 1)
              results);
    qtest ~count:80 "effective width divides the trip count" body_arb
      (fun body ->
        match translate_random body ~lanes:16 with
        | None -> QCheck.assume_fail ()
        | Some (results, _) ->
            List.for_all
              (fun (_, _, result) ->
                match result with
                | Liquid_translate.Translator.Aborted _ -> true
                | Liquid_translate.Translator.Translated u ->
                    16 mod u.Liquid_translate.Ucode.width = 0)
              results);
    qtest ~count:50 "translation is deterministic" body_arb (fun body ->
        match (translate_random body ~lanes:8, translate_random body ~lanes:8) with
        | Some (a, _), Some (b, _) ->
            List.for_all2
              (fun (_, _, ra) (_, _, rb) ->
                match (ra, rb) with
                | ( Liquid_translate.Translator.Translated ua,
                    Liquid_translate.Translator.Translated ub ) ->
                    Array.for_all2
                      (fun x y ->
                        match (x, y) with
                        | Liquid_translate.Ucode.US i, Liquid_translate.Ucode.US j ->
                            Liquid_isa.Insn.equal_exec i j
                        | Liquid_translate.Ucode.UV i, Liquid_translate.Ucode.UV j ->
                            Vinsn.equal_exec i j
                        | ( Liquid_translate.Ucode.UB { cond = c1; target = t1 },
                            Liquid_translate.Ucode.UB { cond = c2; target = t2 } ) ->
                            c1 = c2 && t1 = t2
                        | Liquid_translate.Ucode.URet, Liquid_translate.Ucode.URet ->
                            true
                        | _, _ -> false)
                      ua.Liquid_translate.Ucode.uops ub.Liquid_translate.Ucode.uops
                | ( Liquid_translate.Translator.Aborted _,
                    Liquid_translate.Translator.Aborted _ ) ->
                    true
                | _, _ -> false)
              a b
        | _, _ -> QCheck.assume_fail ());
  ]

let tests = tests @ translator_props

(* --- equivalence under randomized machine configurations --- *)

let gen_config : Cpu.config QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let lanes = oneofl [ 2; 4; 8; 16 ] st in
  let base = Cpu.liquid_config ~lanes in
  {
    base with
    Cpu.vec_bus_bytes = oneofl [ 4; 8; 16; 32 ] st;
    Cpu.ucode_entries = oneofl [ 1; 2; 8 ] st;
    Cpu.max_uops = oneofl [ 8; 32; 64 ] st;
    Cpu.translator =
      Some
        {
          Cpu.cycles_per_insn = oneofl [ 1; 50; 5000 ] st;
          Cpu.kind = (if bool st then Cpu.Hardware else Cpu.Software);
        };
    Cpu.interrupt_interval = oneofl [ None; Some 500; Some 5000 ] st;
    Cpu.oracle_translation = bool st;
  }

let config_arb =
  QCheck.make
    ~print:(fun (c : Cpu.config) ->
      Printf.sprintf "lanes=%s bus=%d entries=%d uops=%d"
        (match c.Cpu.accel_lanes with Some l -> string_of_int l | None -> "none")
        c.Cpu.vec_bus_bytes c.Cpu.ucode_entries c.Cpu.max_uops)
    gen_config

let machine_robustness_props =
  [
    qtest ~count:100
      "random machines never change program results"
      (QCheck.pair body_arb config_arb)
      (fun (body, config) ->
        let loop = { Vloop.name = "rnd"; count = 16; body; reductions = [ (r 10, 0) ] } in
        let vprog =
          {
            Vloop.name = "rndp";
            sections =
              [ Vloop.Loop loop; Vloop.Code [ st (r 10) "redout" (i 0) ] ];
            data = random_loop_data 16;
          }
        in
        match Vloop.validate loop with
        | Error _ -> QCheck.assume_fail ()
        | Ok () -> (
            match Codegen.baseline vprog with
            | exception Scalarize.Error _ -> QCheck.assume_fail ()
            | base_prog ->
                let base = run_image base_prog in
                let liquid_prog = Codegen.liquid vprog in
                let run = run_image ~config liquid_prog in
                List.for_all
                  (fun name ->
                    read_array base base_prog name = read_array run liquid_prog name)
                  [ "o1"; "o2"; "pixo"; "ilo"; "redout"; "a"; "b"; "d" ]));
  ]

let tests = tests @ machine_robustness_props

(* --- compiled vector and governed ops vs the interpreter --- *)

(* The block engine runs every vector and governed micro-op through a
   closure from [Sem.compile_vector]/[Sem.compile_governed]; the stepping
   interpreter runs [Sem.exec_vector]/[Sem.exec_governed]. Each case
   builds two identical contexts, runs the op twice on each (the second
   run re-executes the same closure on the state the first left), and
   compares everything the compiled form must keep exact: registers,
   vector registers, governor counts, flags, memory, the access scratch
   prefix, the fast/masked/index-build tallies and the [Sigill] raised
   (none: only total ops compile). [e_value]/[e_taken] are skipped by
   contract and not compared.

   The same cases pin the totality predicate to the interpreter:
   [Sem.vector_total] is false exactly when [Sem.exec_vector] raises, a
   total governed op raises at no active count from 0 to the width, and
   the compilers refuse every op that is not total. *)

type sem_op = V of Vinsn.exec | G of Governed.t

type sem_case = {
  sc_lanes : int;
  sc_op : sem_op;
  sc_regs : int array;
  sc_vregs : int array array;
  sc_preds : int array;
  sc_flags : int * int;  (** a compare that sets the initial flags *)
  sc_mem : (int * int) list;  (** initial word writes *)
}

let sem_case_gen : sem_case QCheck.Gen.t =
 fun st ->
  let open QCheck.Gen in
  let lanes = oneofl [ 2; 4; 8; 16 ] st in
  let small = int_range (-4) 40 in
  let word = int_range (-1 lsl 31) ((1 lsl 31) - 1) in
  let lane_value = oneof [ small; word ] in
  let stride st = oneofl [ 2; 4 ] st in
  let vsrc st =
    match int_range 0 3 st with
    | 0 -> Vinsn.VR (gen_vreg st)
    | 1 -> Vinsn.VImm (gen_imm st)
    | 2 -> Vinsn.VConst (Array.init lanes (fun _ -> lane_value st))
    | _ -> Vinsn.VConst (Array.init (1 + int_range 0 15 st) (fun i -> i - 3))
  in
  let vinsn st =
    match int_range 0 8 st with
    | 0 ->
        Vinsn.Vld
          {
            esize = gen_esize st;
            signed = bool st;
            dst = gen_vreg st;
            base = gen_base st;
            index = gen_reg st;
          }
    | 1 ->
        Vinsn.Vst
          { esize = gen_esize st; src = gen_vreg st; base = gen_base st; index = gen_reg st }
    | 2 ->
        let stride = stride st in
        Vinsn.Vlds
          {
            esize = gen_esize st;
            signed = bool st;
            dst = gen_vreg st;
            base = gen_base st;
            index = gen_reg st;
            stride;
            phase = int_range 0 (stride - 1) st;
          }
    | 3 ->
        let stride = stride st in
        Vinsn.Vsts
          {
            esize = gen_esize st;
            src = gen_vreg st;
            base = gen_base st;
            index = gen_reg st;
            stride;
            phase = int_range 0 (stride - 1) st;
          }
    | 4 ->
        Vinsn.Vgather
          {
            esize = gen_esize st;
            signed = bool st;
            dst = gen_vreg st;
            base = gen_base st;
            index_v = gen_vreg st;
          }
    | 5 -> Vinsn.Vdp { op = gen_opcode st; dst = gen_vreg st; src1 = gen_vreg st; src2 = vsrc st }
    | 6 ->
        Vinsn.Vsat
          {
            op = (if bool st then `Add else `Sub);
            esize = gen_esize st;
            signed = bool st;
            dst = gen_vreg st;
            src1 = gen_vreg st;
            src2 = gen_vreg st;
          }
    | 7 -> Vinsn.Vperm { pattern = perm_gen st; dst = gen_vreg st; src = gen_vreg st }
    | _ -> Vinsn.Vred { op = gen_opcode st; acc = gen_reg st; src = gen_vreg st }
  in
  let gov st = if bool st then Governed.Pred Governed.p0 else Governed.Vl in
  let regs = Array.init 16 (fun _ -> oneof [ small; small; gen_imm ] st) in
  let op =
    match int_range 0 9 st with
    | 0 | 1 | 2 | 3 -> V (vinsn st)
    | 4 | 5 | 6 -> G (Governed.Op { gov = gov st; v = vinsn st })
    | 7 -> (
        let gov = gov st and pattern = perm_gen st and base = gen_base st in
        let counter = gen_reg st and esize = gen_esize st in
        (* the element counter may start below 0: [Perm.src_index] and
           the compiled offset mask both floor block and position *)
        regs.(Reg.index counter) <- int_range (-40) 40 st;
        match int_range 0 2 st with
        | 0 ->
            G (Governed.Tbl { gov; esize; signed = bool st; dst = gen_vreg st; base; counter; pattern })
        | 1 -> G (Governed.Tblst { gov; esize; src = gen_vreg st; base; counter; pattern })
        | _ -> G (Governed.Tblidx { gov; pattern }))
    | 8 ->
        G (Governed.Set_active { into = gov st; counter = gen_reg st; bound = int_range (-5) 40 st })
    | _ ->
        G
          (Governed.Advance
             { dst = gen_reg st; by = (if bool st then Governed.Lanes else Governed.Granted) })
  in
  (* a count is full at [lanes] or more, partial below *)
  let count st = oneof [ int_range 0 lanes; int_range lanes 20 ] st in
  {
    sc_lanes = lanes;
    sc_op = op;
    sc_regs = regs;
    sc_vregs =
      Array.init Vreg.count (fun _ -> Array.init (Width.lanes Width.max) (fun _ -> lane_value st));
    sc_preds = Array.init Governed.slot_count (fun _ -> count st);
    sc_flags = (small st, small st);
    sc_mem =
      List.init 48 (fun _ ->
          let addr =
            if bool st then 0x100000 + (4 * int_range 0 1800 st) else 4 * int_range 0 64 st
          in
          (addr, word st));
  }

let print_sem_case c =
  Format.asprintf "lanes %d, %a, preds %s" c.sc_lanes
    (fun ppf -> function
      | V v -> Vinsn.pp_exec ppf v
      | G g -> Governed.pp ppf g)
    c.sc_op
    (String.concat " " (Array.to_list (Array.map string_of_int c.sc_preds)))

let sem_ctx c =
  let mem = Memory.create () in
  List.iter (fun (addr, v) -> Memory.write mem ~addr ~bytes:4 v) c.sc_mem;
  let ctx = Sem.create_ctx mem in
  Array.blit c.sc_regs 0 ctx.Sem.regs 0 16;
  Array.iteri (fun i l -> Array.blit l 0 ctx.Sem.vregs.(i) 0 (Array.length l)) c.sc_vregs;
  Array.blit c.sc_preds 0 ctx.Sem.preds 0 (Array.length c.sc_preds);
  ctx.Sem.flags <- Flags.of_compare (fst c.sc_flags) (snd c.sc_flags);
  ctx.Sem.lanes <- c.sc_lanes;
  ctx

(* Everything the two forms must agree on, as one comparable value. *)
let sem_observe (ctx : Sem.ctx) sigill =
  let n = ctx.Sem.e_nacc in
  ( ( Array.copy ctx.Sem.regs,
      Array.map Array.copy ctx.Sem.vregs,
      Array.copy ctx.Sem.preds,
      (ctx.Sem.flags :> int) ),
    ( Array.sub ctx.Sem.acc_addr 0 n,
      Array.sub ctx.Sem.acc_bytes 0 n,
      Array.sub ctx.Sem.acc_write 0 n ),
    (ctx.Sem.n_pred_fast, ctx.Sem.n_pred_masked, ctx.Sem.n_tbl_builds),
    sigill )

let sem_props =
  [
    qtest ~count:1000 "sem: compiled ops match the interpreter"
      (QCheck.make ~print:print_sem_case sem_case_gen)
      (fun c ->
        let run f =
          match f () with () -> None | exception Sem.Sigill m -> Some m
        in
        let twice ctx f =
          let first = run f in
          let second = run f in
          (sem_observe ctx (first, second), ctx.Sem.mem)
        in
        let lanes = c.sc_lanes in
        let interp = sem_ctx c and compiled = sem_ctx c in
        let total, interp_f, compile =
          match c.sc_op with
          | V v ->
              ( Sem.vector_total ~lanes v,
                (fun () -> Sem.exec_vector interp v),
                fun () -> Sem.compile_vector compiled ~lanes v )
          | G g ->
              ( Sem.governed_total ~lanes g,
                (fun () -> Sem.exec_governed interp g),
                fun () -> Sem.compile_governed compiled ~lanes g )
        in
        let ((_, _, _, (raised, _)) as a), mem_a = twice interp interp_f in
        let agrees =
          match c.sc_op with
          | V _ -> total = (raised = None)
          | G g ->
              (not total)
              || List.for_all
                   (fun k ->
                     let ctx = sem_ctx c in
                     Array.fill ctx.Sem.preds 0 (Array.length ctx.Sem.preds) k;
                     run (fun () -> Sem.exec_governed ctx g) = None)
                   (List.init (lanes + 1) Fun.id)
        in
        agrees
        &&
        match compile () with
        | exception Invalid_argument _ -> not total
        | compiled_f ->
            let b, mem_b = twice compiled compiled_f in
            total && a = b && Memory.equal mem_a mem_b);
  ]

let tests = tests @ sem_props
