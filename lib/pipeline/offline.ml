open Liquid_visa
open Liquid_prog
open Liquid_translate
module Memory = Liquid_machine.Memory

let step_budget = 5_000_000

let translate_region_result ?(max_uops = Translator.default_max_uops)
    ?(backend = Backend.fixed) ?state ?tally ~image ~lanes ~entry () =
  let mem =
    match state with
    | Some (live : Sem.ctx) -> Memory.copy live.Sem.mem
    | None ->
        let mem = Memory.create () in
        Image.load_memory image mem;
        mem
  in
  let ctx = Sem.create_ctx mem in
  (match state with
  | Some (live : Sem.ctx) ->
      Array.blit live.Sem.regs 0 ctx.Sem.regs 0 (Array.length live.Sem.regs);
      ctx.Sem.flags <- live.Sem.flags
  | None -> ());
  let tr = Translator.create { Translator.lanes; max_uops; backend } in
  let pc = ref entry in
  let steps = ref 0 in
  let failure = ref None in
  let fail fault =
    failure :=
      Some (Diag.make ~fault ~pc:!pc ~cycle:0 ~retired:!steps)
  in
  let running = ref true in
  while !running && Option.is_none !failure do
    incr steps;
    if !steps > step_budget then fail Diag.Region_nonterminating
    else if !pc < 0 || !pc >= Array.length image.Image.code then
      fail Diag.Wild_pc
    else
      match image.Image.code.(!pc) with
      | Minsn.V _ -> fail Diag.Region_vector_insn
      | Minsn.S insn -> (
          let outcome = Sem.exec_scalar ctx ~pc:!pc insn in
          let value = ctx.Sem.e_value in
          Translator.feed tr
            (if value = Sem.no_value then Event.make ~pc:!pc insn
             else Event.make ~pc:!pc ~value insn);
          match outcome with
          | Sem.Next -> incr pc
          | Sem.Jump t -> pc := t
          | Sem.Return | Sem.Stop -> running := false
          | Sem.Call _ -> running := false)
  done;
  match !failure with
  | Some d -> Error d
  | None ->
      let r = Translator.finish tr in
      (match tally with
      | Some cell -> cell := Translator.perm_tally tr
      | None -> ());
      Ok r

let translate_region ?max_uops ?backend ?state ~image ~lanes ~entry () =
  match
    translate_region_result ?max_uops ?backend ?state ~image ~lanes ~entry ()
  with
  | Ok r -> r
  | Error d -> raise (Diag.Error d)

(* Each region copies [state], which is the same state as a fresh load. *)
let translate_all ?max_uops ?backend ~image ~lanes () =
  let mem = Memory.create () in
  Image.load_memory image mem;
  let state = Sem.create_ctx mem in
  List.map
    (fun (entry, label) ->
      ( entry,
        label,
        translate_region ?max_uops ?backend ~state ~image ~lanes ~entry () ))
    image.Image.region_entries
