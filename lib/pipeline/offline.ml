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
  let code = image.Image.code in
  let pc = ref entry in
  let steps = ref 0 in
  let failure = ref None in
  let fail fault =
    failure :=
      Some (Diag.make ~fault ~pc:!pc ~cycle:0 ~retired:!steps)
  in
  let running = ref true in
  let advance = function
    | Sem.Next -> incr pc
    | Sem.Jump t -> pc := t
    | Sem.Return | Sem.Stop | Sem.Call _ -> running := false
  in
  (* The verified-iteration value buffer, sized once the session reaches
     Verify: [[||]] until then and when its pattern is not the image's
     straight-line run (every iteration then steps per event). *)
  let body = ref None in
  let batch () =
    match !body with
    | Some values -> values
    | None ->
        let pattern = Translator.iteration_pattern tr in
        let values =
          if Blocks.is_image_run image pattern then
            Array.make (Array.length pattern) Sem.no_value
          else [||]
        in
        body := Some values;
        values
  in
  while !running && Option.is_none !failure do
    let values =
      if Translator.iteration_top tr = !pc then batch () else [||]
    in
    let n = Array.length values in
    if n > 0 && !steps + n <= step_budget then begin
      (* A verified iteration at the loop top: the pattern's pcs are in
         the image and scalar, and the budget admits every step, so
         none of the per-step diagnostics can fire; only values the
         session reads are captured. *)
      let capture = Translator.needs_values tr in
      for k = 0 to n - 1 do
        incr steps;
        match code.(!pc) with
        | Minsn.S insn ->
            let outcome = Sem.exec_scalar ctx ~pc:!pc insn in
            if capture then values.(k) <- ctx.Sem.e_value;
            advance outcome
        | Minsn.V _ -> assert false
      done;
      Translator.feed_iteration tr values
    end
    else begin
      incr steps;
      if !steps > step_budget then fail Diag.Region_nonterminating
      else if !pc < 0 || !pc >= Array.length code then fail Diag.Wild_pc
      else
        match code.(!pc) with
        | Minsn.V _ -> fail Diag.Region_vector_insn
        | Minsn.S insn ->
            let outcome = Sem.exec_scalar ctx ~pc:!pc insn in
            (if not (Translator.failed tr) then
               let value = ctx.Sem.e_value in
               Translator.feed tr
                 (if value = Sem.no_value then Event.make ~pc:!pc insn
                  else Event.make ~pc:!pc ~value insn));
            advance outcome
    end
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
