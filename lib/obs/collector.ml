open Liquid_pipeline

type t = { jsonl : out_channel; mutable n_events : int }

let create ~jsonl = { jsonl; n_events = 0 }

let emit_line t fields =
  Json.to_channel ~pretty:false t.jsonl (Json.Obj (("seq", Json.Int t.n_events) :: fields));
  output_char t.jsonl '\n'

let on_trace t ev =
  t.n_events <- t.n_events + 1;
  match ev with
  | Cpu.T_insn _ | Cpu.T_uop _ -> ()
  | Cpu.T_region { label; event } ->
      emit_line t
        ([ ("type", Json.Str "region"); ("label", Json.Str label) ]
        @
        match event with
        | `Scalar_call -> [ ("event", Json.Str "scalar_call") ]
        | `Ucode_call -> [ ("event", Json.Str "ucode_call") ]
        | `Translated w -> [ ("event", Json.Str "translated"); ("width", Json.Int w) ]
        | `Aborted a ->
            [
              ("event", Json.Str "aborted");
              ("abort", Json.Str (Liquid_translate.Abort.to_string a));
            ])
  | Cpu.T_translation { entry; label; width; uops; latency } ->
      emit_line t
        [
          ("type", Json.Str "translation");
          ("label", Json.Str label);
          ("entry", Json.Int entry);
          ("width", Json.Int width);
          ("uops", Json.Int uops);
          ("latency_cycles", Json.Int latency);
        ]

let wrap t (config : Cpu.config) =
  let hook =
    match config.Cpu.on_trace with
    | None -> on_trace t
    | Some existing ->
        fun ev ->
          existing ev;
          on_trace t ev
  in
  { config with Cpu.on_trace = Some hook }

let events t = t.n_events
