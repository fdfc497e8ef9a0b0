open Liquid_scalarize
open Liquid_workloads
open Liquid_harness
module Hist = Liquid_obs.Hist
module Json = Liquid_obs.Json
module Schema = Liquid_obs.Schema

type report = {
  r_seed : int;
  r_cases : int;
  r_faults : bool;
  r_runs : int;
  r_installs : int;
  r_fault_cells : int;
  r_faults_fired : int;
  r_fault_kinds : (string * int) list;
  r_clean : int;
  r_divergent : (int * string * Differ.divergence list) list;
  r_aborts : (string * int) list;
  r_div_hist : (string * int) list;
  r_trip_hist : Hist.t;
}

(* Distinct per-case fault stream, decorrelated from the generator's
   own stream (which mixes the index differently). *)
let fault_seed_of ~seed ~index = seed lxor ((index * 0x9E3779B9) + 0x61C88647)

let trip_counts (p : Vloop.program) =
  List.filter_map
    (function Vloop.Loop l -> Some l.Vloop.count | Vloop.Code _ -> None)
    p.Vloop.sections

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [])

(* Case [index]: its name, its program — generated, or with [workloads]
   workload [index mod n]'s — and its fault seed. *)
let case_of ~workloads ~faults ~seed index =
  let name, p =
    match workloads with
    | [] -> (Gen.case_name ~seed ~index, Gen.generate ~seed ~index)
    | ws ->
        let w = List.nth ws (index mod List.length ws) in
        (w.Workload.name, w.Workload.program)
  in
  (name, p, if faults then Some (fault_seed_of ~seed ~index) else None)

let run ?domains ?(workloads = []) ?(faults = true) ~seed ~cases () =
  let one index =
    let _, p, fault_seed = case_of ~workloads ~faults ~seed index in
    (trip_counts p, Differ.run_case ?fault_seed p)
  in
  let results = Runner.run_many_result ?domains one (List.init cases Fun.id) in
  let aborts = Hashtbl.create 16 in
  let div_hist = Hashtbl.create 16 in
  let fault_kinds = Hashtbl.create 4 in
  let trip_hist = Hist.create () in
  let runs = ref 0 and installs = ref 0 and clean = ref 0 in
  let fault_cells = ref 0 and fired = ref 0 in
  let divergent = ref [] in
  List.iteri
    (fun index result ->
      let name () = match case_of ~workloads ~faults ~seed index with n, _, _ -> n in
      match result with
      | Error (f : int Runner.failure) ->
          (* a case that crashed the worker is itself a divergence *)
          let d =
            {
              Differ.d_label = "worker";
              d_kind = Differ.K_crash (Printexc.to_string f.Runner.f_exn);
            }
          in
          bump div_hist "worker crash" 1;
          divergent := (index, name (), [ d ]) :: !divergent
      | Ok (trips, (o : Differ.outcome)) ->
          List.iter (Hist.add trip_hist) trips;
          runs := !runs + o.Differ.o_runs;
          installs := !installs + o.Differ.o_installs;
          List.iter (fun (cls, n) -> bump aborts cls n) o.Differ.o_aborts;
          List.iter
            (fun f -> bump fault_kinds (Liquid_faults.Fault.kind_name f) 1)
            o.Differ.o_fault_cells;
          fault_cells := !fault_cells + List.length o.Differ.o_fault_cells;
          fired := !fired + o.Differ.o_faults_fired;
          if o.Differ.o_divergences = [] then incr clean
          else begin
            List.iter
              (fun (d : Differ.divergence) ->
                bump div_hist
                  (d.Differ.d_label ^ " "
                  ^ Differ.kind_to_string
                      (match d.Differ.d_kind with
                      | Differ.K_crash _ -> Differ.K_crash ""
                      | k -> k))
                  1)
              o.Differ.o_divergences;
            divergent := (index, name (), o.Differ.o_divergences) :: !divergent
          end)
    results;
  {
    r_seed = seed;
    r_cases = cases;
    r_faults = faults;
    r_runs = !runs;
    r_installs = !installs;
    r_fault_cells = !fault_cells;
    r_faults_fired = !fired;
    r_fault_kinds = sorted_bindings fault_kinds;
    r_clean = !clean;
    r_divergent = List.rev !divergent;
    r_aborts = sorted_bindings aborts;
    r_div_hist = sorted_bindings div_hist;
    r_trip_hist = trip_hist;
  }

let shrunk_repro ?(workloads = []) ?(faults = true) ~seed ~index () =
  let _, p, fault_seed = case_of ~workloads ~faults ~seed index in
  let o = Differ.run_case ?fault_seed p in
  match o.Differ.o_divergences with
  | [] -> None
  | _ ->
      let sig_ = Differ.signature o in
      Some (Shrink.minimize ~failing:(Differ.fails_like ?fault_seed sig_) p)

let to_json r =
  let counts kvs = Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs) in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "liquid-fuzz-report/1");
        ("seed", Json.Int r.r_seed);
        ("cases", Json.Int r.r_cases);
        ("faults", Json.Bool r.r_faults);
        ("runs", Json.Int r.r_runs);
        ("installs", Json.Int r.r_installs);
        ("fault_cells", Json.Int r.r_fault_cells);
        ("faults_fired", Json.Int r.r_faults_fired);
        ("fault_kinds", counts r.r_fault_kinds);
        ("clean_cases", Json.Int r.r_clean);
        ("divergent_cases", Json.Int (List.length r.r_divergent));
        ("abort_classes", counts r.r_aborts);
        ("divergences", counts r.r_div_hist);
        ("trip_counts", Hist.to_json r.r_trip_hist);
        ( "divergent",
          Json.List
            (List.map
               (fun (index, program, divs) ->
                 Json.Obj
                   [
                     ("case", Json.Int index);
                     ("program", Json.Str program);
                     ( "failures",
                       Json.List
                         (List.map
                            (fun (d : Differ.divergence) ->
                              Json.Obj
                                [
                                  ("label", Json.Str d.Differ.d_label);
                                  ( "kind",
                                    Json.Str (Differ.kind_to_string d.Differ.d_kind)
                                  );
                                ])
                            divs) );
                   ])
               r.r_divergent) );
      ]
  in
  (match Schema.fuzz_report doc with
  | [] -> ()
  | errs ->
      invalid_arg
        (Printf.sprintf "Campaign.to_json: invalid document: %s"
           (String.concat "; " errs)));
  doc

(* A titled histogram, one "  key count" row per bucket; nothing if empty. *)
let pp_counts ppf ?(width = 28) title kvs =
  if kvs <> [] then begin
    Format.fprintf ppf "%s:@ " title;
    List.iter (fun (k, n) -> Format.fprintf ppf "  %-*s %d@ " width k n) kvs
  end

let pp ppf r =
  Format.fprintf ppf
    "@[<v>fuzz campaign seed %d: %d cases (%s), %d runs, %d installs@ \
     fault cells %d, fired %d@ clean %d, divergent %d@ "
    r.r_seed r.r_cases
    (if r.r_faults then "with faults" else "no faults")
    r.r_runs r.r_installs r.r_fault_cells r.r_faults_fired r.r_clean
    (List.length r.r_divergent);
  pp_counts ppf "abort classes" r.r_aborts;
  pp_counts ppf "fault kinds" r.r_fault_kinds;
  Format.fprintf ppf "trip counts: %d loops, min %d, max %d, mean %.1f@ "
    (Hist.count r.r_trip_hist)
    (Hist.min_value r.r_trip_hist)
    (Hist.max_value r.r_trip_hist)
    (Hist.mean r.r_trip_hist);
  if r.r_div_hist <> [] then begin
    pp_counts ppf ~width:36 "divergences" r.r_div_hist;
    Format.fprintf ppf "failing cases:@ ";
    List.iter
      (fun (index, program, divs) ->
        Format.fprintf ppf "  case %d (%s): %s@ " index program
          (String.concat ", "
             (List.map
                (fun (d : Differ.divergence) ->
                  d.Differ.d_label ^ " " ^ Differ.kind_to_string d.Differ.d_kind)
                divs)))
      r.r_divergent
  end;
  Format.fprintf ppf "@]"
