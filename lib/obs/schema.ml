(* Validators are hand-rolled structural walks: a tiny combinator set
   (require a field, check its shape) over the Json tree. *)

type ty = T_int | T_num | T_str | T_bool | T_list | T_obj

let ty_name = function
  | T_int -> "int"
  | T_num -> "number"
  | T_str -> "string"
  | T_bool -> "bool"
  | T_list -> "list"
  | T_obj -> "object"

let has_ty ty (j : Json.t) =
  match (ty, j) with
  | T_int, Json.Int _ -> true
  | T_num, (Json.Int _ | Json.Float _) -> true
  | T_str, Json.Str _ -> true
  | T_bool, Json.Bool _ -> true
  | T_list, Json.List _ -> true
  | T_obj, Json.Obj _ -> true
  | _ -> false

(* [field errs path obj name ty k]: require [obj.name] of shape [ty];
   on success run [k] on the value for nested checks. *)
let field errs path obj name ty k =
  match Json.member name obj with
  | None -> errs := Printf.sprintf "%s: missing field %S" path name :: !errs
  | Some v ->
      if has_ty ty v then k v
      else
        errs :=
          Printf.sprintf "%s.%s: expected %s" path name (ty_name ty) :: !errs

let require_schema errs tag obj =
  match Json.member "schema" obj with
  | Some (Json.Str s) when s = tag -> ()
  | Some (Json.Str s) ->
      errs := Printf.sprintf "schema: expected %S, found %S" tag s :: !errs
  | _ -> errs := Printf.sprintf "schema: missing tag %S" tag :: !errs

let check_hist errs path h =
  let f name ty = field errs path h name ty (fun _ -> ()) in
  f "count" T_int;
  f "total" T_int;
  f "min" T_int;
  f "max" T_int;
  f "mean" T_num;
  field errs path h "buckets" T_list (fun v ->
      match v with
      | Json.List bs ->
          List.iteri
            (fun i b ->
              let bpath = Printf.sprintf "%s.buckets[%d]" path i in
              if has_ty T_obj b then (
                field errs bpath b "lo" T_int (fun _ -> ());
                field errs bpath b "hi" T_int (fun _ -> ());
                field errs bpath b "count" T_int (fun _ -> ()))
              else errs := Printf.sprintf "%s: expected object" bpath :: !errs)
            bs
      | _ -> ())

let snapshot (j : Json.t) =
  let errs = ref [] in
  (if not (has_ty T_obj j) then errs := [ "document: expected object" ]
   else begin
     require_schema errs "liquid-obs-snapshot/1" j;
     field errs "document" j "label" T_str (fun _ -> ());
     field errs "document" j "variant" T_str (fun _ -> ());
     List.iter
       (fun section ->
         field errs "document" j section T_obj (fun obj ->
             List.iter
               (fun (c : Snapshot.counter) ->
                 if String.equal c.section section then
                   field errs section obj c.key T_int (fun _ -> ()))
               Snapshot.registry))
       Snapshot.sections;
     field errs "document" j "regions" T_list (fun v ->
         match v with
         | Json.List rs ->
             List.iteri
               (fun i r ->
                 let path = Printf.sprintf "regions[%d]" i in
                 if has_ty T_obj r then (
                   field errs path r "label" T_str (fun _ -> ());
                   field errs path r "entry" T_int (fun _ -> ());
                   field errs path r "calls" T_int (fun _ -> ());
                   field errs path r "ucode_served" T_int (fun _ -> ());
                   field errs path r "scalar_calls" T_int (fun _ -> ());
                   field errs path r "outcome" T_str (fun _ -> ());
                   field errs path r "width" T_int (fun _ -> ());
                   field errs path r "uops" T_int (fun _ -> ()))
                 else errs := Printf.sprintf "%s: expected object" path :: !errs)
               rs
         | _ -> ());
     field errs "document" j "histograms" T_obj (fun hs ->
         List.iter
           (fun (name, _) ->
             field errs "histograms" hs name T_obj (fun h ->
                 check_hist errs ("histograms." ^ name) h))
           Snapshot.histograms);
     field errs "document" j "invariants" T_obj (fun inv ->
         field errs "invariants" inv "checked" T_int (function
           | Json.Int n when n <> Snapshot.invariant_count ->
               errs :=
                 Printf.sprintf "invariants.checked: %d, but %d are registered" n
                   Snapshot.invariant_count
                 :: !errs
           | _ -> ());
         field errs "invariants" inv "violations" T_list (fun _ -> ()))
   end);
  List.rev !errs

let fuzz_report (j : Json.t) =
  let errs = ref [] in
  (if not (has_ty T_obj j) then errs := [ "document: expected object" ]
   else begin
     require_schema errs "liquid-fuzz-report/1" j;
     let f name ty = field errs "document" j name ty (fun _ -> ()) in
     f "seed" T_int;
     f "cases" T_int;
     f "faults" T_bool;
     f "runs" T_int;
     f "installs" T_int;
     f "fault_cells" T_int;
     f "faults_fired" T_int;
     f "clean_cases" T_int;
     f "divergent_cases" T_int;
     (* count objects: every member must be an int *)
     List.iter
       (fun name ->
         field errs "document" j name T_obj (fun v ->
             match v with
             | Json.Obj kvs ->
                 List.iter
                   (fun (k, v) ->
                     if not (has_ty T_int v) then
                       errs := Printf.sprintf "%s.%s: expected int" name k :: !errs)
                   kvs
             | _ -> ()))
       [ "abort_classes"; "fault_kinds"; "divergences" ];
     field errs "document" j "trip_counts" T_obj (fun h ->
         check_hist errs "trip_counts" h);
     field errs "document" j "divergent" T_list (fun v ->
         match v with
         | Json.List cs ->
             List.iteri
               (fun i c ->
                 let path = Printf.sprintf "divergent[%d]" i in
                 if has_ty T_obj c then (
                   field errs path c "case" T_int (fun _ -> ());
                   field errs path c "program" T_str (fun _ -> ());
                   field errs path c "failures" T_list (fun v ->
                       match v with
                       | Json.List fs ->
                           List.iteri
                             (fun k f ->
                               let fpath = Printf.sprintf "%s.failures[%d]" path k in
                               if has_ty T_obj f then (
                                 field errs fpath f "label" T_str (fun _ -> ());
                                 field errs fpath f "kind" T_str (fun _ -> ()))
                               else
                                 errs :=
                                   Printf.sprintf "%s: expected object" fpath
                                   :: !errs)
                             fs
                       | _ -> ()))
                 else errs := Printf.sprintf "%s: expected object" path :: !errs)
               cs
         | _ -> ())
   end);
  List.rev !errs
