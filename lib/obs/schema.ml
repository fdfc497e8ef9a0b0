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

let stats_keys =
  [
    "cycles";
    "fetches";
    "scalar_insns";
    "vector_insns";
    "uops_retired";
    "loads";
    "stores";
    "branches";
    "branch_mispredicts";
    "icache_hits";
    "icache_misses";
    "dcache_hits";
    "dcache_misses";
    "region_calls";
    "ucode_hits";
    "ucode_installs";
    "ucode_evictions";
    "translations_started";
    "translations_aborted";
    "translation_busy_cycles";
  ]

let snapshot (j : Json.t) =
  let errs = ref [] in
  (if not (has_ty T_obj j) then errs := [ "document: expected object" ]
   else begin
     require_schema errs "liquid-obs-snapshot/1" j;
     field errs "document" j "label" T_str (fun _ -> ());
     field errs "document" j "variant" T_str (fun _ -> ());
     field errs "document" j "stats" T_obj (fun stats ->
         List.iter
           (fun k -> field errs "stats" stats k T_int (fun _ -> ()))
           stats_keys);
     (* icache/dcache may be null (unit absent) or {hits,misses} *)
     List.iter
       (fun name ->
         match Json.member name j with
         | None -> errs := Printf.sprintf "document: missing field %S" name :: !errs
         | Some Json.Null -> ()
         | Some (Json.Obj _ as c) ->
             field errs name c "hits" T_int (fun _ -> ());
             field errs name c "misses" T_int (fun _ -> ())
         | Some _ ->
             errs := Printf.sprintf "%s: expected object or null" name :: !errs)
       [ "icache"; "dcache" ];
     field errs "document" j "branch_pred" T_obj (fun b ->
         field errs "branch_pred" b "lookups" T_int (fun _ -> ());
         field errs "branch_pred" b "mispredicts" T_int (fun _ -> ()));
     field errs "document" j "ucode_cache" T_obj (fun u ->
         List.iter
           (fun k -> field errs "ucode_cache" u k T_int (fun _ -> ()))
           [ "installs"; "replacements"; "evictions"; "occupancy"; "max_occupancy" ]);
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
     field errs "document" j "predication" T_obj (fun p ->
         List.iter
           (fun k -> field errs "predication" p k T_int (fun _ -> ()))
           [ "fast_iters"; "masked_iters"; "dispatched" ]);
     field errs "document" j "permutation" T_obj (fun p ->
         List.iter
           (fun k -> field errs "permutation" p k T_int (fun _ -> ()))
           [ "seen"; "recovered"; "aborted"; "tbl_index_builds" ]);
     field errs "document" j "histograms" T_obj (fun hs ->
         List.iter
           (fun name ->
             field errs "histograms" hs name T_obj (fun h ->
                 check_hist errs ("histograms." ^ name) h))
           [
             "translation_latency_cycles";
             "inter_call_gap_cycles";
             "region_uops";
           ]);
     field errs "document" j "invariants" T_obj (fun inv ->
         field errs "invariants" inv "checked" T_int (fun _ -> ());
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
       [ "abort_classes"; "divergences" ];
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
