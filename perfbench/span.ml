(* In-memory spans for the traced run.

   A span wraps one call from bench.exe into a library. Spans nest by
   call: the innermost open span is the parent of the next one. Only the
   main domain opens spans, so plain references suffice. When tracing is
   off a span costs one bool test. *)

type t = {
  id : int;
  name : string;  (** a per-layer metric name; its layer is the prefix *)
  parent : int;  (** -1 for the root span of a unit *)
  unit_ix : int;  (** shared by every span of one unit of work *)
  t0 : int64;  (** monotonic ns *)
  mutable t1 : int64;
  mutable minor_words : float;  (** allocated while the span was open *)
  mutable major_words : float;
}

let enabled = ref false
let unit_ix = ref 0
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let g0 = Gc.quick_stat () in
    let s =
      {
        id = !next_id;
        name;
        parent;
        unit_ix = !unit_ix;
        t0 = Monotonic_clock.now ();
        t1 = 0L;
        minor_words = g0.Gc.minor_words;
        major_words = g0.Gc.major_words;
      }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Monotonic_clock.now ();
        let g1 = Gc.quick_stat () in
        s.minor_words <- g1.Gc.minor_words -. s.minor_words;
        s.major_words <- g1.Gc.major_words -. s.major_words;
        stack := List.tl !stack;
        recorded := s :: !recorded)
  end

let duration s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

let layer s =
  match String.index_opt s.name '.' with
  | Some i -> String.sub s.name 0 i
  | None -> s.name

(* Self time: the span's duration minus the time its children cover.
   Children of one span never overlap (one domain, nested calls). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let sum = Option.value ~default:0. (Hashtbl.find_opt children s.parent) in
      Hashtbl.replace children s.parent (sum +. duration s))
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered))
    spans

(* Chrome trace-event JSON ("X" complete events, microseconds), which
   Perfetto and chrome://tracing open. *)
let to_chrome spans =
  let module Json = Liquid_obs.Json in
  let base = List.fold_left (fun m s -> min m s.t0) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer s));
        ("ph", Json.Str "X");
        ("ts", Json.Float (us s.t0));
        ("dur", Json.Float (us s.t1 -. us s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [
              ("id", Json.Int s.id);
              ("parent", Json.Int s.parent);
              ("unit", Json.Int s.unit_ix);
              ("minor_words", Json.Float s.minor_words);
              ("major_words", Json.Float s.major_words);
            ] );
      ]
  in
  let chronological = List.sort (fun a b -> compare a.id b.id) spans in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event chronological));
      ("displayTimeUnit", Json.Str "ns");
    ]
