(** Minimal growable array (OCaml 5.1 predates [Dynarray]). *)

type 'a t

val create : unit -> 'a t
(** An empty vector. *)

val length : 'a t -> int
(** Number of elements pushed so far. *)

val push : 'a t -> 'a -> unit
(** Append an element, growing the backing store as needed. *)

val push_int : int t -> int -> unit
(** [push] for an [int] vector, without the polymorphic store's write
    barrier: the translator's per-event value recordings. *)

val get : 'a t -> int -> 'a
(** [get v i] — the [i]th element; bounds-checked. *)

val set : 'a t -> int -> 'a -> unit
(** Overwrite an existing element; bounds-checked. *)

val to_array : 'a t -> 'a array
(** A fresh array of the current contents. *)

val to_list : 'a t -> 'a list
(** The current contents, in push order. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
(** Indexed iteration in push order. *)

val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
(** Left fold over the contents. *)

val exists : ('a -> bool) -> 'a t -> bool
(** Whether any element satisfies the predicate. *)
