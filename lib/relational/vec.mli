(** Growable array (OCaml 5.1 has no stdlib Dynarray). *)

type 'a t

val create : fill:'a -> 'a t
(** [fill] fills free slots: make it an immediate such as [None], or each
    growth past 256 slots forces a minor collection. *)

val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val clear : 'a t -> unit
(** Drop every element; the next {!push} returns index 0. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_seq : 'a t -> (int * 'a) Seq.t
