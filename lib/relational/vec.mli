(** Growable array (OCaml 5.1 has no stdlib Dynarray). *)

type 'a t

val create : fill:'a -> 'a t
(** [fill] fills free slots and is what {!get} reads past the end: make it
    an immediate such as [None] or a long-lived block, or each growth past
    256 slots forces a minor collection. *)

val length : 'a t -> int
val push : 'a t -> 'a -> int
(** Appends and returns the index of the new element. *)

val clear : 'a t -> unit
(** Drop every element; the next {!push} returns index 0. *)

val get : 'a t -> int -> 'a
(** The element at this index, or [fill] outside [0, length): one range
    check, and no exception. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument outside [0, length). *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_seq : 'a t -> (int * 'a) Seq.t
