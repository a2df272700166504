(** Tuples are flat arrays of values; helpers for keys and ordering. *)

type t = Value.t array

val key : int array -> t -> t
(** Project the given column positions into a key. *)

val compare_key : t -> t -> int
(** Lexicographic comparison of two keys (or whole tuples). A shorter key
    that is a prefix of a longer one compares smaller, which is what B+-tree
    prefix scans rely on. *)

val compare_cols : int array -> t -> t -> int
(** [compare_cols cols a b] is [compare_key (key cols a) (key cols b)]
    without building the keys; it allocates nothing. *)

val equal : t -> t -> bool

val hash_key : t -> int

val to_string : t -> string
(** Pipe-separated rendering used by tests and the experiment harness. *)

val size_bytes : t -> int
