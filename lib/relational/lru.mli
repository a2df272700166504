(** A table of at most [create]'s number of entries: adding a key to a
    full table drops the least recently found or added entry (an O(n) scan,
    for small caps). *)

type ('k, 'v) t

val create : int -> ('k, 'v) t

val find : ('k, 'v) t -> 'k -> 'v option
val add : ('k, 'v) t -> 'k -> 'v -> unit
val remove : ('k, 'v) t -> 'k -> unit
val length : ('k, 'v) t -> int
