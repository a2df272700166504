(** The byte codec of a path of non-negative integer components: the one
    definition of the DEWEY/ORDPATH order key (the XML layer's [Dewey]
    calls it) and what the [PATH_SHIFT] scalar ({!Expr.func}) reads and
    writes.

    Each component becomes 1–4 bytes whose first byte gives the length:
    [00]–[7f] one byte, [80]–[bf] two, [c0]–[df] three, [e0]–[ef] four,
    longer encodings holding larger values. So bytewise comparison of two
    encoded paths is the order of their component vectors (a prefix first),
    and no first byte is above [ef]: a path followed by [ff] is above all
    its extensions. *)

exception Malformed of string
(** A component out of range, a truncated component, a first byte at or
    above [f0], or a depth with no component. *)

val max_component : int
(** Largest encodable component value. *)

val encode : int array -> string
(** @raise Malformed if a component is negative or above
    {!max_component}. *)

val decode : string -> int array
(** @raise Malformed on a truncated component or a first byte at or above
    [f0]. *)

val shift : string -> depth:int -> int -> string
(** [shift s ~depth k] is [s] with [k] added to its component at 0-based
    index [depth] (the one after the first [depth] components): the
    encoding of that path, built in one exactly sized string. The bytes
    after that component are copied unread.
    @raise Malformed if [s] has no component at [depth], a component up to
    it is malformed, or the new component is out of range. *)
