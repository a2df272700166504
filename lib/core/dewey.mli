(** Dewey order keys.

    A Dewey path is the vector of sibling positions on a node's root path:
    the root is [1], its second child is [1.2], that child's first child is
    [1.2.1]. Attribute nodes hang off a reserved [0] level ([1.2.0.j]) so
    they sort before all element content without consuming sibling slots.

    {!encode} serializes a path so that {e bytewise} comparison of encoded
    strings equals document-order comparison of paths — the property that
    lets a relational index over a BYTES column answer every ordered XML
    query. The codec is UTF-8-style: each component becomes 1–4 bytes whose
    first byte determines the length, with longer encodings starting at
    higher first bytes, so the encoding of a smaller component is never a
    prefix of (nor lexically above) a larger one's. No first byte is above
    [ef], so [encode p ^ "\xff"] is above every extension of [p] and below
    every later path: a subtree is the byte range [\[encode p, encode p ^
    "\xff")] (see {!Node_row.subtree_range}). *)

type t = int array
(** Components; all [>= 0], root is [[|1|]]. *)

val root : t

val compare : t -> t -> int
(** Document order: prefix (ancestor) sorts before its extensions. *)

val parent : t -> t option
(** [None] for the root (or an empty path). *)

val depth : t -> int

val child : t -> int -> t
(** [child p k] appends component [k]. *)

val last : t -> int
(** Final component. @raise Invalid_argument on the empty path. *)

val with_last : t -> int -> t
(** Replace the final component. *)

val is_strict_prefix : t -> t -> bool
(** [is_strict_prefix a d] — is [a] a proper ancestor path of [d]? *)

val to_string : t -> string
(** Dotted rendering, e.g. ["1.3.2"]. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)

(** {2 Binary codec} *)

val max_component : int
(** Largest encodable component value. *)

val encode : t -> string
(** @raise Invalid_argument if a component exceeds {!max_component} or is
    negative. *)

val decode : string -> t
(** @raise Invalid_argument on malformed bytes. *)

val encode_component : int -> string
