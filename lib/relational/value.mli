(** Runtime values of the relational engine.

    [Bytes] is a distinct type from [Str] because the Dewey order encoding
    stores binary order-preserving keys: they compare bytewise and are
    rendered in hex rather than as text. *)

type ty = Tint | Tfloat | Ttext | Tbytes

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bytes of string

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_name : ty -> string
(** SQL name of the type: INT, FLOAT, TEXT, BYTES. *)

val ty_of_name : string -> ty option
(** Case-insensitive parse of a SQL type name. *)

val compare : t -> t -> int
(** Total order used by indexes and sorting: [Null] sorts first, values of
    different types sort by type tag, ints and floats compare numerically
    with each other and exactly ([Int (2^53 + 1)] is above [Float 2^53]);
    a NaN is below every other number and equal to itself. {!Key} encodes
    this order as bytes. *)

val equal : t -> t -> bool
(** Equality consistent with {!compare} (so [Int 1] equals [Float 1.0]). *)

val hash : t -> int
(** Hash consistent with {!equal}; numbers hash without a C call. *)

val hash_int : int -> int
(** {!hash} of an [Int]: an integer mix that spreads strided ids. *)

val is_null : t -> bool

val to_string : t -> string
(** Rendering for result tables: NULL, 42, 4.2, abc, 0x0102. *)

val to_sql_literal : t -> string
(** Rendering that the SQL parser accepts back: strings are quoted and
    escaped, bytes use [X'...'] notation. *)

val size_bytes : t -> int
(** Approximate storage footprint in bytes, used by the storage experiment. *)
