(** Table and result-set schemas. *)

type column = { col_name : string; col_type : Value.ty; nullable : bool }

type t = column array

val column : ?nullable:bool -> string -> Value.ty -> column
(** Columns are nullable by default. *)

val arity : t -> int

val find_opt : t -> string -> int option
(** Position of the named column (case-insensitive), if any. *)

val concat : t -> t -> t
(** Schema of a join result. *)

val rename_prefix : string -> t -> t
(** Qualify every column name with ["alias."]. *)

val fits : column -> Value.t -> bool
(** Whether the column may hold the value: its type, or NULL if nullable. *)

val check_tuple : t -> Value.t array -> (unit, string) result
(** Validate arity, types and null constraints of a tuple against the
    schema. *)
