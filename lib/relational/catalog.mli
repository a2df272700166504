(** Named tables (case-insensitive lookup). Index metadata lives on the
    tables themselves. *)

type t

exception Catalog_error of string

val create : unit -> t
val create_table : t -> string -> Schema.t -> Table.t
(** @raise Catalog_error if the name is taken. *)

val drop_table : t -> string -> unit
(** @raise Catalog_error if absent. *)

val find_table : t -> string -> Table.t option
val tables : t -> Table.t list
(** The database's tables; scratch relations are not among them. *)

(** {2 Scratch relations}

    Relations the engine owns for its own use (see {!Db.with_scratch}). A
    SELECT finds them by name, but they are not tables of the database:
    {!tables} and {!find_table} skip them and registering one leaves
    {!version} alone, so plans cached over one stay valid. *)

val scratch : t -> string -> Schema.t -> Table.t
(** The scratch relation [name], registered on first use; later calls return
    the same {!Table.t}.
    @raise Catalog_error if [name] is a table, or a scratch relation with
    another schema. *)

val find_scratch : t -> string -> Table.t option

val version : t -> int
(** Schema version: incremented on every CREATE/DROP TABLE and by
    {!bump_version}. Plan caches compare this to decide staleness. *)

val bump_version : t -> unit
(** Force an increment (used for schema changes the catalog does not see
    directly, e.g. CREATE INDEX on an existing table). *)
