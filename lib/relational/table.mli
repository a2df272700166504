(** Heap tables with secondary B+-tree indexes.

    Rows live in a growable slot array; a row id is the slot number and stays
    valid until the row is deleted. A slot holds its row's tuple itself, and
    every deleted slot the one shared tuple {!deleted}, so reading a row
    loads no option box and allocates nothing. Indexes are maintained
    synchronously on every insert/delete/update. An index key is the {!Key}
    encoding of the row's key columns; non-unique indexes append the row id
    so that B+-tree keys stay unique. *)

type t

type index = {
  idx_name : string;
  key_cols : int array;  (** column positions forming the key, in order *)
  unique : bool;
  tree : Btree.t;
}

exception Constraint_violation of string
(** Unique-index violation or schema (type / NOT NULL) violation. *)

val create : string -> Schema.t -> t
val name : t -> string
val schema : t -> Schema.t

val create_index : t -> name:string -> cols:int array -> unique:bool -> index
(** Builds the index bottom-up over the existing rows (their keys sorted,
    {!Btree.build}) and registers it for maintenance.
    @raise Constraint_violation if [unique] and duplicates exist. *)

val indexes : t -> index list
val find_index : t -> string -> index option

val insert : t -> Tuple.t -> int
(** Returns the new row id. @raise Constraint_violation on schema or unique
    violations. *)

val insert_many : t -> Tuple.t list -> unit
(** Insert the rows in order, atomically: a refused row removes the rows
    inserted before it and re-raises. Into a table with no live rows,
    every row valid, each index is built bottom-up from its sorted keys
    instead of taking the rows one at a time; a duplicate key of a unique
    index raises the violation inserting the rows one at a time would
    raise (the same row and index), and nothing is inserted.
    @raise Constraint_violation on schema or unique violations. *)

val delete : t -> int -> unit
(** Delete by row id; no-op if already deleted. *)

val update : t -> int -> Tuple.t -> unit
(** [update t rowid tuple] is [update_rows t [| rowid |] [| tuple |]]. *)

val update_rows : t -> int array -> Tuple.t array -> unit
(** [update_rows t rowids news] is one statement's bulk update: each of
    the distinct rows [rowids.(j)] takes the image [news.(j)] in its slot
    (rowids stable; a stored image is never written in place, so one
    handed out earlier keeps its values), validating only the columns
    whose value is not the old one, and each index is maintained only for
    the rows whose key under it changed. The columns the statement assigned
    are those in which some row's image holds another value than the old
    row (by identity): an index none of whose key columns is among them is
    skipped without reading a row, and the others compare only those
    columns to find the changed keys. The table keeps both arrays.

    Per index, each changed key is first rewritten in its slot
    ({!Btree.rewrite_key}) from two scratch keys, visiting the rows in
    that index's old-key order: the access-path order when it is already
    that, else one walk over the index picking them out (by a row-id mark
    array kept per table) when they are at least a fourteenth of its entries,
    else a sort. So each rewrite finds its key beside the last one. That
    order runs top-down when the keys move up, bottom-up when they move
    down, so every key of an order-preserving renumbering finds its
    neighbour already out of its way. Keys refused there are deleted and
    re-inserted after all in-place writes. Obs counters [index.rewritten]
    and [index.moved] count the entries taking each path.

    Atomic: a unique-key violation undoes the rewrites and the moves of
    every index (rebuilding the keys from the row images) and leaves all
    rows untouched. In a transaction the statement is one journal entry,
    whose rollback removes every new image before restoring any old one.
    @raise Constraint_violation on schema or unique-key violation.
    @raise Invalid_argument if any rowid refers to a deleted row ({!Db}
    updates only rows its access path has just read). *)

val deleted : Tuple.t
(** What {!read} returns for a row id that holds no row, compared by
    identity ([==]). *)

val read : t -> int -> Tuple.t
(** The row with this id, or {!deleted} if its slot was deleted or never
    filled; counts a row read when it is a row. *)

val get : t -> int -> Tuple.t option
(** {!read} as an option: [None] if the slot holds no row. *)

val row_count : t -> int
(** Live rows. *)

val iter : t -> stop:bool ref -> (int -> Tuple.t -> unit) -> unit
(** All live rows with their ids, in slot order (not a meaningful order —
    relations are unordered; ordered access goes through an index), pushed
    to [f]; no row is read once [!stop] holds. *)

val scan : t -> (int * Tuple.t) Seq.t
(** The rows {!iter} pushes, read lazily. *)

val truncate : t -> unit
(** Remove all rows (indexes emptied too). The slot array is reset, so a
    scan of a refilled table walks only the new rows and the next insert
    gets row id 0. @raise Invalid_argument inside a transaction. *)

val check : t -> (unit, string) result
(** Index oracle: every index passes {!Btree.check_invariants} and holds
    exactly the keys rebuilt from the live rows. Reads the
    heap without counting rows read. *)

(** {2 Undo journal} (transaction support; driven by {!Db})

    While a journal is active every row mutation records its inverse;
    {!rollback_journal} replays the inverses newest-first, restoring the
    exact pre-journal state (including index contents and row ids). *)

val begin_journal : t -> unit
(** @raise Invalid_argument if a journal is already active. *)

val commit_journal : t -> unit
(** Discard the recorded inverses, keeping all changes. *)

val rollback_journal : t -> unit
(** Undo every change since {!begin_journal}. *)

(** {2 Instrumentation}

    The experiments report logical I/O per operation; every row read through
    a scan or index probe and every row written is counted here. *)

val rows_read : t -> int
val rows_written : t -> int
val reset_counters : t -> unit
val size_bytes : t -> int
(** Total payload bytes of live rows (heap only, excluding indexes). *)
