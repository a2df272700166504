(** Engine facade: SQL text in, rows out. This is the interface the order
    encodings program against, mirroring how the paper's translator emitted
    SQL to a relational back end. *)

type t

type result =
  | Rows of { schema : Schema.t; tuples : Tuple.t list }
  | Affected of int

exception Sql_error of string

val create : unit -> t
val catalog : t -> Catalog.t

val exec : t -> string -> result
(** Execute any supported statement: [exec_params t sql [||]].
    @raise Sql_error with a message on parse, plan or execution errors, or
    if the text has [?] slots. *)

val exec_params : t -> string -> Value.t array -> result
(** Execute a statement with its [?] slots bound to [params] (positional,
    left to right). Every statement takes this one path: look the text up
    in the plan cache; on a miss parse it (in a [sql-parse] span) and
    compile a SELECT, UNION ALL, UPDATE or DELETE (in a [plan] span) and
    cache it; then bind, run, log the write and time the statement. INSERT,
    DDL and transaction control run from the parsed statement and are not
    cached.
    @raise Sql_error if the number of values differs from the number of
    slots, or as {!exec}. *)

val query : t -> string -> Tuple.t list
(** Execute a SELECT and return its rows.
    @raise Sql_error if the statement is not a SELECT. *)

val query_params : t -> string -> Value.t array -> Tuple.t list
(** {!exec_params} for a SELECT, returning its rows. *)

val query_one : t -> string -> Tuple.t option
(** First row of a SELECT, if any. *)

(** {2 Parameters}

    [?] positional placeholders in any expression position are bound at
    execution time by {!exec_params} and {!query_params}. A compiled
    statement keeps its [?] slots: an index scan carries its key and bounds
    as expressions and turns them into a B+-tree range when it opens, so
    the planner matches index access paths for a slot as for a literal, and
    one cached plan serves every binding. A slot bound to NULL in an index
    key or bound matches no row, as [col = NULL] never holds. Binding
    copies nothing: the compiled plan reads the values from the one array
    passed with each execution. *)

(** {2 Scratch relations}

    A step of a path query joins the edge relation with its context set.
    The context set lives in a scratch relation the engine owns: one per
    column shape, registered on first use under a fixed name, and the same
    {!Table.t} for the life of the database. A SELECT finds it by name, so a
    statement that reads it has a fixed text and its plan stays cached. It
    is not a table of the database: {!Catalog.tables}, {!snapshot}, checkpoints,
    transactions, the WAL and the catalog version never see it. *)

val with_scratch :
  t ->
  name:string ->
  cols:(string * Value.ty) list ->
  Tuple.t list ->
  (unit -> 'a) ->
  'a
(** [with_scratch db ~name ~cols rows f] fills the scratch relation [name]
    (nullable columns [cols]) with [rows], runs [f] and empties the relation
    again, also when [f] raises. Call it around the single statement that
    reads the relation.
    @raise Sql_error if [name] is a table, was registered with other
    columns, is already filled by an enclosing call, or a row does not fit
    the columns. *)

(** {2 Bulk writes} *)

val insert_many : t -> string -> Tuple.t list -> int
(** Insert pre-built tuples into a table, bypassing SQL parsing entirely
    (the loader fast path, also for one row at a time; into an empty table
    each index is built bottom-up, {!Table.insert_many}). Returns the
    number of rows inserted. Atomic: on constraint violation the rows inserted so
    far are removed and [Sql_error] is raised. On durable databases the
    call is logged to the WAL as one entry holding all the rows.
    @raise Sql_error on constraint violation or missing table. *)

(** {2 Plan cache}

    Compiled statements are cached keyed by raw SQL text (LRU, 128
    entries): SELECT / UNION ALL plans, and UPDATE / DELETE with their
    table, SET expressions and access path. A repeated text, with or
    without [?] slots, skips lexing, parsing, simplification and planning.
    Entries are invalidated by a catalog version counter bumped on every
    CREATE/DROP TABLE and CREATE INDEX, and {!open_dir} starts from an
    empty cache. The hit and miss counts, and the [db.plan_cache.hit] /
    [db.plan_cache.miss] Obs counters, cover SELECT and UNION ALL lookups
    only. *)

val plan_cache_stats : t -> int * int * int
(** [(hits, misses, entries)] since creation, counted even when Obs is
    disabled. *)

val plan : t -> string -> Plan.t
(** The physical plan chosen for a SELECT or UNION ALL, [?] slots
    included: the plan {!Exec.compile} turns into what runs. For an UPDATE
    or DELETE, the access path that reads the rows it changes.
    @raise Sql_error for other statements. *)

val explain : t -> string -> string
(** {!plan} rendered as an indented tree (an index bound that is a slot
    prints as [?1], [?2], ...). *)

val explain_analyze : t -> string -> Value.t array -> string
(** Execute the SELECT, its [?] slots bound to the values as by
    {!query_params}, with every plan operator instrumented, and render the
    physical plan annotated with {e actual} row counts, loop counts and
    elapsed time per operator, plus a total line with the logical rows read
    (see {!rows_read}). Same tree shape and operator labels as {!explain}.
    @raise Sql_error as {!exec_params}; non-SELECT statements are
    rejected. *)

val check : t -> (unit, string list) Stdlib.result
(** The index oracle ({!Table.check}) over every table of the database, one
    message per failing table. Counts no rows read. *)

val table : t -> string -> Table.t
(** Direct access to a table (bulk-load paths bypass the SQL layer, as
    loaders do in real systems). @raise Sql_error if absent. *)

val render : result -> string
(** ASCII table rendering for examples and the experiment harness. *)

(** {2 Transactions}

    Single-connection transactions with statement- or API-level control
    (the SQL statements [BEGIN] / [COMMIT] / [ROLLBACK] map to these).
    Rollback restores every table to its exact pre-transaction state via
    per-table undo journals, indexes included. DDL inside a transaction is
    rejected. *)

val begin_txn : t -> unit
val commit : t -> unit
val rollback : t -> unit
val in_transaction : t -> bool

val with_transaction : t -> (unit -> 'a) -> 'a
(** Run [f] inside a transaction: commit on return, roll back (and re-raise)
    on exception. *)

(** {2 Durability}

    A database opened with {!open_dir} is {e durable}: every committed
    write is appended to a CRC-framed write-ahead log ({!Wal}) before
    control returns to the caller, and {!checkpoint} folds the log into a
    snapshot. The directory holds at most one live generation:

    {v
    <dir>/checkpoint.<g>.ckpt  snapshot (absent before the first checkpoint)
    <dir>/wal.<g>.log          writes committed since that snapshot
    v}

    Both files have the {!Wal} format. A log record is one committed unit
    of typed entries: a statement logs its own text with its bound [?]
    values, and a bulk load ({!insert_many}) logs its rows. Nothing is
    printed as SQL and parsed back. A checkpoint holds {!snapshot}. It is
    the one serialized form of a database, and {!open_dir} its one reader:
    to move a database, checkpoint it into a directory and open that.

    Recovery loads the newest completed checkpoint, replays the WAL's valid
    prefix and discards a torn tail, so after a crash the database equals
    the state as of some prefix of the committed history — exactly the
    commits whose records reached the log, in order, with no partial
    transactions ({e prefix consistency}). With [fsync Always] that prefix
    is everything acknowledged; lazier policies trade the last few commits
    on power failure for speed (in-process crashes never lose acknowledged
    commits — records are written, if not yet synced, before the ack).

    Transactions log as one atomic record at commit; autocommit writes log
    one record each. Each entry is encoded when its statement runs, so a
    caller may reuse its values array. Recovery runs the checkpoint and the
    log through one loop: statements through {!exec_params} (and its plan
    cache), rows through {!insert_many}. The in-memory path ({!create})
    pays none of this — no WAL state exists and every hook is a [None]
    check. *)

val open_dir : ?fsync:Wal.fsync_policy -> ?auto_checkpoint:int -> string -> t
(** Open (creating if needed) a persistent database directory and recover
    its state. [fsync] defaults to [Wal.Every 32]; [auto_checkpoint], when
    given, checkpoints automatically once the WAL exceeds that many bytes
    (checked after each autocommit write and commit). Records [wal.replayed]
    and a [db.recovery] latency histogram in {!Obs} when enabled.
    @raise Sql_error if the path is not a directory or cannot be created,
    if a checkpoint or log name cannot be read or written as a file, if the
    checkpoint is damaged or of another generation, if a file has another
    format version, or if replay fails. *)

val close : t -> unit
(** Sync and close the WAL (rolling back an open transaction, which dies
    with the handle exactly as in a crash). No-op on in-memory databases;
    idempotent. The handle must not be used for further writes. *)

val snapshot : t -> Wal.record list
(** The records a checkpoint holds: one per table in name order, its CREATE
    TABLE and CREATE INDEX texts, then all its rows. Names are quoted where
    they would not lex back as themselves ({!Sql_lexer.quote_ident}).
    Comparing two snapshots' encodings ({!Wal.encode}) compares the
    tables, indexes and rows in scan order, byte for byte (NaN included). *)

val checkpoint : t -> unit
(** Write {!snapshot} as the next generation's checkpoint and truncate the
    log. Crash-safe at every intermediate point: recovery sees
    either the old generation or the new one, never a mix.
    @raise Sql_error on in-memory databases or inside a transaction. *)

val set_auto_checkpoint : t -> int option -> unit
(** Install or remove the WAL-size threshold (bytes) for automatic
    checkpoints; takes effect immediately if already exceeded.
    @raise Sql_error on in-memory databases. *)

val is_durable : t -> bool
val db_dir : t -> string option
val wal_size : t -> int
(** WAL file size in bytes (header included); [0] for in-memory. *)

type recovery_info = {
  rec_gen : int;  (** generation recovered *)
  rec_checkpoint : bool;  (** whether a checkpoint snapshot was loaded *)
  rec_records : int;  (** WAL records replayed *)
  rec_statements : int;  (** entries (statements and bulk loads) inside them *)
  rec_torn_bytes : int;  (** torn tail discarded from the log *)
  rec_ms : float;  (** wall-clock recovery time *)
}

val last_recovery : t -> recovery_info option
(** Statistics from the {!open_dir} that produced this handle; [None] for
    in-memory databases. *)

(** {2 Logical I/O counters} (aggregated over all tables) *)

val rows_read : t -> int
val rows_written : t -> int

val statements : t -> int
(** Statements run: each {!exec_params} call (through any wrapper, replay
    in {!open_dir} included) and each {!insert_many} call that inserts
    rows. Counted even when Obs is disabled. *)

val reset_counters : t -> unit
(** Zero the rows read and written and the statement count. *)

(** {2 Observability}

    When [Obs.enabled ()], {!exec} and {!exec_params} time
    every statement on the monotonic clock, recording a per-statement-kind
    latency histogram
    ([db.exec.select], [db.exec.insert], [db.exec.update], [db.exec.delete],
    [db.exec.ddl], [db.exec.txn]) and a [db.statements] counter in the
    global {!Obs} registry, and opens [sql-parse] / [plan] / [exec] spans so
    engine time nests under whatever higher-level span is active. *)

val set_slow_query_threshold : t -> float option -> unit
(** Statements at least this many milliseconds are appended to the
    slow-query log ([None], the default, disables logging). *)

val slow_queries : t -> (float * string) list
(** [(elapsed ms, SQL text)] of logged slow statements, newest first (the
    log keeps the most recent 32). *)

val clear_slow_queries : t -> unit
