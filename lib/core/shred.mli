(** Shredding: XML → edge rows under a chosen order encoding.

    Every order encoding is computable with one stack — preorder interval
    counters for GLOBAL, sibling counters for LOCAL, a component stack for
    DEWEY — which is why the paper's encodings fit a bulk loader. One row
    builder ({!build_rows}) runs that stack over XML events; the DOM loader,
    the streaming loader and subtree insertion ({!Update}) differ only in
    where the events come from and where the top-level nodes go.

    Bulk loading goes directly through the storage layer (as real loaders
    do); the DDL goes through SQL. Record ids are preorder ranks with an
    element's attributes right after it, the {!Doc_index} record ids of the
    loaded document, so a freshly shredded store and the oracle agree on
    node identity. *)

val shred :
  ?gap:int -> Reldb.Db.t -> doc:string -> Encoding.t -> Xmllib.Types.document -> int
(** Create tables and load the document in one bulk insert, rows in id
    order. [gap] is the interval spacing for {!Encoding.Global_gap} (default
    {!Encoding.default_gap}; ignored by other encodings). Returns the
    number of records loaded.
    @raise Reldb.Db.Sql_error if the tables already exist. *)

val shred_stream :
  ?gap:int -> Reldb.Db.t -> doc:string -> Encoding.t -> string -> int
(** One-pass streaming load from XML text (no DOM): each row is inserted as
    soon as it is complete, so memory is bounded by the document's depth.
    Produces exactly the same table contents as {!shred} on the parsed
    document. Returns the number of records loaded.
    @raise Xmllib.Sax.Error on malformed input. *)

(** The order columns of an edge row. *)
type order =
  | Interval of int * int  (** GLOBAL: [(g_order, g_end)] *)
  | Sibling of int  (** LOCAL: [l_order] *)
  | Path of int * Dewey.t  (** DEWEY and ORDPATH: logical depth, stored path *)

val edge_row :
  id:int ->
  parent:int ->
  kind:Doc_index.kind ->
  tag:string ->
  value:string ->
  order ->
  Reldb.Tuple.t
(** The tuple stored for a node: [id], [parent] (NULL when negative),
    [kind], [tag] and [value] (NULL when empty or an element), the numeric
    value, then the order columns. Every row written to an edge table is
    built here. *)

val build_rows :
  Encoding.t ->
  first_id:int ->
  endpoint:(int -> int) ->
  parent:int ->
  pos:int ->
  path:Dewey.t ->
  depth:int ->
  ((Xmllib.Sax.event -> unit) -> unit) ->
  (Reldb.Tuple.t -> unit) ->
  int
(** [build_rows enc ~first_id ~endpoint ~parent ~pos ~path ~depth events
    emit] runs [events] (a well-formed sequence of nodes) through the row
    builder and hands each edge row to [emit] once it is complete: a leaf
    or an attribute at once, an element at its end tag, after its
    descendants. Returns the number of rows.

    Ids are given in preorder from [first_id], each element's attributes
    right after it. Top-level nodes get parent [parent]; below them:
    - GLOBAL: the [i]-th interval endpoint met (0-based, in the order start,
      attributes, children, end) is [endpoint i];
    - LOCAL: top-level nodes take sibling positions [pos], [pos + 1], ...;
      children are numbered [1..n] and the [m] attributes [-m..-1];
    - DEWEY and ORDPATH: the top-level node has stored path [path] and
      logical depth [depth]; a child appends its position, an attribute [0]
      and its rank, each mapped to [2c + 1] under ORDPATH (odd components,
      leaving carets free).
    @raise Invalid_argument on an unbalanced end tag, or a second top-level
    node under DEWEY or ORDPATH. *)

val in_id_order : first_id:int -> Reldb.Tuple.t list -> Reldb.Tuple.t list
(** The rows {!build_rows} emitted from [first_id], sorted by id. *)
