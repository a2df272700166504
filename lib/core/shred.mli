(** Shredding: DOM → relations under a chosen order encoding.

    Bulk loading goes directly through the storage layer (as real loaders
    do); the DDL goes through SQL. Record ids equal the {!Doc_index} record
    ids of the loaded document, so a freshly shredded store and the oracle
    agree on node identity. *)

val shred :
  ?gap:int -> Reldb.Db.t -> doc:string -> Encoding.t -> Xmllib.Types.document -> Doc_index.t
(** Create tables and load the document. [gap] is the interval spacing for
    {!Encoding.Global_gap} (default {!Encoding.default_gap}; ignored by
    other encodings). Returns the document index used for loading.
    @raise Reldb.Db.Sql_error if the tables already exist. *)

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
    value, then the order columns. Every loader and every insertion builds
    its rows here. *)

val shred_stream :
  ?gap:int -> Reldb.Db.t -> doc:string -> Encoding.t -> string -> int
(** One-pass streaming load from XML text (no DOM): every order encoding is
    computable with a stack — preorder interval counters for GLOBAL,
    sibling counters for LOCAL, a component stack for DEWEY — which is why
    the paper's encodings fit a bulk loader. Produces exactly the same
    table contents as {!shred} on the parsed document. Returns the number
    of records loaded.
    @raise Xmllib.Sax.Error on malformed input. *)

val interval_numbering : Doc_index.t -> gap:int -> (int * int) array
(** Begin/end interval numbers per record id: a DFS that advances the
    counter by [gap] at every interval endpoint ([gap = 1] is the dense
    GLOBAL numbering). Exposed for tests. *)
