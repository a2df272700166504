(** XPath evaluation over the shredded relations: the paper's translation of
    ordered queries into SQL, one strategy per encoding.

    Evaluation is step-at-a-time and set-based, in the middle-tier style the
    shredding literature used before recursive SQL was common: the current
    context node set fills an engine-owned scratch relation
    ({!Node_row.ctx_relation}) and each location step becomes one SQL
    statement joining the edge table against it. The statement text depends
    only on the table, encoding, axis and node test, so its plan is cached,
    and the engine probes the edge table's indexes once per context row (an
    index nested-loop join). What that statement looks like is exactly where
    the encodings differ:

    - ordered axes map to order-column ranges — [g_order]/[g_end] intervals
      for GLOBAL, [path] prefix ranges for DEWEY, [(parent, l_order)] ranges
      for LOCAL sibling axes;
    - document-order axes ([following], [preceding]) and document-order
      output sorting are closed-form for GLOBAL and DEWEY but require the
      middle tier to materialize parent chains (one SQL statement per level)
      for LOCAL — the recursion cost the paper attributes to local order.
      LOCAL orders rows by root-path keys, the [l_order] values from the
      root down: a [following]/[preceding] step reads the rows passing its
      node test, then fetches only those ancestors of them and of the
      context rows that no earlier statement of the call has fetched. Each
      call of the functions below keeps, for LOCAL only, one id -> row table
      (every edge row the call fetched) and one id -> key memo, shared by
      every step and the final sort, and drops both when it returns or
      raises; GLOBAL and DEWEY allocate neither;
    - positional predicates are ranked in the middle tier per context node
      over the axis-ordered candidates for every encoding (sibling positions
      stored by LOCAL/DEWEY are sibling ranks, not ranks among nodes passing
      the step's name test, so they cannot answer [bidder[2]] alone);
    - value predicates ([price > 100], [@id = 'x']) become comparisons on
      the [value]/[nval] columns. A comparison path that selects elements
      gets an implicit [/text()] appended, which equals XPath string-value
      semantics for elements whose content is a single text node (the
      data-centric case; see DESIGN.md).

    The number of SQL statements issued and the SQL text are reported for
    instrumentation; rows-read/written counters live on {!Reldb.Db}. *)

type result = {
  rows : Node_row.t list;  (** result nodes, in document order *)
  statements : int;  (** SQL statements issued *)
  sql_log : string list;  (** the statements, in order *)
}

exception Unsupported of string

val eval : Reldb.Db.t -> doc:string -> Encoding.t -> Xpath_ast.path -> result
(** Evaluate an absolute or relative (root-context) path. *)

val eval_union : Reldb.Db.t -> doc:string -> Encoding.t -> Xpath_ast.union -> result
(** Evaluate a union of paths; results are merged, deduplicated and returned
    in document order. *)

val eval_ids : Reldb.Db.t -> doc:string -> Encoding.t -> Xpath_ast.path -> int list
(** Just the node ids, in document order. *)

val eval_string : Reldb.Db.t -> doc:string -> Encoding.t -> string -> result
(** Parse then evaluate (handles top-level unions).
    @raise Xpath_parser.Parse_error on bad syntax. *)

val eval_from_ids :
  Reldb.Db.t -> doc:string -> Encoding.t -> ids:int list -> Xpath_ast.path ->
  result
(** Evaluate a path with the given nodes as context (absolute paths restart
    from the document root). Used by the FLWOR layer to resolve
    variable-relative paths. *)

val test_cond : string -> Xpath_ast.axis -> Xpath_ast.node_test -> string
(** [test_cond alias axis test] is the SQL condition on the edge-table row
    [alias] for the node test [test] on [axis] (an attribute step tests
    attribute rows). *)

val number_of_string : string -> float
(** XPath [number()] of a string: NaN unless it parses as a float after
    trimming. *)

val sort_document_order :
  Reldb.Db.t -> doc:string -> Encoding.t -> Node_row.t list ->
  Node_row.t list * int
(** Sort arbitrary rows into document order (deduplicating by id), fetching
    parent chains when the encoding stores no global order (LOCAL). Returns
    the sorted rows and the number of extra SQL statements issued. *)
