(** XPath evaluation over the shredded relations: the paper's translation of
    ordered queries into SQL, one strategy per encoding.

    A path is cut into {e runs}: maximal sequences of steps that one SQL
    statement can hold, each a chain of self-joins over the edge table with
    one alias per step, as in the paper's translator. A run holds
    - steps whose axis is in the encoding's join table ({!axis_supported}),
      and, on every encoding, a leading [child] or [descendant] step from
      the document root (a tag-index scan);
    - predicates that are conjunctions of existence tests and value
      comparisons over such steps, each lowered as more joined aliases (with
      [DISTINCT] when they can reach a row twice);
    - on its last step, one positional predicate — [[k]], [[last()]] or a
      [position()] range — lowered as [ORDER BY] the chain's order columns
      and [LIMIT ? OFFSET ? BY] the previous alias's id, so a position is a
      bound value and each context's probe of the [(parent, tag, order)]
      index stops after offset + limit rows.

    Every other step is evaluated in the middle tier, and the next run
    starts from the context relation ({!Node_row.ctx_relation}): the current
    context set fills an engine-owned scratch relation that the statement
    joins (alias [c]). Statement texts depend only on the table, encoding,
    axes, node tests and the shape of the predicates; values and positions
    are bound to [?] slots, so every plan stays cached.

    A run from the root along a child/attribute chain (under GLOBAL and
    DEWEY: any run from the root without a positional predicate) returns
    each row once and in document order, through its [ORDER BY]; the middle
    tier then neither deduplicates nor sorts. Otherwise the encodings differ:

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
      raises; GLOBAL and DEWEY allocate neither. So that this cache holds
      every row a sort needs, a LOCAL run holds one step unless it is a
      child chain from the root, and such a chain, when more steps follow
      it or a union sorts it again, also selects the rows of its earlier
      steps;
    - positional predicates the statement cannot hold are ranked in the
      middle tier per context node over the axis-ordered candidates (sibling
      positions stored by LOCAL/DEWEY are sibling ranks, not ranks among
      nodes passing the step's name test, so they cannot answer
      [bidder[2]] alone);
    - value predicates ([price > 100], [@id = 'x']) become comparisons on
      the [value]/[nval] columns ({!Encoding.number_of_string} is the one
      number rule). A comparison path that selects elements gets an
      implicit [/text()] appended, which equals XPath string-value
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

val sort_document_order :
  Reldb.Db.t -> doc:string -> Encoding.t -> Node_row.t list ->
  Node_row.t list * int
(** Sort arbitrary rows into document order (deduplicating by id), fetching
    parent chains when the encoding stores no global order (LOCAL). Returns
    the sorted rows and the number of extra SQL statements issued. *)

(** {2 The shared lowering} (what {!Translate_sql} emits) *)

val axis_supported : Encoding.t -> Xpath_ast.axis -> bool
(** The join table: whether the encoding joins the axis between two
    edge-table aliases inside one statement. Document-order and ancestor /
    descendant axes need interval numbering (GLOBAL, GLOBAL/gap only). *)

val step_lowers : Encoding.t -> lead:bool -> Xpath_ast.step -> bool
(** Whether one statement can hold the step and its predicates: its axis in
    {!axis_supported} (or, when [lead], a [child] / [descendant] /
    [descendant-or-self] step from the document root) and every predicate a
    conjunction of existence tests and value comparisons over such steps.
    Positional predicates are not included. *)

type lowered = {
  sql : string;
  params : Reldb.Value.t array;  (** values of the [?] slots, in order *)
  result : string;  (** the alias whose columns are selected *)
  aliases : string list;  (** every FROM alias, in emission order *)
  chain : string list;  (** the aliases of the path's own steps *)
  ordered : bool;
      (** the statement returns each row once, in document order *)
}

val lower_path :
  unique:bool -> sort:bool -> Encoding.t -> table:string -> Xpath_ast.step list ->
  lowered
(** The steps (each accepted by {!step_lowers}, the first with [~lead:true])
    as one statement from the document root, values printed as SQL
    literals. With [~sort] a statement that can return document order gets
    its [ORDER BY]; [~unique] vouches that no join reaches a row twice, so
    [DISTINCT] is left out.
    @raise Unsupported when a step has no join. *)
