(** SQL lint rules over the surface AST.

    Rules (rule name in brackets):
    - [cartesian-product] (error): two FROM tables with no predicate
      connecting them — every translated path query must chain its aliases.
    - [contradiction] (warning): the WHERE conjunction is unsatisfiable
      (constant folding + per-column interval analysis, e.g.
      [x > 5 AND x < 3]).
    - [tautology] (warning): a conjunct that is always true contributes
      nothing (e.g. [1 = 1]).
    - [unsargable] (warning): a function or arithmetic
      expression wraps a column whose table has an index led by that column,
      defeating index selection.
    - [redundant-distinct] (warning): DISTINCT over output that is already
      unique (all GROUP BY keys projected, or a unique index key fully
      projected from a single table).
    - [degenerate-in] (info): [IN] with one value or duplicate values.
    - [degenerate-between] (warning/info): [BETWEEN lo AND hi] with
      [lo > hi] (always false) or [lo = hi] (an equality in disguise). *)

val lint_stmt : catalog:Reldb.Catalog.t -> Reldb.Sql_ast.stmt -> Finding.t list
(** Lint a parsed statement against the catalog, which the schema-aware
    rules read (unqualified column owners, unsargable, redundant-distinct
    over unique indexes). SELECT (and each branch of UNION ALL), UPDATE and
    DELETE are analyzed; other statements yield no findings. *)

val render : Reldb.Sql_ast.sexpr -> string
(** SQL-ish rendering of a surface expression, used in messages. *)

val lint_xpath : Ordered_xml.Xpath_ast.path -> Finding.t list
(** XPath-level rules, run before translation. [degenerate-count]
    (warning/info) mirrors the IN/BETWEEN degenerate rules for [count()]
    predicates: [count(p) >= 0] is a tautology and [count(p) < 0] a
    contradiction (count is never negative); [count(p) > 0] and
    [count(p) = 0] are existence tests in disguise. Recurses into nested
    predicate paths. *)

val lint_segment :
  Reldb.Catalog.t -> Ordered_xml.Encoding.t -> Ordered_xml.Translate.segment -> Finding.t list
(** Lint one compiled segment ({!Ordered_xml.Translate.compile}). A run's
    statement must parse back and plan; it gets the SQL rules above,
    {!Order_check.check_run} and {!Plan_lint.lint_plan}. A middle-tier step
    is an [Info] note ([middle-tier]), followed by the findings of every
    statement it holds: the run that fetches its candidates, DEWEY's
    ancestor-prefix statement (no order check: it promises none) and the
    segments of its predicates' paths, recursively. The catalog must hold
    the context relations ({!Ordered_xml.Node_row.ctx_relation}) for runs
    over them. *)
