(** Query planner: name resolution, predicate pushdown, index selection and
    join ordering.

    The planner is rule-based in the style of early relational optimizers.
    WHERE clauses are first simplified ({!Simplify}). One matcher then turns
    conjuncts into an index access: equalities on a prefix of the key, then
    at most one lower and one upper bound on the next key column. It serves
    single-table scans, the candidate rows of UPDATE and DELETE, and index
    nested-loop joins. A scan's key and bounds are non-NULL constants or
    [?] parameters, kept as expressions in the plan and turned into a
    B+-tree range by {!Plan.probe_range} when the scan opens, so a plan
    with parameters is planned once and bound per execution; a join
    probe's bounds read the outer row and become a range once per outer
    row. A derived table in FROM, [(SELECT ...) AS b], is planned on its
    own (it may not read the outer aliases) and its plan stands in for a
    table scan, its columns named by its select list. Joins are ordered
    greedily: a scratch relation or a derived table (else the table with
    the fewest estimated rows) first, then tables connected by equalities,
    then by any predicate; each join probes an index of the joined table
    when the probe reads the outer row, else it is a hash join on
    equalities or a nested loop.

    ORDER BY runs no Sort when the plan already delivers the order,
    computed bottom-up: an index range delivers its key columns in the
    scan's direction; columns an [=] with a constant or [IS NULL] fixes
    drop out of any order (an ORDER BY key over one is met); Filter,
    Project (up to a dropped column), Limit and DISTINCT keep their input's
    order; an index nested-loop join delivers the outer order, then, where
    that is a key of the outer rows (a unique index's columns, or at most
    one row: [LIMIT 1], an aggregate without GROUP BY), the inner index's
    key columns after the probe's equality prefix, in the probe's
    direction. Such an ORDER BY is a pass-through {!Plan.Ordered}, shown
    by EXPLAIN as [Ordered [keys] (delivered)], over the plan as it is,
    with its driving index scan reversed, or with its driving sequential
    scan replaced by a walk of one whole index of that table (either
    way); any other is a {!Plan.Sort}.

    [LIMIT n OFFSET m BY keys] plans as a {!Plan.Limit} with [by] between
    the ORDER BY and the Project. When the BY keys read only the outer row
    of the index nested-loop join directly under the ORDER BY (or under
    the Limit, with no ORDER BY), and the ORDER BY keys less those over the
    outer row alone are exactly the probed index's key columns after its
    equality prefix, all in one direction, the join's probes are capped at
    [m + n] rows each, walked from the high end for DESC: a probe's later
    rows could never survive the Limit. LIMIT BY with DISTINCT or
    aggregation raises {!Plan_error}. *)

exception Plan_error of string

val plan_select : Catalog.t -> Sql_ast.select -> Plan.t
(** @raise Plan_error on unknown tables/columns, ambiguous references
    (a derived table with two columns of one name), or unsupported
    constructs. *)

val lower : leaf:(Sql_ast.sexpr -> Expr.t option) -> Sql_ast.sexpr -> Expr.t
(** The one lowering of a surface expression to an {!Expr.t}, used for
    SELECT, UPDATE and DELETE, HAVING, the SQL lint and INSERT values.
    [leaf] is asked first at every node; where it returns [None] the node
    lowers structurally ([BETWEEN] as two comparisons, a scalar function
    call as {!Expr.Func}).
    @raise Plan_error for an aggregate or unknown function, or a column or
    [*] that [leaf] leaves. *)

val resolve_expr_for_table : Table.t -> Sql_ast.sexpr -> Expr.t
(** Resolve an expression against a single table's schema, as in a
    one-table SELECT (used by UPDATE and DELETE). Aggregates are rejected. *)

val table_access : Table.t -> Expr.t option -> Plan.t
(** The access path of an UPDATE or DELETE with this WHERE predicate:
    simplified and matched to the best index as a one-table SELECT would
    be, the remaining conjuncts in a Filter over the scan, and [LIMIT 0]
    over a scan for a contradiction. {!Exec.rows_with_ids} runs it. *)

val table_candidates : Table.t -> Expr.t option -> (int * Tuple.t) Seq.t
(** Rows (with ids) of the table satisfying the predicate, read through
    {!table_access}; no rows, and none read, for a contradiction. The rows
    are read before the call returns.
    @raise Expr.Eval_error when the predicate fails on a row. *)

val access_path_description : Table.t -> Expr.t option -> string
(** Human-readable description of the access path {!table_candidates} would
    pick, for tests and EXPLAIN output: [SeqScan(t)], [IndexScan(index)],
    either with [+filter] when conjuncts remain, or [Empty(t)] for a
    contradiction. *)
