(** Query planner: name resolution, predicate pushdown, index selection and
    join ordering.

    The planner is rule-based in the style of early relational optimizers.
    WHERE clauses are first simplified ({!Simplify}). One matcher then turns
    conjuncts into an index access: equalities on a prefix of the key, then
    at most one lower and one upper bound on the next key column. It serves
    single-table scans (constant bounds, turned into a B+-tree range at plan
    time by {!Plan.probe_range}), the candidate rows of UPDATE and DELETE,
    and index nested-loop joins (bounds over the outer row, turned into a
    range once per outer row). Joins are ordered greedily: a scratch
    relation (else the table with the fewest estimated rows) first, then
    tables connected by equalities, then by any predicate; each join probes an index of the joined table when the probe
    reads the outer row, else it is a hash join on equalities or a nested
    loop. A final Sort is elided when a chosen index already delivers the
    requested order.

    [LIMIT n OFFSET m BY keys] plans as a {!Plan.Limit} with [by] between
    the Sort and the Project. When the BY keys read only the outer row of
    the index nested-loop join directly under the Sort (or under the
    Limit, with no ORDER BY), and the ORDER BY keys less those over the
    outer row alone are exactly the probed index's key columns after its
    equality prefix, all in one direction, the join's probes are capped at
    [m + n] rows each, walked from the high end for DESC: a probe's later
    rows could never survive the Limit. LIMIT BY with DISTINCT or
    aggregation raises {!Plan_error}. *)

exception Plan_error of string

val plan_select : Catalog.t -> Sql_ast.select -> Plan.t
(** @raise Plan_error on unknown tables/columns, ambiguous references, or
    unsupported constructs. *)

val resolve_expr_for_table : Table.t -> Sql_ast.sexpr -> Expr.t
(** Resolve an expression against a single table's schema, as in a
    one-table SELECT (used by UPDATE and DELETE). Aggregates are rejected. *)

val table_candidates : Table.t -> Expr.t option -> (int * Tuple.t) Seq.t
(** Rows (with ids) of the table satisfying the predicate, simplified and
    matched to the best index as a one-table SELECT would be; no rows, and
    none read, for a contradiction. Used by UPDATE/DELETE; the caller must
    materialize the sequence before mutating the table.
    @raise Expr.Eval_error when forcing the sequence evaluates a failing
    predicate. *)

val access_path_description : Table.t -> Expr.t option -> string
(** Human-readable description of the access path {!table_candidates} would
    pick, for tests and EXPLAIN output: [SeqScan(t)], [IndexScan(index)],
    either with [+filter] when conjuncts remain, or [Empty(t)] for a
    contradiction. *)
