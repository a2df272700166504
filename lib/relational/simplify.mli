(** Pre-planning predicate simplification: constant folding, boolean
    short-circuits, and interval analysis over conjunct lists.

    The same core serves two callers: the planner rewrites the WHERE
    conjuncts of every SELECT, UPDATE and DELETE before access-path
    selection (folding arithmetic into index-matchable constants, keeping
    only the tightest bound per column, and short-circuiting contradictory
    statements into reading no rows), and the SQL linter reuses the verdicts
    to flag always-false / always-true predicates statically. *)

val fold : Expr.t -> Expr.t
(** Constant folding. Column-free subexpressions are evaluated (NULL
    propagation included); [AND]/[OR] with a decided side collapse per SQL
    three-valued logic ([FALSE AND x = FALSE], [TRUE AND x = x], ...).
    Subexpressions whose evaluation would raise at runtime (division by
    zero) are left untouched so the error still surfaces during execution. *)

type truth = True | False | Unknown
(** Three-valued verdict of a folded predicate, [Unknown] covering both
    SQL NULL and "depends on the row". *)

val truth_of : Expr.t -> truth
(** Verdict of an already-folded expression. A constant NULL counts as
    [False]: as a WHERE conjunct it can never accept a row. *)

type verdict =
  | Contradiction
      (** the conjunction is unsatisfiable — no row can pass *)
  | Conjuncts of Expr.t list
      (** folded conjuncts with always-true, repeated and
          interval-subsumed members removed (may be empty, meaning always
          true) *)

val simplify_conjuncts : Expr.t list -> verdict
(** Fold each conjunct, then run per-column interval analysis over the
    atoms of shape [col op constant]: mutually exclusive bounds (e.g.
    [x > 5 AND x < 3], [x = 1 AND x = 2]) yield [Contradiction]; bounds
    implied by tighter ones are dropped. Sound w.r.t. SQL semantics — a
    NULL column value fails every comparison, so replacing an exclusive
    set of bounds by FALSE never changes the result. *)
