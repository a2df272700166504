(** Physical query plans (volcano-style operators). *)

type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type probe_bound = { bound : Expr.t; strict : bool }
(** One end of an index probe's range, an expression over the outer row;
    [strict] excludes the bound itself. *)

type t =
  | Seq_scan of Table.t
  | Index_scan of {
      table : Table.t;
      index : Table.index;
      lo : Btree.bound;
      hi : Btree.bound;
      reverse : bool;
    }  (** rows in index-key order within [lo, hi] *)
  | Filter of Expr.t * t
  | Project of (Expr.t * string) array * t
  | Nl_join of { outer : t; inner : t; pred : Expr.t option }
      (** predicate evaluated over the concatenated schema (outer then inner) *)
  | Index_nl_join of {
      outer : t;
      table : Table.t;
      index : Table.index;
      key : Expr.t array;
      lo : probe_bound option;
      hi : probe_bound option;
      residual : Expr.t option;
      cap : int option;
      reverse : bool;
    }
      (** index nested-loop join: for each outer row, probe [index] of
          [table] once, with [key] (expressions over the outer row) equal to
          the leading key columns and the next key column within [lo] and
          [hi]. A NULL probe value matches nothing. [residual] is evaluated
          over the concatenated schema (outer then [table]). With [cap =
          Some n] each probe stops after [n] rows that pass [residual];
          [reverse] walks the probe's range from its high end. The planner
          sets them only under a [Limit] with [by] (see {!Planner}). *)
  | Hash_join of {
      left : t;
      right : t;
      left_key : int array;
      right_key : int array;
      residual : Expr.t option;
    }  (** equi-join; build on left, probe with right *)
  | Sort of { input : t; keys : (Expr.t * order) list }
  | Distinct of t
  | Aggregate of {
      input : t;
      group_by : (Expr.t * string) array;
      aggs : (agg * string) array;
    }  (** output = group columns then one column per aggregate *)
  | Limit of { input : t; limit : int option; offset : int; by : Expr.t array }
      (** skips [offset] rows, then keeps [limit] (all with [None]). With a
          non-empty [by] the count restarts for every distinct value of the
          [by] expressions: rows [offset + 1 .. offset + limit] of each key,
          in input order ([LIMIT n OFFSET m BY e1, ...]) *)
  | Union_all of t list
      (** concatenation of branch outputs; arities must agree *)

val probe_range :
  Expr.t array ->
  lo:probe_bound option ->
  hi:probe_bound option ->
  Tuple.t ->
  (Btree.bound * Btree.bound) option
(** [probe_range key ~lo ~hi row] is the B+-tree range of an index access,
    with [key], [lo] and [hi] evaluated over [row]: the key values equal the
    leading key columns, and the next key column lies within [lo] and [hi]
    (strict bounds exclude their value). [None] when a key value or a bound
    is NULL, which matches nothing. With no lower bound the range starts
    above NULL. Index scans call it once at plan time over constants (with
    [row = [||]]), index nested-loop joins once per outer row. *)

val schema_of : t -> Schema.t
(** Output schema of a plan. Column types for computed expressions are
    approximated (TEXT for concatenations and SUBSTR unless their input is
    BYTES, INT for counts, etc.). *)

val label : t -> string
(** One-line description of the root operator (no children) — the node text
    {!pp} indents, shared with [EXPLAIN ANALYZE] annotation. *)

val children : t -> t list
(** Direct child operators, in {!pp} display order. *)

val pp : Format.formatter -> t -> unit
(** Indented plan tree, EXPLAIN-style. *)
