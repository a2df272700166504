(** Physical query plans (volcano-style operators). *)

type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type 'e probe_end = { bound : 'e; strict : bool }
(** One end of an index probe's range; [strict] excludes the bound
    itself. *)

type probe_bound = Expr.t probe_end
(** An end given as an expression: over the outer row for a join probe,
    over constants and parameters for a scan. *)

type scan_range =
  | Non_null
      (** every key whose leading value is not NULL ({!non_null}), matched
          on no conjunct: MIN/MAX from an index end *)
  | Probe of { key : Expr.t array; lo : probe_bound option; hi : probe_bound option }
      (** the range {!probe_range} builds from [key], [lo] and [hi] when the
          scan opens; a NULL value in any of them reads no rows *)

type t =
  | Seq_scan of Table.t
  | Index_scan of {
      table : Table.t;
      index : Table.index;
      range : scan_range;
      reverse : bool;
    }  (** rows in index-key order within [range] *)
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
      cap : Expr.t option;
      reverse : bool;
    }
      (** index nested-loop join: for each outer row, probe [index] of
          [table] once, with [key] (expressions over the outer row) equal to
          the leading key columns and the next key column within [lo] and
          [hi]. A NULL probe value matches nothing. [residual] is evaluated
          over the concatenated schema (outer then [table]). With [cap =
          Some n] each probe stops after [n] rows that pass [residual]; [n]
          is a constant or parameter expression, evaluated when the join
          opens (a negative value, the sum of two counts past [max_int],
          caps nothing); [reverse] walks the probe's range from its high
          end. The planner sets them only under a [Limit] with [by] (see
          {!Planner}). *)
  | Hash_join of {
      left : t;
      right : t;
      left_key : int array;
      right_key : int array;
      residual : Expr.t option;
    }  (** equi-join; build on left, probe with right *)
  | Sort of { input : t; keys : (Expr.t * order) list }
  | Ordered of { input : t; keys : (Expr.t * order) list }
      (** an ORDER BY its input already delivers (see {!Planner}): it passes
          the input's rows through as they come *)
  | Distinct of t
  | Aggregate of {
      input : t;
      group_by : (Expr.t * string) array;
      aggs : (agg * string) array;
    }  (** output = group columns then one column per aggregate *)
  | Limit of { input : t; limit : Expr.t option; offset : Expr.t; by : Expr.t array }
      (** skips [offset] rows, then keeps [limit] (all with [None]). With a
          non-empty [by] the count restarts for every distinct value of the
          [by] expressions: rows [offset + 1 .. offset + limit] of each key,
          in input order ([LIMIT n OFFSET m BY e1, ...]). [limit] and
          [offset] are constant or parameter expressions, evaluated when the
          operator opens; a value that is not a non-negative integer fails
          the statement. *)
  | Union_all of t list
      (** concatenation of branch outputs; arities must agree *)

val count : int -> Expr.t
(** The constant row count [n], for {!Limit} and a probe cap. *)

val non_null : Btree.bound * Btree.bound
(** The B+-tree range of {!Non_null}: from above every key leading with
    NULL, unbounded above. *)

type probe_scratch
(** Where {!probe_range} encodes a probe: scratch keys, and the encodings
    of the key parts that are constants. *)

val probe_scratch : bytes option array -> probe_scratch
(** [probe_scratch fixed]: [fixed.(i)], where given, is the {!Key} encoding
    of key part [i], a constant, which {!probe_range} copies instead of
    evaluating the part ([[||]] gives none). *)

val probe_range :
  ('e -> 'r -> Value.t) ->
  probe_scratch ->
  'e array ->
  lo:'e probe_end option ->
  hi:'e probe_end option ->
  'r ->
  (Btree.bound * Btree.bound) option
(** [probe_range eval sc key ~lo ~hi row] is the B+-tree range of an
    index access, with [key], [lo] and [hi] evaluated over [row] by [eval]:
    the key values equal the leading key columns, and the next key column
    lies within [lo] and [hi] (strict bounds exclude their value). [None]
    when a key value or a bound is NULL, which matches nothing. With no
    lower bound the range starts above NULL; with no key, bound or bounds
    it is the whole index. Each end is the encoded key values extended by
    its bound's {!Key} encoding; an inclusive upper end and a strict lower
    end are {!Key.prefix_end} of it. Each key part is evaluated once, and
    its encoding written once, into the lower end, which the upper end
    copies. The ends are scratch keys of [sc], valid until the next call
    with [sc], which allocates no key. A bound of another type
    than its column needs no conversion: the encoding orders every value as
    {!Value.compare} does, so the range holds exactly the keys a filter on
    the same comparison keeps. The executor applies it to compiled
    expressions when an index scan opens and once per outer row of an index
    nested-loop join. *)

val map_agg : (Expr.t -> Expr.t) -> agg -> agg
(** Rewrite the aggregate's argument. *)

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
