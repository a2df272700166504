(** Whole-path translation: one SQL statement per XPath query.

    The paper's translator emitted a single SQL statement per path query — a
    chain of self-joins over the edge table, one alias per location step
    (what the shredding literature calls structural joins). This module is
    the whole path as one run of {!Translate}'s shared lowering
    ({!Translate.lower_path}), or {!Not_single_statement}:

    - axes from the encoding's join table ({!axis_supported}): [child],
      [attribute], [parent], [self] and the sibling axes everywhere, plus
      [descendant(-or-self)], [following], [preceding] and
      [ancestor(-or-self)] under GLOBAL/GLOBAL_GAP (their document-order
      axes need recursion under LOCAL and a subtree bound under DEWEY, which
      a single statement without RECURSIVE cannot express — the paper's
      point);
    - name/wildcard/text()/comment()/node() tests;
    - existence and value-comparison predicates (they become additional
      joined aliases);
    - no positional predicates: {!Translate} lowers them as a run's
      [LIMIT ? OFFSET ? BY] tail, whose rows come in document order per
      context rather than under the one-column contract below, so they
      stay outside this fragment.

    The statement selects the result nodes' columns, under [DISTINCT] when
    a join can reach a row twice, ordered by the encoding's document-order
    column when it has one (GLOBAL, DEWEY); LOCAL results are returned
    unordered and the caller middle-tier sorts (documented cost). Values
    are printed as SQL literals, so the text runs as it is. *)

exception Not_single_statement of string
(** The path uses a feature outside the single-statement fragment. *)

val translate :
  ?unique:bool -> doc:string -> Encoding.t -> Xpath_ast.path -> string
(** The SQL text. [~unique:true] is an external guarantee (e.g. from the
    schema analysis) that the join can produce no duplicate result rows, so
    [DISTINCT] is omitted even where a join could fan out. Defaults to
    [false].
    @raise Not_single_statement when ineligible. *)

type fragment_meta = {
  fm_encoding : Encoding.t;  (** the encoding the statement was emitted for *)
  fm_table : string;  (** edge-table name every alias ranges over *)
  fm_result_alias : string;  (** the alias whose columns are selected *)
  fm_aliases : string list;  (** all FROM aliases, in emission order *)
  fm_ordered : bool;  (** statement carries a document-order ORDER BY *)
  fm_order_column : string option;
      (** the order column ([g_order], [path]) or [None] for LOCAL, whose
          results the middle tier must sort itself *)
  fm_axes : Xpath_ast.axis list;
      (** every axis the path uses, including inside predicates (sorted,
          deduplicated) — what the order checker validates against
          {!axis_supported} *)
}
(** What the translator promises about an emitted statement. The static
    analyzer checks the statement against this record rather than re-deriving
    the contract from the SQL text. *)

val translate_meta :
  ?unique:bool ->
  doc:string ->
  Encoding.t ->
  Xpath_ast.path ->
  string * fragment_meta
(** [translate] plus the metadata contract for the emitted statement.
    @raise Not_single_statement when ineligible. *)

val axis_supported : Encoding.t -> Xpath_ast.axis -> bool
(** {!Translate.axis_supported}: whether the encoding can express the axis
    inside a single unordered SQL statement (document-order axes such as
    [following::] need interval numbering — GLOBAL/GLOBAL_GAP only). *)

val path_axes : Xpath_ast.path -> Xpath_ast.axis list
(** Every axis a path uses, including inside predicates (sorted,
    deduplicated). *)

val eval :
  ?unique:bool ->
  Reldb.Db.t ->
  doc:string ->
  Encoding.t ->
  Xpath_ast.path ->
  Translate.result
(** Run the single statement and decode the result rows (sorting LOCAL
    results into document order in the middle tier).
    @raise Not_single_statement when ineligible. *)

val eligible : Encoding.t -> Xpath_ast.path -> bool
(** Whether the whole path is one run: it starts with [child] or
    [descendant(-or-self)], every step's axis is in {!axis_supported}, and
    every predicate is a conjunction of existence tests and value
    comparisons over such steps. *)
