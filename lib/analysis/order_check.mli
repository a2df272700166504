(** Order-correctness checking of compiled runs.

    The paper's contract: a translation returns result nodes in document
    order when the encoding can express it. Each run {!Ordered_xml.Translate}
    compiles promises an order ({!Ordered_xml.Translate.run}); this module
    checks a parsed statement against that promise, deriving the columns
    from the run's alias chain rather than from the SQL text:

    - a run whose rows skip the middle tier's sort ([sorted]) orders by the
      result's document-order column under GLOBAL and DEWEY ([g_order],
      [path]) and by every chain alias's [l_order], from the root down,
      under LOCAL (sibling orders along a child chain);
    - a positional tail orders each context's candidates by the previous
      chain alias's order column, then the result's (LOCAL: the whole
      chain's), under a LIMIT; only the last key may be descending;
    - a child chain from the root ({!Ordered_xml.Translate.child_chain})
      orders by every chain alias's order column, root down, under every
      encoding, whether sorted or a positional tail: its rows' document
      order is their chain's, and it is the order the chain's index
      nested-loop joins deliver.

    Every key must be ascending otherwise. A run whose rows the middle tier
    sorts gets an [Info] note. *)

val expected_order_column : Ordered_xml.Encoding.t -> string option
(** The document-order column of the encoding: [g_order] or [path], or
    [None] for LOCAL, whose [l_order] is a sibling order only. *)

val check_run :
  Ordered_xml.Encoding.t ->
  Ordered_xml.Translate.run ->
  Reldb.Sql_ast.stmt ->
  Finding.t list
(** Check a run's parsed statement against the order the run promises
    (see above). The statement must be a SELECT. *)
