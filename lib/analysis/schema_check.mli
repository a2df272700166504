(** Schema-aware XPath static analysis: what a DTD proves about a query
    before any SQL runs.

    The schema-driven shredders of the paper's era used the DTD to decide
    both layout and what the translator could assume; this module recovers
    the query-side half for the DTD-lite subset. From a {!Xmllib.Dtd.t} it
    derives an element reachability graph with per-edge occurrence bounds
    (from [?]/[*]/[+]/seq/choice/mixed content models), then runs three
    passes over a parsed path:

    + {b satisfiability} — a step whose node test is unreachable from the
      inferred context set under its axis can match nothing in any valid
      document (undeclared element or attribute, [text()] under
      EMPTY-content elements, value comparison against an element that can
      never carry text). Flagged as an [Error] finding; evaluation
      short-circuits to a 0-row result without touching the database.
    + {b cardinality inference} — where the schema proves at-most-one match
      per context node, no-op [\[1\]]/[\[last()\]] predicates are dropped.
    + {b axis strength reduction} — [descendant::a] becomes an explicit
      [child::] chain when every DTD path to [a] from the context has one
      fixed shape (a big win for LOCAL, whose descendant scans otherwise
      recurse in the middle tier), and [following::]/[preceding::] narrow
      to the sibling axes when the schema proves no matches outside the
      context's parent.

    The graph is built once per DTD ({!graph}); each pass over a path then
    costs microseconds. Every rewrite is sound for {e all} documents valid under the DTD; the
    differential tests check rewritten and blind translations against
    {!Ordered_xml.Dom_eval} on DTD-sampled documents. *)

type card = Zero | One | Many
(** Occurrence cardinality lattice (upper bounds). *)

type graph
(** Element reachability graph derived from a DTD: possible document roots,
    reachable elements, per-edge child occurrence bounds, and global
    occurrence bounds per element. *)

val graph : ?roots:string list -> Xmllib.Dtd.t -> graph
(** Build the graph. [?roots] overrides the possible document root
    elements; the default is every declared element that appears in no
    other element's content model (falling back to all declared elements
    when that set is empty, e.g. for recursive or ANY-heavy DTDs). *)

val graph_roots : graph -> string list
val graph_reachable : graph -> string list
(** Elements reachable from the roots, sorted. *)

val occurrence : graph -> string -> card
(** Upper bound on how many instances of the element a single valid
    document can contain. *)

type result = {
  findings : Finding.t list;
  rewritten : Ordered_xml.Xpath_ast.path;
      (** the path after sound schema rewrites (equal to the input when
          nothing fired or the path is unsatisfiable) *)
  satisfiable : bool;
      (** [false] when no valid document can have results: translation
          should short-circuit to a 0-row plan *)
}

val analyze : graph -> Ordered_xml.Xpath_ast.path -> result
(** Run the three passes on an absolute (or root-context) path. *)

val eval :
  graph ->
  Reldb.Db.t ->
  doc:string ->
  Ordered_xml.Encoding.t ->
  Ordered_xml.Xpath_ast.path ->
  Ordered_xml.Translate.result
(** Schema-aware evaluation: analyze, short-circuit unsatisfiable paths to
    an empty result with zero SQL statements, otherwise evaluate the
    rewritten path with {!Ordered_xml.Translate.eval}. *)
