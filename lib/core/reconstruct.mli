(** Rebuilding XML from the shredded relations — the ordered round-trip the
    paper treats as the correctness bar for an order encoding.

    GLOBAL and DEWEY fetch a subtree with a single range query (the
    interval, resp. the path prefix range), in document order. LOCAL has no
    global order in the relation, so the subtree is fetched breadth-first,
    one SQL statement per level, and stitched together by sibling rank in
    the middle tier — the recursive-composition cost the paper attributes
    to local order. Every statement reads its root or frontier from a
    context relation (see {!Node_row.ctx_relation}), so its text never
    names a node.

    The document-ordered rows become {!Xmllib.Sax.event}s, one stack of open
    elements for every encoding; {!Xmllib.Sax.build} turns them into a tree
    ({!subtree}) and {!Xmllib.Printer.add_events} into text
    ({!serialize_subtree}). *)

exception No_subtree of int
(** The id names no node, or an attribute (which roots no subtree). *)

exception No_document of string
(** The named document's edge table holds no root element: no row with a
    NULL parent, or one that is not an element (say, after rows were
    deleted through SQL). *)

val root_id : Reldb.Db.t -> doc:string -> Encoding.t -> int
(** Id of the document root (the row with NULL parent).
    @raise No_document if there is none. *)

val subtree : Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> Xmllib.Types.node
(** Rebuild the subtree rooted at [id]. @raise No_subtree on an unknown id
    or an attribute node. *)

val document : Reldb.Db.t -> doc:string -> Encoding.t -> Xmllib.Types.document
(** Rebuild the whole document. @raise No_document as {!root_id}, or if the
    root is not an element. *)

val serialize_subtree : Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> string
(** Serialize the subtree straight off the ordered row stream in a single
    pass — no intermediate DOM, and the statements {!subtree} issues.
    Produces exactly {!Xmllib.Printer.node_to_string} of {!subtree}.
    @raise No_subtree as {!subtree}. *)

val string_value : Reldb.Db.t -> doc:string -> Encoding.t -> Node_row.t -> string
(** XPath string value of the node a row holds: for an element, its
    subtree's text in document order (no tree is built); otherwise the
    row's value. *)

val fetch_subtree_rows :
  Reldb.Db.t -> doc:string -> Encoding.t -> root:Node_row.t -> Node_row.t list
(** All rows of the subtree (including the root and attributes), in
    document order on every encoding; an element's attributes follow it. *)
