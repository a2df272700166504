(** Order-preserving updates — where the three encodings earn their keep.

    Inserting a subtree as the [pos]-th child of a parent must make room in
    the order encoding:

    - {b GLOBAL} moves every row at or after the insertion point with one
      index-range UPDATE that shifts both interval endpoints, then stretches
      the end of each interval that contains the insertion point: the
      parent and its ancestors, reached through the parent chain. The cost
      grows with the amount of document after the insertion point — O(N)
      for insertions near the front;
    - {b GLOBAL/gap} first tries to place the new intervals inside the gap
      left at load time, touching {e zero} existing rows; it falls back to a
      GLOBAL-style shift when the gap is exhausted;
    - {b LOCAL} shifts only the following siblings' [l_order]
      (O(fanout));
    - {b DEWEY} shifts the following siblings {e and rewrites the stored
      path of every node in their subtrees} (the prefix of those paths
      changed) — more than LOCAL, much less than GLOBAL for typical shapes.
      Each moved sibling subtree is one set-oriented UPDATE that swaps the
      path prefix in SQL ([? || SUBSTR(path, ?)] over the subtree's path
      range).

    Fresh node ids come from [SELECT MAX(id)], which the engine answers from
    the end of the id index, so an insertion reads only the rows it looks at
    or renumbers.

    Deletion removes the subtree's rows; only LOCAL renumbers (to keep
    sibling ranks dense). Gaps left in GLOBAL/DEWEY order values are
    harmless: queries never assume density. *)

type stats = {
  rows_inserted : int;
  rows_deleted : int;
  rows_renumbered : int;
      (** row versions written to existing rows to make room; a row counts
          once per statement that rewrites it *)
  statements : int;  (** SQL statements issued (excluding bulk row ops) *)
}

exception Update_error of string

val insert_subtree :
  Reldb.Db.t ->
  doc:string ->
  Encoding.t ->
  parent:int ->
  pos:int ->
  Xmllib.Types.node ->
  stats
(** Insert the fragment as the [pos]-th (1-based) non-attribute child of
    [parent]; [pos = count+1] appends. Fresh node ids are allocated above
    the current maximum.
    @raise Update_error if [parent] is not an element or [pos] is out of
    range. *)

val insert_forest :
  Reldb.Db.t ->
  doc:string ->
  Encoding.t ->
  parent:int ->
  pos:int ->
  Xmllib.Types.node list ->
  stats
(** Insert several fragments as consecutive children starting at [pos],
    paying the renumbering cost {e once} for the whole forest: LOCAL shifts
    sibling ranks by the forest width, GLOBAL opens one interval window,
    DEWEY rewrites each following sibling's subtree a single time. This is
    the bulk-update amortization the paper's loading discussion relies on.
    @raise Update_error on an empty list, and as {!insert_subtree}. *)

val append_child :
  Reldb.Db.t -> doc:string -> Encoding.t -> parent:int -> Xmllib.Types.node -> stats

val delete_subtree : Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> stats
(** Remove the node and its whole subtree (attributes included).
    @raise Update_error on the document root or an attribute node. *)

val move_subtree :
  Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> parent:int -> pos:int ->
  stats
(** Relocate a subtree to be the [pos]-th child of [parent] (delete +
    reinsert, so the moved nodes get fresh ids; [pos] is interpreted against
    the child list {e after} the removal, XQuery-Update style).
    @raise Update_error if [parent] lies inside the moved subtree, or on the
    root / an attribute. *)

val replace_subtree :
  Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> Xmllib.Types.node -> stats
(** Swap the subtree at [id] for [fragment], keeping its sibling position
    (delete + insert; fresh ids).
    @raise Update_error on the root or an attribute. *)

val set_text : Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> string -> stats
(** Replace the value of a text or attribute node (order untouched — cheap
    under every encoding). *)

val set_attribute :
  Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> name:string ->
  value:string -> stats
(** Set (add or overwrite) an attribute on element [id]. A new attribute is
    appended after the element's existing attributes; under LOCAL that
    shifts their (negative, dense) ranks once.
    @raise Update_error if [id] is not an element. *)

val remove_attribute :
  Reldb.Db.t -> doc:string -> Encoding.t -> id:int -> name:string -> stats
(** Remove the named attribute (no-op stats if absent). *)
