(** Structural integrity checking: every order encoding is a contract over
    the edge table, and this module verifies it — the invariants the update
    paths must preserve and the query translations rely on.

    Checked for every encoding: exactly one root (NULL parent), parents
    exist and are elements, kind codes are valid, attribute rows hang off
    elements, and every row's [nval] is {!Encoding.nval_of} of its kind and
    value. Per encoding:

    - GLOBAL: [g_order < g_end] per row, child intervals strictly inside
      their parent's, sibling intervals disjoint;
    - LOCAL: sibling ranks dense (1..n) per parent, attribute ranks
      contiguous (-m..-1);
    - DEWEY / ORDPATH: each node's path strictly extends its parent's path
      (attributes via the reserved 0 level), paths unique, and
      [depth = parent depth + 1]. *)

val check : Reldb.Db.t -> doc:string -> Encoding.t -> (unit, string list) result
(** [Ok ()] or the list of violated invariants (at most one message per
    kind of violation, with an offending row id). *)
