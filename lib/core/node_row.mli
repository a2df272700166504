(** Decoding of edge-table tuples into a typed view, each encoding's order
    values, the range of a node's subtree, and the context relations a
    statement joins: shared by the translator, reconstruction and updates. *)

type ord =
  | Og of int * int  (** GLOBAL: (g_order, g_end) *)
  | Ol of int  (** LOCAL: l_order *)
  | Od of string  (** DEWEY: encoded path *)

type t = {
  id : int;
  parent : int option;
  kind : Doc_index.kind;
  tag : string;
  value : string;
  ord : ord;
}

val of_tuple : Encoding.t -> Reldb.Tuple.t -> t
(** Decode a full edge-table row (schema per {!Encoding}). *)

val ctx_id : Reldb.Tuple.t -> int
(** The context id a statement over a context relation selects last. *)

module Tbl : Hashtbl.S with type key = int
(** Tables keyed by node id, hashed by {!Reldb.Value.hash_int}. *)

val select_list : Encoding.t -> string -> string
(** [select_list enc alias] — the projection of all edge columns (payload
    then order columns), qualified by [alias], in the column order
    {!of_tuple} expects. *)

val compare_ord : t -> t -> int
(** Document-order comparison usable within one encoding. *)

(** {2 Order values}

    Each accessor reads one encoding's order values; code for one encoding
    reads only rows of that encoding's table. *)

val global : t -> int * int
(** GLOBAL's [(g_order, g_end)]. *)

val local : t -> int
(** LOCAL's [l_order]. *)

val dewey : t -> Dewey.t
(** DEWEY's (and ORDPATH's) decoded path. *)

val subtree_range : ord -> (string * Reldb.Value.t array) option
(** The rows of the subtree a node with this order value roots, itself and
    its attributes included, as a condition on the unqualified order column
    and the values of its two [?] slots: GLOBAL's interval
    [\[g_order, g_end\]], or DEWEY's prefix range [\[path, path ^ "\xff")]
    (no component's first byte is above [ef], so the path followed by [ff]
    is above all its extensions and below every later path). [None] under
    LOCAL, whose subtree has no range. *)

(** {2 Context relations}

    A step joins the edge table (alias [e]) with its context set, which
    lives in an engine-owned scratch relation (alias [c], see
    {!Reldb.Db.with_scratch}) with a fixed name per column shape. So the
    text of every statement depends only on the table, the encoding, the
    axis and the node test, and its plan stays cached. *)

type relation = { rel_name : string; rel_cols : (string * Reldb.Value.ty) list }

val ctx_relation : Encoding.t -> relation
(** Context rows of the encoding: [id], [parent], [kind], then its order
    columns ([g_order], [g_end] / [l_order] / [path]). *)

val ids_relation : relation
(** A set of node ids: one [id] column. *)

val ctx_tuple : t -> Reldb.Tuple.t
(** The row as a tuple of {!ctx_relation} of its encoding. *)

val with_relation :
  Reldb.Db.t -> relation -> Reldb.Tuple.t list -> (unit -> 'a) -> 'a
(** Fill the relation with the tuples around one statement. A relation
    holds a set: contexts, LOCAL frontiers, ids or DEWEY prefixes; a
    single row's values are bound to [?] slots instead. *)
