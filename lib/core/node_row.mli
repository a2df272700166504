(** Decoding of edge-table tuples into a typed view, shared by the
    translator, reconstruction and updates. *)

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

val select_list : Encoding.t -> string -> string
(** [select_list enc alias] — the projection of all edge columns (payload
    then order columns), qualified by [alias], in the column order
    {!of_tuple} expects. *)

val compare_ord : t -> t -> int
(** Document-order comparison usable within one encoding. *)

val dewey : t -> Dewey.t
(** @raise Invalid_argument unless the row is DEWEY-encoded. *)

(** {2 Context relations}

    A step joins the edge table (alias [e]) with its context set, which
    lives in an engine-owned scratch relation (alias [c], see
    {!Reldb.Db.with_scratch}) with a fixed name per column shape. So the
    text of every statement depends only on the table, the encoding, the
    axis and the node test, and its plan stays cached. *)

type relation = { rel_name : string; rel_cols : (string * Reldb.Value.ty) list }

val ctx_relation : Encoding.t -> relation
(** Context rows of the encoding: [id], [parent], [kind], then its order
    columns ([g_order], [g_end] / [l_order] / [path] and its prefix upper
    bound [path_ub]). *)

val ids_relation : relation
(** A set of node ids: one [id] column. *)

val ctx_tuple : t -> Reldb.Tuple.t
(** The row as a tuple of {!ctx_relation} of its encoding. *)

val with_relation :
  Reldb.Db.t -> relation -> Reldb.Tuple.t list -> (unit -> 'a) -> 'a
(** Fill the relation with the tuples around one statement. *)
