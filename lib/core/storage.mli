(** Storage accounting per encoding (experiment E2). *)

type t = {
  encoding : Encoding.t;
  rows : int;
  heap_bytes : int;  (** payload bytes of live rows *)
  order_bytes : int;  (** bytes attributable to the order columns alone *)
  index_entries : int;
  index_bytes : int;
      (** estimated: over all indexes, each entry's encoded key ({!Reldb.Key})
          and 8 bytes *)
  total_bytes : int;
  avg_key_bytes : float;  (** average order-key payload per row *)
  max_key_bytes : int;
  trees : (string * Reldb.Btree.stats) list;
      (** each index's B+-tree shape: depth, leaves, occupancy *)
}

val measure : Reldb.Db.t -> doc:string -> Encoding.t -> t

val pp : Format.formatter -> t -> unit
(** One line of sizes, then a line per index:
    [index NAME: depth D, L leaves, occupancy O]. *)

val dewey_path_length_histogram : Reldb.Db.t -> doc:string -> (int * int) list
(** Encoded-path length (bytes) -> row count, ascending. Empty unless the
    DEWEY table exists. *)
