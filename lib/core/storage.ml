module V = Reldb.Value

type t = {
  encoding : Encoding.t;
  rows : int;
  heap_bytes : int;
  order_bytes : int;
  index_entries : int;
  index_bytes : int;
  total_bytes : int;
  avg_key_bytes : float;
  max_key_bytes : int;
  trees : (string * Reldb.Btree.stats) list;
}

let order_cols = function
  | Encoding.Global | Encoding.Global_gap -> [ Encoding.col_g_order; Encoding.col_g_end ]
  | Encoding.Local -> [ Encoding.col_l_order ]
  | Encoding.Dewey_enc | Encoding.Dewey_caret -> [ Encoding.col_depth; Encoding.col_path ]

let measure db ~doc enc =
  let table = Reldb.Db.table db (Encoding.table_name ~doc enc) in
  let rows = Reldb.Table.row_count table in
  let heap_bytes = Reldb.Table.size_bytes table in
  let ocols = order_cols enc in
  let order_bytes = ref 0 and max_key = ref 0 in
  Seq.iter
    (fun (_, tu) ->
      let b =
        List.fold_left (fun acc c -> acc + V.size_bytes tu.(c)) 0 ocols
      in
      order_bytes := !order_bytes + b;
      if b > !max_key then max_key := b)
    (Reldb.Table.scan table);
  let index_entries = ref 0 and index_bytes = ref 0 in
  List.iter
    (fun (idx : Reldb.Table.index) ->
      Reldb.Btree.iter idx.Reldb.Table.tree ~lo:Unbounded ~hi:Unbounded ~reverse:false
        (fun key _ ->
          incr index_entries;
          (* the encoded key, and a word per entry as before *)
          index_bytes := !index_bytes + 8 + Bytes.length key;
          true))
    (Reldb.Table.indexes table);
  {
    encoding = enc;
    rows;
    heap_bytes;
    order_bytes = !order_bytes;
    index_entries = !index_entries;
    index_bytes = !index_bytes;
    total_bytes = heap_bytes + !index_bytes;
    avg_key_bytes =
      (if rows = 0 then 0.0 else float_of_int !order_bytes /. float_of_int rows);
    max_key_bytes = !max_key;
    trees =
      List.map
        (fun (idx : Reldb.Table.index) ->
          (idx.Reldb.Table.idx_name, Reldb.Btree.stats idx.Reldb.Table.tree))
        (Reldb.Table.indexes table);
  }

let pp ppf t =
  Format.fprintf ppf
    "%-10s rows=%d heap=%dB order=%dB (avg %.1fB/row, max %dB) index \
     entries=%d index=%dB total=%dB"
    (Encoding.name t.encoding) t.rows t.heap_bytes t.order_bytes
    t.avg_key_bytes t.max_key_bytes t.index_entries t.index_bytes t.total_bytes;
  List.iter
    (fun (name, (s : Reldb.Btree.stats)) ->
      Format.fprintf ppf "@\nindex %s: depth %d, %d leaves, occupancy %.2f" name
        s.Reldb.Btree.depth s.Reldb.Btree.leaves s.Reldb.Btree.occupancy)
    t.trees

let dewey_path_length_histogram db ~doc =
  match
    Reldb.Catalog.find_table (Reldb.Db.catalog db)
      (Encoding.table_name ~doc Encoding.Dewey_enc)
  with
  | None -> []
  | Some table ->
      let hist = Hashtbl.create 16 in
      Seq.iter
        (fun (_, tu) ->
          match tu.(Encoding.col_path) with
          | V.Bytes p ->
              let len = String.length p in
              Hashtbl.replace hist len
                (1 + (try Hashtbl.find hist len with Not_found -> 0))
          | _ -> ())
        (Reldb.Table.scan table);
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) hist []
      |> List.sort compare
