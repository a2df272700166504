type index = {
  idx_name : string;
  key_cols : int array;
  unique : bool;
  tree : Btree.t;
}

type undo =
  | U_insert of int  (* row id to remove *)
  | U_delete of int * Tuple.t  (* row id to resurrect with this image *)
  | U_update of int * Tuple.t  (* row id to restore to this image *)

type t = {
  tbl_name : string;
  tbl_schema : Schema.t;
  slots : Tuple.t option Vec.t;
  mutable live : int;
  mutable idxs : index list;
  mutable reads : int;
  mutable writes : int;
  mutable journal : undo list option;
}

exception Constraint_violation of string

let create tbl_name tbl_schema =
  {
    tbl_name;
    tbl_schema;
    slots = Vec.create ();
    live = 0;
    idxs = [];
    reads = 0;
    writes = 0;
    journal = None;
  }

let name t = t.tbl_name
let schema t = t.tbl_schema
let indexes t = t.idxs

let find_index t n =
  List.find_opt (fun i -> String.lowercase_ascii i.idx_name = String.lowercase_ascii n) t.idxs

let index_key idx ~rowid tuple =
  let k = Tuple.key idx.key_cols tuple in
  if idx.unique then k else Array.append k [| Value.Int rowid |]

let index_insert t idx rowid tuple =
  let k = index_key idx ~rowid tuple in
  try Btree.insert idx.tree k rowid
  with Btree.Duplicate_key ->
    raise
      (Constraint_violation
         (Printf.sprintf "unique index %s on %s: duplicate key %s" idx.idx_name
            t.tbl_name (Tuple.to_string k)))

let index_delete idx rowid tuple =
  ignore (Btree.delete idx.tree (index_key idx ~rowid tuple))

let create_index t ~name ~cols ~unique =
  Array.iter
    (fun c ->
      if c < 0 || c >= Schema.arity t.tbl_schema then
        invalid_arg "Table.create_index: column out of range")
    cols;
  let idx = { idx_name = name; key_cols = cols; unique; tree = Btree.create () } in
  Vec.iteri
    (fun rowid slot ->
      match slot with
      | None -> ()
      | Some tuple -> index_insert t idx rowid tuple)
    t.slots;
  t.idxs <- t.idxs @ [ idx ];
  idx

let validate t tuple =
  match Schema.check_tuple t.tbl_schema tuple with
  | Ok () -> ()
  | Error msg ->
      raise (Constraint_violation (Printf.sprintf "table %s: %s" t.tbl_name msg))

let record t entry =
  match t.journal with
  | None -> ()
  | Some log -> t.journal <- Some (entry :: log)

let insert t tuple =
  validate t tuple;
  let rowid = Vec.push t.slots (Some tuple) in
  (try List.iter (fun idx -> index_insert t idx rowid tuple) t.idxs
   with Constraint_violation _ as e ->
     (* roll back: remove slot and any index entries already added *)
     Vec.set t.slots rowid None;
     List.iter
       (fun idx -> ignore (Btree.delete idx.tree (index_key idx ~rowid tuple)))
       t.idxs;
     raise e);
  t.live <- t.live + 1;
  t.writes <- t.writes + 1;
  record t (U_insert rowid);
  rowid

let get t rowid =
  if rowid < 0 || rowid >= Vec.length t.slots then None
  else begin
    t.reads <- t.reads + 1;
    Vec.get t.slots rowid
  end

let delete t rowid =
  if rowid >= 0 && rowid < Vec.length t.slots then
    match Vec.get t.slots rowid with
    | None -> ()
    | Some tuple ->
        List.iter (fun idx -> index_delete idx rowid tuple) t.idxs;
        Vec.set t.slots rowid None;
        t.live <- t.live - 1;
        t.writes <- t.writes + 1;
        record t (U_delete (rowid, tuple))

let update t rowid tuple =
  match Vec.get t.slots rowid with
  | None -> invalid_arg "Table.update: row deleted"
  | Some old ->
      validate t tuple;
      List.iter (fun idx -> index_delete idx rowid old) t.idxs;
      Vec.set t.slots rowid (Some tuple);
      (try List.iter (fun idx -> index_insert t idx rowid tuple) t.idxs
       with Constraint_violation _ as e ->
         (* restore the old row *)
         List.iter (fun idx -> ignore (Btree.delete idx.tree (index_key idx ~rowid tuple))) t.idxs;
         Vec.set t.slots rowid (Some old);
         List.iter (fun idx -> index_insert t idx rowid old) t.idxs;
         raise e);
      t.writes <- t.writes + 1;
      record t (U_update (rowid, old))

(* Statement-level bulk update. Rowids are preserved (rows are overwritten in
   place, not deleted and re-inserted) and each index is maintained only for
   the rows whose key under THAT index actually changed — an UPDATE that
   shifts g_order never touches the id index, and a value-only UPDATE touches
   no index at all. Atomic with respect to unique-key violations. *)
let update_rows t changes =
  let images =
    List.map
      (fun (rowid, tu) ->
        validate t tu;
        match Vec.get t.slots rowid with
        | None -> invalid_arg "Table.update_rows: row deleted"
        | Some old -> (rowid, old, tu))
      changes
  in
  let per_idx =
    List.map
      (fun idx ->
        ( idx,
          List.filter
            (fun (rowid, old, tu) ->
              index_key idx ~rowid old <> index_key idx ~rowid tu)
            images ))
      t.idxs
  in
  let undo_index (idx, rows) =
    List.iter (fun (rowid, _, tu) -> index_delete idx rowid tu) rows;
    List.iter (fun (rowid, old, _) -> index_insert t idx rowid old) rows
  in
  let apply_index (idx, rows) =
    List.iter (fun (rowid, old, _) -> index_delete idx rowid old) rows;
    let inserted = ref [] in
    try
      List.iter
        (fun (rowid, _, tu) ->
          index_insert t idx rowid tu;
          inserted := (rowid, tu) :: !inserted)
        rows
    with Constraint_violation _ as e ->
      List.iter (fun (rowid, tu) -> index_delete idx rowid tu) !inserted;
      List.iter (fun (rowid, old, _) -> index_insert t idx rowid old) rows;
      raise e
  in
  let completed = ref [] in
  (try
     List.iter
       (fun entry ->
         apply_index entry;
         completed := entry :: !completed)
       per_idx
   with Constraint_violation _ as e ->
     List.iter undo_index !completed;
     raise e);
  (* Journal the batch as delete-all + reinsert-all rather than per-row
     U_update entries: rollback replays newest-first, so all the new images
     are removed before any old image is restored — per-row U_update replay
     could transiently collide on a unique key mid-unwind. *)
  List.iter (fun (rowid, old, _) -> record t (U_delete (rowid, old))) images;
  List.iter
    (fun (rowid, _, tu) ->
      Vec.set t.slots rowid (Some tu);
      record t (U_insert rowid))
    images;
  t.writes <- t.writes + List.length images

let row_count t = t.live

let scan t =
  Seq.filter_map
    (fun (i, slot) ->
      match slot with
      | None -> None
      | Some tuple ->
          t.reads <- t.reads + 1;
          Some (i, tuple))
    (Vec.to_seq t.slots)

let truncate t =
  if t.journal <> None then
    invalid_arg "Table.truncate: not allowed inside a transaction";
  Vec.clear t.slots;
  t.live <- 0;
  let rebuilt =
    List.map
      (fun idx -> { idx with tree = Btree.create () })
      t.idxs
  in
  t.idxs <- rebuilt

let begin_journal t =
  if t.journal <> None then invalid_arg "Table.begin_journal: already active";
  t.journal <- Some []

let journal_active t = t.journal <> None

let commit_journal t = t.journal <- None

let rollback_journal t =
  match t.journal with
  | None -> ()
  | Some log ->
      (* stop recording while we unwind *)
      t.journal <- None;
      List.iter
        (fun entry ->
          match entry with
          | U_insert rowid -> (
              match Vec.get t.slots rowid with
              | None -> ()
              | Some tuple ->
                  List.iter (fun idx -> index_delete idx rowid tuple) t.idxs;
                  Vec.set t.slots rowid None;
                  t.live <- t.live - 1)
          | U_delete (rowid, tuple) ->
              Vec.set t.slots rowid (Some tuple);
              List.iter (fun idx -> index_insert t idx rowid tuple) t.idxs;
              t.live <- t.live + 1
          | U_update (rowid, old) -> (
              match Vec.get t.slots rowid with
              | None -> ()
              | Some current ->
                  List.iter (fun idx -> index_delete idx rowid current) t.idxs;
                  Vec.set t.slots rowid (Some old);
                  List.iter (fun idx -> index_insert t idx rowid old) t.idxs))
        log

let rows_read t = t.reads
let rows_written t = t.writes

let reset_counters t =
  t.reads <- 0;
  t.writes <- 0

let size_bytes t =
  Vec.fold
    (fun acc slot ->
      match slot with None -> acc | Some tu -> acc + Tuple.size_bytes tu)
    0 t.slots
