type index = {
  idx_name : string;
  key_cols : int array;
  unique : bool;
  tree : Btree.t;
}

type undo =
  | U_insert of int  (* row id to remove *)
  | U_delete of int * Tuple.t  (* row id to resurrect with this image *)

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

(* one allocation per key: every insert, delete and renumbered row builds
   its keys here *)
let index_key idx ~rowid tuple =
  let cols = idx.key_cols in
  let n = Array.length cols in
  let k = Array.make (if idx.unique then n else n + 1) (Value.Int rowid) in
  for i = 0 to n - 1 do
    k.(i) <- tuple.(cols.(i))
  done;
  k

let insert_key t idx k rowid =
  try Btree.insert idx.tree k rowid
  with Btree.Duplicate_key ->
    raise
      (Constraint_violation
         (Printf.sprintf "unique index %s on %s: duplicate key %s" idx.idx_name
            t.tbl_name (Tuple.to_string k)))

let index_insert t idx rowid tuple =
  insert_key t idx (index_key idx ~rowid tuple) rowid

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
  let added = ref [] in
  (try
     List.iter
       (fun idx ->
         index_insert t idx rowid tuple;
         added := idx :: !added)
       t.idxs
   with Constraint_violation _ as e ->
     (* roll back: remove the slot and the entries this call added, but not
        the rejected key, which belongs to the row already holding it *)
     Vec.set t.slots rowid None;
     List.iter (fun idx -> index_delete idx rowid tuple) !added;
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

(* [true] when the row's key under an index over [cols] differs between the
   two images; a rowid suffix is the same on both sides *)
let rec key_differs cols old tu i =
  i < Array.length cols
  && (Value.compare old.(cols.(i)) tu.(cols.(i)) <> 0
     || key_differs cols old tu (i + 1))

(* Move the changed keys of one index, [rows] in access-path order. Each key
   is first rewritten in its slot ([Btree.rewrite_key]); visiting the rows
   top-down when the keys move up (bottom-up when they move down) lets every
   key of an order-preserving shift find its neighbour already out of its
   way. Keys refused there are deleted and re-inserted after all in-place
   writes. Returns the function that undoes both. *)
let move_keys t idx rows =
  let keyed =
    List.map
      (fun (rowid, old, tu) ->
        (rowid, index_key idx ~rowid old, index_key idx ~rowid tu))
      rows
  in
  let keyed =
    match keyed with
    | (_, ok, nk) :: _ when Tuple.compare_key nk ok > 0 -> List.rev keyed
    | _ -> keyed
  in
  let rewritten, refused =
    List.fold_left
      (fun (rw, rf) ((_, ok, nk) as r) ->
        if Btree.rewrite_key idx.tree ~old:ok nk then (r :: rw, rf)
        else (rw, r :: rf))
      ([], []) keyed
  in
  let refused = List.rev refused in
  List.iter (fun (_, ok, _) -> ignore (Btree.delete idx.tree ok)) refused;
  let inserted = ref [] in
  let undo () =
    List.iter (fun nk -> ignore (Btree.delete idx.tree nk)) !inserted;
    List.iter (fun (rowid, ok, _) -> Btree.insert idx.tree ok rowid) refused;
    (* [rewritten] is newest first, so each old key is free when it returns *)
    List.iter
      (fun (rowid, ok, nk) ->
        ignore (Btree.delete idx.tree nk);
        Btree.insert idx.tree ok rowid)
      rewritten
  in
  (try
     List.iter
       (fun (rowid, _, nk) ->
         insert_key t idx nk rowid;
         inserted := nk :: !inserted)
       refused
   with Constraint_violation _ as e ->
     undo ();
     raise e);
  Obs.add "index.rewritten" (List.length rewritten);
  Obs.add "index.moved" (List.length refused);
  undo

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
  let undos = ref [] in
  (try
     List.iter
       (fun idx ->
         match
           List.filter (fun (_, old, tu) -> key_differs idx.key_cols old tu 0) images
         with
         | [] -> ()
         | rows -> undos := move_keys t idx rows :: !undos)
       t.idxs
   with Constraint_violation _ as e ->
     List.iter (fun undo -> undo ()) !undos;
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

let update t rowid tuple = update_rows t [ (rowid, tuple) ]

let row_count t = t.live

let iter t ~stop f =
  let n = Vec.length t.slots in
  let rec go i =
    if i < n && not !stop then begin
      (match Vec.get t.slots i with
      | None -> ()
      | Some tuple ->
          t.reads <- t.reads + 1;
          f i tuple);
      go (i + 1)
    end
  in
  go 0

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

let check t =
  let check_index idx =
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Error (Printf.sprintf "index %s on %s: %s" idx.idx_name t.tbl_name m))
        fmt
    in
    match Btree.check_invariants idx.tree with
    | Error m -> fail "%s" m
    | Ok () when Btree.length idx.tree <> t.live ->
        fail "%d entries for %d rows" (Btree.length idx.tree) t.live
    | Ok () -> (
        (* as many entries as rows, and each row's key finds that row: the
           entries are exactly the keys rebuilt from the heap *)
        let lost (rowid, slot) =
          match slot with
          | None -> None
          | Some tuple ->
              let k = index_key idx ~rowid tuple in
              if Btree.find idx.tree k = Some rowid then None else Some k
        in
        match Seq.find_map lost (Vec.to_seq t.slots) with
        | None -> Ok ()
        | Some k -> fail "no entry %s for its row" (Tuple.to_string k))
  in
  List.fold_left
    (fun acc idx -> match acc with Ok () -> check_index idx | Error _ -> acc)
    (Ok ()) t.idxs

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
              t.live <- t.live + 1)
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
