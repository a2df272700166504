type index = {
  idx_name : string;
  key_cols : int array;
  unique : bool;
  tree : Btree.t;
}

type undo =
  | U_insert of int  (* row id to remove *)
  | U_delete of int * Tuple.t  (* row id to resurrect with this image *)
  | U_update of int array * Tuple.t array  (* an UPDATE's rows, old images *)

type t = {
  tbl_name : string;
  tbl_schema : Schema.t;
  slots : Tuple.t option Vec.t;
  mutable live : int;
  mutable idxs : index list;
  mutable reads : int;
  mutable writes : int;
  mutable journal : undo list option;
  (* 1 + a row's position in the running UPDATE's batch, 0 elsewhere *)
  mutable marks : int array;
}

exception Constraint_violation of string

let create tbl_name tbl_schema =
  {
    tbl_name;
    tbl_schema;
    slots = Vec.create ~fill:None;
    live = 0;
    idxs = [];
    reads = 0;
    writes = 0;
    journal = None;
    marks = [||];
  }

let name t = t.tbl_name
let schema t = t.tbl_schema
let indexes t = t.idxs

let find_index t n =
  List.find_opt (fun i -> String.lowercase_ascii i.idx_name = String.lowercase_ascii n) t.idxs

let key_length idx = Array.length idx.key_cols + if idx.unique then 0 else 1

(* write the key this index stores for the row into [k]: a fresh key for
   every insert and delete, one of two scratch keys when renumbering *)
let fill_key idx k ~rowid tuple =
  let cols = idx.key_cols in
  for i = 0 to Array.length cols - 1 do k.(i) <- tuple.(cols.(i)) done;
  if not idx.unique then k.(Array.length cols) <- Value.Int rowid

let index_key idx ~rowid tuple =
  let k = Array.make (key_length idx) Value.Null in
  fill_key idx k ~rowid tuple;
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
      (* Db resolves every column by name in this table's schema *)
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

(* drop a live row and its index entries *)
let unlink t rowid tuple =
  List.iter (fun idx -> index_delete idx rowid tuple) t.idxs;
  Vec.set t.slots rowid None;
  t.live <- t.live - 1

let delete t rowid =
  if rowid >= 0 && rowid < Vec.length t.slots then
    match Vec.get t.slots rowid with
    | None -> ()
    | Some tuple ->
        unlink t rowid tuple;
        t.writes <- t.writes + 1;
        record t (U_delete (rowid, tuple))

(* [compare_old]: index order on the old images of batch rows [i] and [j]
   (a non-unique index's keys end in the rowid); top-level, so that sorting
   a batch allocates nothing per comparison *)
let compare_old idx rowids olds i j =
  let c = Tuple.compare_cols idx.key_cols olds.(i) olds.(j) in
  if c <> 0 || idx.unique then c else Int.compare rowids.(i) rowids.(j)

let rec ascending cmp order k =
  k >= Array.length order || (cmp order.(k - 1) order.(k) < 0 && ascending cmp order (k + 1))

(* The batch positions of the rows whose key under [idx] changed, in the
   order of their old keys: as the access path read them when that is
   already key order, else picked out of one walk over the index (through
   [t.marks]) when they are at least a fourteenth of its entries (one per
   live row; the measured crossover, see DESIGN.md), else sorted. [all],
   as long as the batch, is the statement's scratch, shared by its indexes. *)
let key_order t idx rowids olds news all =
  let m = ref 0 in
  let add order j =
    if j >= 0 && Tuple.compare_cols idx.key_cols olds.(j) news.(j) <> 0 then (order.(!m) <- j; incr m)
  in
  Array.iteri (fun j _ -> add all j) rowids;
  let order = Array.sub all 0 !m and cmp i j = compare_old idx rowids olds i j in
  if not (ascending cmp order 1) then
    if 14 * !m >= t.live then begin
      m := 0;
      Btree.iter idx.tree ~lo:Unbounded ~hi:Unbounded ~reverse:false (fun _ rowid ->
          add order (t.marks.(rowid) - 1);
          !m < Array.length order)
    end
    else Array.stable_sort cmp order;
  order

(* Move the changed keys of one index. Each key is first rewritten in its
   slot ([Btree.rewrite_key]) from two scratch keys, visiting the rows in
   old-key order ([key_order]) so the tree's finger holds from one to the
   next: top-down when the keys move up, bottom-up when they move down, so
   every key of an order-preserving shift finds its neighbour already out
   of its way. Keys refused there are deleted and re-inserted after all
   in-place writes. Returns the function that undoes both, rebuilding the
   keys from the row images. *)
let move_keys t idx rowids olds news all =
  let order = key_order t idx rowids olds news all in
  let m = Array.length order in
  let ok = Array.make (key_length idx) Value.Null in
  let nk = Array.make (key_length idx) Value.Null in
  let fill j =
    let rowid = rowids.(j) in
    fill_key idx ok ~rowid olds.(j);
    fill_key idx nk ~rowid news.(j);
    rowid
  in
  let up = m > 0 && (ignore (fill order.(0)); Tuple.compare_key nk ok > 0) in
  (* every changed row, in the order its key is rewritten or in reverse *)
  let visit ~reverse g =
    if up <> reverse then for k = m - 1 downto 0 do g order.(k) done
    else for k = 0 to m - 1 do g order.(k) done
  in
  let refused = ref [] and rewritten = ref 0 in
  visit ~reverse:false (fun i ->
      ignore (fill i);
      if Btree.rewrite_key idx.tree ~old:ok nk then incr rewritten
      else refused := i :: !refused);
  let refused = List.rev !refused and inserted = ref 0 in
  List.iter (fun i -> ignore (fill i); ignore (Btree.delete idx.tree ok)) refused;
  let undo () =
    List.iteri
      (fun j i -> if j < !inserted then (ignore (fill i); ignore (Btree.delete idx.tree nk)))
      refused;
    List.iter (fun i -> let rowid = fill i in Btree.insert idx.tree (Array.copy ok) rowid) refused;
    let moved = Array.make (Array.length rowids) false in
    List.iter (fun i -> moved.(i) <- true) refused;
    (* newest first, so each old key is free when it returns *)
    visit ~reverse:true (fun i ->
        let rowid = fill i in
        if not (moved.(i) || Btree.rewrite_key idx.tree ~old:nk ok) then begin
          ignore (Btree.delete idx.tree nk);
          Btree.insert idx.tree (Array.copy ok) rowid
        end)
  in
  (try
     List.iter
       (fun i ->
         let rowid = fill i in
         insert_key t idx (Array.copy nk) rowid;
         incr inserted)
       refused
   with Constraint_violation _ as e ->
     undo ();
     raise e);
  Obs.add "index.rewritten" !rewritten;
  Obs.add "index.moved" (List.length refused);
  undo

(* Statement-level bulk update. Rowids are preserved (each row's slot takes
   its new image) and each index is maintained only for the rows whose key
   under THAT index actually changed — an UPDATE that shifts g_order never
   touches the id index, and a value-only UPDATE touches no index at all.
   Only the columns whose value the statement replaced are validated.
   Atomic with respect to unique-key violations. *)
let update_rows t rowids news =
  let n = Array.length rowids in
  let olds = Array.make n [||] in
  for j = 0 to n - 1 do
    match Vec.get t.slots rowids.(j) with
    (* Db updates only the rows its access path has just read *)
    | None -> invalid_arg "Table.update_rows: row deleted"
    | Some old ->
        let tu = news.(j) in
        if Array.length tu <> Array.length old then validate t tu;
        for c = 0 to Array.length tu - 1 do
          if tu.(c) != old.(c) && not (Schema.fits t.tbl_schema.(c) tu.(c)) then validate t tu
        done;
        olds.(j) <- old
  done;
  if Array.length t.marks < Vec.length t.slots then
    t.marks <- Array.make (Vec.length t.slots + (Vec.length t.slots / 8) + 64) 0;
  Array.iteri (fun j rowid -> t.marks.(rowid) <- j + 1) rowids;
  let undos = ref [] and all = Array.make n 0 in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun rowid -> t.marks.(rowid) <- 0) rowids)
    (fun () ->
      try List.iter (fun idx -> undos := move_keys t idx rowids olds news all :: !undos) t.idxs
      with Constraint_violation _ as e ->
        List.iter (fun undo -> undo ()) !undos;
        raise e);
  record t (U_update (rowids, olds));
  Array.iteri (fun j rowid -> Vec.set t.slots rowid (Some news.(j))) rowids;
  t.writes <- t.writes + n

let update t rowid tuple = update_rows t [| rowid |] [| tuple |]

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
  (* Db truncates only scratch relations, which never join a journal *)
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
  (* Db opens journals only in [begin_txn], which refuses a second
     transaction, and refuses DDL inside one *)
  if t.journal <> None then invalid_arg "Table.begin_journal: already active";
  t.journal <- Some []

let commit_journal t = t.journal <- None

let rollback_journal t =
  match t.journal with
  | None -> ()
  | Some log ->
      (* stop recording while we unwind *)
      t.journal <- None;
      (* an UPDATE removes all its new images before restoring any old
         one, so no unique key collides mid-unwind *)
      let remove rowid = Option.iter (unlink t rowid) (Vec.get t.slots rowid) in
      let resurrect rowid tuple =
        Vec.set t.slots rowid (Some tuple);
        List.iter (fun idx -> index_insert t idx rowid tuple) t.idxs;
        t.live <- t.live + 1
      in
      List.iter
        (function
          | U_insert rowid -> remove rowid
          | U_delete (rowid, tuple) -> resurrect rowid tuple
          | U_update (rowids, olds) ->
              Array.iter remove rowids;
              Array.iteri (fun j rowid -> resurrect rowid olds.(j)) rowids)
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
