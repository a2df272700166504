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

(* the image of every deleted slot, compared by identity: a slot holds its
   row's tuple itself, so a read loads no option box *)
let deleted : Tuple.t = [| Value.Null |]

type t = {
  tbl_name : string;
  tbl_schema : Schema.t;
  slots : Tuple.t Vec.t;  (* [deleted] where no row lives *)
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
    slots = Vec.create ~fill:deleted;
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

(* The key this index stores for the row (see Key): its key columns, then
   for a non-unique index the row id. [key_size] is its length and
   [write_key] writes it into a key of that length. *)
let key_size idx ~rowid tuple =
  let n = ref (if idx.unique then 0 else Key.size (Value.Int rowid)) in
  for i = 0 to Array.length idx.key_cols - 1 do
    n := !n + Key.size tuple.(idx.key_cols.(i))
  done;
  !n

let write_key idx b ~rowid tuple =
  let pos = ref 0 in
  for i = 0 to Array.length idx.key_cols - 1 do
    pos := Key.write b !pos tuple.(idx.key_cols.(i))
  done;
  if not idx.unique then ignore (Key.write b !pos (Value.Int rowid))

let index_key idx ~rowid tuple =
  let b = Bytes.create (key_size idx ~rowid tuple) in
  write_key idx b ~rowid tuple;
  b

let duplicate t idx tuple =
  Constraint_violation
    (Printf.sprintf "unique index %s on %s: duplicate key %s" idx.idx_name t.tbl_name
       (Tuple.to_string (Tuple.key idx.key_cols tuple)))

let insert_key t idx k ~rowid tuple =
  try Btree.insert idx.tree k rowid with Btree.Duplicate_key -> raise (duplicate t idx tuple)

let index_insert t idx rowid tuple =
  insert_key t idx (index_key idx ~rowid tuple) ~rowid tuple

let index_delete idx rowid tuple =
  ignore (Btree.delete idx.tree (index_key idx ~rowid tuple))

(* The keys under [idx] of the rows [rowid i] (ascending in [i]) with
   images [tuples.(i)], and the position of the [k]-th of them in key
   order. A unique index that would refuse a row inserted one at a time,
   in row-id order, is [Error i] for the least such row: the second of a
   run of equal keys. Keys that already ascend (the loaders' order and id
   indexes) are not sorted. *)
let sorted_keys idx rowid tuples =
  let keys = Array.mapi (fun i tuple -> index_key idx ~rowid:(rowid i) tuple) tuples in
  let cmp i j = Bytes.compare keys.(i) keys.(j) in
  let rec ascending i = i >= Array.length keys || (cmp (i - 1) i < 0 && ascending (i + 1)) in
  if ascending 1 then Ok (keys, Fun.id)
  else begin
    let order = Array.init (Array.length keys) Fun.id in
    Array.stable_sort cmp order;
    let refused = ref max_int in
    for k = 1 to Array.length order - 1 do
      if cmp order.(k - 1) order.(k) = 0 then refused := min !refused order.(k)
    done;
    if !refused < max_int then Error !refused else Ok (keys, Array.get order)
  end

let empty idx = Btree.build idx.tree 0 (fun _ -> Bytes.empty) Fun.id

(* Fill the empty indexes [idxs] bottom-up over these rows, one at a time,
   or raise the violation inserting the rows one at a time would: the
   least refused row, at the first index refusing it. A violation leaves
   every index empty. *)
let build t idxs rowid tuples =
  let refused =
    List.fold_left
      (fun acc idx ->
        match (sorted_keys idx rowid tuples, acc) with
        | Ok (keys, nth), _ ->
            Btree.build idx.tree (Array.length keys)
              (fun k -> keys.(nth k))
              (fun k -> rowid (nth k));
            acc
        | Error i, Some (_, j) when j <= i -> acc
        | Error i, _ -> Some (idx, i))
      None idxs
  in
  Option.iter
    (fun (idx, i) ->
      List.iter empty idxs;
      raise (duplicate t idx tuples.(i)))
    refused

let create_index t ~name ~cols ~unique =
  Array.iter
    (fun c ->
      (* Db resolves every column by name in this table's schema *)
      if c < 0 || c >= Schema.arity t.tbl_schema then
        invalid_arg "Table.create_index: column out of range")
    cols;
  let idx = { idx_name = name; key_cols = cols; unique; tree = Btree.create () } in
  let live = Array.of_seq (Seq.filter (fun (_, tu) -> tu != deleted) (Vec.to_seq t.slots)) in
  build t [ idx ] (fun i -> fst live.(i)) (Array.map snd live);
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
  let rowid = Vec.push t.slots tuple in
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
     Vec.set t.slots rowid deleted;
     List.iter (fun idx -> index_delete idx rowid tuple) !added;
     raise e);
  t.live <- t.live + 1;
  t.writes <- t.writes + 1;
  record t (U_insert rowid);
  rowid

let read t rowid =
  let tu = Vec.get t.slots rowid in
  if tu != deleted then t.reads <- t.reads + 1;
  tu

let get t rowid =
  let tu = read t rowid in
  if tu == deleted then None else Some tu

(* drop a live row and its index entries *)
let unlink t rowid tuple =
  List.iter (fun idx -> index_delete idx rowid tuple) t.idxs;
  Vec.set t.slots rowid deleted;
  t.live <- t.live - 1

let delete t rowid =
  let tuple = Vec.get t.slots rowid in
  if tuple != deleted then begin
    unlink t rowid tuple;
    t.writes <- t.writes + 1;
    record t (U_delete (rowid, tuple))
  end

let insert_many t rows =
  let tuples = Array.of_list rows in
  if t.live = 0 && Array.for_all (fun tu -> Schema.check_tuple t.tbl_schema tu = Ok ()) tuples
  then begin
    let base = Vec.length t.slots in
    build t t.idxs (fun i -> base + i) tuples;
    Array.iter (fun tu -> record t (U_insert (Vec.push t.slots tu))) tuples;
    t.live <- Array.length tuples;
    t.writes <- t.writes + Array.length tuples
  end
  else begin
    (* one at a time; a refused row removes the rows inserted before it *)
    let inserted = ref [] in
    try List.iter (fun row -> inserted := insert t row :: !inserted) rows
    with Constraint_violation _ as e ->
      List.iter (delete t) !inserted;
      raise e
  end

(* [compare_old]: index order on the old images of batch rows [i] and [j]
   (a non-unique index's keys end in the rowid); top-level, so that sorting
   a batch allocates nothing per comparison *)
let compare_old idx rowids olds i j =
  let c = Tuple.compare_cols idx.key_cols olds.(i) olds.(j) in
  if c <> 0 || idx.unique then c else Int.compare rowids.(i) rowids.(j)

let rec ascending cmp order k =
  k >= Array.length order || (cmp order.(k - 1) order.(k) < 0 && ascending cmp order (k + 1))

(* The batch positions of the rows whose key under [idx] changed (in one of
   its key columns the statement assigned, [cols]), in the order of their
   old keys: as the access path read them when that is already key order,
   else picked out of one walk over the index (through [t.marks]) when they
   are at least a fourteenth of its entries (one per live row; the measured
   crossover, see DESIGN.md), else sorted. [all], as long as the batch, is
   the statement's scratch, shared by its indexes. *)
let key_order t idx cols rowids olds news all =
  let m = ref 0 in
  let add order j =
    if j >= 0 && Tuple.compare_cols cols olds.(j) news.(j) <> 0 then (order.(!m) <- j; incr m)
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
let move_keys t idx cols rowids olds news all =
  let order = key_order t idx cols rowids olds news all in
  let m = Array.length order in
  (* the old and new key of row [!cur], in scratch keys reused per length;
     an in-place rewrite beside the last one reads no old key *)
  let olds_k = Key.scratch () and news_k = Key.scratch () and cur = ref 0 in
  let scratch keys tuples =
    let j = !cur and rowid = rowids.(!cur) in
    let b = Key.scratch_key keys (key_size idx ~rowid tuples.(j)) in
    write_key idx b ~rowid tuples.(j);
    b
  in
  let old_key () = scratch olds_k olds and new_key () = scratch news_k news in
  let fill j =
    cur := j;
    rowids.(j)
  in
  let up = m > 0 && (ignore (fill order.(0)); Bytes.compare (new_key ()) (old_key ()) > 0) in
  (* every changed row, in the order its key is rewritten or in reverse *)
  let visit ~reverse g =
    if up <> reverse then for k = m - 1 downto 0 do g order.(k) done
    else for k = 0 to m - 1 do g order.(k) done
  in
  let refused = ref [] and rewritten = ref 0 in
  visit ~reverse:false (fun i ->
      let value = fill i in
      if Btree.rewrite_key idx.tree ~value ~old:old_key (new_key ()) then incr rewritten
      else refused := i :: !refused);
  let refused = List.rev !refused and inserted = ref 0 in
  List.iter (fun i -> ignore (fill i); ignore (Btree.delete idx.tree (old_key ()))) refused;
  let undo () =
    List.iteri
      (fun j i ->
        if j < !inserted then (ignore (fill i); ignore (Btree.delete idx.tree (new_key ()))))
      refused;
    List.iter
      (fun i -> let rowid = fill i in Btree.insert idx.tree (Bytes.copy (old_key ())) rowid)
      refused;
    let moved = Array.make (Array.length rowids) false in
    List.iter (fun i -> moved.(i) <- true) refused;
    (* newest first, so each old key is free when it returns *)
    visit ~reverse:true (fun i ->
        let rowid = fill i in
        if not (moved.(i) || Btree.rewrite_key idx.tree ~value:rowid ~old:new_key (old_key ()))
        then begin
          ignore (Btree.delete idx.tree (new_key ()));
          Btree.insert idx.tree (Bytes.copy (old_key ())) rowid
        end)
  in
  (try
     List.iter
       (fun i ->
         let rowid = fill i in
         insert_key t idx (Bytes.copy (new_key ())) ~rowid news.(i);
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
   under THAT index actually changed. The columns the statement assigned
   are those whose value some row's image replaced (by identity); an index
   with none of them among its key columns is skipped with no per-row work
   (an UPDATE that shifts g_order never reads the id index, a value-only
   UPDATE no index at all), and the others compare only those columns to
   find the rows whose key changed. Only replaced values are validated.
   Atomic with respect to unique-key violations. *)
let update_rows t rowids news =
  let n = Array.length rowids in
  let olds = Array.make n [||] and assigned = Array.make (Array.length t.tbl_schema) false in
  for j = 0 to n - 1 do
    let old = Vec.get t.slots rowids.(j) in
    (* Db updates only the rows its access path has just read *)
    if old == deleted then invalid_arg "Table.update_rows: row deleted";
    let tu = news.(j) in
    if Array.length tu <> Array.length old then validate t tu;
    for c = 0 to Array.length tu - 1 do
      if tu.(c) != old.(c) then begin
        assigned.(c) <- true;
        if not (Schema.fits t.tbl_schema.(c) tu.(c)) then validate t tu
      end
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
      try
        List.iter
          (fun idx ->
            match List.filter (Array.get assigned) (Array.to_list idx.key_cols) with
            | [] -> ()
            | cols -> undos := move_keys t idx (Array.of_list cols) rowids olds news all :: !undos)
          t.idxs
      with Constraint_violation _ as e ->
        List.iter (fun undo -> undo ()) !undos;
        raise e);
  record t (U_update (rowids, olds));
  Array.iteri (fun j rowid -> Vec.set t.slots rowid news.(j)) rowids;
  t.writes <- t.writes + n

let update t rowid tuple = update_rows t [| rowid |] [| tuple |]

let row_count t = t.live

let iter t ~stop f =
  let n = Vec.length t.slots in
  let rec go i =
    if i < n && not !stop then begin
      let tuple = Vec.get t.slots i in
      if tuple != deleted then begin
        t.reads <- t.reads + 1;
        f i tuple
      end;
      go (i + 1)
    end
  in
  go 0

let scan t =
  Seq.filter
    (fun (_, tuple) ->
      let live = tuple != deleted in
      if live then t.reads <- t.reads + 1;
      live)
    (Vec.to_seq t.slots)

let truncate t =
  (* Db truncates only scratch relations, which never join a journal *)
  if t.journal <> None then
    invalid_arg "Table.truncate: not allowed inside a transaction";
  Vec.clear t.slots;
  t.live <- 0;
  List.iter empty t.idxs

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
        let lost (rowid, tuple) =
          if tuple != deleted && Btree.find idx.tree (index_key idx ~rowid tuple) <> Some rowid
          then Some (rowid, tuple)
          else None
        in
        match Seq.find_map lost (Vec.to_seq t.slots) with
        | None -> Ok ()
        | Some (rowid, tuple) ->
            fail "no entry %s for row %d" (Tuple.to_string (Tuple.key idx.key_cols tuple)) rowid)
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
      let remove rowid =
        let tuple = Vec.get t.slots rowid in
        if tuple != deleted then unlink t rowid tuple
      in
      let resurrect rowid tuple =
        Vec.set t.slots rowid tuple;
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
  Vec.fold (fun acc tu -> if tu == deleted then acc else acc + Tuple.size_bytes tu) 0 t.slots
