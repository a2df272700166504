(* DEWEY renumbering in the write-ahead log: the statements an insert logs
   replay under Db.open_dir, before any store is attached, and a log holding
   the older per-subtree path rewrites (one [? || SUBSTR(path, ?)] UPDATE
   per following sibling subtree) still replays to the same document. *)

module O = Ordered_xml
module D = Reldb.Db
module V = Reldb.Value
module T = Xmllib.Types

let check = Alcotest.check
let bool_t = Alcotest.bool

let doc () = Xmllib.Generator.flat ~tag:"item" ~count:6 ()
let frag = T.element "item" ~attrs:[ T.attr "rank" "new" ] [ T.text "inserted" ]
let paths db = D.query db "SELECT id, path FROM u_dewey ORDER BY id"

let log_text dir =
  String.concat ""
    (List.filter_map
       (fun f ->
         if String.starts_with ~prefix:"wal." f then Some (Test_wal.read_bytes (Filename.concat dir f))
         else None)
       (Array.to_list (Sys.readdir dir)))

(* close, reopen with no store (replay runs in open_dir), compare the raw
   rows, then attach the store and compare the document *)
let replays dir db store =
  let rows = paths db and live = O.Api.Store.document store in
  D.close db;
  let db2 = D.open_dir dir in
  Fun.protect ~finally:(fun () -> D.close db2) @@ fun () ->
  check bool_t "rows replayed before a store is attached" true (paths db2 = rows);
  let reopened = O.Api.Store.open_existing db2 ~name:"u" O.Encoding.Dewey_enc in
  check bool_t "same document" true (T.equal_document live (O.Api.Store.document reopened));
  check bool_t "store check" true (O.Api.Store.check reopened = Ok ())

let test_shift_replays () =
  Test_wal.with_dir @@ fun dir ->
  let db = D.open_dir dir in
  let store = O.Api.Store.create db ~name:"u" O.Encoding.Dewey_enc (doc ()) in
  let root = O.Api.Store.root_id store in
  ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag);
  ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:4 frag);
  check bool_t "the log holds PATH_SHIFT" true
    (Astring_contains.contains (log_text dir) "PATH_SHIFT(path, ?, ?)");
  replays dir db store

(* what a front insert logged before one statement shifted all siblings:
   the following sibling subtrees moved one at a time, the last first, each
   to the new prefix followed by the rest of its own path *)
let test_per_subtree_records_replay () =
  Test_wal.with_dir @@ fun dir ->
  let db = D.open_dir dir in
  let store = O.Api.Store.create db ~name:"u" O.Encoding.Dewey_enc (doc ()) in
  let rewrite = "UPDATE u_dewey SET path = ? || SUBSTR(path, ?) WHERE path >= ? AND path < ?" in
  D.with_transaction db (fun () ->
      for c = 6 downto 1 do
        let old_path = O.Dewey.encode [| 1; c |] in
        ignore
          (D.exec_params db rewrite
             [|
               V.Bytes (O.Dewey.encode [| 1; c + 1 |]);
               V.Int (String.length old_path + 1);
               V.Bytes old_path;
               V.Bytes (old_path ^ "\xff");
             |])
      done);
  check bool_t "the log holds the per-subtree rewrite" true
    (Astring_contains.contains (log_text dir) "? || SUBSTR(path, ?)");
  check bool_t "first child moved to 1.2" true
    (List.exists (fun r -> r.(1) = V.Bytes (O.Dewey.encode [| 1; 2 |])) (paths db));
  let root = O.Api.Store.root_id store in
  ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag);
  replays dir db store

let tests =
  ( "dewey-wal",
    [
      Alcotest.test_case "PATH_SHIFT records replay" `Quick test_shift_replays;
      Alcotest.test_case "per-subtree rewrites replay" `Quick test_per_subtree_records_replay;
    ] )
