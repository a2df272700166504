(* The user-facing facade (Api.Store) and database persistence. *)

module O = Ordered_xml
module T = Xmllib.Types
module D = Reldb.Db

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let catalog_doc () =
  Xmllib.Parser.parse_document
    {|<catalog><book y="1999"><title>A</title><price>10.5</price></book><book y="2005"><title>B</title><price>20</price></book></catalog>|}

let test_store_lifecycle () =
  let db = D.create () in
  let store = O.Api.Store.create db ~name:"c" O.Encoding.Dewey_enc (catalog_doc ()) in
  check string_t "name" "c" (O.Api.Store.name store);
  check bool_t "encoding" true (O.Api.Store.encoding store = O.Encoding.Dewey_enc);
  (* duplicate create fails *)
  (match O.Api.Store.create db ~name:"c" O.Encoding.Dewey_enc (catalog_doc ()) with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate store accepted");
  (* open_existing works, wrong encoding fails *)
  let again = O.Api.Store.open_existing db ~name:"c" O.Encoding.Dewey_enc in
  check int_t "reopened" 2 (O.Api.Store.count again "/catalog/book");
  (match O.Api.Store.open_existing db ~name:"c" O.Encoding.Local with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "open with wrong encoding accepted");
  O.Api.Store.drop store;
  match O.Api.Store.open_existing db ~name:"c" O.Encoding.Dewey_enc with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "open after drop accepted"

let test_query_surfaces () =
  let db = D.create () in
  let store = O.Api.Store.create db ~name:"c" O.Encoding.Global (catalog_doc ()) in
  check (Alcotest.list string_t) "values" [ "A"; "B" ]
    (O.Api.Store.query_values store "/catalog/book/title");
  check (Alcotest.list string_t) "attr values" [ "1999"; "2005" ]
    (O.Api.Store.query_values store "/catalog/book/@y");
  check int_t "count" 1 (O.Api.Store.count store "/catalog/book[price > 15]");
  (match O.Api.Store.query_nodes store "/catalog/book[1]/title" with
  | [ T.Element { tag = "title"; children = [ T.Text "A" ]; _ } ] -> ()
  | _ -> Alcotest.fail "query_nodes shape");
  (* element string-value via query_values *)
  check (Alcotest.list string_t) "element value" [ "A10.5" ]
    (O.Api.Store.query_values store "/catalog/book[1]");
  match O.Api.Store.query store "/catalog/book[" with
  | exception O.Xpath_parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "bad xpath accepted"

let test_multi_store_one_db () =
  (* several documents under different names and encodings share an engine *)
  let db = D.create () in
  let a = O.Api.Store.create db ~name:"a" O.Encoding.Local (catalog_doc ()) in
  let b =
    O.Api.Store.create db ~name:"b" O.Encoding.Dewey_caret
      (Xmllib.Generator.flat ~tag:"item" ~count:5 ())
  in
  check int_t "a books" 2 (O.Api.Store.count a "/catalog/book");
  check int_t "b items" 5 (O.Api.Store.count b "/doc/item");
  O.Api.Store.drop a;
  check int_t "b survives" 5 (O.Api.Store.count b "/doc/item")

(* A store reloaded from a checkpointed directory (Test_wal.reload). *)
let test_dump_restore () =
  let db, db2 =
    Test_wal.reload (fun db ->
        let s = O.Api.Store.create db ~name:"c" O.Encoding.Dewey_enc (catalog_doc ()) in
        (* exercise values with quotes and newlines *)
        let tid = List.hd (O.Api.Store.query_ids s "/catalog/book[1]/title/text()") in
        ignore (O.Api.Store.set_text s ~id:tid "it's\nmulti;line"))
  in
  let store = O.Api.Store.open_existing db ~name:"c" O.Encoding.Dewey_enc in
  let store2 = O.Api.Store.open_existing db2 ~name:"c" O.Encoding.Dewey_enc in
  check bool_t "documents equal" true
    (T.equal_document (O.Api.Store.document store) (O.Api.Store.document store2));
  (* indexes were restored: ordered query must still work *)
  check int_t "positional query" 1 (O.Api.Store.count store2 "/catalog/book[2]");
  (* the reloaded state is the checkpointed one *)
  check string_t "state stable" (Test_wal.state db) (Test_wal.state db2)

let test_dump_restore_files () =
  let _, db2 =
    Test_wal.reload (fun db ->
        ignore (O.Api.Store.create db ~name:"c" O.Encoding.Global (catalog_doc ())))
  in
  let s2 = O.Api.Store.open_existing db2 ~name:"c" O.Encoding.Global in
  check int_t "restored rows" 2 (O.Api.Store.count s2 "/catalog/book")

let test_float_values_roundtrip () =
  (* whole floats must stay floats across a checkpoint reload *)
  let _, db2 =
    Test_wal.reload (fun db ->
        ignore (D.exec db "CREATE TABLE f (x FLOAT)");
        ignore (D.exec db "INSERT INTO f VALUES (42.0), (0.5)"))
  in
  match D.query db2 "SELECT x FROM f ORDER BY x" with
  | [ [| Reldb.Value.Float 0.5 |]; [| Reldb.Value.Float 42.0 |] ] -> ()
  | _ -> Alcotest.fail "float roundtrip"

let test_no_subtree () =
  List.iter
    (fun enc ->
      let db = D.create () in
      let store = O.Api.Store.create db ~name:"c" enc (catalog_doc ()) in
      let attr = List.hd (O.Api.Store.query_ids store "/catalog/book[1]/@y") in
      let missing = 1_000_000 in
      List.iter
        (fun (what, id) ->
          let label = O.Encoding.name enc ^ ": " ^ what in
          (match O.Api.Store.subtree store ~id with
          | exception O.Api.No_subtree i -> check int_t (label ^ " subtree") id i
          | _ -> Alcotest.fail (label ^ ": subtree accepted"));
          match O.Api.Store.serialize store ~id with
          | exception O.Api.No_subtree i -> check int_t (label ^ " serialize") id i
          | _ -> Alcotest.fail (label ^ ": serialize accepted"))
        [ ("unknown id", missing); ("attribute", attr) ];
      match O.Api.Store.query_nodes store "/catalog/book/@y" with
      | exception O.Api.No_subtree _ -> ()
      | _ -> Alcotest.fail "query_nodes rebuilt an attribute")
    O.Encoding.all

(* Rows deleted through SQL leave no document: root_id and document raise
   the declared No_document, not Not_found. *)
let test_no_document () =
  List.iter
    (fun enc ->
      let db = D.create () in
      let store = O.Api.Store.create db ~name:"c" enc (catalog_doc ()) in
      ignore (D.exec db ("DELETE FROM " ^ O.Encoding.table_name ~doc:"c" enc));
      let label = O.Encoding.name enc in
      (match O.Api.Store.root_id store with
      | exception O.Api.No_document name -> check string_t (label ^ " root_id") "c" name
      | _ -> Alcotest.fail (label ^ ": root_id of an empty store"));
      match O.Api.Store.document store with
      | exception O.Api.No_document name -> check string_t (label ^ " document") "c" name
      | _ -> Alcotest.fail (label ^ ": document of an empty store"))
    O.Encoding.all

(* A store keeps any string set_text and set_attribute are given, but one
   the parser would refuse raw is refused on the way out: serialize never
   writes XML that does not parse back. *)
let test_unprintable_values () =
  List.iter
    (fun enc ->
      let db = D.create () in
      let store = O.Api.Store.create db ~name:"c" enc (catalog_doc ()) in
      let label = O.Encoding.name enc in
      let book = List.hd (O.Api.Store.query_ids store "/catalog/book[1]") in
      let tid = List.hd (O.Api.Store.query_ids store "/catalog/book[1]/title/text()") in
      let refused what =
        match O.Api.Store.serialize store ~id:book with
        | exception Xmllib.Printer.Unserializable _ -> ()
        | s -> Alcotest.failf "%s: %s serialized as %S" label what s
      in
      ignore (O.Api.Store.set_text store ~id:tid "\x01");
      refused "text \\x01";
      ignore (O.Api.Store.set_text store ~id:tid "t");
      ignore (O.Api.Store.set_attribute store ~id:book ~name:"y" ~value:"\xff");
      refused "attribute \\xff";
      ignore (O.Api.Store.set_attribute store ~id:book ~name:"y" ~value:"\xc3\xa9");
      let doc = Xmllib.Parser.parse_document (O.Api.Store.serialize store ~id:book) in
      check (Alcotest.option string_t) (label ^ " UTF-8 parses back") (Some "\xc3\xa9")
        (T.attribute_value (T.Element doc.T.root) "y"))
    O.Encoding.all

let tests =
  ( "api",
    [
      Alcotest.test_case "store lifecycle" `Quick test_store_lifecycle;
      Alcotest.test_case "query surfaces" `Quick test_query_surfaces;
      Alcotest.test_case "multiple stores" `Quick test_multi_store_one_db;
      Alcotest.test_case "dump/restore" `Quick test_dump_restore;
      Alcotest.test_case "dump/restore files" `Quick test_dump_restore_files;
      Alcotest.test_case "float literal roundtrip" `Quick test_float_values_roundtrip;
      Alcotest.test_case "subtree of no node" `Quick test_no_subtree;
      Alcotest.test_case "no document after DELETE" `Quick test_no_document;
      Alcotest.test_case "unprintable values" `Quick test_unprintable_values;
    ] )

(* baseline: the same edits, applied to documents built node by node, must
   give the shredded store's documents *)
let test_built_baseline () =
  let item i =
    T.element "item"
      ~attrs:[ T.attr "rank" (string_of_int i) ]
      [
        T.element "f0" [ T.text (Printf.sprintf "%d-0" i) ];
        T.element "f1" [ T.text (Printf.sprintf "%d-1" i) ];
      ]
  in
  let doc_of items = T.doc_of_node (T.element "doc" items) in
  (* [x] becomes the [pos]-th (1-based) member of [l] *)
  let insert_at pos x l =
    List.filteri (fun i _ -> i < pos - 1) l
    @ (x :: List.filteri (fun i _ -> i >= pos - 1) l)
  in
  let items = List.init 10 item in
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:10 () in
  check bool_t "built document" true (T.equal_document (doc_of items) doc);
  let db = D.create () in
  let store = O.Api.Store.create db ~name:"n" O.Encoding.Global doc in
  let frag = T.element "item" [ T.text "new" ] in
  check int_t "query agrees" (List.length items)
    (O.Api.Store.count store "/doc/item");
  let root = O.Api.Store.root_id store in
  ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:4 frag);
  let items = insert_at 4 frag items in
  check bool_t "insert agrees" true
    (T.equal_document (doc_of items) (O.Api.Store.document store));
  (let victim = List.hd (O.Api.Store.query_ids store "/doc/item[6]") in
   ignore (O.Api.Store.delete_subtree store ~id:victim));
  let items = List.filteri (fun i _ -> i <> 5) items in
  check bool_t "delete agrees" true
    (T.equal_document (doc_of items) (O.Api.Store.document store));
  (* nested edit: insert under a non-root element *)
  let extra = T.element "extra" [] in
  let sub = List.hd (O.Api.Store.query_ids store "/doc/item[2]") in
  ignore (O.Api.Store.insert_subtree store ~parent:sub ~pos:1 extra);
  let items =
    List.mapi
      (fun i n ->
        if i <> 1 then n
        else T.element "item" ~attrs:(T.attributes_of n) (extra :: T.children_of n))
      items
  in
  check bool_t "nested insert agrees" true
    (T.equal_document (doc_of items) (O.Api.Store.document store))

let tests =
  (fst tests, snd tests @ [ Alcotest.test_case "native baseline" `Quick test_built_baseline ])
