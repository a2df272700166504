(* Updates: DOM-equivalence of insert/delete/set_text under every encoding,
   the relative renumbering costs the paper reports, and invariants after
   random edit sequences. *)

module O = Ordered_xml
module T = Xmllib.Types
module U = O.Update
module D = Reldb.Db
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let base_doc () = Xmllib.Generator.flat ~tag:"item" ~count:20 ()

let all_stores doc =
  let db = Reldb.Db.create () in
  List.map (fun enc -> (enc, O.Api.Store.create db ~name:"u" enc doc)) O.Encoding.all

(* structural-invariant gate: every update workload must leave all encodings
   in a state Integrity.check accepts *)
let assert_integrity stores =
  List.iter
    (fun (enc, store) ->
      match O.Integrity.check (O.Api.Store.db store) ~doc:"u" enc with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "%s integrity violated: %s" (O.Encoding.name enc)
            (String.concat "; " msgs))
    stores

(* DOM-side reference edit: insert node as pos-th child of root *)
let dom_insert_at_root doc pos node =
  let root = doc.T.root in
  let rec insert i = function
    | rest when i = pos -> node :: rest
    | [] -> [ node ]
    | c :: rest -> c :: insert (i + 1) rest
  in
  { doc with T.root = { root with T.children = insert 1 root.T.children } }

let frag = T.element "item" ~attrs:[ T.attr "rank" "new" ] [ T.text "inserted" ]

let test_insert_positions () =
  List.iter
    (fun pos ->
      let doc = base_doc () in
      let expected = dom_insert_at_root doc pos frag in
      let stores = all_stores doc in
      List.iter
        (fun (enc, store) ->
          let root = O.Api.Store.root_id store in
          ignore (O.Api.Store.insert_subtree store ~parent:root ~pos frag);
          let got = O.Api.Store.document store in
          if not (T.equal_document expected got) then
            Alcotest.failf "%s: insert at %d diverges from DOM edit"
              (O.Encoding.name enc) pos)
        stores;
      assert_integrity stores)
    [ 1; 10; 21 ]

let test_insert_nested_fragment () =
  let doc = base_doc () in
  let big = O.Workload.update_fragment ~seed:5 in
  let expected = dom_insert_at_root doc 5 big in
  List.iter
    (fun (enc, store) ->
      let root = O.Api.Store.root_id store in
      let st = O.Api.Store.insert_subtree store ~parent:root ~pos:5 big in
      check bool_t (O.Encoding.name enc ^ " many rows") true (st.U.rows_inserted > 20);
      check bool_t
        (O.Encoding.name enc ^ " equal")
        true
        (T.equal_document expected (O.Api.Store.document store)))
    (all_stores doc)

let test_renumbering_costs () =
  (* front insertion: LOCAL << DEWEY <= GLOBAL; GLOBAL touches ~everything.
     Every encoding renumbers in place: each renumbered row's index entries
     are rewritten in their slots, none deleted and re-inserted (ORDPATH's
     caret renumbering lifts the moved siblings last-first, so none crosses
     a sibling still waiting). *)
  let doc = base_doc () in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let costs =
    List.map
      (fun (enc, store) ->
        let root = O.Api.Store.root_id store in
        let rewritten = Obs.counter_value "index.rewritten"
        and moved = Obs.counter_value "index.moved" in
        let st = O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag in
        let name = O.Encoding.name enc in
        check int_t (name ^ " index entries moved") 0
          (Obs.counter_value "index.moved" - moved);
        check bool_t (name ^ " index entries rewritten in place") true
          (Obs.counter_value "index.rewritten" - rewritten >= st.U.rows_renumbered);
        (enc, st.U.rows_renumbered))
      (all_stores doc)
  in
  let cost e = List.assoc e costs in
  check bool_t "local renumbers only siblings" true
    (cost O.Encoding.Local = 20);
  check bool_t "global renumbers nearly everything" true
    (cost O.Encoding.Global > 100);
  check bool_t "dewey between" true
    (cost O.Encoding.Dewey_enc > cost O.Encoding.Local
    && cost O.Encoding.Dewey_enc < cost O.Encoding.Global);
  check int_t "gap variant absorbs the insert" 0 (cost O.Encoding.Global_gap)

let test_back_insert_cheap_everywhere () =
  let doc = base_doc () in
  List.iter
    (fun (enc, store) ->
      let root = O.Api.Store.root_id store in
      let st = O.Api.Store.insert_subtree store ~parent:root ~pos:21 frag in
      match enc with
      | O.Encoding.Local | O.Encoding.Dewey_enc | O.Encoding.Dewey_caret
      | O.Encoding.Global_gap ->
          check int_t (O.Encoding.name enc ^ " append renumbers") 0
            st.U.rows_renumbered
      | O.Encoding.Global ->
          (* dense intervals still shift the ancestors' end values *)
          check bool_t "global append touches only ancestors" true
            (st.U.rows_renumbered <= 2))
    (all_stores doc)

let test_gap_exhaustion_falls_back () =
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:4 () in
  let db = Reldb.Db.create () in
  let store = O.Api.Store.create ~gap:4 db ~name:"u" O.Encoding.Global_gap doc in
  let root = O.Api.Store.root_id store in
  (* keep inserting at the same point; the gap must eventually run out and
     renumbering kick in, while the document stays correct *)
  let total_renum = ref 0 in
  let expected = ref doc in
  for i = 1 to 8 do
    let st = O.Api.Store.insert_subtree store ~parent:root ~pos:2 frag in
    total_renum := !total_renum + st.U.rows_renumbered;
    expected := dom_insert_at_root !expected 2 frag;
    ignore i
  done;
  check bool_t "fallback occurred" true (!total_renum > 0);
  check bool_t "document correct" true
    (T.equal_document !expected (O.Api.Store.document store));
  assert_integrity [ (O.Encoding.Global_gap, store) ]

let test_delete () =
  let doc = base_doc () in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      let victim =
        match O.Api.Store.query_ids store "/doc/item[3]" with
        | [ id ] -> id
        | _ -> Alcotest.fail "victim lookup"
      in
      (* item + @rank + f0 + text + f1 + text = 6 records *)
      let st = O.Api.Store.delete_subtree store ~id:victim in
      check int_t (O.Encoding.name enc ^ " deleted rows") 6 st.U.rows_deleted;
      check int_t
        (O.Encoding.name enc ^ " remaining items")
        19
        (O.Api.Store.count store "/doc/item");
      (* positional query still works after the delete *)
      check int_t
        (O.Encoding.name enc ^ " item[3] exists")
        1
        (O.Api.Store.count store "/doc/item[3]"))
    stores;
  assert_integrity stores

let test_delete_then_insert_reuses_space () =
  let doc = base_doc () in
  List.iter
    (fun (_, store) ->
      let victim =
        match O.Api.Store.query_ids store "/doc/item[10]" with
        | [ id ] -> id
        | _ -> Alcotest.fail "victim"
      in
      ignore (O.Api.Store.delete_subtree store ~id:victim);
      let root = O.Api.Store.root_id store in
      ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:10 frag);
      check int_t "items stable" 20 (O.Api.Store.count store "/doc/item"))
    (all_stores doc)

let test_update_errors () =
  let doc = base_doc () in
  List.iter
    (fun (_, store) ->
      let root = O.Api.Store.root_id store in
      (match O.Api.Store.insert_subtree store ~parent:root ~pos:99 frag with
      | exception U.Update_error _ -> ()
      | _ -> Alcotest.fail "pos out of range accepted");
      (match O.Api.Store.delete_subtree store ~id:root with
      | exception U.Update_error _ -> ()
      | _ -> Alcotest.fail "root delete accepted");
      match O.Api.Store.insert_subtree store ~parent:999_999 ~pos:1 frag with
      | exception U.Update_error _ -> ()
      | _ -> Alcotest.fail "bad parent accepted")
    (all_stores doc)

let test_move_subtree () =
  let doc = base_doc () in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      (* move item[3] to the front *)
      let victim = List.hd (O.Api.Store.query_ids store "/doc/item[3]") in
      let root = O.Api.Store.root_id store in
      ignore (O.Api.Store.move_subtree store ~id:victim ~parent:root ~pos:1);
      check
        (Alcotest.list Alcotest.string)
        (O.Encoding.name enc ^ " moved to front")
        [ "2" ]
        (O.Api.Store.query_values store "/doc/item[1]/@rank");
      check int_t (O.Encoding.name enc ^ " count stable") 20
        (O.Api.Store.count store "/doc/item");
      (* move under another element *)
      let nest = List.hd (O.Api.Store.query_ids store "/doc/item[5]") in
      let target = List.hd (O.Api.Store.query_ids store "/doc/item[1]") in
      ignore (O.Api.Store.move_subtree store ~id:nest ~parent:target ~pos:1);
      check int_t (O.Encoding.name enc ^ " nested") 1
        (O.Api.Store.count store "/doc/item[1]/item");
      (* cannot move under own descendant *)
      let outer = List.hd (O.Api.Store.query_ids store "/doc/item[1]") in
      let inner = List.hd (O.Api.Store.query_ids store "/doc/item[1]/item") in
      match O.Api.Store.move_subtree store ~id:outer ~parent:inner ~pos:1 with
      | exception U.Update_error _ -> ()
      | _ -> Alcotest.fail "cycle move accepted")
    stores;
  assert_integrity stores

let test_replace_subtree () =
  let doc = base_doc () in
  let replacement =
    T.element "item" ~attrs:[ T.attr "rank" "fresh" ] [ T.text "swapped" ]
  in
  List.iter
    (fun (enc, store) ->
      let victim = List.hd (O.Api.Store.query_ids store "/doc/item[4]") in
      ignore (O.Api.Store.replace_subtree store ~id:victim replacement);
      check
        (Alcotest.list Alcotest.string)
        (O.Encoding.name enc ^ " replaced in place")
        [ "fresh" ]
        (O.Api.Store.query_values store "/doc/item[4]/@rank");
      check int_t (O.Encoding.name enc ^ " count stable") 20
        (O.Api.Store.count store "/doc/item");
      check bool_t (O.Encoding.name enc ^ " invariants") true
        (O.Integrity.check (O.Api.Store.db store) ~doc:"u" enc = Ok ()))
    (all_stores doc)

let test_attributes () =
  let doc = base_doc () in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      let item = List.hd (O.Api.Store.query_ids store "/doc/item[2]") in
      (* add a new attribute *)
      ignore (O.Api.Store.set_attribute store ~id:item ~name:"color" ~value:"red");
      check
        (Alcotest.list Alcotest.string)
        (O.Encoding.name enc ^ " added")
        [ "red" ]
        (O.Api.Store.query_values store "/doc/item[2]/@color");
      (* overwrite *)
      ignore (O.Api.Store.set_attribute store ~id:item ~name:"color" ~value:"blue");
      check
        (Alcotest.list Alcotest.string)
        (O.Encoding.name enc ^ " overwritten")
        [ "blue" ]
        (O.Api.Store.query_values store "/doc/item[2]/@color");
      (* numeric shadow works for predicates *)
      ignore (O.Api.Store.set_attribute store ~id:item ~name:"w" ~value:"2.5");
      check int_t (O.Encoding.name enc ^ " numeric attr") 1
        (O.Api.Store.count store "/doc/item[@w > 2]");
      (* remove *)
      ignore (O.Api.Store.remove_attribute store ~id:item ~name:"color");
      check int_t (O.Encoding.name enc ^ " removed") 0
        (O.Api.Store.count store "/doc/item[2]/@color");
      (* removing a missing attribute is a no-op *)
      let st = O.Api.Store.remove_attribute store ~id:item ~name:"nope" in
      check int_t (O.Encoding.name enc ^ " noop") 0 st.U.rows_deleted;
      check bool_t (O.Encoding.name enc ^ " invariants") true
        (O.Integrity.check (O.Api.Store.db store) ~doc:"u" enc = Ok ()))
    stores;
  (* every encoding converges to the same document *)
  let docs = List.map (fun (_, s) -> O.Api.Store.document s) stores in
  (match docs with
  | d0 :: rest ->
      List.iter
        (fun d ->
          check bool_t "attr edits agree" true (T.equal_document d0 d))
        rest
  | [] -> ());
  (* errors *)
  let db = Reldb.Db.create () in
  let s = O.Api.Store.create db ~name:"a" O.Encoding.Global (base_doc ()) in
  let txt = List.hd (O.Api.Store.query_ids s "/doc/item[1]/f0/text()") in
  match O.Api.Store.set_attribute s ~id:txt ~name:"x" ~value:"y" with
  | exception U.Update_error _ -> ()
  | _ -> Alcotest.fail "attribute on a text node accepted"

let test_set_text () =
  let doc = base_doc () in
  let stores = all_stores doc in
  List.iter
    (fun (_, store) ->
      let tid =
        match O.Api.Store.query_ids store "/doc/item[1]/f0/text()" with
        | [ id ] -> id
        | _ -> Alcotest.fail "text lookup"
      in
      ignore (O.Api.Store.set_text store ~id:tid "7.25");
      check
        (Alcotest.list Alcotest.string)
        "new value" [ "7.25" ]
        (O.Api.Store.query_values store "/doc/item[1]/f0/text()");
      (* nval updated: numeric predicate now matches *)
      check int_t "numeric predicate" 1
        (O.Api.Store.count store "/doc/item[f0 > 7.0]"))
    stores;
  assert_integrity stores

let test_integrity_checker_detects () =
  (* the checker actually fires: corrupt a GLOBAL interval by hand *)
  let doc = base_doc () in
  let db = Reldb.Db.create () in
  let store = O.Api.Store.create db ~name:"c" O.Encoding.Global doc in
  ignore store;
  check bool_t "clean store passes" true
    (O.Integrity.check db ~doc:"c" O.Encoding.Global = Ok ());
  ignore (Reldb.Db.exec db "UPDATE c_global SET g_end = g_order + 100000 WHERE id = 3");
  (match O.Integrity.check db ~doc:"c" O.Encoding.Global with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "corruption not detected");
  (* LOCAL: punch a hole in the sibling ranks *)
  let db2 = Reldb.Db.create () in
  ignore (O.Api.Store.create db2 ~name:"c" O.Encoding.Local doc);
  ignore (Reldb.Db.exec db2 "UPDATE c_local SET l_order = 99 WHERE parent = 0 AND l_order = 5");
  (match O.Integrity.check db2 ~doc:"c" O.Encoding.Local with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rank hole not detected");
  (* DEWEY: break the depth column *)
  let db3 = Reldb.Db.create () in
  ignore (O.Api.Store.create db3 ~name:"c" O.Encoding.Dewey_enc doc);
  ignore (Reldb.Db.exec db3 "UPDATE c_dewey SET depth = 9 WHERE id = 3");
  match O.Integrity.check db3 ~doc:"c" O.Encoding.Dewey_enc with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "depth corruption not detected"

let test_insert_forest () =
  (* bulk insertion: same result as k single inserts, one renumbering pass *)
  let forest = List.init 5 (fun i -> T.element "item" [ T.text (string_of_int i) ]) in
  let doc = base_doc () in
  let expected =
    List.fold_left
      (fun d (i, node) -> dom_insert_at_root d (7 + i) node)
      doc
      (List.mapi (fun i n -> (i, n)) forest)
  in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      let root = O.Api.Store.root_id store in
      let st = O.Api.Store.insert_forest store ~parent:root ~pos:7 forest in
      check bool_t
        (O.Encoding.name enc ^ " forest equal")
        true
        (T.equal_document expected (O.Api.Store.document store));
      (* the amortization claim: bulk renumbering cost equals the cost of a
         single insertion at the same spot, not 5x *)
      let doc2 = base_doc () in
      let db2 = Reldb.Db.create () in
      let single = O.Api.Store.create db2 ~name:"s" enc doc2 in
      let sroot = O.Api.Store.root_id single in
      let st1 = O.Api.Store.insert_subtree single ~parent:sroot ~pos:7 (List.hd forest) in
      check bool_t
        (O.Encoding.name enc ^ " amortized")
        true
        (st.U.rows_renumbered <= st1.U.rows_renumbered + 5))
    stores;
  assert_integrity stores;
  (* empty forest rejected *)
  let db = Reldb.Db.create () in
  let s = O.Api.Store.create db ~name:"e" O.Encoding.Local (base_doc ()) in
  match O.Api.Store.insert_forest s ~parent:(O.Api.Store.root_id s) ~pos:1 [] with
  | exception U.Update_error _ -> ()
  | _ -> Alcotest.fail "empty forest accepted"

let test_ordpath_zero_renumber () =
  (* the caret encoding's reason to exist: front and middle insertions touch
     no existing rows *)
  let doc = base_doc () in
  let db = Reldb.Db.create () in
  let store = O.Api.Store.create db ~name:"o" O.Encoding.Dewey_caret doc in
  let root = O.Api.Store.root_id store in
  let expected = ref doc in
  List.iter
    (fun pos ->
      let st = O.Api.Store.insert_subtree store ~parent:root ~pos frag in
      check int_t (Printf.sprintf "pos %d renumbers nothing" pos) 0
        st.U.rows_renumbered;
      expected := dom_insert_at_root !expected pos frag)
    [ 1; 11; 5; 23; 2 ];
  check bool_t "document correct" true
    (T.equal_document !expected (O.Api.Store.document store))

let test_ordpath_hotspot_growth () =
  (* repeated insertion at the same point: ORDPATH pays with key growth and
     eventually an amortized repack, DEWEY pays with renumbering every time *)
  let run enc =
    let doc = Xmllib.Generator.flat ~tag:"item" ~count:30 () in
    let db = Reldb.Db.create () in
    let store = O.Api.Store.create db ~name:"h" enc doc in
    let root = O.Api.Store.root_id store in
    let renum = ref 0 in
    for _ = 1 to 40 do
      let st = O.Api.Store.insert_subtree store ~parent:root ~pos:10 frag in
      renum := !renum + st.U.rows_renumbered
    done;
    (!renum, (O.Api.Store.storage store).O.Storage.max_key_bytes, store)
  in
  let renum_caret, max_key_caret, s_caret = run O.Encoding.Dewey_caret in
  let renum_dewey, max_key_dewey, s_dewey = run O.Encoding.Dewey_enc in
  check bool_t "caret renumbers far less" true (renum_caret * 5 < renum_dewey);
  check bool_t "caret keys grow" true (max_key_caret > max_key_dewey);
  (* both must agree on the result *)
  check bool_t "same document" true
    (T.equal_document (O.Api.Store.document s_caret) (O.Api.Store.document s_dewey))

let test_ordpath_prepend_amortization () =
  (* repeated front insertions: one cheap slot, then a repack that buys
     headroom for many more *)
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:10 () in
  let db = Reldb.Db.create () in
  let store = O.Api.Store.create db ~name:"p" O.Encoding.Dewey_caret doc in
  let root = O.Api.Store.root_id store in
  let repacks = ref 0 in
  let expected = ref doc in
  for _ = 1 to 30 do
    let st = O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag in
    if st.U.rows_renumbered > 0 then incr repacks;
    expected := dom_insert_at_root !expected 1 frag
  done;
  check bool_t "repacks are rare" true (!repacks <= 2);
  check bool_t "document correct" true
    (T.equal_document !expected (O.Api.Store.document store))

let test_atomic_updates () =
  (* a failing batch leaves the store byte-identical, for every encoding *)
  let doc = base_doc () in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      let before = Test_wal.state (O.Api.Store.db store) in
      (match
         O.Api.Store.atomically store (fun () ->
             let root = O.Api.Store.root_id store in
             ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag);
             ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:5 frag);
             failwith "abort the batch")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      check bool_t
        (O.Encoding.name enc ^ " identical after rollback")
        true
        (String.equal before (Test_wal.state (O.Api.Store.db store)));
      (* and a successful batch commits *)
      O.Api.Store.atomically store (fun () ->
          let root = O.Api.Store.root_id store in
          ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag));
      check int_t (O.Encoding.name enc ^ " committed") 21
        (O.Api.Store.count store "/doc/item"))
    stores;
  assert_integrity stores

(* set_text and set_attribute store the same [nval] shredding would, bound
   as parameters: a comment's numeric-looking text has no numeric shadow,
   an overwritten attribute gets a fresh one *)
let test_set_value_nval () =
  let doc =
    T.doc_of_node
      (T.element "r" ~attrs:[ T.attr "n" "1" ]
         [ T.Comment "note"; T.element "v" [ T.text "5" ] ])
  in
  let stores = all_stores doc in
  List.iter
    (fun (enc, store) ->
      let db = O.Api.Store.db store in
      let table = O.Encoding.table_name ~doc:"u" enc in
      let nval_of_kind kind =
        D.query db
          (Printf.sprintf "SELECT nval FROM %s WHERE kind = %d" table
             (O.Doc_index.kind_code kind))
      in
      let cid =
        match
          D.query db
            (Printf.sprintf "SELECT id FROM %s WHERE kind = %d" table
               (O.Doc_index.kind_code O.Doc_index.Comment_node))
        with
        | [ [| V.Int id |] ] -> id
        | _ -> Alcotest.fail "comment row"
      in
      ignore (O.Api.Store.set_text store ~id:cid "42");
      check bool_t (O.Encoding.name enc ^ " comment nval stays NULL") true
        (nval_of_kind O.Doc_index.Comment_node = [ [| V.Null |] ]);
      let root = O.Api.Store.root_id store in
      ignore (O.Api.Store.set_attribute store ~id:root ~name:"n" ~value:"17");
      check bool_t (O.Encoding.name enc ^ " attribute nval follows") true
        (nval_of_kind O.Doc_index.Attr = [ [| V.Float 17.0 |] ]);
      check int_t (O.Encoding.name enc ^ " numeric predicate") 1
        (O.Api.Store.count store "/r[@n > 10]");
      (* quotes in user text reach the table unchanged *)
      ignore (O.Api.Store.set_attribute store ~id:root ~name:"n" ~value:"it's");
      check (Alcotest.list Alcotest.string) (O.Encoding.name enc ^ " quoted value")
        [ "it's" ]
        (O.Api.Store.query_values store "/r/@n");
      check bool_t (O.Encoding.name enc ^ " non-numeric nval") true
        (nval_of_kind O.Doc_index.Attr = [ [| V.Null |] ]))
    stores;
  assert_integrity stores

let test_integrity_checks_nval () =
  let db = D.create () in
  ignore (O.Api.Store.create db ~name:"c" O.Encoding.Local (base_doc ()));
  check bool_t "clean store passes" true
    (O.Integrity.check db ~doc:"c" O.Encoding.Local = Ok ());
  (* a comment-like defect: a numeric shadow on a row shredding gives none *)
  ignore (D.exec db "UPDATE c_local SET nval = 42.0 WHERE kind = 0");
  match O.Integrity.check db ~doc:"c" O.Encoding.Local with
  | Error msgs ->
      check bool_t "nval message" true
        (List.exists (fun m -> Astring_contains.contains m "nval") msgs)
  | Ok () -> Alcotest.fail "stale nval not detected"

(* rows in the subtrees of the root's children: what a front insert under
   the root moves on DEWEY *)
let rows_below_root_children db table =
  match
    D.query db
      (Printf.sprintf
         "SELECT COUNT(*) FROM %s e, %s r WHERE r.parent IS NULL AND \
          e.parent IS NOT NULL AND NOT (e.parent = r.id AND e.kind = 2)"
         table table)
  with
  | [ [| V.Int n |] ] -> n
  | _ -> Alcotest.fail "row count"

let test_dewey_front_insert_statements () =
  (* one set-oriented statement shifts every following sibling subtree, so
     a front insert issues as many statements under 2 children as under 40 *)
  let statements n =
    let doc = Xmllib.Generator.flat ~tag:"item" ~count:n () in
    let db = D.create () in
    let store = O.Api.Store.create db ~name:"u" O.Encoding.Dewey_enc doc in
    let root = O.Api.Store.root_id store in
    let moved = rows_below_root_children db "u_dewey" in
    let st = O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag in
    check int_t "every moved row renumbered once" moved st.U.rows_renumbered;
    check bool_t "document correct" true
      (T.equal_document (dom_insert_at_root doc 1 frag) (O.Api.Store.document store));
    assert_integrity [ (O.Encoding.Dewey_enc, store) ];
    st.U.statements
  in
  check int_t "statements for 40 children = for 2" (statements 2) (statements 40)

let test_ordpath_repack_statements () =
  (* front inserts until a caret zone runs out: the repack moves every
     sibling subtree twice (up into a free zone, then down), one statement
     per subtree and phase *)
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:10 () in
  let db = D.create () in
  let store = O.Api.Store.create db ~name:"u" O.Encoding.Dewey_caret doc in
  let root = O.Api.Store.root_id store in
  let repacks = ref 0 in
  for _ = 1 to 30 do
    let m = O.Api.Store.count store "/doc/node()" in
    let moved = rows_below_root_children db "u_ordpath" in
    let st = O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag in
    if st.U.rows_renumbered > 0 then begin
      incr repacks;
      check bool_t
        (Printf.sprintf "%d statements for %d children" st.U.statements m)
        true
        (st.U.statements <= (2 * m) + 8);
      check int_t "every moved row renumbered twice" (2 * moved)
        st.U.rows_renumbered
    end
  done;
  check bool_t "a repack happened" true (!repacks > 0);
  assert_integrity [ (O.Encoding.Dewey_caret, store) ]

(* An operation reports the statements the database ran for it: a LOCAL
   delete also reads its subtree back, and a move reads it again to copy
   it. Deleting and moving an open auction of XMark scale 1 on every
   encoding. *)
let test_statements_counted () =
  let doc = O.Workload.dataset ~scale:1 in
  let db = D.create () in
  List.iter
    (fun enc ->
      let store = O.Api.Store.create db ~name:"u" enc doc in
      let id xpath = List.hd (O.Api.Store.query_ids store xpath) in
      let counted what f =
        let before = D.statements db in
        let st = f () in
        check int_t
          (Printf.sprintf "%s %s: statements = the database's" (O.Encoding.name enc) what)
          (D.statements db - before) st.U.statements
      in
      let auction = id "/site/open_auctions/open_auction[2]" in
      counted "delete" (fun () -> U.delete_subtree db ~doc:"u" enc ~id:auction);
      let auction = id "/site/open_auctions/open_auction[2]" and parent = id "/site/closed_auctions" in
      counted "move" (fun () -> U.move_subtree db ~doc:"u" enc ~id:auction ~parent ~pos:1);
      assert_integrity [ (enc, store) ])
    O.Encoding.all

let test_durable_front_insert_replays () =
  (* the set-oriented renumbering statements are what the WAL records:
     replaying them without a checkpoint rebuilds the same document *)
  List.iter
    (fun enc ->
      Test_wal.with_dir @@ fun dir ->
      let doc = base_doc () in
      let db = D.open_dir dir in
      let store = O.Api.Store.create db ~name:"u" enc doc in
      let root = O.Api.Store.root_id store in
      ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:1 frag);
      ignore (O.Api.Store.insert_subtree store ~parent:root ~pos:11 frag);
      ignore (O.Api.Store.set_attribute store ~id:root ~name:"a" ~value:"1");
      let live = O.Api.Store.document store in
      D.close db;
      let db2 = D.open_dir dir in
      let reopened = O.Api.Store.open_existing db2 ~name:"u" enc in
      check bool_t (O.Encoding.name enc ^ " same document") true
        (T.equal_document live (O.Api.Store.document reopened));
      check bool_t (O.Encoding.name enc ^ " check") true
        (O.Api.Store.check reopened = Ok ());
      D.close db2)
    O.Encoding.all

(* Every statement an update sends with [?] slots plans the access path of
   its literal form: a slot is an index bound exactly as a constant is. The
   texts are read back from the slow-query log (threshold 0), and the
   literal form puts 1, 2, ... into the slots, left to right. *)
let test_bound_texts_plan_like_literals () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let doc = base_doc () in
  let stores = all_stores doc in
  let db = O.Api.Store.db (snd (List.hd stores)) in
  D.set_slow_query_threshold db (Some 0.0);
  let texts = Hashtbl.create 64 in
  let run f =
    D.clear_slow_queries db;
    ignore (f ());
    List.iter
      (fun (_, sql) -> if String.contains sql '?' then Hashtbl.replace texts sql ())
      (D.slow_queries db)
  in
  List.iter
    (fun (_, store) ->
      let module S = O.Api.Store in
      let root = S.root_id store in
      let id q = List.hd (S.query_ids store q) in
      run (fun () -> S.insert_subtree store ~parent:root ~pos:1 frag);
      run (fun () -> S.insert_subtree store ~parent:root ~pos:5 frag);
      run (fun () -> S.set_text store ~id:(id "/doc/item[1]/text()") "changed");
      run (fun () -> S.set_attribute store ~id:(id "/doc/item[2]") ~name:"k" ~value:"1");
      run (fun () -> S.set_attribute store ~id:(id "/doc/item[2]") ~name:"j" ~value:"2");
      run (fun () -> S.set_attribute store ~id:(id "/doc/item[2]") ~name:"k" ~value:"3");
      run (fun () -> S.remove_attribute store ~id:(id "/doc/item[2]") ~name:"j");
      run (fun () -> S.delete_subtree store ~id:(id "/doc/item[4]")))
    stores;
  let literal sql =
    String.concat ""
      (List.mapi
         (fun i part -> if i = 0 then part else string_of_int i ^ part)
         (String.split_on_char '?' sql))
  in
  (* the tree of operators, with the index of every index access *)
  let access_path plan =
    List.map
      (fun line ->
        let indent = String.length line - String.length (String.trim line) in
        match String.split_on_char ' ' (String.trim line) with
        | (("IndexScan" | "IndexNestedLoopJoin") as op) :: index :: _ ->
            Printf.sprintf "%d %s %s" indent op index
        | op :: _ -> Printf.sprintf "%d %s" indent op
        | [] -> "")
      (String.split_on_char '\n' plan)
  in
  check bool_t "every encoding's update texts were seen" true (Hashtbl.length texts >= 40);
  Hashtbl.iter
    (fun sql () ->
      let bound = D.explain db sql and lit = D.explain db (literal sql) in
      check (Alcotest.list Alcotest.string) ("access path of " ^ sql)
        (access_path lit) (access_path bound);
      check bool_t ("index access for " ^ sql) true
        (Astring_contains.contains bound "IndexScan"))
    texts

(* Warm writes parse and plan nothing: after one round of a front insert,
   a set_text on its text node and its delete (with the id lookups between
   them), a second round opens no [sql-parse] span and misses the plan
   cache 0 times. An append between the rounds moves the next free id, so
   the second round's nodes have other ids: a text that inlined one would
   miss and parse again. *)
let test_warm_writes_parse_nothing () =
  let was = Obs.enabled () in
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun enc ->
      let module S = O.Api.Store in
      let db = D.create () in
      let store = S.create db ~name:"w" enc (base_doc ()) in
      let root = S.root_id store in
      let id q = List.hd (S.query_ids store q) in
      let round () =
        ignore (S.insert_subtree store ~parent:root ~pos:1 frag);
        ignore (S.set_text store ~id:(id "/doc/item[1]/text()") "changed");
        ignore (S.delete_subtree store ~id:(id "/doc/item[1]"))
      in
      round ();
      ignore (S.insert_subtree store ~parent:root ~pos:21 frag);
      let _, m0, _ = D.plan_cache_stats db in
      Obs.set_enabled true;
      let (), spans = Obs.Span.collect round in
      Obs.set_enabled false;
      let _, m1, _ = D.plan_cache_stats db in
      let name = O.Encoding.name enc in
      check int_t (name ^ " plan-cache misses after warm-up") 0 (m1 - m0);
      check int_t (name ^ " sql-parse spans after warm-up") 0
        (List.length (List.filter (fun sp -> sp.Obs.Span.sp_name = "sql-parse") spans)))
    O.Encoding.all

(* random edit sequences: all encodings converge to the same document and
   keep answering ordered queries correctly *)
let prop_random_edits =
  let gen = QCheck.Gen.(pair (int_bound 10_000) (list_size (int_range 1 12) (int_bound 99))) in
  let print (seed, ops) =
    Printf.sprintf "seed=%d ops=%s" seed (String.concat "," (List.map string_of_int ops))
  in
  QCheck.Test.make ~name:"random edit sequences keep encodings in agreement"
    ~count:40 (QCheck.make ~print gen) (fun (seed, ops) ->
      let doc = Xmllib.Generator.flat ~tag:"item" ~count:8 () in
      let stores = all_stores doc in
      let rng = Xmllib.Rng.create seed in
      List.iter
        (fun op ->
          let roots =
            List.map (fun (_, s) -> (s, O.Api.Store.root_id s)) stores
          in
          let counts =
            O.Api.Store.count (fst (List.hd roots)) "/doc/item"
          in
          if op mod 3 = 0 && counts > 2 then begin
            (* delete the k-th item everywhere *)
            let k = 1 + Xmllib.Rng.int rng counts in
            List.iter
              (fun (s, _) ->
                match
                  O.Api.Store.query_ids s (Printf.sprintf "/doc/item[%d]" k)
                with
                | [ id ] -> ignore (O.Api.Store.delete_subtree s ~id)
                | _ -> ())
              roots
          end
          else begin
            let pos = 1 + Xmllib.Rng.int rng (counts + 1) in
            List.iter
              (fun (s, root) ->
                ignore (O.Api.Store.insert_subtree s ~parent:root ~pos frag))
              roots
          end)
        ops;
      let ok_integrity =
        List.for_all
          (fun (enc, s) ->
            O.Integrity.check (O.Api.Store.db s) ~doc:"u" enc = Ok ())
          stores
      in
      let docs = List.map (fun (_, s) -> O.Api.Store.document s) stores in
      ok_integrity
      &&
      match docs with
      | d0 :: rest -> List.for_all (fun d -> T.equal_document d0 d) rest
      | [] -> true)

(* The front insert the edit benchmark repeats: [Workload.small_fragment]
   at position 1 under /site/open_auctions on XMark scale 2, with a warm
   plan cache (one insert and its removal first). [measure] is handed the
   insert, to run once between its readings. *)
let front_insert enc measure =
  let doc = O.Workload.dataset ~scale:2 in
  let store = O.Api.Store.create (Reldb.Db.create ()) ~name:"w" enc doc in
  let container =
    match O.Api.Store.query_ids store "/site/open_auctions" with
    | [ id ] -> id
    | _ -> Alcotest.fail "no open_auctions"
  in
  let insert () =
    O.Api.Store.insert_subtree store ~parent:container ~pos:1 O.Workload.small_fragment
  in
  ignore (insert ());
  (match O.Api.Store.query_ids store "/site/open_auctions/bidder" with
  | [ id ] -> ignore (O.Api.Store.delete_subtree store ~id)
  | _ -> Alcotest.fail "not one inserted bidder");
  measure insert

(* Minor words per renumbered row of the front insert: about 34 (GLOBAL,
   1,878 rows) and 41 (DEWEY, 1,695 rows) with DEWEY's shift one
   PATH_SHIFT statement and each index's keys rewritten in that index's
   key order from batch arrays made without a forced minor collection,
   skipping the indexes the statement assigns no key column of; DEWEY took
   79 with one path-rewriting statement per moved sibling subtree, 64
   and 90 (GLOBAL, DEWEY) when the rows were visited in access-path order
   and the batch was built with [Array.of_list], and 217 and 239 when each
   renumbered row built fresh keys and descended from the root. The bounds
   are about 10 % above. *)
let max_renumber_words = [ (O.Encoding.Global, 37.); (O.Encoding.Dewey_enc, 45.) ]

let test_renumber_words_per_row () =
  List.iter
    (fun (enc, limit) ->
      front_insert enc @@ fun insert ->
      let w0 = Gc.minor_words () in
      let st = insert () in
      let per_row = (Gc.minor_words () -. w0) /. float_of_int st.U.rows_renumbered in
      if per_row > limit then
        Alcotest.failf "%s: %.1f minor words per renumbered row (limit %.0f)"
          (O.Encoding.name enc) per_row limit)
    max_renumber_words

(* Share of the front insert's in-place key rewrites that descend from the
   root rather than find their key in the leaf of the last one: about 2 %
   on both GLOBAL (103 of 5,628) and DEWEY (96 of 5,085) when each index
   is rewritten in its own key order and DEWEY shifts every following
   sibling in one statement; DEWEY read 11 % (584) with one statement per
   sibling subtree; 45 % and 46 % when the rows came in access-path order, which is not the
   order of the (tag, ...) and (parent, tag, ...) indexes. *)
let max_descent_share = [ (O.Encoding.Global, 0.10); (O.Encoding.Dewey_enc, 0.10) ]

let test_renumber_descents () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun (enc, limit) ->
      front_insert enc @@ fun insert ->
      let counters () =
        List.map Obs.counter_value [ "index.descents"; "index.rewritten"; "index.moved" ]
      in
      let before = counters () in
      ignore (insert ());
      match List.map2 ( - ) (counters ()) before with
      | [ descents; rewritten; moved ] ->
          let share = float_of_int descents /. float_of_int (rewritten + moved) in
          if rewritten = 0 || share > limit then
            Alcotest.failf "%s: %d of %d rewrites descend from the root (limit %.0f %%)"
              (O.Encoding.name enc) descents (rewritten + moved) (100. *. limit)
      | _ -> assert false)
    max_descent_share

let tests =
  ( "update",
    [
      Alcotest.test_case "insert at front/middle/back" `Quick test_insert_positions;
      Alcotest.test_case "insert nested fragment" `Quick test_insert_nested_fragment;
      Alcotest.test_case "renumbering costs" `Quick test_renumbering_costs;
      Alcotest.test_case "renumbering words per row" `Quick test_renumber_words_per_row;
      Alcotest.test_case "renumbering descents" `Quick test_renumber_descents;
      Alcotest.test_case "append is cheap" `Quick test_back_insert_cheap_everywhere;
      Alcotest.test_case "gap exhaustion fallback" `Quick test_gap_exhaustion_falls_back;
      Alcotest.test_case "delete subtree" `Quick test_delete;
      Alcotest.test_case "delete then insert" `Quick test_delete_then_insert_reuses_space;
      Alcotest.test_case "error cases" `Quick test_update_errors;
      Alcotest.test_case "set_text" `Quick test_set_text;
      Alcotest.test_case "move subtree" `Quick test_move_subtree;
      Alcotest.test_case "replace subtree" `Quick test_replace_subtree;
      Alcotest.test_case "attribute operations" `Quick test_attributes;
      Alcotest.test_case "insert forest" `Quick test_insert_forest;
      Alcotest.test_case "atomic update batches" `Quick test_atomic_updates;
      Alcotest.test_case "integrity checker" `Quick test_integrity_checker_detects;
      Alcotest.test_case "ordpath zero renumbering" `Quick test_ordpath_zero_renumber;
      Alcotest.test_case "ordpath hotspot growth" `Quick test_ordpath_hotspot_growth;
      Alcotest.test_case "ordpath prepend amortization" `Quick
        test_ordpath_prepend_amortization;
      Alcotest.test_case "set_text/set_attribute nval" `Quick test_set_value_nval;
      Alcotest.test_case "integrity checks nval" `Quick test_integrity_checks_nval;
      Alcotest.test_case "dewey front insert statements" `Quick
        test_dewey_front_insert_statements;
      Alcotest.test_case "ordpath repack statements" `Quick
        test_ordpath_repack_statements;
      Alcotest.test_case "statements counted where they run" `Quick test_statements_counted;
      Alcotest.test_case "durable front insert replays" `Quick
        test_durable_front_insert_replays;
      Alcotest.test_case "bound texts plan like literals" `Quick
        test_bound_texts_plan_like_literals;
      Alcotest.test_case "warm writes parse nothing" `Quick
        test_warm_writes_parse_nothing;
      QCheck_alcotest.to_alcotest prop_random_edits;
    ] )
