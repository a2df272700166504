(* Document-order axes (following::, preceding::) against the DOM oracle on
   every encoding, aimed at the cases LOCAL answers from root-path keys:
   attribute and text contexts, contexts nested inside one another,
   positional predicates and non-element node tests, and documents whose
   sibling ranks were disturbed by inserts, deletes and attribute changes.
   Also: the per-query parent-chain cache lives for one call only. *)

module O = Ordered_xml
module T = Xmllib.Types

let check = Alcotest.check

let stores_of doc =
  let db = Reldb.Db.create () in
  (db, List.map (fun enc -> (enc, O.Api.Store.create db ~name:"q" enc doc)) O.Encoding.all)

let ids_str ids = String.concat "," (List.map string_of_int ids)

(* Fresh shreds: store ids are the oracle's record ids. *)
let assert_oracle (idx, stores) xpath =
  let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath) in
  List.iter
    (fun (enc, store) ->
      let got = O.Api.Store.query_ids store xpath in
      if got <> expected then
        Alcotest.failf "%s: %s: oracle [%s], sql [%s]" (O.Encoding.name enc)
          xpath (ids_str expected) (ids_str got))
    stores

let env_of doc =
  let _, stores = stores_of doc in
  (O.Doc_index.build doc, stores)

let xmark_env = lazy (env_of (O.Workload.dataset ~scale:1))

let mixed_env =
  lazy
    (env_of
       (Xmllib.Parser.parse_document
          "<r a=\"1\" b=\"2\"><!--c0--><x k=\"v\">t1<!--c1--><y/>t2</x><?p d?>\
           <x><z k=\"w\">t3</z></x><!--c2--></r>"))

let test_attribute_contexts () =
  List.iter (assert_oracle (Lazy.force xmark_env))
    [
      "//*/@id/following::*[1]";
      "//item/@id/preceding::node()";
      "//person/@id/preceding::*[last()]";
      "//item/@id/following::item";
      "//*/@income/following::text()[1]";
      "//*/@id/preceding::text()[1]";
    ]

let test_text_contexts () =
  List.iter (assert_oracle (Lazy.force xmark_env))
    [
      "//bidder/increase/text()/following::increase";
      "//name/text()/preceding::text()[1]";
      "//emailaddress/text()/following::node()[2]";
      "//price/text()/preceding::*[last()]";
    ]

let test_nested_contexts () =
  (* several contexts where one is an ancestor of another *)
  List.iter (assert_oracle (Lazy.force xmark_env))
    [
      "//open_auction/descendant-or-self::*/following::bidder[1]";
      "//open_auctions/descendant-or-self::node()/preceding::open_auction[last()]";
      "/site/regions//*/following::item[last()]";
      "//bidder/ancestor-or-self::*/preceding::*[1]";
      "//item/descendant-or-self::node()/following::item[1]";
    ]

let test_node_tests () =
  List.iter (assert_oracle (Lazy.force mixed_env))
    [
      "//*/@*/following::node()";
      "//*/@*/preceding::node()";
      "//*/@k/following::comment()";
      "//*/@k/preceding::comment()[1]";
      "//comment()/preceding::text()[last()]";
      "//text()/following::comment()[1]";
      "//y/preceding::node()";
      "//z/@k/preceding::*";
      "/r/@b/following::*[1]";
      "//node()/following::node()[1]";
      "//node()/preceding::node()[last()]";
      "//node()/following::text()[last()]";
      "//x/following::node()";
      "//x/preceding::node()[1]";
    ]

(* ---- random documents, random updates --------------------------------- *)

let fragment =
  T.element "item"
    ~attrs:[ T.attr "k0" "7"; T.attr "k1" "ins" ]
    [ T.Comment "new"; T.element "a" [ T.text "ins" ] ]

let children_count store id =
  List.length (T.children_of (O.Api.Store.subtree store ~id))

(* One random insert / delete / set_attribute / remove_attribute on the same
   element of every store (stores allocate the same ids). *)
let random_update stores rng =
  let s0 = snd (List.hd stores) in
  let elems = O.Api.Store.query_ids s0 "//*" in
  let e = List.nth elems (Xmllib.Rng.int rng (List.length elems)) in
  let is_root = e = O.Api.Store.root_id s0 in
  let pos = 1 + Xmllib.Rng.int rng (children_count s0 e + 1) in
  let value = string_of_int (Xmllib.Rng.int rng 100) in
  let op = Xmllib.Rng.int rng 4 in
  List.iter
    (fun (_, s) ->
      ignore
        (match op with
        | 0 -> O.Api.Store.insert_subtree s ~parent:e ~pos fragment
        | 1 when not is_root -> O.Api.Store.delete_subtree s ~id:e
        | 1 | 2 -> O.Api.Store.set_attribute s ~id:e ~name:"k9" ~value
        | _ -> O.Api.Store.remove_attribute s ~id:e ~name:"k0"))
    stores

let signature idx i =
  let r = O.Doc_index.record idx i in
  (r.O.Doc_index.kind, r.O.Doc_index.tag, O.Dom_eval.string_value idx i)

(* After updates, ids no longer match the oracle's preorder numbering: the
   oracle runs on the reconstructed document and results are compared by
   (kind, tag, string-value) in order; the encodings must agree on ids. *)
let updated_mismatch stores xpath =
  let idx = O.Doc_index.build (O.Api.Store.document (snd (List.hd stores))) in
  let expected =
    List.map (signature idx) (O.Dom_eval.eval idx (O.Xpath_parser.parse xpath))
  in
  let ids0 = O.Api.Store.query_ids (snd (List.hd stores)) xpath in
  List.find_map
    (fun (enc, s) ->
      let rows = (O.Api.Store.query s xpath).O.Translate.rows in
      let got =
        List.map2
          (fun (r : O.Node_row.t) v -> (r.O.Node_row.kind, r.O.Node_row.tag, v))
          rows
          (O.Api.Store.query_values s xpath)
      in
      let ids = List.map (fun (r : O.Node_row.t) -> r.O.Node_row.id) rows in
      if got <> expected then
        Some (Printf.sprintf "%s: %d nodes, oracle %d" (O.Encoding.name enc)
                (List.length got) (List.length expected))
      else if ids <> ids0 then
        Some (Printf.sprintf "%s: ids [%s] vs [%s]" (O.Encoding.name enc)
                (ids_str ids) (ids_str ids0))
      else None)
    stores

let updated_paths =
  [
    "//*/@*/following::node()[1]";
    "//*/@k0/preceding::node()";
    "//item/following::comment()";
    "//text()/preceding::*[last()]";
    "//item/descendant-or-self::*/following::text()[1]";
    "//comment()/preceding::item";
    "//*/@*/preceding::*[1]";
  ]

let test_after_updates () =
  for seed = 1 to 6 do
    let doc = Xmllib.Generator.random_tree ~seed ~max_depth:4 ~max_fanout:4 () in
    let _, stores = stores_of doc in
    let rng = Xmllib.Rng.create seed in
    for _ = 1 to 8 do
      random_update stores rng
    done;
    List.iter
      (fun xpath ->
        match updated_mismatch stores xpath with
        | None -> ()
        | Some msg -> Alcotest.failf "seed %d, %s: %s" seed xpath msg)
      updated_paths
  done

(* random document x random document-order step from random contexts,
   optionally after random updates *)
let gen_doc_order_path =
  QCheck.Gen.(
    let tag = oneofa Xpath_gen.tags in
    let ctx =
      oneof
        [
          map (Printf.sprintf "//%s") tag;
          map (Printf.sprintf "//%s/@*") tag;
          return "//*/@*";
          return "//text()";
          return "//comment()";
          map (Printf.sprintf "//%s/descendant-or-self::node()") tag;
          map (Printf.sprintf "//%s/ancestor-or-self::*") tag;
        ]
    in
    let test =
      oneof [ return "node()"; return "text()"; return "comment()"; return "*"; tag ]
    in
    let pred = oneofl [ ""; ""; "[1]"; "[2]"; "[last()]" ] in
    map
      (fun (c, axis, t, p) -> Printf.sprintf "%s/%s::%s%s" c axis t p)
      (quad ctx (oneofl [ "following"; "preceding" ]) test pred))

let prop_doc_order_axes =
  QCheck.Test.make ~name:"following/preceding = oracle, fresh and updated"
    ~count:150
    QCheck.(
      make
        ~print:(fun (seed, ops, xp) -> Printf.sprintf "seed=%d ops=%d %s" seed ops xp)
        Gen.(triple (int_bound 10_000) (int_bound 3) gen_doc_order_path))
    (fun (seed, ops, xpath) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let _, stores = stores_of doc in
      if ops = 0 then begin
        let idx = O.Doc_index.build doc in
        let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath) in
        List.for_all (fun (_, s) -> O.Api.Store.query_ids s xpath = expected) stores
      end
      else begin
        let rng = Xmllib.Rng.create seed in
        for _ = 1 to ops * 3 do
          random_update stores rng
        done;
        updated_mismatch stores xpath = None
      end)

(* ---- the cache is per call ------------------------------------------- *)

let q7 = "/site/regions/africa/item[1]/following::item"

let test_cache_is_per_call () =
  let _, stores = Lazy.force xmark_env in
  let local = List.assoc O.Encoding.Local stores in
  let stmts xp = (O.Api.Store.query local xp).O.Translate.statements in
  let first = stmts q7 in
  check Alcotest.int "second identical query, same statements" first (stmts q7);
  (* a query that raises half-way, after filling its cache: a row with an
     unknown kind code makes decoding fail once the step fetches it *)
  let doc = Xmllib.Parser.parse_document "<r><x/><y><x/></y><z/></r>" in
  let db, stores = stores_of doc in
  let local = List.assoc O.Encoding.Local stores in
  let stmts xp = (O.Api.Store.query local xp).O.Translate.statements in
  let good = "/r/y/x/preceding::x" and bad = "/r/y/x/following::node()" in
  let before = stmts good in
  ignore
    (Reldb.Db.exec db
       (Printf.sprintf "INSERT INTO %s VALUES (99, 0, 7, 'w', NULL, NULL, 9)"
          (O.Encoding.table_name ~doc:"q" O.Encoding.Local)));
  (match stmts bad with
  | _ -> Alcotest.fail "decoding kind 7 should raise"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "after a raising query, same statements" before (stmts good)

(* GLOBAL and DEWEY order without parent chains and allocate no cache. Q1
   allocates about 1,980 (GLOBAL) and 1,950 (DEWEY) minor words per call
   with compiled plans; the bound is 10 % above that, and the smallest
   cache is two 64-bucket tables, over 130 words. *)
let max_q1_words = 2_180.

let test_no_cache_outside_local () =
  let _, stores = stores_of (O.Workload.dataset ~scale:1) in
  let path = O.Xpath_parser.parse "/site/open_auctions/open_auction" in
  List.iter
    (fun enc ->
      let store = List.assoc enc stores in
      let eval () =
        ignore
          (O.Translate.eval (O.Api.Store.db store) ~doc:(O.Api.Store.name store)
             enc path)
      in
      eval ();
      let w0 = Gc.minor_words () in
      eval ();
      let words = Gc.minor_words () -. w0 in
      if words > max_q1_words then
        Alcotest.failf "%s: Q1 allocated %.0f minor words (limit %.0f)"
          (O.Encoding.name enc) words max_q1_words)
    [ O.Encoding.Global; O.Encoding.Dewey_enc ]

(* Minor words the engine allocates per row it reads, running the one
   GLOBAL statement of Q2 (bidder[1]) and of Q4 (a position() range) from
   the plan cache: about 43 and 37 with compiled plans, about 199 with the
   pull interpreter; the bound is 25 % above the larger. *)
let max_words_per_row = 54.

let test_exec_words_per_row () =
  let db, stores = stores_of (O.Workload.dataset ~scale:1) in
  let store = List.assoc O.Encoding.Global stores in
  List.iter
    (fun xpath ->
      match
        O.Translate.compile ~doc:(O.Api.Store.name store) O.Encoding.Global
          (O.Xpath_parser.parse_union xpath)
      with
      | [ [ O.Translate.Run r ] ] ->
          let run () = ignore (Reldb.Db.query_params db r.O.Translate.sql r.O.Translate.params) in
          run ();
          let w0 = Gc.minor_words () and r0 = Reldb.Db.rows_read db in
          run ();
          let per_row = (Gc.minor_words () -. w0) /. float_of_int (Reldb.Db.rows_read db - r0) in
          if per_row > max_words_per_row then
            Alcotest.failf "%s: %.1f minor words per row read (limit %.0f)" xpath per_row
              max_words_per_row
      | _ -> Alcotest.failf "%s: not one statement" xpath)
    [
      "/site/open_auctions/open_auction/bidder[1]";
      "/site/open_auctions/open_auction/bidder[position() >= 2 and position() <= 4]";
    ]

(* Minor words per [Translate.exec] call of Q7 on [enc] at scale 1, whose
   59 rows come from one run from the root on GLOBAL and from a middle-tier
   following step on LOCAL *)
let q7_exec_words enc =
  let db, _ = stores_of (O.Workload.dataset ~scale:1) and doc = "q" in
  let q = O.Translate.compile ~doc enc (O.Xpath_parser.parse_union "/site/regions/africa/item[1]/following::item") in
  let run () = O.Translate.exec db ~doc enc q in
  check Alcotest.int "rows" 59 (List.length (run ()).O.Translate.rows);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    ignore (run ())
  done;
  (Gc.minor_words () -. w0) /. 10.

(* GLOBAL: about 2,400 now that such a run passes its rows with one
   origin, not a pair per row, and a row read loads no option box; about
   2,690 before either. The bound lies between. *)
let max_q7_words = 2_550.

let test_q7_exec_words () =
  let words = q7_exec_words O.Encoding.Global in
  if words > max_q7_words then
    Alcotest.failf "GLOBAL Q7: %.0f minor words per Translate.exec call (limit %.0f)" words max_q7_words

(* LOCAL: about 6,800, the following step's candidates rebound to the one
   origin without grouping them by context; about 7,870 when every step
   groups its candidates. The bound lies between. *)
let max_local_q7_words = 7_300.

let test_local_q7_exec_words () =
  let words = q7_exec_words O.Encoding.Local in
  if words > max_local_q7_words then
    Alcotest.failf "LOCAL Q7: %.0f minor words per Translate.exec call (limit %.0f)" words max_local_q7_words

let tests =
  ( "local-order",
    [
      Alcotest.test_case "attribute contexts" `Quick test_attribute_contexts;
      Alcotest.test_case "text contexts" `Quick test_text_contexts;
      Alcotest.test_case "nested contexts" `Quick test_nested_contexts;
      Alcotest.test_case "node tests and positions" `Quick test_node_tests;
      Alcotest.test_case "after random updates" `Quick test_after_updates;
      Alcotest.test_case "cache is per call" `Quick test_cache_is_per_call;
      Alcotest.test_case "no cache outside LOCAL" `Quick
        test_no_cache_outside_local;
      Alcotest.test_case "engine words per row read" `Quick test_exec_words_per_row;
      Alcotest.test_case "GLOBAL Q7 words per exec" `Quick test_q7_exec_words;
      Alcotest.test_case "LOCAL Q7 words per exec" `Quick test_local_q7_exec_words;
      QCheck_alcotest.to_alcotest prop_doc_order_axes;
    ] )
