(* The central correctness claim: XPath evaluated through SQL over every
   order encoding agrees with the direct DOM oracle — on the paper's query
   set and on randomized documents x randomized paths. *)

module O = Ordered_xml
module T = Xmllib.Types

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let xmark = lazy (O.Workload.dataset ~scale:1)

let stores_and_oracle doc =
  let db = Reldb.Db.create () in
  let idx = O.Doc_index.build doc in
  let stores =
    List.map (fun enc -> (enc, O.Api.Store.create db ~name:"q" enc doc)) O.Encoding.all
  in
  (idx, stores)

let xmark_env = lazy (stores_and_oracle (Lazy.force xmark))

let assert_equivalent ?(env = Lazy.force xmark_env) xpath =
  let idx, stores = env in
  let path = O.Xpath_parser.parse xpath in
  let expected = O.Dom_eval.eval idx path in
  List.iter
    (fun (enc, store) ->
      let got = O.Api.Store.query_ids store xpath in
      if got <> expected then
        Alcotest.failf "%s: %s: oracle %d nodes %s, sql %d nodes %s"
          (O.Encoding.name enc) xpath (List.length expected)
          (String.concat "," (List.map string_of_int expected))
          (List.length got)
          (String.concat "," (List.map string_of_int got)))
    stores

let test_workload_queries () =
  List.iter
    (fun (q : O.Workload.query) ->
      match q.O.Workload.q_xpath with
      | Some xp -> assert_equivalent xp
      | None -> ())
    O.Workload.queries

let test_axis_zoo () =
  List.iter assert_equivalent
    [
      "/site";
      "/site/*";
      "//bidder";
      "//bidder/increase/text()";
      "/site/open_auctions/open_auction[2]/bidder[2]/following-sibling::bidder";
      "/site/open_auctions/open_auction[2]/bidder[2]/preceding-sibling::bidder";
      "/site/open_auctions/open_auction[3]/preceding::bidder";
      "/site/people/person[5]/following::person";
      "//person/@id";
      "//person[address]/name";
      "//open_auction[bidder]/seller";
      "/site/people/person/profile/..";
      "//profile/descendant-or-self::*";
      "//annotation/description/text/text()";
      "/site/closed_auctions/closed_auction[price > 500]";
      "/site/closed_auctions/closed_auction[price > 500.0][type = 'Regular']";
      "//person[profile/@income >= 80000]/name";
      "//person[not(homepage) and address]/name";
      "/site/regions/*/item[2]";
      "/site/regions/africa/item[1]/following::item[position() <= 5]";
      "//open_auction[bidder[2]]/bidder[last()]";
      "//bidder[1]/ancestor::open_auction";
      "//open_auction[count(bidder) >= 4]/seller";
      "//person[count(address) = 0]/name";
      "//profile/ancestor::*";
      "//personref/ancestor-or-self::*[2]";
      "//increase/ancestor::site";
      "/site/open_auctions/open_auction/bidder[position() > 1 and position() < 4]";
    ]

let test_comments_and_pis () =
  let doc =
    Xmllib.Parser.parse_document
      "<a><!--x--><b>t</b><?p d?><!--y--><b/></a>"
  in
  let env = stores_and_oracle doc in
  List.iter
    (fun xp -> assert_equivalent ~env xp)
    [ "/a/comment()"; "/a/node()"; "/a/b[1]/following-sibling::node()"; "//b" ]

let test_axis_expressibility_matrix () =
  (* which axes are closed-form SQL per encoding: GLOBAL/DEWEY answer every
     ordered axis in O(steps) statements; LOCAL pays middle-tier rounds on
     document-order axes. This pins the SQL-expressibility table of the
     paper down as a regression test. *)
  let _, stores = Lazy.force xmark_env in
  let stmts enc xp =
    (O.Api.Store.query (List.assoc enc stores) xp).O.Translate.statements
  in
  let closed_form =
    [
      ("/site/open_auctions/open_auction/bidder", 4);  (* child chain *)
      ("//bidder", 1);  (* descendant *)
      ("/site/people/person/@id", 4);  (* attribute *)
    ]
  in
  List.iter
    (fun (xp, k) ->
      List.iter
        (fun enc ->
          if stmts enc xp > k then
            Alcotest.failf "%s: %s took %d statements (expected <= %d)"
              (O.Encoding.name enc) xp (stmts enc xp) k)
        [ O.Encoding.Global; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ])
    closed_form;
  (* document-order axes stay closed-form only with global order *)
  let q7 = "/site/regions/africa/item[1]/following::item" in
  List.iter
    (fun enc ->
      if stmts enc q7 > 6 then
        Alcotest.failf "%s: following axis took %d statements"
          (O.Encoding.name enc) (stmts enc q7))
    [ O.Encoding.Global; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ];
  (* LOCAL pays parent-chain rounds, one join per ancestor level of the
     matches, but reads the matches and their ancestors, not the document *)
  check bool_t "local pays a parent-chain round on following" true
    (stmts O.Encoding.Local q7 > stmts O.Encoding.Global q7);
  let reads enc =
    let store = List.assoc enc stores in
    let db = O.Api.Store.db store in
    let r0 = Reldb.Db.rows_read db in
    ignore (O.Api.Store.query store q7);
    Reldb.Db.rows_read db - r0
  in
  let local = reads O.Encoding.Local and global = reads O.Encoding.Global in
  if local > 2 * global then
    Alcotest.failf "local following read %d rows, global %d" local global;
  (* LOCAL descendant needs one round per level *)
  check bool_t "local descendant pays per level" true
    (stmts O.Encoding.Local "//bidder" > 3)

let test_statement_counts () =
  (* LOCAL pays middle-tier statements for document-order work; GLOBAL and
     DEWEY answer Q7 with O(1) statements *)
  let _, stores = Lazy.force xmark_env in
  let q7 = "/site/regions/africa/item[1]/following::item" in
  let stmts enc =
    (O.Api.Store.query (List.assoc enc stores) q7).O.Translate.statements
  in
  check bool_t "local issues more statements" true
    (stmts O.Encoding.Local > stmts O.Encoding.Global);
  check bool_t "dewey ~ global" true
    (abs (stmts O.Encoding.Dewey_enc - stmts O.Encoding.Global) <= 2)

let test_empty_results () =
  List.iter assert_equivalent
    [
      "/nosuchroot";
      "//nosuchtag";
      "/site/open_auctions/open_auction[99]";
      "//person[@id = 'nonexistent']";
      "/site/text()";
    ]

let test_union_translation () =
  let idx, stores = Lazy.force xmark_env in
  let u = "/site/people/person[1] | //closed_auction/price | /site/regions" in
  let expected = O.Dom_eval.eval_union idx (O.Xpath_parser.parse_union u) in
  List.iter
    (fun (enc, store) ->
      let got = O.Api.Store.query_ids store u in
      if got <> expected then
        Alcotest.failf "%s: union mismatch (%d vs %d nodes)"
          (O.Encoding.name enc) (List.length got) (List.length expected))
    stores

let test_doc_order_of_results () =
  let idx, stores = Lazy.force xmark_env in
  ignore idx;
  (* a query whose matches interleave across subtrees *)
  let xp = "//text" in
  List.iter
    (fun (enc, store) ->
      let ids = O.Api.Store.query_ids store xp in
      check bool_t
        (O.Encoding.name enc ^ " sorted")
        true
        (List.sort compare ids = ids))
    stores

(* randomized: random documents x random paths, all encodings *)
let prop_oracle_equivalence =
  let gen =
    QCheck.Gen.(
      pair (int_bound 10_000) Xpath_gen.gen_path)
  in
  let print (seed, path) =
    Printf.sprintf "seed=%d path=%s" seed (O.Xpath_ast.to_string path)
  in
  QCheck.Test.make ~name:"sql = oracle on random docs/paths" ~count:200
    (QCheck.make ~print gen) (fun (seed, path) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let idx, stores = stores_and_oracle doc in
      let expected = O.Dom_eval.eval idx path in
      List.for_all
        (fun (_, store) ->
          let got =
            List.map
              (fun (r : O.Node_row.t) -> r.O.Node_row.id)
              (O.Api.Store.query store (O.Xpath_ast.to_string path)).O.Translate.rows
          in
          got = expected)
        stores)

(* Positional child and sibling steps, whose leading [1] or [last()] the
   statement applies from the end of a (parent, tag, order) probe, against
   the DOM oracle on every encoding. The trees mix element names, carry
   attributes named like the sibling elements, and have many childless
   parents and single children. *)
let prop_positional_probes =
  let open QCheck in
  let gen_doc =
    Gen.(
      let tag = oneofl [ "t"; "t"; "a"; "b" ] in
      let attrs =
        map
          (fun (t, a) ->
            (if t then [ T.attr "t" "1" ] else []) @ if a then [ T.attr "a" "x" ] else [])
          (pair bool bool)
      in
      let rec node depth =
        if depth = 0 then map2 (fun t attrs -> T.element ~attrs t []) tag attrs
        else
          frequency
            [
              (1, map T.text (oneofl [ "x"; "5" ]));
              ( 5,
                triple tag attrs (int_bound 3) >>= fun (t, attrs, n) ->
                list_repeat n (node (depth - 1)) >|= T.element ~attrs t );
            ]
      in
      int_range 1 4 >>= fun n ->
      list_repeat n (node 3) >|= fun kids ->
      T.doc_of_node (T.normalize (T.element "r" kids)))
  in
  let steps =
    [
      "t[1]"; "t[last()]"; "t[position() = 1]"; "following-sibling::t[1]";
      "preceding-sibling::t[1]"; "preceding-sibling::t[last()]";
      "following-sibling::t[last()]"; "t[1][@a]"; "t[last()][1]";
      "t[last()][@t]/following-sibling::*[1]";
    ]
  in
  let contexts = [ "//*/"; "//t/"; "/r/"; "//*/@t/../"; "//*/@t/"; "//a[" ] in
  let gen_path =
    Gen.(
      map
        (fun (c, s) -> if c = "//a[" then c ^ s ^ "]" else c ^ s)
        (pair (oneofl contexts) (oneofl steps)))
  in
  let print (doc, path) =
    Printf.sprintf "%s on %s" path (Xmllib.Printer.document_to_string doc)
  in
  Test.make ~name:"positional probes = oracle" ~count:200
    (make ~print (Gen.pair gen_doc gen_path))
    (fun (doc, xpath) ->
      let idx, stores = stores_and_oracle doc in
      let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath) in
      List.for_all (fun (_, store) -> O.Api.Store.query_ids store xpath = expected) stores)

(* A store whose indexes predate the (parent, tag, order) keys, built from
   a snapshot's DDL texts with the older index definitions in place of the
   current ones, and its rows: positional steps probe (parent, order) or
   LOCAL's (parent, l_order), with the tag as a residual, and still agree
   with the oracle. *)
let test_older_indexes () =
  let doc = Lazy.force xmark in
  let idx = O.Doc_index.build doc in
  (* current definition -> older definition *)
  let older = function
    | O.Encoding.Global | O.Encoding.Global_gap ->
        [ ("CREATE UNIQUE INDEX o_global_parent ON o_global (parent, tag, g_order)",
           "CREATE INDEX o_global_parent ON o_global (parent, g_order)");
          ("CREATE UNIQUE INDEX o_global_tag ON o_global (tag, g_order)",
           "CREATE INDEX o_global_tag ON o_global (tag, g_order)") ]
    | O.Encoding.Local ->
        [ ("CREATE UNIQUE INDEX o_local_tag ON o_local (tag, parent, l_order)",
           "CREATE INDEX o_local_tag ON o_local (tag)") ]
    | O.Encoding.Dewey_enc | O.Encoding.Dewey_caret ->
        [ ("CREATE UNIQUE INDEX o_dewey_parent ON o_dewey (parent, tag, path)",
           "CREATE INDEX o_dewey_parent ON o_dewey (parent, path)");
          ("CREATE UNIQUE INDEX o_dewey_tag ON o_dewey (tag, path)",
           "CREATE INDEX o_dewey_tag ON o_dewey (tag, path)") ]
  in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      ignore (O.Api.Store.create db ~name:"o" enc doc);
      let entries = List.concat (Reldb.Db.snapshot db) in
      let ddl =
        List.filter_map
          (function Reldb.Wal.Exec (sql, _) -> Some sql | Reldb.Wal.Rows _ -> None)
          entries
      in
      List.iter
        (fun (current, _) ->
          check bool_t ("index in snapshot: " ^ current) true (List.mem current ddl))
        (older enc);
      let db2 = Reldb.Db.create () in
      List.iter
        (function
          | Reldb.Wal.Exec (sql, _) ->
              let sql = Option.value (List.assoc_opt sql (older enc)) ~default:sql in
              ignore (Reldb.Db.exec db2 sql)
          | Reldb.Wal.Rows (name, rows) -> ignore (Reldb.Db.insert_many db2 name rows))
        entries;
      let store = O.Api.Store.open_existing db2 ~name:"o" enc in
      List.iter
        (fun xpath ->
          let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath) in
          check (Alcotest.list int_t)
            (O.Encoding.name enc ^ ": " ^ xpath)
            expected (O.Api.Store.query_ids store xpath))
        [
          "/site/open_auctions/open_auction/bidder[1]";
          "/site/open_auctions/open_auction/bidder[last()]";
          "/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder[1]";
          "//bidder[last()]/preceding-sibling::bidder[1]";
          "/site/regions/*/item[last()]";
        ])
    [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]

let tests =
  ( "translate",
    [
      Alcotest.test_case "workload query set" `Slow test_workload_queries;
      Alcotest.test_case "axis zoo" `Slow test_axis_zoo;
      Alcotest.test_case "comments and PIs" `Quick test_comments_and_pis;
      Alcotest.test_case "statement counts" `Quick test_statement_counts;
      Alcotest.test_case "axis expressibility matrix" `Quick
        test_axis_expressibility_matrix;
      Alcotest.test_case "empty results" `Quick test_empty_results;
      Alcotest.test_case "union translation" `Quick test_union_translation;
      Alcotest.test_case "results in document order" `Quick test_doc_order_of_results;
      QCheck_alcotest.to_alcotest prop_oracle_equivalence;
      QCheck_alcotest.to_alcotest prop_positional_probes;
      Alcotest.test_case "stores with older indexes" `Quick test_older_indexes;
    ] )
