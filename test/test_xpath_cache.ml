(* The per-store cache of compiled queries (Api.Store): a cached text runs
   the statements a fresh compile lists, lowers nothing, survives updates,
   and the cache stays within its cap. *)

module O = Ordered_xml
module Tr = O.Translate

let check = Alcotest.check
let int_t = Alcotest.int

let hits () = Obs.counter_value "xpath_cache.hit"
let misses () = Obs.counter_value "xpath_cache.miss"
let lowered () = Obs.counter_value "translate.lowered"

let with_obs f =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) f

(* Query the text (a miss), apply a random update to every store, query
   the text again (hits only): both results match the DOM oracle. *)
let prop_hit_after_update =
  QCheck.Test.make ~name:"cached query = oracle after an update" ~count:60
    QCheck.(pair (make Gen.(int_bound 10_000)) Xpath_gen.arb_path)
    (fun (seed, path) ->
      with_obs @@ fun () ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let _, stores = Test_local_order.stores_of doc in
      let xpath = O.Xpath_ast.to_string path in
      let expected = O.Dom_eval.eval (O.Doc_index.build doc) path in
      let m0 = misses () in
      List.iter
        (fun (enc, s) ->
          if O.Api.Store.query_ids s xpath <> expected then
            QCheck.Test.fail_reportf "%s, fresh: differs from the oracle" (O.Encoding.name enc))
        stores;
      if misses () - m0 <> List.length stores then QCheck.Test.fail_report "first queries were not misses";
      Test_local_order.random_update stores (Xmllib.Rng.create seed);
      let m1 = misses () and h1 = hits () in
      (match Test_local_order.updated_mismatch stores xpath with
      | Some m -> QCheck.Test.fail_reportf "updated: %s" m
      | None -> ());
      misses () = m1 && hits () > h1)

(* A path compiled [~relative] and run from context nodes ([exec ~ids],
   what FLWOR's [$x/path] runs) = the oracle from the same nodes. *)
let prop_relative =
  QCheck.Test.make ~name:"relative query from ids = oracle" ~count:60
    QCheck.(triple (make Gen.(int_bound 10_000)) (make Gen.(int_bound 1000)) Xpath_gen.arb_path)
    (fun (seed, pick, path) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let idx = O.Doc_index.build doc in
      let db, stores = Test_local_order.stores_of doc in
      let path = { path with O.Xpath_ast.absolute = false } in
      let all = O.Dom_eval.eval idx (O.Xpath_parser.parse "//node()") in
      let ids = List.filteri (fun i _ -> (i + pick) mod 3 = 0) all in
      let expected = O.Dom_eval.eval_from idx ids path in
      List.for_all
        (fun (enc, _) ->
          let q = Tr.compile ~relative:true ~doc:"q" enc [ path ] in
          let got = List.map (fun (r : O.Node_row.t) -> r.O.Node_row.id) (Tr.exec ~ids db ~doc:"q" enc q).Tr.rows in
          got = expected || QCheck.Test.fail_reportf "%s: got %d nodes, oracle %d" (O.Encoding.name enc)
                              (List.length got) (List.length expected))
        stores)

let small_store () =
  let db = Reldb.Db.create () in
  O.Api.Store.create db ~name:"c" O.Encoding.Global (Xmllib.Generator.flat ~tag:"item" ~count:5 ())

let test_cap () =
  with_obs @@ fun () ->
  let s = small_store () in
  let text k = Printf.sprintf "/doc/item[%d]" k in
  for k = 1 to 1000 do
    ignore (O.Api.Store.count s (text k))
  done;
  check int_t "held" 128 (O.Api.Store.cached s);
  let h = hits () and m = misses () in
  ignore (O.Api.Store.count s (text 1000));
  check int_t "newest is a hit" (h + 1) (hits ());
  ignore (O.Api.Store.count s (text 1));
  check int_t "oldest was evicted" (m + 1) (misses ());
  check int_t "still held" 128 (O.Api.Store.cached s)

(* every statement text a compiled query holds *)
let rec statements segs = List.concat_map segment segs

and segment = function
  | Tr.Run r -> [ r.Tr.sql ]
  | Tr.Step s -> fetch s.Tr.fetch @ List.concat_map pred s.Tr.preds

and fetch = function
  | Tr.Root r | Tr.Context r | Tr.Doc_order r -> [ r.Tr.sql ]
  | Tr.Prefixes sql -> [ sql ]
  | Tr.With_self f -> fetch f
  | Tr.Self_rows | Tr.Chain_walk | Tr.Levels -> []

and pred = function
  | Tr.Pos _ | Tr.Last -> []
  | Tr.Exists segs | Tr.Count (segs, _, _) -> statements segs
  | Tr.Cmp (segs, _, _, texts) -> statements segs @ statements texts
  | Tr.And (a, b) | Tr.Or (a, b) -> pred a @ pred b
  | Tr.Not a -> pred a

(* LOCAL's parent-chain walks fetch rows by id or by parent through the id
   relation, with statements fixed per table *)
let fixed sql = Astring_contains.contains sql "ctx_ids c"

let test_cached_statements () =
  let doc = O.Workload.dataset ~scale:1 in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc ->
      let s = O.Api.Store.create db ~name:"w" enc doc in
      List.iter
        (fun (q : O.Workload.query) ->
          Option.iter
            (fun xpath ->
              let what = Printf.sprintf "%s %s" (O.Encoding.name enc) q.O.Workload.q_id in
              ignore (O.Api.Store.query s xpath);
              let cached = (O.Api.Store.query s xpath).Tr.sql_log in
              let compiled = Tr.compile ~doc:"w" enc (O.Xpath_parser.parse_union xpath) in
              let fresh = (Tr.exec db ~doc:"w" enc compiled).Tr.sql_log in
              check (Alcotest.list Alcotest.string) (what ^ ": cached = fresh") fresh cached;
              let listed = List.concat_map statements compiled in
              List.iter
                (fun sql ->
                  if not (List.mem sql listed || fixed sql) then
                    Alcotest.failf "%s: %s is not a compiled statement" what sql)
                cached)
            q.O.Workload.q_xpath)
        O.Workload.queries)
    O.Encoding.all

(* Texts whose compiled form holds middle-tier steps, predicate paths and
   derived tables: after the first call, no call lowers a statement. *)
let test_hit_lowers_nothing () =
  with_obs @@ fun () ->
  let doc = O.Workload.dataset ~scale:1 in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc ->
      let s = O.Api.Store.create db ~name:"h" enc doc in
      List.iter
        (fun xpath ->
          let l0 = lowered () in
          let first = O.Api.Store.query_ids s xpath in
          if lowered () = l0 then Alcotest.failf "%s: a miss lowered nothing" xpath;
          let l1 = lowered () and h = hits () in
          let again = O.Api.Store.query_ids s xpath in
          check int_t (xpath ^ " hit") (h + 1) (hits ());
          check int_t (xpath ^ " lowers nothing") l1 (lowered ());
          check (Alcotest.list int_t) (xpath ^ " same rows") first again)
        [
          "/site/regions/africa/item[1]/following::item";
          "//person[profile/@income > 50000]/name";
          "/site/open_auctions/open_auction[bidder[2]/increase > 10]/seller";
          "//bidder/ancestor-or-self::*/preceding::*[1]";
          "//open_auction[count(bidder) > 2 or not(@id)]/descendant-or-self::increase[last()]";
          "/site/regions//item[2]/name | //category/name";
        ])
    O.Encoding.all

let tests =
  ( "xpath-cache",
    [
      QCheck_alcotest.to_alcotest prop_hit_after_update;
      QCheck_alcotest.to_alcotest prop_relative;
      Alcotest.test_case "at most 128 texts" `Quick test_cap;
      Alcotest.test_case "cached statements are compiled ones" `Quick test_cached_statements;
      Alcotest.test_case "a hit lowers nothing" `Quick test_hit_lowers_nothing;
    ] )
