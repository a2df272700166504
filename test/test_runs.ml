(* Runs: the steps one SQL statement can hold (child and attribute chains,
   value predicates, a positional tail) lowered to a single join with
   LIMIT ? [OFFSET ?] BY, checked against the DOM oracle on every encoding,
   fresh and after updates; the statement counts this buys on the paper's
   queries; and the one number rule that makes value predicates agree
   wherever they are evaluated. *)

module O = Ordered_xml
module T = Xmllib.Types

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let tags = [| "a"; "b"; "c" |]

(* Paths biased to child and attribute chains, with [k], [last()],
   position ranges and value predicates, plus the occasional step that
   ends a run. Comparisons read attributes and text nodes, where the
   translator's data-centric string value is XPath's (see Xpath_gen). *)
let gen_run_path =
  let open QCheck.Gen in
  let tag = oneofa tags in
  let value_pred =
    frequency
      [
        (3, map (Printf.sprintf "[%s]") tag);
        (2, map2 (Printf.sprintf "[%s/%s]") tag tag);
        (2, map2 (fun t k -> Printf.sprintf "[%s/text() > %d]" t k) tag (int_bound 99));
        (1, map (fun k -> Printf.sprintf "[text() < %d]" k) (int_bound 99));
        (2, map2 (fun op k -> Printf.sprintf "[@k0 %s %d]" op k) (oneofl [ ">"; "<"; "="; ">=" ]) (int_bound 50));
        (1, map (fun w -> Printf.sprintf "[@k1 = '%s']" w) (oneofl [ "alpha"; "beta"; "gamma" ]));
        (1, return "[@k0]");
      ]
  in
  let pos_pred =
    oneof
      [
        map (Printf.sprintf "[%d]") (int_range 1 4);
        return "[last()]";
        map2
          (fun a b -> Printf.sprintf "[position() >= %d and position() <= %d]" a b)
          (int_range 1 3) (int_range 1 4);
        map2 (fun op k -> Printf.sprintf "[position() %s %d]" op k) (oneofl [ "<"; ">"; ">=" ]) (int_range 1 3);
      ]
  in
  let name = oneof [ tag; return "*" ] in
  let with_preds preds = map2 ( ^ ) name (frequency preds) in
  (* inner steps carry value predicates; a run-ending step now and then *)
  let inner =
    frequency
      [
        (8, with_preds [ (2, return ""); (3, value_pred); (1, map2 ( ^ ) value_pred value_pred) ]);
        (1, map2 (fun ax t -> ax ^ "::" ^ t) (oneofl [ "following-sibling"; "preceding-sibling" ]) tag);
        (1, oneofl [ ".."; "text()"; "*[1][@k0]"; "*[position() != 2]" ]);
      ]
  in
  (* the last step: a positional tail, value predicates or an attribute *)
  let last =
    frequency
      [
        (6, with_preds [ (2, return ""); (2, value_pred); (3, pos_pred); (1, map2 ( ^ ) pos_pred value_pred) ]);
        (2, map2 (fun a p -> "@" ^ a ^ p) (oneofl [ "k0"; "k1"; "*" ]) (oneofl [ ""; "[. > 10]" ]));
        (1, map2 (fun ax p -> ax ^ "::" ^ "b" ^ p) (oneofl [ "following-sibling"; "preceding-sibling" ]) pos_pred);
        (1, map (fun p -> "text()" ^ p) (oneofl [ ""; "[1]"; "[last()]" ]));
      ]
  in
  let lead =
    frequency
      [ (2, return "/*"); (2, map (fun t -> "//" ^ t) tag); (1, map2 (fun t p -> "//" ^ t ^ p) tag pos_pred) ]
  in
  map3
    (fun l mid z -> String.concat "/" ((l :: mid) @ [ z ]))
    lead
    (list_size (int_bound 2) inner)
    last

let prop_runs_oracle =
  QCheck.Test.make ~name:"lowered runs = DOM, fresh and updated" ~count:500
    QCheck.(
      make
        ~print:(fun (seed, ops, xp) -> Printf.sprintf "seed=%d ops=%d %s" seed ops xp)
        Gen.(triple (int_bound 10_000) (int_bound 2) gen_run_path))
    (fun (seed, ops, xpath) ->
      let doc =
        Xmllib.Generator.random_tree ~seed ~tags ~max_depth:4
          ~max_fanout:6 ()
      in
      let _, stores = Test_local_order.stores_of doc in
      if ops = 0 then begin
        let idx = O.Doc_index.build doc in
        let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath) in
        List.for_all (fun (_, s) -> O.Api.Store.query_ids s xpath = expected) stores
      end
      else begin
        let rng = Xmllib.Rng.create seed in
        for _ = 1 to ops * 3 do
          Test_local_order.random_update stores rng
        done;
        match Test_local_order.updated_mismatch stores xpath with
        | None -> true
        | Some m -> QCheck.Test.fail_report m
      end)

(* Q1-Q4 are one statement on every encoding; Q6 one statement under GLOBAL
   and DEWEY; Q5 and Q7 two runs under GLOBAL and DEWEY; LOCAL pays only the
   parent-chain statements its final sort needs. *)
let test_paper_query_statements () =
  let doc = O.Workload.dataset ~scale:1 in
  let db = Reldb.Db.create () in
  let stmts enc id =
    let store = O.Api.Store.create db ~name:"s" enc doc in
    let xp =
      Option.get
        (List.find (fun (q : O.Workload.query) -> q.O.Workload.q_id = id) O.Workload.queries)
          .O.Workload.q_xpath
    in
    let n = (O.Api.Store.query store xp).O.Translate.statements in
    O.Api.Store.drop store;
    n
  in
  let expect enc id n = check int_t (Printf.sprintf "%s %s" id (O.Encoding.name enc)) n (stmts enc id) in
  List.iter
    (fun enc ->
      List.iter (fun id -> expect enc id 1) [ "Q1"; "Q2"; "Q3"; "Q4" ])
    O.Encoding.all;
  List.iter
    (fun enc ->
      expect enc "Q6" 1;
      expect enc "Q5" 2;
      expect enc "Q7" 2)
    [ O.Encoding.Global; O.Encoding.Global_gap; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ];
  (* LOCAL: the chain's rows answer the sibling step's sort; following::
     fetches the other regions; //person pays two parent levels *)
  expect O.Encoding.Local "Q5" 2;
  expect O.Encoding.Local "Q7" 3;
  expect O.Encoding.Local "Q6" 4

(* A union sorts its paths' rows once more: LOCAL keeps every run's chain
   rows for it, so two child chains cost two statements and no parent-chain
   fetch. *)
let test_local_union () =
  let doc = O.Workload.dataset ~scale:1 in
  let idx = O.Doc_index.build doc in
  let store = O.Api.Store.create (Reldb.Db.create ()) ~name:"u" O.Encoding.Local doc in
  let xp = "/site/people/person/name | /site/regions/africa/item[2]" in
  let r = O.Api.Store.query store xp in
  check int_t "statements" 2 r.O.Translate.statements;
  check (Alcotest.list int_t) "= DOM"
    (O.Dom_eval.eval_union idx (O.Xpath_parser.parse_union xp))
    (List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows)

(* A position is a bound value: open_auction[k] for a new k reuses the
   plans of the first. *)
let test_position_is_bound () =
  let db = Reldb.Db.create () in
  List.iter
    (fun enc ->
      let store =
        O.Api.Store.create db ~name:"p" enc (O.Workload.dataset ~scale:1)
      in
      let q k = ignore (O.Api.Store.query store (Printf.sprintf "/site/open_auctions/open_auction[%d]/bidder[1]" k)) in
      q 1;
      let _, m0, _ = Reldb.Db.plan_cache_stats db in
      List.iter q [ 2; 3; 5; 8; 13 ];
      let _, m1, _ = Reldb.Db.plan_cache_stats db in
      check int_t (O.Encoding.name enc ^ " plan-cache misses") 0 (m1 - m0);
      O.Api.Store.drop store)
    O.Encoding.all

(* ---- the number rule ------------------------------------------------ *)

let infinities =
  "<r><a><b>inf</b></a><a><b>1e999</b></a><a><b>0</b></a><a x='infinity'/>\
   <a><b> 7 </b></a><a x='-1e999'/></r>"

let test_number_rule () =
  let doc = Xmllib.Parser.parse_document infinities in
  let idx = O.Doc_index.build doc in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc ->
      let store = O.Api.Store.create db ~name:"n" enc doc in
      List.iter
        (fun (xpath, n) ->
          let path = O.Xpath_parser.parse xpath in
          let what = Printf.sprintf "%s %s" (O.Encoding.name enc) xpath in
          check int_t (what ^ " oracle") n (List.length (O.Dom_eval.eval idx path));
          check int_t (what ^ " store") n (List.length (O.Api.Store.query_ids store xpath));
          if O.Translate_sql.eligible enc path then
            check int_t (what ^ " single statement") n
              (List.length (O.Translate_sql.eval db ~doc:"n" enc path).O.Translate.rows))
        [
          ("/r/a[b > 1]", 1);
          ("/r/a[b < 1]", 1);
          ("/r/a[@x > 1]", 0);
          ("/r/a[@x < 1]", 0);
          ("/r/a[b = 'inf']", 1);
          ("/r/a[b >= '0']", 2);
        ];
      O.Api.Store.drop store)
    O.Encoding.all;
  check bool_t "inf is no number" true (Float.is_nan (O.Encoding.number_of_string "inf"));
  check bool_t "1e999 is no number" true (Float.is_nan (O.Encoding.number_of_string "1e999"));
  check bool_t "trimmed" true (O.Encoding.number_of_string " 7 " = 7.)

(* The stored numeric shadows survive a dump/restore and a WAL replay: every
   row's nval is still the number rule of its value. *)
let test_number_roundtrip () =
  let values = [ "1e308"; "-0"; "4.9e-324"; "0.1"; "inf"; "1e999"; "-1e999"; " 12 "; "nan"; "2.5e-7" ] in
  Test_wal.with_dir (fun dir ->
      let db = Reldb.Db.open_dir dir in
      let doc =
        Xmllib.Parser.parse_document
          ("<r>" ^ String.concat "" (List.map (fun _ -> "<v>x</v>") values) ^ "</r>")
      in
      let store = O.Api.Store.create db ~name:"w" O.Encoding.Global doc in
      let texts = O.Api.Store.query_ids store "/r/v/text()" in
      List.iter2 (fun id v -> ignore (O.Api.Store.set_text store ~id v)) texts values;
      List.iter2
        (fun id v -> ignore (O.Api.Store.set_attribute store ~id ~name:"n" ~value:v))
        (O.Api.Store.query_ids store "/r/v") values;
      let before = Reldb.Db.dump db in
      Reldb.Db.close db;
      let replayed = Reldb.Db.open_dir dir in
      let restored = Reldb.Db.restore before in
      List.iter
        (fun (what, db) ->
          check bool_t (what ^ ": dump") true (Reldb.Db.dump db = before);
          check bool_t (what ^ ": nval = number rule") true
            (O.Integrity.check db ~doc:"w" O.Encoding.Global = Ok ()))
        [ ("WAL replay", replayed); ("restore", restored) ];
      Reldb.Db.close replayed)

let tests =
  ( "runs",
    [
      QCheck_alcotest.to_alcotest prop_runs_oracle;
      Alcotest.test_case "paper queries, statements per run" `Quick
        test_paper_query_statements;
      Alcotest.test_case "a position is a bound value" `Quick test_position_is_bound;
      Alcotest.test_case "LOCAL unions keep their chains" `Quick test_local_union;
      Alcotest.test_case "one number rule" `Quick test_number_rule;
      Alcotest.test_case "stored numbers round-trip" `Quick test_number_roundtrip;
    ] )
