(* Runs: the steps one SQL statement can hold (child and attribute chains,
   value predicates, a positional tail) lowered to a single join with
   LIMIT ? [OFFSET ?] BY, checked against the DOM oracle on every encoding,
   fresh and after updates; the compiled runs are the statements evaluation
   issues; whole paths of the join table are one statement; the statement
   counts this buys on the paper's queries; and the one number rule that
   makes value predicates agree wherever they are evaluated. *)

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

(* Paths whose positional steps are followed by more steps: each such step
   is a derived table the rest of the statement joins, DISTINCT first where
   a join before it can reach a row twice (an existence test, a descendant
   or sibling step); nested up to three deep. *)
let gen_nested_path =
  let open QCheck.Gen in
  let tag = oneof [ oneofa tags; return "*" ] in
  let pos =
    oneof
      [
        map (Printf.sprintf "[%d]") (int_range 1 3);
        return "[last()]";
        map2 (fun a b -> Printf.sprintf "[position() >= %d and position() <= %d]" a b) (int_range 1 2) (int_range 2 3);
      ]
  in
  let pred = frequency [ (3, pos); (1, map (Printf.sprintf "[%s]") (oneofa tags)); (2, return "") ] in
  let step =
    frequency
      [
        (4, map2 ( ^ ) tag pred);
        (3, map3 (fun ax t p -> ax ^ t ^ p) (oneofl [ "following-sibling::"; "preceding-sibling::" ]) tag pred);
        (1, map3 (fun ax t p -> ax ^ t ^ p) (oneofl [ "descendant::"; "following::"; "preceding::" ]) tag pred);
      ]
  in
  map2
    (fun lead rest -> String.concat "/" (lead :: rest))
    (oneof [ return "/*"; map (fun t -> "//" ^ t) (oneofa tags) ])
    (list_size (int_range 2 4) step)

let prop_nested_positions =
  QCheck.Test.make ~name:"positions inside paths = DOM" ~count:300
    QCheck.(make ~print:(fun (seed, xp) -> Printf.sprintf "seed=%d %s" seed xp) Gen.(pair (int_bound 10_000) gen_nested_path))
    (fun (seed, xpath) ->
      let doc = Xmllib.Generator.random_tree ~seed ~tags ~max_depth:4 ~max_fanout:5 () in
      let _, stores = Test_local_order.stores_of doc in
      let expected = O.Dom_eval.eval (O.Doc_index.build doc) (O.Xpath_parser.parse xpath) in
      List.for_all
        (fun (enc, s) ->
          O.Api.Store.query_ids s xpath = expected
          || QCheck.Test.fail_reportf "%s differs from the DOM" (O.Encoding.name enc))
        stores)

(* The one compiler: whenever a path has results, every run it compiles to
   ran, text unchanged and in order (other statements — middle-tier steps,
   LOCAL's parent chains — interleave). *)
let prop_compiled_runs_issued =
  QCheck.Test.make ~name:"compiled runs are what eval issues" ~count:200
    QCheck.(
      make
        ~print:(fun (seed, p) -> Printf.sprintf "seed=%d %s" seed (O.Xpath_ast.to_string p))
        Gen.(pair (int_bound 5_000) Xpath_gen.gen_path))
    (fun (seed, path) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:4 ~max_fanout:4 () in
      let db, _ = Test_local_order.stores_of doc in
      List.for_all
        (fun enc ->
          let r = O.Translate.eval db ~doc:"q" enc path in
          let texts =
            List.filter_map
              (function O.Translate.Run r -> Some r.O.Translate.sql | O.Translate.Step _ -> None)
              (List.concat (O.Translate.compile ~doc:"q" enc [ path ]))
          in
          let rec subsequence l log =
            match (l, log) with
            | [], _ -> true
            | _, [] -> false
            | x :: l', y :: log' -> subsequence (if x = y then l' else l) log'
          in
          r.O.Translate.rows = [] || subsequence texts r.O.Translate.sql_log
          || QCheck.Test.fail_reportf "%s: compiled\n%s\nissued\n%s" (O.Encoding.name enc)
               (String.concat "\n" texts) (String.concat "\n" r.O.Translate.sql_log))
        O.Encoding.all)

(* ---- whole paths of the join table ----------------------------------- *)

let global_queries =
  [
    "/site/open_auctions/open_auction";
    "//bidder";
    "//bidder/increase";
    "/site/people/person/@id";
    "//person[address]/name";
    "//person[profile/@income > 50000]/name";
    "/site/closed_auctions/closed_auction[price > 500][type = 'Regular']";
    "//open_auction/bidder/following-sibling::bidder";
    "//increase/ancestor::open_auction";
    "/site/regions/africa/item/following::item";
    "/site/regions/africa/item[1]/following::item";
    "//profile/..";
    "//annotation/descendant-or-self::*";
  ]

(* no descendant or document-order axes: one join chain on every encoding *)
let shared_queries =
  [
    "/site/open_auctions/open_auction";
    "/site/people/person/@id";
    "/site/people/person[address]/name";
    "/site/open_auctions/open_auction/bidder/following-sibling::bidder";
    "/site/closed_auctions/closed_auction[price > 500]/seller";
    "/site/open_auctions/open_auction/bidder/personref/..";
    "/site/open_auctions/open_auction[2]/bidder[1]";
    "/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder";
  ]

let env =
  lazy
    (let doc = O.Workload.dataset ~scale:1 in
     (O.Doc_index.build doc, snd (Test_local_order.stores_of doc)))

(* [xpath] equals the oracle, in one statement when [one] *)
let assert_whole_path ~one enc xpath =
  let idx, stores = Lazy.force env in
  let r = O.Api.Store.query (List.assoc enc stores) xpath in
  if one then check int_t (O.Encoding.name enc ^ " " ^ xpath ^ " statements") 1 r.O.Translate.statements;
  check (Alcotest.list int_t)
    (O.Encoding.name enc ^ " " ^ xpath)
    (O.Dom_eval.eval idx (O.Xpath_parser.parse xpath))
    (List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows)

let test_whole_paths () =
  List.iter (assert_whole_path ~one:true O.Encoding.Global) global_queries;
  List.iter
    (fun enc -> List.iter (assert_whole_path ~one:(enc <> O.Encoding.Local) enc) shared_queries)
    O.Encoding.all

(* The census: 2,000 generated paths, compiled on every encoding. Two
   adjacent runs are a statement boundary the middle tier crosses although
   no middle-tier step stands between them; a positional step and a join
   that can reach a row twice are derived tables instead, so outside LOCAL
   (whose runs from a context hold one step each, so that its final sort
   finds every row's parent chain) there is none. LOCAL's count may only
   fall. *)
let test_census () =
  let paths = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:2000 Xpath_gen.gen_path in
  let rec adjacent = function
    | O.Translate.Run _ :: O.Translate.Run _ :: _ -> true
    | _ :: rest -> adjacent rest
    | [] -> false
  in
  List.iter
    (fun enc ->
      let n =
        List.length
          (List.filter (fun p -> adjacent (List.concat (O.Translate.compile ~doc:"q" enc [ p ]))) paths)
      in
      let name = O.Encoding.name enc ^ ": paths with two adjacent runs" in
      if enc = O.Encoding.Local then check bool_t (Printf.sprintf "%s (%d) <= 532" name n) true (n <= 532)
      else check int_t name 0 n)
    O.Encoding.all

(* The census's paths with a middle-tier step, per encoding. DEWEY and
   ORDPATH keep more than GLOBAL: their ancestor steps, and preceding steps
   from a context relation (a run joins them only from one staircase row),
   stay in the middle tier. Each pin may only move down. *)
let test_census_steps () =
  let paths = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:2000 Xpath_gen.gen_path in
  let has_step p = List.exists (function O.Translate.Step _ -> true | O.Translate.Run _ -> false) p in
  List.iter
    (fun (enc, pin) ->
      let n =
        List.length
          (List.filter (fun p -> has_step (List.concat (O.Translate.compile ~doc:"q" enc [ p ]))) paths)
      in
      check bool_t (Printf.sprintf "%s: paths with a middle-tier step (%d) <= %d" (O.Encoding.name enc) n pin) true (n <= pin))
    [
      (O.Encoding.Global, 918); (O.Encoding.Global_gap, 918); (O.Encoding.Local, 1342);
      (O.Encoding.Dewey_enc, 1026); (O.Encoding.Dewey_caret, 1026);
    ]

(* Σ rows_read, Σ statements and Σ translate.pairs of a tenth of the census
   on XMark scale 1 (paths 5, 15, 25, ...: the tenth that read the most on
   GLOBAL, 5,848,205 rows, before following/preceding steps pruned their
   contexts), per encoding: a step that costs contexts × candidates shows in
   the rows or in the pairs the middle tier makes, a statement issued once
   per context or twice for one fetch in the statements. Each pin may only
   move down. *)
let test_census_rows_read () =
  let _, stores = Lazy.force env in
  let paths =
    List.filteri (fun i _ -> i mod 10 = 5)
      (QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:2000 Xpath_gen.gen_path)
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun (enc, pin, stmt_pin, pairs_pin) ->
      let store = List.assoc enc stores in
      let db = O.Api.Store.db store in
      let before = Reldb.Db.rows_read db and pairs_before = Obs.counter_value "translate.pairs" in
      let stmts =
        List.fold_left
          (fun n p -> n + (O.Api.Store.query store (O.Xpath_ast.to_string p)).O.Translate.statements)
          0 paths
      in
      let n = Reldb.Db.rows_read db - before and name = O.Encoding.name enc in
      let pairs = Obs.counter_value "translate.pairs" - pairs_before in
      check bool_t (Printf.sprintf "%s: rows read (%d) <= %d" name n pin) true (n <= pin);
      check bool_t (Printf.sprintf "%s: statements (%d) <= %d" name stmts stmt_pin) true (stmts <= stmt_pin);
      check bool_t (Printf.sprintf "%s: pairs (%d) <= %d" name pairs pairs_pin) true (pairs <= pairs_pin))
    [
      (O.Encoding.Global, 2_575_327, 246, 27_665); (O.Encoding.Local, 260_334, 371, 72_204);
      (O.Encoding.Dewey_enc, 244_616, 257, 52_226);
    ]

(* A following step over every node of XMark scale 1 pairs one context
   with its rows, not each context with every candidate: the middle tier
   makes at most two pairs per result (translate.pairs; GLOBAL and DEWEY
   join one staircase row and make none). *)
let test_stair_pairs () =
  let _, stores = Lazy.force env in
  let xpath = "/descendant::node()/following::*" in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  List.iter
    (fun enc ->
      let before = Obs.counter_value "translate.pairs" in
      let n = List.length (O.Api.Store.query_ids (List.assoc enc stores) xpath) in
      let pairs = Obs.counter_value "translate.pairs" - before in
      check int_t (O.Encoding.name enc ^ " results") 1125 n;
      check bool_t (Printf.sprintf "%s: pairs (%d) <= 2 x 1,125" (O.Encoding.name enc) pairs) true (pairs <= 2 * 1125))
    O.Encoding.[ Local; Global; Dewey_enc ]

(* LOCAL fetches parent chains only for a sort that needs them, on XMark
   scale 1: a descendant step from the text nodes, whose result is empty,
   sorts nothing (6 statements and 3,100 rows read while the leading step
   keyed its rows); a sibling step ranks each context's rows, which share
   one parent, by l_order (12 statements when it keyed them). *)
let test_local_chains_to_sort () =
  let idx, stores = Lazy.force env in
  let store = List.assoc O.Encoding.Local stores in
  let db = O.Api.Store.db store in
  List.iter
    (fun (xpath, stmts, rows) ->
      let before = Reldb.Db.rows_read db in
      let r = O.Api.Store.query store xpath in
      let read = Reldb.Db.rows_read db - before in
      check int_t (xpath ^ ": statements") stmts r.O.Translate.statements;
      Option.iter (fun n -> check int_t (xpath ^ ": rows read") n read) rows;
      check (Alcotest.list int_t) xpath
        (O.Dom_eval.eval idx (O.Xpath_parser.parse xpath))
        (List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows))
    [
      ("/descendant::text()/descendant::*", 2, Some 2080);
      ("/descendant::item/preceding-sibling::*[(last() and a)][(count(b) >= 1 or 1)]", 4, None);
    ]

(* regression (caught by fuzzing): attribute nodes have no siblings, so a
   sibling axis from an attribute context yields nothing *)
let test_sibling_from_attribute () =
  let _, stores = Lazy.force env in
  List.iter
    (fun (enc, store) ->
      check int_t (O.Encoding.name enc) 0
        (List.length (O.Api.Store.query_ids store "/site/people/person/@id/following-sibling::name")))
    stores

(* Q1-Q5 are one statement on every encoding (Q5's positional step is a
   derived table); Q6 and Q7 one statement under GLOBAL and DEWEY (DEWEY's
   following:: joins the path followed by ff); LOCAL pays only the
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
      List.iter (fun id -> expect enc id 1) [ "Q1"; "Q2"; "Q3"; "Q4"; "Q5" ])
    O.Encoding.all;
  List.iter (fun enc -> expect enc "Q6" 1) [ O.Encoding.Global; O.Encoding.Global_gap; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ];
  List.iter (fun enc -> expect enc "Q7" 1) [ O.Encoding.Global; O.Encoding.Global_gap; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ];
  (* LOCAL: following:: fetches the other regions; //person pays two
     parent levels *)
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

(* position() and count() compare with their literal exactly: a fraction or
   a number beyond the integers is never truncated. The counts are the
   scale-1 document's: open_auction[1] has 6 bidders; each of the 12
   auctions has a bidder, and 4 have one or two. *)
let test_exact_comparisons () =
  let _, stores = Lazy.force env in
  let a = "/site/open_auctions/open_auction" in
  let cases =
    [
      (a ^ "[1]/bidder", 6);
      (a ^ "[1]/bidder[position() < 2.5]", 2);
      (a ^ "[1]/bidder[position() <= 2.5]", 2);
      (a ^ "[1]/bidder[position() = 1.5]", 0);
      (a ^ "[1]/bidder[position() != 1.5]", 6);
      (a ^ "[1]/bidder[position() >= 1.5]", 5);
      (a ^ "[1]/bidder[position() > 1.5]", 5);
      (a ^ "[1]/bidder[position() > 10000000000000000000000]", 0);
      (a ^ "[1]/bidder[position() < 10000000000000000000000]", 6);
      (a ^ "[1]/bidder[position() = 4611686018427387903]", 0);
      (a ^ "[count(bidder) > 0]", 12);
      (a ^ "[count(bidder) = 2.5]", 0);
      (a ^ "[count(bidder) != 2.5]", 12);
      (a ^ "[count(bidder) > 10000000000000000000000]", 0);
      (a ^ "[count(bidder) < 2.5]", 4);
      (a ^ "[count(bidder) <= 2]", 4);
    ]
  in
  List.iter
    (fun (enc, store) ->
      List.iter
        (fun (xpath, n) ->
          check int_t (O.Encoding.name enc ^ " " ^ xpath) n (List.length (O.Api.Store.query_ids store xpath)))
        cases)
    stores;
  List.iter
    (fun (xpath, shown) ->
      check Alcotest.string xpath shown (O.Xpath_ast.to_string (O.Xpath_parser.parse xpath)))
    [
      ("a[position() = 4611686018427387903]", "a[position() < 1]");
      ("a[position() < 2.5]", "a[position() <= 2]");
      ("a[count(b) > 10000000000000000000000]", "a[count(b) < 0]");
      ("a[position() < 3]", "a[position() < 3]");
    ]

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
          check int_t (what ^ " store") n (List.length (O.Api.Store.query_ids store xpath)))
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

(* The stored numeric shadows survive a WAL replay and a checkpoint reload:
   every row's nval is still the number rule of its value. *)
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
      let before = Test_wal.state db in
      Reldb.Db.close db;
      let replayed = Reldb.Db.open_dir dir in
      Reldb.Db.checkpoint replayed;
      Reldb.Db.close replayed;
      let restored = Reldb.Db.open_dir dir in
      List.iter
        (fun (what, db) ->
          check bool_t (what ^ ": state") true (Test_wal.state db = before);
          check bool_t (what ^ ": nval = number rule") true
            (O.Integrity.check db ~doc:"w" O.Encoding.Global = Ok ()))
        [ ("WAL replay", replayed); ("restore", restored) ];
      Reldb.Db.close restored)

let tests =
  ( "runs",
    [
      QCheck_alcotest.to_alcotest prop_runs_oracle;
      QCheck_alcotest.to_alcotest prop_nested_positions;
      Alcotest.test_case "paper queries, statements per run" `Quick
        test_paper_query_statements;
      Alcotest.test_case "a position is a bound value" `Quick test_position_is_bound;
      Alcotest.test_case "position() and count() compare exactly" `Quick test_exact_comparisons;
      Alcotest.test_case "LOCAL unions keep their chains" `Quick test_local_union;
      Alcotest.test_case "one number rule" `Quick test_number_rule;
      Alcotest.test_case "stored numbers round-trip" `Quick test_number_roundtrip;
    ] )

(* the one compiler: what [Translate.compile] lists is what runs *)
let compiled_tests =
  ( "compiled-runs",
    [
      QCheck_alcotest.to_alcotest prop_compiled_runs_issued;
      Alcotest.test_case "whole paths, one statement" `Quick test_whole_paths;
      Alcotest.test_case "sibling-from-attribute empty" `Quick test_sibling_from_attribute;
      Alcotest.test_case "census: no adjacent runs" `Quick test_census;
      Alcotest.test_case "census: paths with a middle-tier step" `Quick test_census_steps;
      Alcotest.test_case "census: rows read" `Quick test_census_rows_read;
      Alcotest.test_case "a following step pairs one context" `Quick test_stair_pairs;
      Alcotest.test_case "LOCAL fetches chains only to sort" `Quick test_local_chains_to_sort;
    ] )
