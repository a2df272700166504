(* Static analyzer: the planner-feeding simplifier, the SQL lint rules,
   the order-correctness contract and the plan inspector. *)

module O = Ordered_xml
module S = Reldb.Sql_ast
module E = Reldb.Expr
module V = Reldb.Value
module P = Reldb.Plan
module Simplify = Reldb.Simplify
module F = Analysis.Finding

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

(* ---------------- simplifier (constant folding + intervals) --------- *)

let col i = E.Col i
let iconst n = E.Const (V.Int n)
let cmp op a b = E.Cmp (op, a, b)

let is_contradiction cs =
  match Simplify.simplify_conjuncts cs with
  | Simplify.Contradiction -> true
  | Simplify.Conjuncts _ -> false

let kept cs =
  match Simplify.simplify_conjuncts cs with
  | Simplify.Contradiction -> Alcotest.fail "unexpected contradiction"
  | Simplify.Conjuncts l -> l

let test_simplify_contradictions () =
  check bool_t "x > 5 AND x < 3" true
    (is_contradiction
       [ cmp E.Gt (col 0) (iconst 5); cmp E.Lt (col 0) (iconst 3) ]);
  check bool_t "x = 1 AND x = 2" true
    (is_contradiction
       [ cmp E.Eq (col 0) (iconst 1); cmp E.Eq (col 0) (iconst 2) ]);
  check bool_t "x >= 5 AND x <= 3" true
    (is_contradiction
       [ cmp E.Ge (col 0) (iconst 5); cmp E.Le (col 0) (iconst 3) ]);
  check bool_t "constant 5 < 3" true
    (is_contradiction [ cmp E.Lt (iconst 5) (iconst 3) ]);
  (* flipped orientation: constant on the left still normalizes *)
  check bool_t "5 < x AND x < 4" true
    (is_contradiction
       [ cmp E.Lt (iconst 5) (col 0); cmp E.Lt (col 0) (iconst 4) ]);
  check bool_t "x > 3 AND x < 5 is satisfiable" false
    (is_contradiction
       [ cmp E.Gt (col 0) (iconst 3); cmp E.Lt (col 0) (iconst 5) ]);
  check bool_t "bounds on different columns do not interact" false
    (is_contradiction
       [ cmp E.Gt (col 0) (iconst 5); cmp E.Lt (col 1) (iconst 3) ])

let test_simplify_subsumption () =
  check int_t "x > 3 subsumed by x > 5" 1
    (List.length
       (kept [ cmp E.Gt (col 0) (iconst 3); cmp E.Gt (col 0) (iconst 5) ]));
  check int_t "x >= 1 absorbed by x = 2" 1
    (List.length
       (kept [ cmp E.Ge (col 0) (iconst 1); cmp E.Eq (col 0) (iconst 2) ]));
  check int_t "constant-true conjunct dropped" 1
    (List.length
       (kept [ cmp E.Eq (iconst 1) (iconst 1); cmp E.Gt (col 0) (iconst 0) ]));
  check int_t "independent bounds both kept" 2
    (List.length
       (kept [ cmp E.Gt (col 0) (iconst 3); cmp E.Lt (col 0) (iconst 5) ]))

(* an equality drops a [<>] of the same column it implies, and contradicts
   one of its own constant, whichever comes first *)
let test_simplify_ne () =
  let ne = cmp E.Ne (col 0) (iconst 2) in
  List.iter
    (fun (what, cs) ->
      check bool_t (what ^ ": implied <> dropped") true
        (match kept cs with [ E.Cmp (E.Eq, E.Col 0, E.Const (V.Int 0)) ] -> true | _ -> false))
    [ ("x <> 2 AND x = 0", [ ne; cmp E.Eq (col 0) (iconst 0) ]);
      ("x = 0 AND x <> 2", [ cmp E.Eq (col 0) (iconst 0); ne ]) ];
  check bool_t "x <> 2 AND x = 2" true (is_contradiction [ ne; cmp E.Eq (col 0) (iconst 2) ]);
  check bool_t "x = 2 AND x <> 2" true (is_contradiction [ cmp E.Eq (col 0) (iconst 2); ne ]);
  check int_t "x <> 2 AND y = 0 both kept" 2 (List.length (kept [ ne; cmp E.Eq (col 1) (iconst 0) ]))

let test_fold () =
  check bool_t "arithmetic folds" true
    (Simplify.fold (E.Arith (E.Add, iconst 1, iconst 2)) = iconst 3);
  check bool_t "FALSE AND col short-circuits" true
    (Simplify.truth_of (Simplify.fold (E.And (iconst 0, cmp E.Eq (col 0) (iconst 1))))
    = Simplify.False);
  check bool_t "TRUE OR col short-circuits" true
    (Simplify.truth_of (Simplify.fold (E.Or (iconst 1, cmp E.Eq (col 0) (iconst 1))))
    = Simplify.True);
  (* a folding error (division by zero) must be left for execution time *)
  check bool_t "div by zero not folded" true
    (match Simplify.fold (E.Arith (E.Div, iconst 1, iconst 0)) with
    | E.Arith (E.Div, _, _) -> true
    | _ -> false)

(* ---------------- planner short-circuit ------------------------------ *)

let make_emp_db () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE emp (id INT, name TEXT, salary INT)");
  ignore (Reldb.Db.exec db "CREATE UNIQUE INDEX emp_pk ON emp (id)");
  for i = 1 to 50 do
    ignore
      (Reldb.Db.exec db
         (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d', %d)" i i (i * 100)))
  done;
  db

let test_contradiction_short_circuits () =
  let db = make_emp_db () in
  Reldb.Db.reset_counters db;
  let rows =
    Reldb.Db.query db "SELECT * FROM emp WHERE salary > 5 AND salary < 3"
  in
  check int_t "no rows returned" 0 (List.length rows);
  check int_t "no rows read" 0 (Reldb.Db.rows_read db);
  (* aggregates over an empty input still produce their one row *)
  (match Reldb.Db.query db "SELECT COUNT(*) FROM emp WHERE 1 = 0" with
  | [ [| V.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "COUNT over contradictory WHERE should be a single 0")

(* ---------------- lint rules ------------------------------------------ *)

let rules_of db stmt_text =
  let stmt = Reldb.Sql_parser.parse stmt_text in
  List.map
    (fun f -> f.F.rule)
    (Analysis.Lint.lint_stmt ~catalog:(Reldb.Db.catalog db) stmt)

let has rule rules = List.mem rule rules

let test_lint_rules () =
  let db = make_emp_db () in
  let rules = rules_of db in
  check bool_t "cartesian product flagged" true
    (has "cartesian-product" (rules "SELECT * FROM emp a, emp b"));
  check bool_t "connected join not flagged" false
    (has "cartesian-product"
       (rules "SELECT * FROM emp a, emp b WHERE a.id = b.id"));
  check bool_t "contradiction flagged" true
    (has "contradiction"
       (rules "SELECT * FROM emp WHERE salary > 5 AND salary < 3"));
  check bool_t "tautology flagged" true
    (has "tautology" (rules "SELECT * FROM emp WHERE 1 = 1 AND salary > 0"));
  check bool_t "satisfiable range clean" false
    (has "contradiction"
       (rules "SELECT * FROM emp WHERE salary > 3 AND salary < 5"));
  check bool_t "unsargable indexed column flagged" true
    (has "unsargable" (rules "SELECT * FROM emp WHERE id + 0 = 5"));
  check bool_t "unsargable needs an index" false
    (has "unsargable" (rules "SELECT * FROM emp WHERE salary + 0 = 5"));
  check bool_t "redundant DISTINCT over unique key" true
    (has "redundant-distinct" (rules "SELECT DISTINCT id FROM emp"));
  check bool_t "DISTINCT over non-unique column kept" false
    (has "redundant-distinct" (rules "SELECT DISTINCT name FROM emp"));
  check bool_t "single-value IN flagged" true
    (has "degenerate-in" (rules "SELECT * FROM emp WHERE id IN (5)"));
  check bool_t "inverted BETWEEN flagged" true
    (has "degenerate-between"
       (rules "SELECT * FROM emp WHERE id BETWEEN 5 AND 3"));
  check bool_t "well-formed query clean" true
    (rules "SELECT name FROM emp WHERE salary > 100" = []);
  (* DML goes through the same WHERE analysis *)
  check bool_t "DELETE with contradictory WHERE" true
    (has "contradiction" (rules "DELETE FROM emp WHERE id > 5 AND id < 3"))

(* ---------------- order-correctness contract -------------------------- *)

let env =
  lazy
    (let doc = O.Workload.dataset ~scale:1 in
     let db = Reldb.Db.create () in
     List.iter
       (fun enc ->
         ignore (O.Api.Store.create db ~name:"q" enc doc);
         O.Node_row.with_relation db (O.Node_row.ctx_relation enc) [] ignore)
       O.Encoding.all;
     db)

(* the fixed query lists of the runs suite *)
let global_queries = Test_runs.global_queries
let shared_queries = Test_runs.shared_queries

let segments enc xpath =
  List.concat (O.Translate.compile ~doc:"q" enc [ O.Xpath_parser.parse xpath ])

let runs enc xpath =
  List.filter_map (function O.Translate.Run r -> Some r | O.Translate.Step _ -> None) (segments enc xpath)

let assert_clean enc xpath =
  let catalog = Reldb.Db.catalog (Lazy.force env) in
  let findings = List.concat_map (Analysis.Lint.lint_segment catalog enc) (segments enc xpath) in
  let bad = List.filter (fun f -> f.F.severity <> F.Info) findings in
  if bad <> [] then
    Alcotest.failf "%s: %s:\n%s" (O.Encoding.name enc) xpath
      (String.concat "\n" (List.map F.to_string bad))

let test_shipped_translations_lint_clean () =
  List.iter (assert_clean O.Encoding.Global) global_queries;
  List.iter
    (fun enc -> List.iter (assert_clean enc) shared_queries)
    O.Encoding.all

let test_order_contract_columns () =
  let expect = Analysis.Order_check.expected_order_column in
  check bool_t "global orders by g_order" true
    (expect O.Encoding.Global = Some "g_order");
  check bool_t "gap orders by g_order" true
    (expect O.Encoding.Global_gap = Some "g_order");
  check bool_t "dewey orders by path" true
    (expect O.Encoding.Dewey_enc = Some "path");
  check bool_t "ordpath orders by path" true
    (expect O.Encoding.Dewey_caret = Some "path");
  check bool_t "local has no order column" true (expect O.Encoding.Local = None)

(* tampering with a correct run's ORDER BY must trip the checker *)
let test_order_tampering () =
  let tamper enc xpath =
    let r = match runs enc xpath with [ r ] -> r | _ -> Alcotest.failf "%s: one run" xpath in
    check bool_t (xpath ^ " sorted") true r.O.Translate.sorted;
    let sel = match Reldb.Sql_parser.parse r.O.Translate.sql with S.Select s -> s | _ -> assert false in
    let errors s =
      List.length
        (List.filter
           (fun f -> f.F.severity = F.Error)
           (Analysis.Order_check.check_run enc r (S.Select s)))
    in
    check int_t (xpath ^ ": correct statement has no errors") 0 (errors sel);
    let caught what order_by =
      check bool_t (xpath ^ ": " ^ what ^ " caught") true (errors { sel with order_by } > 0)
    in
    caught "stripped ORDER BY" [];
    caught "descending order" (List.map (fun (e, _) -> (e, S.Desc)) sel.order_by);
    caught "wrong column"
      [ (S.E_col (Some (fst (List.nth r.O.Translate.chain (List.length r.O.Translate.chain - 1))), "id"), S.Asc) ];
    (sel, caught)
  in
  ignore (tamper O.Encoding.Global "//bidder");
  (* LOCAL orders a child chain by every alias's sibling order, root down *)
  let sel, caught = tamper O.Encoding.Local "/site/people/person/name" in
  check int_t "four keys" 4 (List.length sel.order_by);
  caught "reversed ORDER BY" (List.rev sel.order_by);
  caught "ORDER BY cut to the last alias" [ List.nth sel.order_by 3 ]

(* Q5 reads its positional prefix as a derived table: the checker follows
   the run's [derived] into the subquery, so tampering with either ORDER BY
   is caught *)
let test_derived_order_checked () =
  let q5 = "/site/open_auctions/open_auction/bidder[1]/following-sibling::bidder" in
  List.iter
    (fun enc ->
      let what = O.Encoding.name enc ^ " Q5" in
      let r = match runs enc q5 with [ r ] -> r | _ -> Alcotest.failf "%s: one run" what in
      check bool_t (what ^ " sorted") true r.O.Translate.sorted;
      check bool_t (what ^ " reads a derived run") true (r.O.Translate.derived <> None);
      let sel = match Reldb.Sql_parser.parse r.O.Translate.sql with S.Select s -> s | _ -> assert false in
      let errors s =
        List.length
          (List.filter (fun f -> f.F.severity = F.Error) (Analysis.Order_check.check_run enc r (S.Select s)))
      in
      check int_t (what ^ ": correct statement") 0 (errors sel);
      check bool_t (what ^ ": outer ORDER BY stripped") true (errors { sel with order_by = [] } > 0);
      let inner f =
        {
          sel with
          from = List.map (function S.Derived (q, a) -> S.Derived (f q, a) | b -> b) sel.from;
        }
      in
      check bool_t (what ^ ": derived ORDER BY stripped") true
        (errors (inner (fun q -> { q with S.order_by = [] })) > 0);
      check bool_t (what ^ ": derived ORDER BY reversed") true
        (errors (inner (fun q -> { q with S.order_by = List.rev q.S.order_by })) > 0);
      check bool_t (what ^ ": derived table dropped") true
        (errors { sel with from = List.filter (function S.Derived _ -> false | S.Base _ -> true) sel.from } > 0))
    O.Encoding.all

(* every axis runs on every encoding: one outside the join table is a
   middle-tier step, an Info note, never an error *)
let test_middle_tier_steps () =
  let catalog = Reldb.Db.catalog (Lazy.force env) in
  let steps enc xpath =
    List.length (List.filter (function O.Translate.Step _ -> true | O.Translate.Run _ -> false) (segments enc xpath))
  in
  check int_t "following:: from LOCAL rows" 1
    (steps O.Encoding.Local "/site/regions/africa/item/following::item");
  check int_t "following:: joins under GLOBAL" 0
    (steps O.Encoding.Global "/site/regions/africa/item/following::item");
  check int_t "DEWEY's //bidder is one run" 0 (steps O.Encoding.Dewey_enc "//bidder");
  check int_t "parent joins under LOCAL" 0 (steps O.Encoding.Local "/site/people/person/..");
  List.iter
    (fun enc ->
      List.iter
        (fun seg ->
          let fs = Analysis.Lint.lint_segment catalog enc seg in
          check bool_t "no error" false (F.has_errors fs);
          match seg with
          | O.Translate.Step _ ->
              check bool_t "middle-tier note" true
                (List.exists (fun f -> f.F.rule = "middle-tier" && f.F.severity = F.Info) fs)
          | O.Translate.Run _ -> ())
        (segments enc "/site/regions/africa/item/following::item"))
    O.Encoding.all

(* a middle-tier step's own statements are linted: the run fetching its
   candidates, the runs of its predicates' paths and DEWEY's ancestor-prefix
   statement each plan, and each run gets its order note *)
let test_middle_tier_statements () =
  let catalog = Reldb.Db.catalog (Lazy.force env) in
  let notes xpath =
    List.map
      (fun seg ->
        let fs = Analysis.Lint.lint_segment catalog O.Encoding.Dewey_enc seg in
        check bool_t (xpath ^ ": no error") false (F.has_errors fs);
        List.length (List.filter (fun f -> f.F.rule = "order-contract") fs))
      (segments O.Encoding.Dewey_enc xpath)
  in
  (* the item run from the root, bidder's and @featured's runs from it *)
  check (Alcotest.list int_t) "order notes per step" [ 3; 0 ]
    (notes "//item[count(bidder) > 1 or @featured]/ancestor::*");
  let planted =
    List.map
      (function
        | O.Translate.Step ({ fetch = O.Translate.Prefixes _; _ } as s) ->
            O.Translate.Step { s with fetch = O.Translate.Prefixes "SELECT nope FROM doc_dewey" }
        | seg -> seg)
      (segments O.Encoding.Dewey_enc "//item/ancestor::*")
  in
  check bool_t "a bad prefix statement is caught" true
    (List.exists (fun seg -> F.has_errors (Analysis.Lint.lint_segment catalog O.Encoding.Dewey_enc seg)) planted)

(* ---------------- plan lint ------------------------------------------- *)

let test_plan_lint () =
  let db = make_emp_db () in
  let catalog = Reldb.Db.catalog db in
  let plan_of text =
    match Reldb.Sql_parser.parse text with
    | S.Select sel -> Reldb.Planner.plan_select catalog sel
    | _ -> assert false
  in
  let rules p = List.map (fun f -> f.F.rule) (Analysis.Plan_lint.lint_plan p) in
  (* hand-built filtered scan: predicate on the unique-index key column *)
  let emp = Reldb.Db.table db "emp" in
  let scan =
    P.Filter (cmp E.Eq (col 0) (iconst 5), P.Seq_scan emp)
  in
  check bool_t "seq scan shadowing an index" true
    (has "seq-scan-with-index" (rules scan));
  check bool_t "bare scan clean" true (rules (P.Seq_scan emp) = []);
  check bool_t "cross join flagged" true
    (has "cross-join" (rules (plan_of "SELECT * FROM emp a, emp b")));
  check bool_t "equi join clean of cross-join" false
    (has "cross-join"
       (rules (plan_of "SELECT * FROM emp a, emp b WHERE a.id = b.id")));
  (* an index nested-loop join probes the inner index per outer row: no
     rescan, and its inner side has no sequential scan at all *)
  List.iter
    (fun q ->
      let p = plan_of q in
      check bool_t ("index nested-loop join: " ^ q) true
        (Astring_contains.contains (Format.asprintf "%a" P.pp p)
           "IndexNestedLoopJoin emp.emp_pk");
      let r = rules p in
      check bool_t ("no rescan: " ^ q) false (has "nl-join-rescan" r);
      check bool_t ("no shadowed index: " ^ q) false (has "seq-scan-with-index" r))
    [
      "SELECT * FROM emp a, emp b WHERE b.id = a.salary";
      "SELECT * FROM emp a, emp b WHERE b.id > a.id AND b.id <= a.salary";
    ];
  (* MIN/MAX read one key from the end of the index: nothing to flag *)
  List.iter
    (fun q ->
      let p = plan_of q in
      check bool_t ("index-end plan: " ^ q) true
        (Astring_contains.contains (Format.asprintf "%a" P.pp p)
           "IndexScan emp.emp_pk");
      check (Alcotest.list Alcotest.string) ("clean: " ^ q) [] (rules p))
    [ "SELECT MAX(id) FROM emp"; "SELECT MIN(id) FROM emp" ];
  (* a short-circuited contradictory plan is not linted below LIMIT 0 *)
  check bool_t "LIMIT 0 subtree suppressed" true
    (rules (plan_of "SELECT * FROM emp a, emp b WHERE 1 = 0") = [])

(* ---------------- degenerate count() lint over XPath ----------------- *)

let test_lint_degenerate_count () =
  let findings q = Analysis.Lint.lint_xpath (O.Xpath_parser.parse q) in
  let by_rule rule q =
    List.filter (fun (f : F.t) -> f.rule = rule) (findings q)
  in
  let severities rule q = List.map (fun (f : F.t) -> f.severity) (by_rule rule q) in
  (* tautology: count is never negative *)
  check bool_t "count >= 0 warns" true
    (severities "degenerate-count" "/a/b[count(c) >= 0]" = [ F.Warning ]);
  (let module A = O.Xpath_ast in
   let p =
     {
       A.absolute = true;
       steps =
         [
           A.step A.Child (A.Name "a")
             ~preds:
               [
                 A.P_count
                   ( { A.absolute = false; steps = [ A.step A.Child (A.Name "c") ] },
                     A.Ne, -1 );
               ];
         ];
     }
   in
   match Analysis.Lint.lint_xpath p with
   | [ f ] -> check bool_t "count != -1 warns" true (f.F.severity = F.Warning)
   | l -> Alcotest.failf "count != -1: %d findings" (List.length l));
  (* contradiction: filters out everything *)
  (match by_rule "degenerate-count" "/a/b[count(c) < 0]" with
  | [ f ] ->
      check bool_t "count < 0 warns" true (f.severity = F.Warning);
      check bool_t "message says never" true
        (Astring_contains.contains f.message "never")
  | l -> Alcotest.failf "count < 0: %d findings" (List.length l));
  (* existence tests in disguise are Info, with the suggested spelling *)
  (match by_rule "degenerate-count" "/a/b[count(c) > 0]" with
  | [ f ] ->
      check bool_t "count > 0 is info" true (f.severity = F.Info);
      check bool_t "suggests [c]" true (Astring_contains.contains f.message "[c]")
  | l -> Alcotest.failf "count > 0: %d findings" (List.length l));
  (match by_rule "degenerate-count" "/a/b[count(c) = 0]" with
  | [ f ] ->
      check bool_t "count = 0 is info" true (f.severity = F.Info);
      check bool_t "suggests not(c)" true
        (Astring_contains.contains f.message "not(c)")
  | l -> Alcotest.failf "count = 0: %d findings" (List.length l));
  (* nested inside boolean connectives and inner predicates still fires *)
  check bool_t "nested in not()" true
    (severities "degenerate-count" "/a/b[not(count(c) >= 0)]" = [ F.Warning ]);
  check bool_t "nested in and" true
    (List.length (by_rule "degenerate-count" "/a/b[count(c) >= 0 and d]") = 1);
  check bool_t "inner predicate path" true
    (List.length (by_rule "degenerate-count" "/a/b[c[count(d) < 0]]") = 1);
  (* honest counts stay silent *)
  check bool_t "count >= 2 clean" true
    (by_rule "degenerate-count" "/a/b[count(c) >= 2]" = []);
  check bool_t "count = 3 clean" true
    (by_rule "degenerate-count" "/a/b[count(c) = 3]" = []);
  check bool_t "plain path clean" true (findings "/a/b[c]/d" = [])

let tests =
  ( "analysis",
    [
      Alcotest.test_case "simplify: contradictions" `Quick
        test_simplify_contradictions;
      Alcotest.test_case "simplify: subsumption" `Quick
        test_simplify_subsumption;
      Alcotest.test_case "simplify: constant folding" `Quick test_fold;
      Alcotest.test_case "simplify: <> before and after =" `Quick test_simplify_ne;
      Alcotest.test_case "planner short-circuits contradictions" `Quick
        test_contradiction_short_circuits;
      Alcotest.test_case "lint rules" `Quick test_lint_rules;
      Alcotest.test_case "shipped translations lint clean" `Quick
        test_shipped_translations_lint_clean;
      Alcotest.test_case "order contract columns" `Quick
        test_order_contract_columns;
      Alcotest.test_case "order tampering caught" `Quick test_order_tampering;
      Alcotest.test_case "derived-table order checked" `Quick test_derived_order_checked;
      Alcotest.test_case "middle-tier steps are Info" `Quick test_middle_tier_steps;
      Alcotest.test_case "middle-tier statements linted" `Quick test_middle_tier_statements;
      Alcotest.test_case "plan lint" `Quick test_plan_lint;
      Alcotest.test_case "degenerate count() lint" `Quick
        test_lint_degenerate_count;
    ] )
