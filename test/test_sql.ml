(* SQL engine: parser, expressions, planner behaviours, end-to-end DML/DDL. *)

module D = Reldb.Db
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let fresh () = D.create ()

let e db sql = ignore (D.exec db sql)

let ints db sql =
  List.map
    (fun row ->
      Array.to_list
        (Array.map (function V.Int i -> i | v -> Alcotest.failf "not int: %s" (V.to_string v)) row))
    (D.query db sql)

let setup_emp db =
  e db "CREATE TABLE emp (id INT NOT NULL, name TEXT, dept INT, salary FLOAT)";
  e db "CREATE UNIQUE INDEX emp_id ON emp (id)";
  e db "CREATE INDEX emp_dept ON emp (dept, salary)";
  e db "CREATE TABLE dept (id INT NOT NULL, dname TEXT)";
  e db "INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')";
  for i = 1 to 50 do
    e db
      (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d', %d, %d.0)" i i
         (1 + (i mod 2)) (1000 + i))
  done

(* --- expression layer ------------------------------------------------ *)

let test_like () =
  let cases =
    [
      ("abc", "abc", true);
      ("abc", "a%", true);
      ("abc", "%c", true);
      ("abc", "a_c", true);
      ("abc", "a_b", false);
      ("abc", "%", true);
      ("", "%", true);
      ("", "_", false);
      ("aXbXc", "a%b%c", true);
      ("mississippi", "%iss%ppi", true);
    ]
  in
  List.iter
    (fun (s, p, expect) ->
      check bool_t (Printf.sprintf "%s LIKE %s" s p) expect
        (Reldb.Expr.like_match ~pattern:p s))
    cases

let test_three_valued_logic () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b INT)";
  e db "INSERT INTO t VALUES (1, NULL), (NULL, 2), (3, 4)";
  check int_t "null comparison filters" 1
    (List.length (D.query db "SELECT a FROM t WHERE a < 5 AND b > 0"));
  check int_t "is null" 1 (List.length (D.query db "SELECT a FROM t WHERE a IS NULL"));
  check int_t "is not null" 2
    (List.length (D.query db "SELECT a FROM t WHERE a IS NOT NULL"));
  (* NOT (NULL) is NULL -> filtered *)
  check int_t "not null pred" 1
    (List.length (D.query db "SELECT a FROM t WHERE NOT (b > 2)"))

let test_arith_and_concat () =
  let db = fresh () in
  e db "CREATE TABLE one (x INT)";
  e db "INSERT INTO one VALUES (7)";
  (match D.query db "SELECT x * 2 + 1, x / 2, x % 3, -x, x || 'b' FROM one" with
  | [ [| V.Int 15; V.Int 3; V.Int 1; V.Int (-7); V.Str "7b" |] ] -> ()
  | r ->
      Alcotest.failf "arith row: %s"
        (String.concat ";" (List.map Reldb.Tuple.to_string r)));
  (match D.exec db "SELECT x / 0 FROM one" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "division by zero must error")

(* --- parser ----------------------------------------------------------- *)

let test_parse_errors () =
  let db = fresh () in
  let bad sql =
    match D.exec db sql with
    | exception D.Sql_error _ -> ()
    | _ -> Alcotest.failf "expected error: %s" sql
  in
  bad "SELEC 1";
  bad "SELECT FROM t";
  bad "SELECT * FROM";
  bad "SELECT * FROM nosuch";
  bad "INSERT INTO nosuch VALUES (1)";
  bad "CREATE TABLE t (a NOTATYPE)";
  bad "SELECT * FROM t WHERE";
  bad "DROP TABLE nosuch";
  bad "SELECT 99999999999999999999 FROM t";
  bad "SELECT 1.0e FROM t"

let test_quoting () =
  let db = fresh () in
  e db "CREATE TABLE t (s TEXT)";
  e db "INSERT INTO t VALUES ('it''s')";
  match D.query db "SELECT s FROM t WHERE s = 'it''s'" with
  | [ [| V.Str "it's" |] ] -> ()
  | _ -> Alcotest.fail "quote handling"

let test_bytes_literals () =
  let db = fresh () in
  e db "CREATE TABLE t (b BYTES)";
  e db "INSERT INTO t VALUES (X'0102ff')";
  (match D.query db "SELECT b FROM t WHERE b >= X'0102'" with
  | [ [| V.Bytes "\x01\x02\xff" |] ] -> ()
  | _ -> Alcotest.fail "bytes roundtrip");
  check int_t "bytes range excludes" 0
    (List.length (D.query db "SELECT b FROM t WHERE b < X'0102'"))

(* --- query behaviours -------------------------------------------------- *)

let test_order_limit_offset () =
  let db = fresh () in
  setup_emp db;
  check
    (Alcotest.list (Alcotest.list int_t))
    "top 3 desc"
    [ [ 50 ]; [ 49 ]; [ 48 ] ]
    (ints db "SELECT id FROM emp ORDER BY salary DESC LIMIT 3");
  check
    (Alcotest.list (Alcotest.list int_t))
    "offset"
    [ [ 3 ]; [ 4 ] ]
    (ints db "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 2")

let test_joins () =
  let db = fresh () in
  setup_emp db;
  check int_t "equi join rows" 50
    (List.length (D.query db "SELECT e.id FROM emp e, dept d WHERE e.dept = d.id"));
  (* join + filter + projection *)
  (match
     D.query db
       "SELECT d.dname, e.name FROM emp e, dept d WHERE e.dept = d.id AND \
        e.id = 7"
   with
  | [ [| V.Str "sales"; V.Str "e7" |] ] -> ()
  | _ -> Alcotest.fail "join row wrong");
  (* cross join *)
  check int_t "cross" 150
    (List.length (D.query db "SELECT e.id FROM emp e, dept d"));
  (* theta join: dept 1 (25 rows) matches d.id in {2,3}; dept 2 matches {3} *)
  check int_t "theta" 75
    (List.length (D.query db "SELECT e.id FROM emp e, dept d WHERE e.dept < d.id"))

let test_three_way_join () =
  let db = fresh () in
  e db "CREATE TABLE a (x INT)";
  e db "CREATE TABLE b (x INT, y INT)";
  e db "CREATE TABLE c (y INT, z TEXT)";
  e db "INSERT INTO a VALUES (1), (2)";
  e db "INSERT INTO b VALUES (1, 10), (2, 20), (2, 21)";
  e db "INSERT INTO c VALUES (10, 'ten'), (20, 'twenty'), (21, 'twenty-one')";
  check int_t "3-way" 3
    (List.length
       (D.query db
          "SELECT c.z FROM a, b, c WHERE a.x = b.x AND b.y = c.y"))

let test_aggregates () =
  let db = fresh () in
  setup_emp db;
  (match D.query db "SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp" with
  | [ [| V.Int 50; V.Float 1001.0; V.Float 1050.0 |] ] -> ()
  | r -> Alcotest.failf "agg: %s" (String.concat ";" (List.map Reldb.Tuple.to_string r)));
  (match
     D.query db
       "SELECT d.dname, COUNT(*) AS n FROM emp e, dept d WHERE e.dept = d.id \
        GROUP BY d.dname ORDER BY d.dname"
   with
  | [ [| V.Str "eng"; V.Int 25 |]; [| V.Str "sales"; V.Int 25 |] ] -> ()
  | _ -> Alcotest.fail "group by");
  (* aggregate over empty input *)
  (match D.query db "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 999" with
  | [ [| V.Int 0; V.Null |] ] -> ()
  | _ -> Alcotest.fail "empty agg");
  (* AVG *)
  match D.query db "SELECT AVG(dept) FROM emp" with
  | [ [| V.Float f |] ] when abs_float (f -. 1.5) < 1e-9 -> ()
  | _ -> Alcotest.fail "avg"

let test_distinct () =
  let db = fresh () in
  setup_emp db;
  check int_t "distinct depts" 2
    (List.length (D.query db "SELECT DISTINCT dept FROM emp"))

let test_between_in_like () =
  let db = fresh () in
  setup_emp db;
  check int_t "between" 5
    (List.length (D.query db "SELECT id FROM emp WHERE id BETWEEN 3 AND 7"));
  check int_t "in" 3
    (List.length (D.query db "SELECT id FROM emp WHERE id IN (1, 2, 3, 999)"));
  check int_t "not in" 47
    (List.length (D.query db "SELECT id FROM emp WHERE id NOT IN (1, 2, 3)"));
  check int_t "like" 10
    (List.length (D.query db "SELECT id FROM emp WHERE name LIKE 'e1_' AND id < 20"))

let test_update_delete () =
  let db = fresh () in
  setup_emp db;
  (match D.exec db "UPDATE emp SET salary = salary * 2.0 WHERE dept = 1" with
  | D.Affected 25 -> ()
  | _ -> Alcotest.fail "update count");
  (match D.query db "SELECT MAX(salary) FROM emp" with
  | [ [| V.Float f |] ] when f = 2100.0 -> ()
  | _ -> Alcotest.fail "update applied");
  (match D.exec db "DELETE FROM emp WHERE dept = 2" with
  | D.Affected 25 -> ()
  | _ -> Alcotest.fail "delete count");
  check int_t "remaining" 25 (List.length (D.query db "SELECT id FROM emp"))

let test_unique_shift_update () =
  (* the statement-level constraint semantics the encodings rely on *)
  let db = fresh () in
  e db "CREATE TABLE t (k INT NOT NULL)";
  e db "CREATE UNIQUE INDEX t_k ON t (k)";
  e db "INSERT INTO t VALUES (1), (2), (3), (4), (5)";
  (match D.exec db "UPDATE t SET k = k + 1 WHERE k >= 3" with
  | D.Affected 3 -> ()
  | _ -> Alcotest.fail "shift count");
  check
    (Alcotest.list (Alcotest.list int_t))
    "shifted"
    [ [ 1 ]; [ 2 ]; [ 4 ]; [ 5 ]; [ 6 ] ]
    (ints db "SELECT k FROM t ORDER BY k")

let test_constraints () =
  let db = fresh () in
  e db "CREATE TABLE t (k INT NOT NULL)";
  e db "CREATE UNIQUE INDEX t_k ON t (k)";
  e db "INSERT INTO t VALUES (1)";
  (match D.exec db "INSERT INTO t VALUES (1)" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate must fail");
  (match D.exec db "INSERT INTO t VALUES (NULL)" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "not null must fail");
  (* an UPDATE validates the columns it changes *)
  List.iter
    (fun sql ->
      match D.exec db sql with
      | exception D.Sql_error _ -> ()
      | _ -> Alcotest.failf "%s must fail" sql)
    [ "UPDATE t SET k = NULL"; "UPDATE t SET k = 'x'"; "UPDATE t SET k = 1.5" ];
  (* failed statements must not corrupt the table *)
  check Alcotest.(list (list int)) "intact" [ [ 1 ] ] (ints db "SELECT k FROM t")

(* the index oracle: every index holds exactly the keys of the heap *)
let check_indexes db =
  match D.check db with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "index oracle: %s" (String.concat "; " msgs)

let rejected db sql =
  match D.exec db sql with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.failf "accepted: %s" sql

let test_rejected_duplicate_keeps_index () =
  (* a rejected row must not take the existing row's unique entry with it *)
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b INT)";
  e db "CREATE UNIQUE INDEX t_a ON t (a)";
  e db "INSERT INTO t VALUES (1, 10)";
  rejected db "INSERT INTO t VALUES (1, 20)";
  e db "INSERT INTO t VALUES (2, 30)";
  rejected db "UPDATE t SET a = 1 WHERE b = 30";
  let rows = Alcotest.(list (list int_t)) in
  check rows "indexed lookup finds the original" [ [ 1; 10 ] ]
    (ints db "SELECT a, b FROM t WHERE a = 1");
  check rows "the updated row kept its key" [ [ 2; 30 ] ]
    (ints db "SELECT a, b FROM t WHERE a = 2");
  rejected db "INSERT INTO t VALUES (1, 40)";
  check rows "table" [ [ 1; 10 ]; [ 2; 30 ] ]
    (ints db "SELECT a, b FROM t ORDER BY a");
  check_indexes db

let test_reversal_update () =
  (* k = 100 - k reverses the order: no key stays between its neighbours,
     so every key takes the delete + insert path *)
  let db = fresh () in
  e db "CREATE TABLE t (k INT NOT NULL, v INT)";
  e db "CREATE UNIQUE INDEX t_k ON t (k)";
  e db "CREATE INDEX t_kv ON t (k, v)";
  for i = 1 to 40 do
    e db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i)
  done;
  e db "UPDATE t SET k = 100 - k WHERE k >= 10";
  check_indexes db;
  check (Alcotest.list (Alcotest.list int_t)) "reversed"
    [ [ 60; 40 ]; [ 61; 39 ]; [ 90; 10 ] ]
    (ints db "SELECT k, v FROM t WHERE k >= 60 AND k <= 61 OR k = 90 ORDER BY k");
  check (Alcotest.list (Alcotest.list int_t)) "probe" [ [ 25 ] ]
    (ints db "SELECT v FROM t WHERE k = 75")

let test_colliding_shift_is_atomic () =
  (* 3 -> 4 and 10 -> 11 are rewritten in place, then 20 -> 21 collides:
     the whole statement must undo both kinds of move *)
  let db = fresh () in
  e db "CREATE TABLE t (k INT NOT NULL, v INT)";
  e db "CREATE INDEX t_v ON t (v, k)";
  e db "CREATE UNIQUE INDEX t_k ON t (k)";
  e db "INSERT INTO t VALUES (1, 5), (3, 4), (10, 3), (20, 2), (21, 1)";
  let snapshot () = ints db "SELECT k, v FROM t ORDER BY k" in
  let before = snapshot () in
  let shift = "UPDATE t SET k = k + 1 WHERE k >= 3 AND k <= 20" in
  let unchanged what =
    check (Alcotest.list (Alcotest.list int_t)) what before (snapshot ());
    List.iter
      (fun row ->
        match row with
        | [ k; v ] ->
            check (Alcotest.list (Alcotest.list int_t)) "probe" [ [ v ] ]
              (ints db (Printf.sprintf "SELECT v FROM t WHERE k = %d" k))
        | _ -> assert false)
      before;
    check_indexes db
  in
  rejected db shift;
  unchanged "after the rejected shift";
  e db "BEGIN";
  e db "UPDATE t SET v = v + 100 WHERE k = 1";
  rejected db shift;
  e db "ROLLBACK";
  unchanged "after rollback";
  (* once the collision is gone the same statement goes through *)
  e db "DELETE FROM t WHERE k = 21";
  Obs.set_enabled true;
  let rewritten = Obs.counter_value "index.rewritten"
  and moved = Obs.counter_value "index.moved" in
  e db shift;
  check int_t "entries rewritten in place" 6
    (Obs.counter_value "index.rewritten" - rewritten);
  check int_t "entries moved" 0 (Obs.counter_value "index.moved" - moved);
  check (Alcotest.list (Alcotest.list int_t)) "shifted"
    [ [ 1; 5 ]; [ 4; 4 ]; [ 11; 3 ]; [ 21; 2 ] ]
    (snapshot ());
  check_indexes db

let test_insert_columns () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b TEXT, c FLOAT)";
  e db "INSERT INTO t (b, a) VALUES ('x', 1)";
  match D.query db "SELECT a, b, c FROM t" with
  | [ [| V.Int 1; V.Str "x"; V.Null |] ] -> ()
  | _ -> Alcotest.fail "column targeting"

(* --- planner behaviours ------------------------------------------------ *)

let test_having () =
  let db = fresh () in
  setup_emp db;
  (match
     D.query db
       "SELECT dept, COUNT(*) AS n FROM emp GROUP BY dept HAVING COUNT(*) > 20 \
        ORDER BY dept"
   with
  | [ [| V.Int 1; V.Int 25 |]; [| V.Int 2; V.Int 25 |] ] -> ()
  | r -> Alcotest.failf "having rows: %d" (List.length r));
  check int_t "having filters all" 0
    (List.length
       (D.query db "SELECT dept FROM emp GROUP BY dept HAVING COUNT(*) > 99"));
  (* having over an aggregate not in the select list *)
  check int_t "having on hidden agg" 1
    (List.length
       (D.query db
          "SELECT dept FROM emp GROUP BY dept HAVING MAX(salary) >= 1050.0"));
  (* group expr in having *)
  check int_t "group expr in having" 1
    (List.length (D.query db "SELECT dept FROM emp GROUP BY dept HAVING dept = 1"));
  match D.exec db "SELECT id FROM emp HAVING id > 3" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "HAVING without aggregation must fail"

let test_union_all () =
  let db = fresh () in
  setup_emp db;
  check int_t "union all keeps duplicates" 100
    (List.length
       (D.query db "SELECT id FROM emp UNION ALL SELECT id FROM emp"));
  (match
     D.query db
       "SELECT MIN(id) FROM emp UNION ALL SELECT MAX(id) FROM emp"
   with
  | [ [| V.Int 1 |]; [| V.Int 50 |] ] -> ()
  | _ -> Alcotest.fail "union of aggregates");
  (* arity mismatch rejected *)
  match D.exec db "SELECT id, name FROM emp UNION ALL SELECT id FROM emp" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

(* A trailing ORDER BY, LIMIT or OFFSET belongs to the whole UNION ALL;
   on an earlier branch it is an error. *)
let test_union_tail () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT)";
  e db "INSERT INTO t VALUES (NULL), (3), (1)";
  let values sql =
    List.map (function [| V.Int i |] -> Some i | _ -> None) (D.query db sql)
  in
  check int_t "LIMIT over the compound" 2
    (List.length (D.query db "SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 2"));
  check bool_t "LIMIT above UnionAll" true
    (Astring_contains.contains
       (D.explain db "SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 2")
       "Limit 2 offset 0\n  UnionAll");
  check
    (Alcotest.list (Alcotest.option int_t))
    "ORDER BY sorts the compound"
    [ None; None; Some 1; Some 1; Some 3; Some 3 ]
    (values "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a");
  check
    (Alcotest.list (Alcotest.option int_t))
    "ORDER BY DESC, LIMIT ? OFFSET ?" [ Some 3; Some 1 ]
    (List.map
       (function [| V.Int i |] -> Some i | _ -> None)
       (D.query_params db "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY a DESC LIMIT ? OFFSET ?"
          [| V.Int 2; V.Int 1 |]));
  (* a later branch is not opened once the LIMIT is met *)
  D.reset_counters db;
  ignore (D.query db "SELECT a FROM t UNION ALL SELECT a FROM t LIMIT 3");
  check int_t "second branch unread" 3 (D.rows_read db);
  List.iter
    (fun sql ->
      match D.query db sql with
      | _ -> Alcotest.failf "accepted: %s" sql
      | exception D.Sql_error _ -> ())
    [
      "SELECT a FROM t ORDER BY a DESC LIMIT 1 UNION ALL SELECT a FROM t";
      "SELECT a FROM t LIMIT 1 UNION ALL SELECT a FROM t";
      "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY b";
      "SELECT a FROM t UNION ALL SELECT a FROM t ORDER BY t.a";
    ]

let test_transactions () =
  let db = fresh () in
  setup_emp db;
  (* rollback restores rows, updates and deletes — and index contents *)
  e db "BEGIN";
  e db "INSERT INTO emp VALUES (999, 'temp', 1, 1.0)";
  e db "UPDATE emp SET salary = 0.0 WHERE id = 1";
  e db "DELETE FROM emp WHERE id = 2";
  (* 50 originals - id 1 (zeroed) - id 2 (deleted) + temp = 49 *)
  check int_t "dirty state visible" 49
    (List.length (D.query db "SELECT id FROM emp WHERE salary > 0.5"));
  e db "ROLLBACK";
  check int_t "row count restored" 50 (List.length (D.query db "SELECT id FROM emp"));
  check int_t "update undone" 0
    (List.length (D.query db "SELECT id FROM emp WHERE salary = 0.0"));
  check int_t "indexed probe after rollback" 1
    (List.length (D.query db "SELECT id FROM emp WHERE id = 2"));
  (* commit keeps changes *)
  e db "BEGIN";
  e db "DELETE FROM emp WHERE id = 2";
  e db "COMMIT";
  check int_t "commit kept" 49 (List.length (D.query db "SELECT id FROM emp"));
  (* with_transaction rolls back on exception *)
  (match
     D.with_transaction db (fun () ->
         e db "DELETE FROM emp";
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  check int_t "rolled back on exception" 49
    (List.length (D.query db "SELECT id FROM emp"));
  (* DDL forbidden inside, unbalanced commit rejected *)
  e db "BEGIN";
  (match D.exec db "CREATE TABLE x (a INT)" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "DDL in txn accepted");
  e db "ROLLBACK";
  match D.exec db "COMMIT" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "commit without begin accepted"

let test_index_selection () =
  let db = fresh () in
  setup_emp db;
  let plan = D.explain db "SELECT id FROM emp WHERE dept = 1 AND salary > 1010.0" in
  check bool_t "uses composite index" true
    (Astring_contains.contains plan "IndexScan emp.emp_dept");
  let plan2 = D.explain db "SELECT id FROM emp WHERE name = 'e1'" in
  check bool_t "falls back to scan" true
    (Astring_contains.contains plan2 "SeqScan emp")

let test_sort_elimination () =
  let db = fresh () in
  setup_emp db;
  let plan = D.explain db "SELECT id FROM emp WHERE dept = 1 ORDER BY dept, salary" in
  check bool_t "no sort node" false (Astring_contains.contains plan "Sort");
  let plan_desc =
    D.explain db "SELECT id FROM emp WHERE dept = 1 ORDER BY dept DESC, salary DESC"
  in
  check bool_t "desc via reverse scan" false
    (Astring_contains.contains plan_desc "Sort");
  (* results actually ordered *)
  let rows = ints db "SELECT id FROM emp WHERE dept = 1 ORDER BY salary DESC" in
  check (Alcotest.list int_t) "head" [ 50 ] (List.hd rows)

let test_hash_join_planned () =
  let db = fresh () in
  setup_emp db;
  (* neither side has an index on the join column *)
  let plan = D.explain db "SELECT e.id FROM emp e, dept d WHERE e.name = d.dname" in
  check bool_t "hash join" true (Astring_contains.contains plan "HashJoin")

let test_range_skips_null_keys () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b INT)";
  e db "CREATE INDEX t_a ON t (a)";
  e db "INSERT INTO t VALUES (NULL, 1), (1, 2), (5, 3)";
  check bool_t "index range" true
    (Astring_contains.contains (D.explain db "SELECT b FROM t WHERE a < 3") "IndexScan t.t_a");
  check (Alcotest.list (Alcotest.list int_t)) "NULL is not < 3" [ [ 2 ] ]
    (ints db "SELECT b FROM t WHERE a < 3");
  check (Alcotest.list (Alcotest.list int_t)) "nor <= 1" [ [ 2 ] ]
    (ints db "SELECT b FROM t WHERE a <= 1")

let test_index_nl_join_planned () =
  let db = fresh () in
  setup_emp db;
  (* emp_dept leads with the join column: probe it per dept row *)
  let q = "SELECT e.id FROM emp e, dept d WHERE e.dept = d.id AND e.salary > 1040.0" in
  let plan = D.explain db q in
  check bool_t "index nested-loop join" true
    (Astring_contains.contains plan
       "IndexNestedLoopJoin emp.emp_dept key(#0) range (1040.0 .. +inf");
  check bool_t "no hash join" false (Astring_contains.contains plan "HashJoin");
  check int_t "rows" 10 (List.length (D.query db q));
  (* a scratch relation is always joined first, so a cached plan does not
     depend on how many rows it held when it was planned *)
  let explain n q =
    D.with_scratch db ~name:"ctx_d" ~cols:[ ("id", V.Tint) ]
      (List.init n (fun i -> [| V.Int i |]))
      (fun () -> D.explain db q)
  in
  List.iter
    (fun q -> check string_t ("plan of " ^ q) (explain 0 q) (explain 500 q))
    [
      "SELECT d.dname FROM dept d, ctx_d c WHERE d.id = c.id";
      "SELECT e.id FROM emp e, ctx_d c WHERE e.dept = c.id";
    ]

(* Index nested-loop join rows equal the filtered cartesian product, as a
   multiset. The outer side is a scratch relation, which the planner always
   places first; the inner side has duplicate and NULL keys and an index on
   (k, w). *)
let prop_index_nl_join =
  let open QCheck in
  let value = Gen.(frequency [ (1, return None); (4, map Option.some (int_bound 4)) ]) in
  let row = Gen.pair value value in
  let outer =
    Gen.(
      frequency
        [ (1, return []); (1, map (fun r -> [ r ]) row); (3, list_size (int_range 2 12) row) ])
  in
  let residuals =
    (* SQL text, and the same predicate over (o.k, o.v, i.k, i.w) *)
    let gt a b = match (a, b) with Some a, Some b -> a > b | _ -> false in
    let le a b = match (a, b) with Some a, Some b -> a <= b | _ -> false in
    let ne a b = match (a, b) with Some a, Some b -> a <> b | _ -> false in
    let plus a b = match (a, b) with Some a, Some b -> Some (a + b) | _ -> None in
    [|
      ("", fun _ -> true);
      (" AND i.w > o.v", fun (_, v, _, w) -> gt w v);
      (" AND i.w <= 2 AND o.v <> 1", fun (_, v, _, w) -> le w (Some 2) && ne v (Some 1));
      (" AND i.w + o.v <> 3", fun (_, v, _, w) -> ne (plus w v) (Some 3));
    |]
  in
  let print (o, i, r) =
    let show (a, b) =
      let f = function None -> "NULL" | Some x -> string_of_int x in
      Printf.sprintf "(%s,%s)" (f a) (f b)
    in
    Printf.sprintf "outer [%s] inner [%s] residual %S"
      (String.concat ";" (List.map show o))
      (String.concat ";" (List.map show i))
      (fst residuals.(r))
  in
  Test.make ~name:"index nested-loop join = cartesian reference" ~count:300
    (make ~print
       Gen.(triple outer (list_size (int_bound 20) row) (int_bound (Array.length residuals - 1))))
    (fun (outer, inner, r) ->
      let db = fresh () in
      e db "CREATE TABLE i (k INT, w INT)";
      e db "CREATE INDEX i_kw ON i (k, w)";
      let v = function None -> V.Null | Some x -> V.Int x in
      ignore (D.insert_many db "i" (List.map (fun (k, w) -> [| v k; v w |]) inner));
      let sql, keep = residuals.(r) in
      let q = "SELECT o.k, o.v, i.k, i.w FROM i, ctx_o o WHERE i.k = o.k" ^ sql in
      let got, plan =
        D.with_scratch db ~name:"ctx_o" ~cols:[ ("k", V.Tint); ("v", V.Tint) ]
          (List.map (fun (k, x) -> [| v k; v x |]) outer)
          (fun () -> (D.query db q, D.explain db q))
      in
      let expect =
        List.concat_map
          (fun (ok, ov) ->
            List.filter_map
              (fun (ik, iw) ->
                match (ok, ik) with
                | Some a, Some b when a = b && keep (ok, ov, ik, iw) ->
                    Some [| v ok; v ov; v ik; v iw |]
                | _ -> None)
              inner)
          outer
      in
      let sort = List.sort Reldb.Tuple.compare_key in
      Astring_contains.contains plan "IndexNestedLoopJoin i.i_kw"
      && sort got = sort expect)

(* --- index access = sequential scan ------------------------------------ *)

(* A statement on a table with indexes returns, and leaves behind, what it
   does on a twin table without indexes, where every access is a sequential
   scan. Tables have two or three INT/TEXT columns with NULLs and one or two
   random indexes, some composite. WHERE clauses conjoin [col op const] and
   [const op col] over all six operators and NULL constants, on few columns
   and a small domain, so repeated bounds, equality plus range and
   contradictions all occur. *)
type access_case = {
  ncols : int;
  rows : string list list;  (** SQL literals, one list per row *)
  indexes : int list list;  (** key columns of each index *)
  where : string;
}

let access_cols = [| ("a", "INT"); ("b", "TEXT"); ("c", "INT") |]

let gen_access_case =
  let open QCheck.Gen in
  let literal i =
    let value =
      if snd access_cols.(i) = "INT" then map string_of_int (int_range (-1) 3)
      else map (Printf.sprintf "'%c'") (char_range 'a' 'd')
    in
    frequency [ (1, return "NULL"); (5, value) ]
  in
  int_range 2 3 >>= fun ncols ->
  let key =
    shuffle_l (List.init ncols Fun.id) >>= fun cols ->
    int_range 1 ncols >|= fun n -> List.filteri (fun i _ -> i < n) cols
  in
  let atom =
    int_bound (ncols - 1) >>= fun i ->
    triple (oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ]) (literal i) bool
    >|= fun (op, v, flip) ->
    let c = fst access_cols.(i) in
    if flip then Printf.sprintf "%s %s %s" v op c
    else Printf.sprintf "%s %s %s" c op v
  in
  map
    (fun (rows, indexes, atoms) ->
      { ncols; rows; indexes; where = String.concat " AND " atoms })
    (triple
       (list_size (int_bound 25) (flatten_l (List.init ncols literal)))
       (list_size (int_range 1 2) key)
       (list_size (int_range 1 4) atom))

let access_db ~indexed case =
  let db = fresh () in
  let cols = Array.to_list (Array.sub access_cols 0 case.ncols) in
  e db
    (Printf.sprintf "CREATE TABLE t (%s)"
       (String.concat ", " (List.map (fun (c, ty) -> c ^ " " ^ ty) cols)));
  if indexed then
    List.iteri
      (fun n key ->
        e db
          (Printf.sprintf "CREATE INDEX t_%d ON t (%s)" n
             (String.concat ", " (List.map (fun i -> fst access_cols.(i)) key))))
      case.indexes;
  List.iter
    (fun r -> e db (Printf.sprintf "INSERT INTO t VALUES (%s)" (String.concat ", " r)))
    case.rows;
  db

let prop_index_access =
  let print c =
    Printf.sprintf "%d columns, indexes [%s], WHERE %s, rows [%s]" c.ncols
      (String.concat "; "
         (List.map (fun k -> String.concat "," (List.map string_of_int k)) c.indexes))
      c.where
      (String.concat "; " (List.map (String.concat ",") c.rows))
  in
  QCheck.Test.make ~name:"index access = sequential scan" ~count:300
    (QCheck.make ~print gen_access_case)
    (fun case ->
      let select = "SELECT * FROM t WHERE " ^ case.where in
      let rows db q = List.sort Reldb.Tuple.compare_key (D.query db q) in
      let affected db sql =
        match D.exec db sql with D.Affected n -> n | D.Rows _ -> -1
      in
      (* one statement on a fresh indexed table and its twin: same count,
         same table afterwards, and the same answer to [select] after it *)
      let agree sql =
        let ix = access_db ~indexed:true case
        and seq = access_db ~indexed:false case in
        affected ix sql = affected seq sql
        && rows ix "SELECT * FROM t" = rows seq "SELECT * FROM t"
        && rows ix select = rows seq select
      in
      let ix = access_db ~indexed:true case
      and seq = access_db ~indexed:false case in
      rows ix select = rows seq select
      && agree ("UPDATE t SET a = 7, b = 'z' WHERE " ^ case.where)
      && agree ("DELETE FROM t WHERE " ^ case.where))

(* The two-table case: an inner table probed per outer row, with a range
   bound read from the outer row (after an equality on the leading key
   column, or on that column itself), against the twin without indexes. *)
let prop_index_probe_bounds =
  let open QCheck in
  let value = Gen.(frequency [ (1, return None); (4, map Option.some (int_bound 4)) ]) in
  let row = Gen.pair value value in
  let cond =
    Gen.(
      quad bool (oneofl [ "<"; "<="; ">"; ">=" ]) bool
        (opt (pair (oneofl [ "<"; ">=" ]) (int_bound 4)))
      >|= fun (eq, op, flip, const) ->
      let col, outer = if eq then ("i.w", "o.y") else ("i.k", "o.x") in
      String.concat " AND "
        ((if eq then [ "i.k = o.x" ] else [])
        @ [
            (if flip then Printf.sprintf "%s %s %s" outer op col
             else Printf.sprintf "%s %s %s" col op outer);
          ]
        @ Option.to_list
            (Option.map (fun (op, v) -> Printf.sprintf "i.w %s %d" op v) const)))
  in
  let show = function None -> "NULL" | Some x -> string_of_int x in
  let print (o, i, c) =
    let rows rs =
      String.concat ";" (List.map (fun (a, b) -> show a ^ "," ^ show b) rs)
    in
    Printf.sprintf "outer [%s] inner [%s] WHERE %s" (rows o) (rows i) c
  in
  Test.make ~name:"index probe bounds = sequential scan" ~count:300
    (make ~print
       Gen.(triple (list_size (int_bound 12) row) (list_size (int_bound 20) row) cond))
    (fun (outer, inner, cond) ->
      let v = function None -> V.Null | Some x -> V.Int x in
      let q = "SELECT o.x, o.y, i.k, i.w FROM i, ctx_o o WHERE " ^ cond in
      let run ~indexed =
        let db = fresh () in
        e db "CREATE TABLE i (k INT, w INT)";
        if indexed then e db "CREATE INDEX i_kw ON i (k, w)";
        ignore (D.insert_many db "i" (List.map (fun (k, w) -> [| v k; v w |]) inner));
        D.with_scratch db ~name:"ctx_o" ~cols:[ ("x", V.Tint); ("y", V.Tint) ]
          (List.map (fun (x, y) -> [| v x; v y |]) outer)
          (fun () ->
            (List.sort Reldb.Tuple.compare_key (D.query db q), D.explain db q))
      in
      let got, plan = run ~indexed:true in
      let expect, _ = run ~indexed:false in
      Astring_contains.contains plan "IndexNestedLoopJoin i.i_kw" && got = expect)

(* --- LIMIT n OFFSET m BY ------------------------------------------------ *)

(* LIMIT BY over an index nested-loop join, whose probes the planner may
   cap, against an OCaml reference (join, stable sort, then count per key)
   and against the twin without the index. The outer scratch relation has
   duplicate keys; the index, the residual, ORDER BY (ASC, DESC, mixed, a
   non-key column or none) and BY (over the outer row or not) are random.
   Rows that tie on ORDER BY may legitimately differ between plans, so the
   results are compared by their (BY, ORDER BY) values, and every row must
   be a row of the join. *)
let prop_limit_by =
  let open QCheck in
  let value = Gen.(frequency [ (1, return None); (4, map Option.some (int_bound 3)) ]) in
  let v = function None -> V.Null | Some x -> V.Int x in
  let indexes =
    [| ("(k, w)", false); ("(k, w, id)", true); ("(k, z, w)", false); ("(w)", false);
       ("(k)", false) |]
  in
  (* over the selected row [| o.x; o.y; i.id; i.k; i.w; i.z |] *)
  let gt a b = match (a, b) with V.Int a, V.Int b -> a > b | _ -> false in
  let ne a b = match (a, b) with V.Int a, V.Int b -> a <> b | _ -> false in
  let residuals =
    [|
      ("", fun _ -> true);
      (" AND i.w <> o.y", fun r -> ne r.(4) r.(1));
      (" AND i.z = 1", fun r -> r.(5) = V.Int 1);
      (" AND i.w > o.y", fun r -> gt r.(4) r.(1));
      (" AND i.z <> 2 AND i.w > 0", fun r -> ne r.(5) (V.Int 2) && gt r.(4) (V.Int 0));
    |]
  in
  let orders =
    [|
      [ ("i.w", 4, false) ];
      [ ("i.w", 4, true) ];
      [ ("o.y", 1, false); ("i.w", 4, true) ];
      [ ("i.w", 4, false); ("i.id", 2, false) ];
      [ ("i.w", 4, true); ("i.id", 2, true) ];
      [ ("i.w", 4, false); ("i.id", 2, true) ];
      [ ("i.z", 5, false) ];
      [ ("i.z", 5, true); ("i.w", 4, true) ];
      [];
    |]
  in
  let bys = [| [ ("o.x", 0) ]; [ ("o.x", 0); ("o.y", 1) ]; [ ("o.y", 1) ]; [ ("i.w", 4) ] |] in
  let query (_, r, o, b, n, m) =
    Printf.sprintf
      "SELECT o.x, o.y, i.id, i.k, i.w, i.z FROM i, ctx_o o WHERE i.k = o.x%s%s \
       LIMIT %d%s BY %s"
      (fst residuals.(r))
      (match orders.(o) with
      | [] -> ""
      | keys ->
          " ORDER BY "
          ^ String.concat ", "
              (List.map (fun (c, _, d) -> if d then c ^ " DESC" else c) keys))
      n
      (match m with None -> "" | Some m -> Printf.sprintf " OFFSET %d" m)
      (String.concat ", " (List.map fst bys.(b)))
  in
  let gen =
    Gen.(
      pair
        (pair (list_size (int_bound 8) (pair value value))
           (list_size (int_bound 16) (triple value value value)))
        (map
           (fun ((ix, r, o), (b, n, m)) -> (ix, r, o, b, n, m))
           (pair
              (triple (int_bound (Array.length indexes - 1))
                 (int_bound (Array.length residuals - 1))
                 (int_bound (Array.length orders - 1)))
              (triple (int_bound (Array.length bys - 1)) (int_bound 3)
                 (opt (int_bound 2))))))
  in
  let print ((outer, inner), ((ix, _, _, _, _, _) as c)) =
    let show x = match x with None -> "NULL" | Some x -> string_of_int x in
    Printf.sprintf "index %s, outer [%s], inner [%s]: %s" (fst indexes.(ix))
      (String.concat ";" (List.map (fun (a, b) -> show a ^ "," ^ show b) outer))
      (String.concat ";"
         (List.map (fun (a, b, c) -> show a ^ "," ^ show b ^ "," ^ show c) inner))
      (query c)
  in
  Test.make ~name:"LIMIT BY = reference" ~count:500 (make ~print gen)
    (fun ((outer, inner), ((ix, r, o, b, n, m) as c)) ->
      let sql = query c in
      let inner_rows =
        List.mapi (fun id (k, w, z) -> [| V.Int id; v k; v w; v z |]) inner
      in
      let run ~indexed =
        let db = fresh () in
        e db "CREATE TABLE i (id INT, k INT, w INT, z INT)";
        (if indexed then
           let cols, unique = indexes.(ix) in
           e db
             (Printf.sprintf "CREATE %sINDEX i_x ON i %s"
                (if unique then "UNIQUE " else "")
                cols));
        ignore (D.insert_many db "i" inner_rows);
        D.with_scratch db ~name:"ctx_o" ~cols:[ ("x", V.Tint); ("y", V.Tint) ]
          (List.map (fun (x, y) -> [| v x; v y |]) outer)
          (fun () -> D.query db sql)
      in
      let joined =
        List.concat_map
          (fun (x, y) ->
            List.filter_map
              (fun ir ->
                let row = Array.append [| v x; v y |] ir in
                if row.(0) <> V.Null && row.(3) = row.(0) && snd residuals.(r) row
                then Some row
                else None)
              inner_rows)
          outer
      in
      let cmp a b =
        List.fold_left
          (fun acc (_, col, desc) ->
            if acc <> 0 then acc
            else
              let c = V.compare a.(col) b.(col) in
              if desc then -c else c)
          0 orders.(o)
      in
      let key row = Array.of_list (List.map (fun (_, col) -> row.(col)) bys.(b)) in
      let expect =
        let counts = Hashtbl.create 16 in
        List.filter
          (fun row ->
            let k = Reldb.Tuple.to_string (key row) in
            let seen = 1 + Option.value (Hashtbl.find_opt counts k) ~default:0 in
            Hashtbl.replace counts k seen;
            let m = Option.value m ~default:0 in
            seen > m && seen <= m + n)
          (List.stable_sort cmp joined)
      in
      let observed rows =
        List.sort compare
          (List.map
             (fun row ->
               Array.to_list (key row)
               @ List.map (fun (_, col, _) -> row.(col)) orders.(o))
             rows)
      in
      let got = run ~indexed:true and twin = run ~indexed:false in
      observed got = observed expect
      && observed twin = observed expect
      && List.for_all (fun row -> List.mem row joined) got)

let test_limit_by () =
  let db = fresh () in
  e db "CREATE TABLE t (id INT NOT NULL, p INT, o INT)";
  e db "CREATE UNIQUE INDEX t_po ON t (p, o)";
  e db "INSERT INTO t VALUES (1, 1, 10), (2, 1, 20), (3, 1, 30), (4, 2, 5), (5, 2, 7)";
  let q sql =
    D.with_scratch db ~name:"ctx_p" ~cols:[ ("id", V.Tint) ]
      [ [| V.Int 1 |]; [| V.Int 2 |]; [| V.Int 3 |] ]
      (fun () -> (ints db sql, D.explain db sql))
  in
  let has = Astring_contains.contains in
  let rows, plan =
    q "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.o DESC LIMIT 1 BY c.id"
  in
  check bool_t "last child per parent" true (List.sort compare rows = [ [ 1; 3 ]; [ 2; 5 ] ]);
  check bool_t "capped reverse probe" true
    (has plan "IndexNestedLoopJoin t.t_po key(#0) cap 1 desc"
    && has plan "Limit 1 offset 0 by (#0)");
  let rows, plan =
    q "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.o LIMIT 1 OFFSET 1 BY c.id"
  in
  check bool_t "second child per parent" true (List.sort compare rows = [ [ 1; 2 ]; [ 2; 5 ] ]);
  check bool_t "cap counts the offset" true (has plan "cap 2" && not (has plan "desc"));
  let rows, plan =
    q "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.id LIMIT 2 BY c.id"
  in
  check int_t "non-key order" 4 (List.length rows);
  check bool_t "no cap on a non-key order" false (has plan "cap");
  let rows, _ = q "SELECT id FROM t ORDER BY o DESC LIMIT 1 BY p" in
  check bool_t "one table" true (List.sort compare rows = [ [ 3 ]; [ 5 ] ]);
  let rows, _ =
    q (Printf.sprintf
         "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.o LIMIT %d OFFSET 2 BY c.id"
         max_int)
  in
  check bool_t "no overflow past max_int" true (rows = [ [ 1; 3 ] ]);
  List.iter
    (fun sql ->
      match D.query db sql with
      | _ -> Alcotest.failf "accepted: %s" sql
      | exception D.Sql_error _ -> ())
    [
      "SELECT DISTINCT p FROM t LIMIT 1 BY p";
      "SELECT p, COUNT(*) FROM t GROUP BY p LIMIT 1 BY p";
      "SELECT id FROM t LIMIT 1 BY p UNION ALL SELECT id FROM t";
      "SELECT id FROM t LIMIT 1 BY p LIMIT 2";
    ]

(* A derived table is planned on its own and drives the join: the first
   child per parent, then each parent's later children through the
   (p, o) index; nested once; DISTINCT inside with LIMIT BY outside. A
   malformed one is a Sql_error. *)
let test_derived_tables () =
  let db = fresh () in
  e db "CREATE TABLE t (id INT NOT NULL, p INT, o INT)";
  e db "CREATE UNIQUE INDEX t_po ON t (p, o)";
  e db "INSERT INTO t VALUES (1, 1, 10), (2, 1, 20), (3, 1, 30), (4, 2, 5), (5, 2, 7), (6, 3, 1)";
  let first = "SELECT id, p, o FROM t ORDER BY p, o LIMIT ? BY p" in
  let later = Printf.sprintf "SELECT s.id FROM (%s) AS b, t s WHERE s.p = b.p AND s.o > b.o ORDER BY s.id" first in
  check bool_t "later siblings of each first child" true
    (List.map (fun r -> r.(0)) (D.query_params db later [| V.Int 1 |]) = [ V.Int 2; V.Int 3; V.Int 5 ]);
  let plan = D.explain db later in
  check bool_t "the derived table is the outer input of an index join" true
    (Astring_contains.contains plan "IndexNestedLoopJoin t.t_po key(#1) range (#2 .. +inf"
    && Astring_contains.contains plan "  Limit ?1 offset 0 by (#1)");
  (* EXPLAIN ANALYZE profiles the derived subplan under its join *)
  let lines = String.split_on_char '\n' (D.explain_analyze db later [| V.Int 1 |]) in
  let depth prefix =
    List.find_map
      (fun l ->
        let t = String.trim l in
        if String.length t >= String.length prefix && String.sub t 0 (String.length prefix) = prefix then
          Some (String.length l - String.length (String.trim l))
        else None)
      lines
  in
  check bool_t "derived subplan profiled under the join" true
    (match (depth "IndexNestedLoopJoin t.t_po key(#1)", depth "Limit ?1") with
    | Some j, Some l -> l > j
    | _ -> false);
  check bool_t "nested once" true
    (ints db
       "SELECT d.id FROM (SELECT b.id, b.p FROM (SELECT id, p, o FROM t ORDER BY o DESC LIMIT 1 BY p) b \
        WHERE b.p > 1) d ORDER BY d.id"
    = [ [ 5 ]; [ 6 ] ]);
  check bool_t "DISTINCT inside, LIMIT BY outside" true
    (ints db
       "SELECT s.id FROM (SELECT DISTINCT p FROM t) b, t s WHERE s.p = b.p ORDER BY s.o LIMIT 1 OFFSET 1 BY b.p"
    = [ [ 5 ]; [ 2 ] ]);
  List.iter
    (fun sql ->
      match D.query db sql with
      | _ -> Alcotest.failf "accepted: %s" sql
      | exception D.Sql_error _ -> ())
    [
      "SELECT * FROM (SELECT id FROM t b";
      "SELECT * FROM (SELECT id FROM t)";
      "SELECT * FROM (SELECT id FROM t) b, t b";
      "SELECT * FROM t a, (SELECT id FROM t WHERE t.p = a.p) b";
      "SELECT * FROM (SELECT id, id FROM t) b";
      "SELECT * FROM (SELECT id FROM t UNION ALL SELECT id FROM t) b";
      "SELECT * FROM (SELECT id FROM t) b WHERE b.o = 1";
    ]

(* A runtime error in an UPDATE or DELETE WHERE clause fails the statement
   with Sql_error and changes nothing, when it is planned and again when its
   plan comes from the cache. *)
let test_dml_where_errors () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b INT)";
  e db "CREATE INDEX t_a ON t (a)";
  e db "INSERT INTO t VALUES (1, 10), (2, 20), (NULL, 30)";
  let table () = List.sort Reldb.Tuple.compare_key (D.query db "SELECT * FROM t") in
  let before = table () in
  List.iter
    (fun sql ->
      List.iter
        (fun (how, run) ->
          (match run () with
          | exception D.Sql_error _ -> ()
          | _ -> Alcotest.failf "%s %s: no Sql_error" how sql);
          check bool_t (how ^ " leaves the table: " ^ sql) true (table () = before))
        [
          ("autocommit", fun () -> D.exec db sql);
          ("cached", fun () -> D.exec_params db sql [||]);
        ])
    [
      "DELETE FROM t WHERE b = 1/0";
      "UPDATE t SET b = 5 WHERE b / 0 = 1";
      "DELETE FROM t WHERE SUBSTR(b, 1/0) = 'x'";
    ]

let test_rows_counters () =
  let db = fresh () in
  setup_emp db;
  D.reset_counters db;
  ignore (D.query db "SELECT id FROM emp WHERE id = 25");
  let reads = D.rows_read db in
  check bool_t "indexed point read is cheap" true (reads <= 3)

let test_multi_key_order () =
  let db = fresh () in
  setup_emp db;
  (* mixed-direction multi-key sort *)
  let rows = ints db "SELECT dept, id FROM emp ORDER BY dept ASC, id DESC LIMIT 3" in
  check (Alcotest.list (Alcotest.list int_t)) "mixed sort"
    [ [ 1; 50 ]; [ 1; 48 ]; [ 1; 46 ] ] rows

let test_expression_precedence () =
  let db = fresh () in
  e db "CREATE TABLE one (x INT)";
  e db "INSERT INTO one VALUES (10)";
  (match D.query db "SELECT 2 + 3 * x, (2 + 3) * x, -x + 1 FROM one" with
  | [ [| V.Int 32; V.Int 50; V.Int (-9) |] ] -> ()
  | r -> Alcotest.failf "precedence: %s" (String.concat ";" (List.map Reldb.Tuple.to_string r)));
  (* boolean precedence: AND binds tighter than OR *)
  check int_t "and/or precedence" 1
    (List.length (D.query db "SELECT x FROM one WHERE 1 = 2 AND 1 = 1 OR x = 10"))

let test_scalar_functions () =
  let db = fresh () in
  e db "CREATE TABLE s (v TEXT, n INT)";
  e db "INSERT INTO s VALUES ('Hello', -4)";
  match
    D.query db
      "SELECT LENGTH(v), UPPER(v), LOWER(v), ABS(n), SUBSTR(v, 2, 3) FROM s"
  with
  | [ [| V.Int 5; V.Str "HELLO"; V.Str "hello"; V.Int 4; V.Str "ell" |] ] -> ()
  | r -> Alcotest.failf "functions: %s" (String.concat ";" (List.map Reldb.Tuple.to_string r))

let rows_text r = String.concat ";" (List.map Reldb.Tuple.to_string r)

let test_bytes_functions () =
  let db = fresh () in
  e db "CREATE TABLE b (p BYTES, q BYTES, s TEXT)";
  e db "INSERT INTO b VALUES (X'0102', X'ff', 'Hello'), (NULL, X'03', NULL)";
  (match
     D.query db
       "SELECT p || q, SUBSTR(p || q, 2), SUBSTR(p, 1, 1), SUBSTR(s, 3), \
        SUBSTR(p, 9) FROM b WHERE s = 'Hello'"
   with
  | [
      [|
        V.Bytes "\x01\x02\xff"; V.Bytes "\x02\xff"; V.Bytes "\x01"; V.Str "llo"; V.Bytes "";
      |];
    ] ->
      ()
  | r -> Alcotest.failf "bytes functions: %s" (rows_text r));
  (* NULL in, NULL out: either operand of ||, and SUBSTR's string or start *)
  (match
     D.query db
       "SELECT p || q, q || p, SUBSTR(p, 2), SUBSTR(q, NULL) FROM b WHERE s IS NULL"
   with
  | [ [| V.Null; V.Null; V.Null; V.Null |] ] -> ()
  | r -> Alcotest.failf "NULL propagation: %s" (rows_text r));
  (* the planned output type agrees with the values *)
  let rows = D.exec db "SELECT p || q, SUBSTR(q, 1), s || s, SUBSTR(s, 2) FROM b" in
  (match rows with
  | D.Rows { schema; _ } ->
      check (Alcotest.list string_t) "column types"
        [ "BYTES"; "BYTES"; "TEXT"; "TEXT" ]
        (Array.to_list
           (Array.map (fun c -> V.ty_name c.Reldb.Schema.col_type) schema))
  | D.Affected _ -> Alcotest.fail "not a SELECT");
  (* other operand types concatenate as text, as before *)
  (match D.query db "SELECT s || 1, q || s FROM b WHERE s = 'Hello'" with
  | [ [| V.Str "Hello1"; V.Str "0xffHello" |] ] -> ()
  | r -> Alcotest.failf "mixed concat: %s" (rows_text r));
  (* set-oriented prefix rewrite, the shape a DEWEY subtree move uses *)
  e db "CREATE TABLE d (path BYTES NOT NULL)";
  e db "CREATE UNIQUE INDEX d_path ON d (path)";
  e db "INSERT INTO d VALUES (X'01'), (X'0201'), (X'020105'), (X'0202'), (X'03')";
  (match
     D.exec_params db
       "UPDATE d SET path = ? || SUBSTR(path, ?) WHERE path >= ? AND path < ?"
       [| V.Bytes "\x09"; V.Int 2; V.Bytes "\x02"; V.Bytes "\x03" |]
   with
  | D.Affected n -> check int_t "subtree rows moved" 3 n
  | D.Rows _ -> Alcotest.fail "not an UPDATE");
  check (Alcotest.list string_t) "rewritten paths"
    [ "0x01"; "0x03"; "0x0901"; "0x090105"; "0x0902" ]
    (List.map
       (fun r -> V.to_string r.(0))
       (D.query db "SELECT path FROM d ORDER BY path"))

(* EXPLAIN of a statement with [?] slots shows the plan that runs: an
   equality or range on a slot is an index bound, printed as the slot. *)
let test_explain_params () =
  let db = fresh () in
  e db "CREATE TABLE emp (id INT NOT NULL, name TEXT, dept INT, salary INT)";
  e db "CREATE UNIQUE INDEX emp_pk ON emp (id)";
  e db "CREATE INDEX emp_dept ON emp (dept, salary)";
  for i = 1 to 30 do
    e db (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d', %d, %d)" i i (i mod 3) (100 * i))
  done;
  let has plan s = Astring_contains.contains plan s in
  let p = D.explain db "SELECT name FROM emp WHERE id = ?" in
  check bool_t ("point lookup on a slot: " ^ p) true
    (has p "IndexScan emp.emp_pk [?1 .. [?1" && not (has p "SeqScan"));
  let p = D.explain db "SELECT id FROM emp WHERE dept = ? AND salary > ? AND name <> ?" in
  check bool_t ("prefix and range on slots: " ^ p) true
    (has p "IndexScan emp.emp_dept (?1|?2 .. [?1" && has p "Filter (#1 <> ?3)");
  let p = D.explain db "DELETE FROM emp WHERE id >= ? AND id < ?" in
  check bool_t ("DELETE access path: " ^ p) true (has p "IndexScan emp.emp_pk [?1 .. (?2");
  (* the plan that runs returns what the literal statement returns *)
  check (Alcotest.list (Alcotest.list int_t)) "bound range"
    (ints db "SELECT id FROM emp WHERE dept = 1 AND salary > 1500 ORDER BY id")
    (List.map
       (fun r -> List.map (function V.Int i -> i | _ -> -1) (Array.to_list r))
       (D.query_params db "SELECT id FROM emp WHERE dept = ? AND salary > ? ORDER BY id"
          [| V.Int 1; V.Int 1500 |]))

let test_min_max_plan () =
  let db = fresh () in
  setup_emp db;
  let explain = D.explain db in
  let has plan s = Astring_contains.contains plan s in
  let p = explain "SELECT MAX(id) FROM emp" in
  check bool_t "MAX reads the index from the top" true
    (has p "Limit 1" && has p "IndexScan emp.emp_id (NULL .. -inf DESC");
  check bool_t "no seq scan" false (has p "SeqScan");
  let p = explain "SELECT MIN(dept) FROM emp" in
  check bool_t "MIN reads the composite index from the bottom" true
    (has p "IndexScan emp.emp_dept (NULL .. -inf" && not (has p "DESC"));
  (* anything more than the bare aggregate keeps the aggregate plan *)
  List.iter
    (fun q ->
      check bool_t ("aggregate plan: " ^ q) false (has (explain q) "Limit 1"))
    [
      "SELECT MAX(id) FROM emp WHERE dept = 1";
      "SELECT dept, MAX(id) FROM emp GROUP BY dept";
      "SELECT MAX(id), MIN(id) FROM emp";
      "SELECT MAX(salary) FROM emp";
      "SELECT MAX(e.id) FROM emp e, dept d";
      "SELECT COUNT(id) FROM emp";
    ];
  check (Alcotest.list (Alcotest.list int_t)) "MAX" [ [ 50 ] ]
    (ints db "SELECT MAX(id) FROM emp");
  check (Alcotest.list (Alcotest.list int_t)) "MIN" [ [ 1 ] ]
    (ints db "SELECT MIN(dept) FROM emp")

(* MIN/MAX over an indexed column equal an OCaml reference, on tables with
   NULLs, duplicates, negatives and no rows at all *)
let prop_min_max =
  let open QCheck in
  let value =
    Gen.(frequency [ (1, return None); (4, map Option.some (int_range (-5) 5)) ])
  in
  let print (vs, unique) =
    Printf.sprintf "[%s]%s"
      (String.concat ";"
         (List.map (function None -> "NULL" | Some x -> string_of_int x) vs))
      (if unique then " unique" else "")
  in
  Test.make ~name:"MIN/MAX via index = reference" ~count:300
    (make ~print Gen.(pair (list_size (int_bound 25) value) bool))
    (fun (vs, unique) ->
      let vs =
        (* a unique index holds each key once, NULL included *)
        if unique then List.sort_uniq compare vs else vs
      in
      let db = fresh () in
      e db "CREATE TABLE m (c INT, w INT)";
      e db
        (if unique then "CREATE UNIQUE INDEX m_c ON m (c)"
         else "CREATE INDEX m_cw ON m (c, w)");
      ignore
        (D.insert_many db "m"
           (List.mapi
              (fun i v ->
                [| (match v with None -> V.Null | Some x -> V.Int x); V.Int i |])
              vs));
      let present = List.filter_map Fun.id vs in
      let reference f =
        match present with
        | [] -> V.Null
        | x :: rest -> V.Int (List.fold_left f x rest)
      in
      let one q =
        match D.query db q with [ [| v |] ] -> v | _ -> V.Str "not one row"
      in
      Astring_contains.contains (D.explain db "SELECT MAX(c) FROM m") "IndexScan"
      && V.equal (one "SELECT MAX(c) FROM m") (reference max)
      && V.equal (one "SELECT MIN(c) FROM m") (reference min)
      && V.type_of (one "SELECT MAX(c) FROM m") = V.type_of (reference max))

let test_max_id_reads () =
  let db = fresh () in
  e db "CREATE TABLE big (id INT NOT NULL, v INT)";
  e db "CREATE UNIQUE INDEX big_id ON big (id)";
  ignore
    (D.insert_many db "big" (List.init 4500 (fun i -> [| V.Int i; V.Int (i mod 7) |])));
  let before = D.rows_read db in
  check (Alcotest.list (Alcotest.list int_t)) "max" [ [ 4499 ] ]
    (ints db "SELECT MAX(id) FROM big");
  check bool_t "reads at most 2 rows" true (D.rows_read db - before <= 2)

let test_delete_via_index () =
  (* DELETE through an index range, then ensure the index agrees *)
  let db = fresh () in
  setup_emp db;
  D.reset_counters db;
  (match D.exec db "DELETE FROM emp WHERE id BETWEEN 10 AND 19" with
  | D.Affected 10 -> ()
  | _ -> Alcotest.fail "ranged delete count");
  check bool_t "indexed delete is cheap" true (D.rows_read db < 30);
  check int_t "index sees deletions" 0
    (List.length (D.query db "SELECT id FROM emp WHERE id = 15"))

let test_order_by_aggregate () =
  let db = fresh () in
  setup_emp db;
  match
    D.query db
      "SELECT dept, COUNT(*) AS n FROM emp WHERE id <= 10 GROUP BY dept \
       ORDER BY COUNT(*) DESC"
  with
  | [ [| V.Int _; V.Int a |]; [| V.Int _; V.Int b |] ] when a >= b -> ()
  | _ -> Alcotest.fail "order by aggregate"

(* --- hostile values through a checkpoint reload ------------------------ *)

(* strings chosen to break naive statement splitting or literal quoting;
   inserted as SQL literals, then carried by the checkpoint as typed
   values (Test_wal.reload) *)
let hostile_strings =
  [
    "semi;colon";
    "line one\nline two";
    "quote ' and '' doubled";
    "-- looks like a comment";
    "mix; -- of\nall ''the'' above;";
    "back\\slash and \ttab";
    "";
  ]

let test_hostile_dump_restore () =
  let db, db2 =
    Test_wal.reload (fun db ->
        e db "CREATE TABLE h (id INT NOT NULL, v TEXT)";
        List.iteri
          (fun i s ->
            e db
              (Printf.sprintf "INSERT INTO h VALUES (%d, %s)" i
                 (V.to_sql_literal (V.Str s))))
          hostile_strings;
        (* names that only lex back quoted *)
        e db "CREATE TABLE \"odd name\" (id INT)";
        e db "INSERT INTO \"odd name\" VALUES (1)";
        e db "CREATE TABLE k (\"select\" INT)";
        e db "CREATE UNIQUE INDEX \"k;pk\" ON k (\"select\")";
        e db "INSERT INTO k VALUES (2)")
  in
  check bool_t "quoted names survive" true
    (D.query db2 "SELECT id FROM \"odd name\"" = [ [| V.Int 1 |] ]
    && D.query db2 "SELECT \"select\" FROM k" = [ [| V.Int 2 |] ]);
  List.iteri
    (fun i s ->
      match
        D.query_one db2 (Printf.sprintf "SELECT v FROM h WHERE id = %d" i)
      with
      | Some [| V.Str got |] ->
          check string_t (Printf.sprintf "hostile string %d" i) s got
      | _ -> Alcotest.failf "hostile string %d lost in the reload" i)
    hostile_strings;
  check string_t "state is a fixpoint" (Test_wal.state db) (Test_wal.state db2)

let test_float_literal_roundtrip () =
  let values =
    List.map
      (fun x -> V.Float x)
      [
        1e22 (* %.17g prints no decimal point: a literal must still read back as FLOAT *);
        1.5;
        -0.0;
        1e-300;
        max_float;
        Float.min_float;
        nan;
        infinity;
        neg_infinity;
      ]
    (* min_int's magnitude is no int literal *)
    @ [ V.Int min_int; V.Int max_int ]
  in
  let _, db2 =
    Test_wal.reload (fun db ->
        e db "CREATE TABLE f (id INT NOT NULL, x FLOAT, n INT)";
        List.iteri
          (fun i v ->
            let x, n = match v with V.Int _ -> (V.Null, v) | _ -> (v, V.Null) in
            e db
              (Printf.sprintf "INSERT INTO f VALUES (%d, %s, %s)" i (V.to_sql_literal x)
                 (V.to_sql_literal n)))
          values)
  in
  List.iteri
    (fun i v ->
      match
        (v, D.query_one db2 (Printf.sprintf "SELECT x, n FROM f WHERE id = %d" i))
      with
      | V.Float x, Some [| V.Float got; V.Null |] ->
          let same =
            (Float.is_nan x && Float.is_nan got)
            || (x = got && Float.sign_bit x = Float.sign_bit got)
          in
          if not same then
            Alcotest.failf "float %d: %h restored as %h" i x got
      | V.Int k, Some [| V.Null; V.Int got |] ->
          check int_t (Printf.sprintf "int %d" i) k got
      | _ -> Alcotest.failf "value %d lost in the reload" i)
    values

let test_script_line_comments () =
  (* [--] outside a string literal starts a comment; inside one it is data *)
  let db = fresh () in
  List.iter (e db)
    [
      "-- header comment; with semicolons\n\
       CREATE TABLE t (id INT NOT NULL, v TEXT) -- trailing comment";
      "INSERT INTO t VALUES (1, '-- not; a comment\nsecond line');";
      "-- INSERT INTO t VALUES (2, 'commented out');\n\
       INSERT INTO t VALUES (3, 'it''s -- still data')";
    ];
  check int_t "commented-out statement skipped" 2
    (List.length (D.query db "SELECT id FROM t"));
  (match D.query_one db "SELECT v FROM t WHERE id = 1" with
  | Some [| V.Str v |] ->
      check string_t "comment marker inside literal survives"
        "-- not; a comment\nsecond line" v
  | _ -> Alcotest.fail "row 1 missing");
  match D.query_one db "SELECT v FROM t WHERE id = 3" with
  | Some [| V.Str v |] ->
      check string_t "escaped quote before comment marker" "it's -- still data" v
  | _ -> Alcotest.fail "row 3 missing"

(* LIMIT ? [OFFSET ?] BY: one cached plan serves every binding. Random
   rows, ORDER BY and bindings (0 included); the bound text returns the rows
   of the literal text, misses the plan cache once however many bindings it
   runs with, and fails with Sql_error on a negative or NULL binding. *)
let prop_bound_limit_by =
  let open QCheck in
  let orders = [| "i.w"; "i.w DESC"; "o.y, i.w"; "i.w, i.id"; "i.z DESC, i.w DESC" |] in
  let gen =
    Gen.(
      triple
        (pair (list_size (int_range 1 6) (int_bound 3))
           (list_size (int_bound 20) (triple (int_bound 3) (int_bound 4) (int_bound 2))))
        (pair (int_bound (Array.length orders - 1)) bool)
        (list_size (int_range 1 4) (pair (int_bound 4) (int_bound 3))))
  in
  let print ((outer, inner), (o, off), binds) =
    Printf.sprintf "outer [%s] inner [%s] order %s offset %b binds [%s]"
      (String.concat ";" (List.map string_of_int outer))
      (String.concat ";" (List.map (fun (k, w, z) -> Printf.sprintf "%d,%d,%d" k w z) inner))
      orders.(o) off
      (String.concat ";" (List.map (fun (n, m) -> Printf.sprintf "%d,%d" n m) binds))
  in
  Test.make ~name:"bound LIMIT BY = literal LIMIT BY" ~count:200 (make ~print gen)
    (fun ((outer, inner), (o, off), binds) ->
      let db = fresh () in
      e db "CREATE TABLE i (id INT, k INT, w INT, z INT)";
      e db "CREATE UNIQUE INDEX i_kw ON i (k, w, id)";
      List.iteri
        (fun id (k, w, z) -> e db (Printf.sprintf "INSERT INTO i VALUES (%d, %d, %d, %d)" id k w z))
        inner;
      let text limit offset =
        Printf.sprintf
          "SELECT o.x, i.id, i.w FROM i, ctx_o o WHERE i.k = o.x ORDER BY %s LIMIT %s%s BY o.x"
          orders.(o) limit
          (if off then " OFFSET " ^ offset else "")
      in
      let bound = text "?" "?" in
      let run sql params =
        D.with_scratch db ~name:"ctx_o" ~cols:[ ("x", V.Tint); ("y", V.Tint) ]
          (List.mapi (fun y x -> [| V.Int x; V.Int y |]) outer)
          (fun () -> D.query_params db sql params)
      in
      let misses () =
        let _, m, _ = D.plan_cache_stats db in
        m
      in
      let params n m =
        if off then [| V.Int n; V.Int m |] else [| V.Int n |]
      in
      let m0 = misses () in
      let agree =
        List.for_all
          (fun (n, m) ->
            run bound (params n m) = run (text (string_of_int n) (string_of_int m)) [||])
          binds
      in
      let literal_texts =
        List.length
          (List.sort_uniq compare (List.map (fun (n, m) -> if off then (n, m) else (n, 0)) binds))
      in
      let bad v =
        match run bound (if off then [| V.Int 1; v |] else [| v |]) with
        | _ -> false
        | exception D.Sql_error _ -> true
      in
      agree
      && misses () - m0 = 1 + literal_texts
      && bad (V.Int (-1))
      && bad V.Null
      && (not off || (match run bound [| V.Null; V.Int 0 |] with
                      | _ -> false
                      | exception D.Sql_error _ -> true)))

let test_explain_bound_limit () =
  let db = fresh () in
  e db "CREATE TABLE t (id INT NOT NULL, p INT, o INT)";
  e db "CREATE UNIQUE INDEX t_po ON t (p, o)";
  let has = Astring_contains.contains in
  let plan sql =
    D.with_scratch db ~name:"ctx_p" ~cols:[ ("id", V.Tint) ] [] (fun () -> D.explain db sql)
  in
  let p =
    plan "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.o LIMIT ? OFFSET ? BY c.id"
  in
  check bool_t "offset + limit cap" true
    (has p "cap (?2 + ?1)" && has p "Limit ?1 offset ?2 by (#0)");
  let p =
    plan "SELECT c.id, t.id FROM t, ctx_p c WHERE t.p = c.id ORDER BY t.o DESC LIMIT ? BY c.id"
  in
  check bool_t "limit cap, reversed" true (has p "cap ?1 desc" && has p "Limit ?1 offset 0");
  let p = plan "SELECT id FROM t ORDER BY o LIMIT ? OFFSET ?" in
  check bool_t "plain LIMIT ? OFFSET ?" true (has p "Limit ?1 offset ?2")

(* SELECT * lists its columns in FROM order, whichever table the planner
   joins first: a derived table and a filtered table both drive the join
   here. *)
let test_star_from_order () =
  let db = fresh () in
  e db "CREATE TABLE t (a INT, b TEXT)";
  e db "CREATE TABLE u (c INT)";
  e db "INSERT INTO t VALUES (1, 'x')";
  e db "INSERT INTO u VALUES (7)";
  List.iter
    (fun sql ->
      check (Alcotest.list string_t) sql [ "1|x|7" ]
        (List.map Reldb.Tuple.to_string (D.query db sql)))
    [ "SELECT * FROM t, (SELECT c FROM u) d"; "SELECT * FROM t, u WHERE u.c = 7" ]

let tests =
  ( "sql",
    [
      Alcotest.test_case "LIKE matcher" `Quick test_like;
      Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
      Alcotest.test_case "arith + concat" `Quick test_arith_and_concat;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "string quoting" `Quick test_quoting;
      Alcotest.test_case "bytes literals" `Quick test_bytes_literals;
      Alcotest.test_case "order/limit/offset" `Quick test_order_limit_offset;
      Alcotest.test_case "joins" `Quick test_joins;
      Alcotest.test_case "three-way join" `Quick test_three_way_join;
      Alcotest.test_case "aggregates" `Quick test_aggregates;
      Alcotest.test_case "distinct" `Quick test_distinct;
      Alcotest.test_case "between/in/like" `Quick test_between_in_like;
      Alcotest.test_case "update/delete" `Quick test_update_delete;
      Alcotest.test_case "unique-shift update" `Quick test_unique_shift_update;
      Alcotest.test_case "constraints" `Quick test_constraints;
      Alcotest.test_case "rejected duplicate keeps the index" `Quick
        test_rejected_duplicate_keeps_index;
      Alcotest.test_case "order-reversing update" `Quick test_reversal_update;
      Alcotest.test_case "colliding shift is atomic" `Quick
        test_colliding_shift_is_atomic;
      Alcotest.test_case "insert column list" `Quick test_insert_columns;
      Alcotest.test_case "HAVING" `Quick test_having;
      Alcotest.test_case "UNION ALL" `Quick test_union_all;
      Alcotest.test_case "UNION ALL ORDER BY and LIMIT" `Quick test_union_tail;
      Alcotest.test_case "transactions" `Quick test_transactions;
      Alcotest.test_case "index selection" `Quick test_index_selection;
      Alcotest.test_case "sort elimination" `Quick test_sort_elimination;
      Alcotest.test_case "hash join planned" `Quick test_hash_join_planned;
      Alcotest.test_case "index range skips NULL keys" `Quick
        test_range_skips_null_keys;
      Alcotest.test_case "index nested-loop join planned" `Quick
        test_index_nl_join_planned;
      QCheck_alcotest.to_alcotest prop_index_nl_join;
      QCheck_alcotest.to_alcotest prop_index_access;
      QCheck_alcotest.to_alcotest prop_index_probe_bounds;
      QCheck_alcotest.to_alcotest prop_limit_by;
      Alcotest.test_case "LIMIT BY" `Quick test_limit_by;
      Alcotest.test_case "derived tables" `Quick test_derived_tables;
      QCheck_alcotest.to_alcotest prop_bound_limit_by;
      Alcotest.test_case "EXPLAIN bound LIMIT" `Quick test_explain_bound_limit;
      Alcotest.test_case "UPDATE/DELETE WHERE errors" `Quick test_dml_where_errors;
      Alcotest.test_case "I/O counters" `Quick test_rows_counters;
      Alcotest.test_case "multi-key ORDER BY" `Quick test_multi_key_order;
      Alcotest.test_case "expression precedence" `Quick test_expression_precedence;
      Alcotest.test_case "scalar functions" `Quick test_scalar_functions;
      Alcotest.test_case "BYTES || and SUBSTR" `Quick test_bytes_functions;
      Alcotest.test_case "EXPLAIN with ? slots" `Quick test_explain_params;
      Alcotest.test_case "MIN/MAX from the index end" `Quick test_min_max_plan;
      QCheck_alcotest.to_alcotest prop_min_max;
      Alcotest.test_case "MAX(id) reads O(1) rows" `Quick test_max_id_reads;
      Alcotest.test_case "delete via index" `Quick test_delete_via_index;
      Alcotest.test_case "ORDER BY aggregate" `Quick test_order_by_aggregate;
      Alcotest.test_case "hostile strings dump/restore" `Quick
        test_hostile_dump_restore;
      Alcotest.test_case "float literal roundtrip" `Quick
        test_float_literal_roundtrip;
      Alcotest.test_case "script line comments" `Quick
        test_script_line_comments;
      Alcotest.test_case "SELECT * in FROM order" `Quick test_star_from_order;
    ] )
