(* Prepared statements, plan cache and bulk-write path (ISSUE 3): binding
   [?] parameters must behave exactly like inlined literals, the plan cache
   must hit on repeats and never serve stale plans across DDL / restore /
   rollback, and the script and bulk-insert paths must keep their
   transactional guarantees. *)

module D = Reldb.Db
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let make_db () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE emp (id INT NOT NULL, name TEXT, salary INT)");
  ignore (D.exec db "CREATE UNIQUE INDEX emp_pk ON emp (id)");
  for i = 1 to 20 do
    ignore
      (D.exec db
         (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d', %d)" i i (i * 100)))
  done;
  db

(* --- prepare / bind basics ------------------------------------------- *)

let test_prepare_basics () =
  let db = make_db () in
  let s = D.prepare db "SELECT name FROM emp WHERE id = ?" in
  check int_t "param count" 1 (D.Stmt.param_count s);
  (match D.Stmt.query s [| V.Int 3 |] with
  | [ [| V.Str "e3" |] ] -> ()
  | _ -> Alcotest.fail "id=3 should select e3");
  (* same statement, different binding: no cross-talk *)
  (match D.Stmt.query s [| V.Int 7 |] with
  | [ [| V.Str "e7" |] ] -> ()
  | _ -> Alcotest.fail "id=7 should select e7");
  (* parameters anywhere an expression goes *)
  let s2 =
    D.prepare db "SELECT id FROM emp WHERE salary >= ? AND salary <= ? ORDER BY id"
  in
  check int_t "two params" 2 (D.Stmt.param_count s2);
  check int_t "range rows" 3
    (List.length (D.Stmt.query s2 [| V.Int 400; V.Int 600 |]));
  (* DML through a prepared statement *)
  let ins = D.prepare db "INSERT INTO emp VALUES (?, ?, ?)" in
  (match D.Stmt.exec ins [| V.Int 21; V.Str "e21"; V.Int 2100 |] with
  | D.Affected 1 -> ()
  | _ -> Alcotest.fail "prepared INSERT should affect 1 row");
  let upd = D.prepare db "UPDATE emp SET salary = ? WHERE id = ?" in
  (match D.Stmt.exec upd [| V.Int 9999; V.Int 21 |] with
  | D.Affected 1 -> ()
  | _ -> Alcotest.fail "prepared UPDATE should affect 1 row");
  match D.query db "SELECT salary FROM emp WHERE id = 21" with
  | [ [| V.Int 9999 |] ] -> ()
  | _ -> Alcotest.fail "prepared UPDATE should have landed"

let test_prepare_errors () =
  let db = make_db () in
  let s = D.prepare db "SELECT name FROM emp WHERE id = ?" in
  (* arity mismatches *)
  (match D.Stmt.exec s [||] with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "zero params for one slot should fail");
  (match D.Stmt.exec s [| V.Int 1; V.Int 2 |] with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "two params for one slot should fail");
  (* unbound parameters cannot go through plain exec *)
  (match D.exec db "SELECT name FROM emp WHERE id = ?" with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "exec of parameterized SQL should fail");
  (* evaluating an unbound Param directly raises *)
  match Reldb.Expr.eval (Reldb.Expr.Param 0) [||] with
  | exception Reldb.Expr.Eval_error _ -> ()
  | _ -> Alcotest.fail "unbound Param eval should raise"

(* --- plan cache hit/miss trajectory ----------------------------------- *)

let test_cache_trajectory () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect ~finally:(fun () -> Obs.set_enabled was) @@ fun () ->
  let db = make_db () in
  let hits0, misses0, _ = D.plan_cache_stats db in
  check int_t "no hits yet" 0 hits0;
  let q = "SELECT name FROM emp WHERE salary > 500" in
  let r1 = D.query db q in
  let hits1, misses1, entries1 = D.plan_cache_stats db in
  check int_t "first run misses" (misses0 + 1) misses1;
  check int_t "first run does not hit" 0 hits1;
  check bool_t "entry stored" true (entries1 >= 1);
  let r2 = D.query db q in
  let r3 = D.query db q in
  let hits3, misses3, _ = D.plan_cache_stats db in
  check int_t "repeats hit" 2 hits3;
  check int_t "repeats do not miss" misses1 misses3;
  check bool_t "cached plan returns identical rows" true (r1 = r2 && r2 = r3);
  (* the Obs counters track the same trajectory *)
  check int_t "obs hit counter" 2 (Obs.counter_value "db.plan_cache.hit");
  check bool_t "obs miss counter" true
    (Obs.counter_value "db.plan_cache.miss" >= 1);
  (* DML is not cacheable and must not count as a miss *)
  let _, misses_before, _ = D.plan_cache_stats db in
  ignore (D.exec db "UPDATE emp SET salary = 1 WHERE id = 1");
  let _, misses_after, _ = D.plan_cache_stats db in
  check int_t "DML does not count as a cache miss" misses_before misses_after

(* --- invalidation ------------------------------------------------------ *)

let test_cache_invalidation_ddl () =
  let db = make_db () in
  let q = "SELECT * FROM emp WHERE id = 1" in
  ignore (D.query db q);
  ignore (D.query db q);
  let hits1, _, _ = D.plan_cache_stats db in
  check int_t "warm" 1 hits1;
  (* unrelated DDL still invalidates (version counter is global) *)
  ignore (D.exec db "CREATE TABLE other (x INT)");
  ignore (D.query db q);
  let hits2, misses2, _ = D.plan_cache_stats db in
  check int_t "no stale hit after CREATE TABLE" hits1 hits2;
  check bool_t "replanned after CREATE TABLE" true (misses2 >= 2);
  (* DROP + CREATE with a different shape: the old plan would be wrong *)
  ignore (D.exec db "DROP TABLE other");
  ignore (D.query db "SELECT * FROM emp"); (* warm a star plan *)
  ignore (D.exec db "DROP TABLE emp");
  ignore (D.exec db "CREATE TABLE emp (only_col TEXT)");
  ignore (D.exec db "INSERT INTO emp VALUES ('fresh')");
  (match D.query db "SELECT * FROM emp" with
  | [ [| V.Str "fresh" |] ] -> ()
  | rows ->
      Alcotest.failf "stale plan after DROP/CREATE: got %d-column rows"
        (match rows with r :: _ -> Array.length r | [] -> 0))

let test_cache_invalidation_index () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT, b INT)");
  for i = 1 to 10 do
    ignore (D.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i i))
  done;
  let q = "SELECT b FROM t WHERE a = 5" in
  ignore (D.query db q);
  ignore (D.query db q);  (* cached: seq-scan plan *)
  ignore (D.exec db "CREATE UNIQUE INDEX t_a ON t (a)");
  (* the cached seq-scan plan must not survive the new access path *)
  let explained = D.explain db q in
  check bool_t "explain shows the index after CREATE INDEX" true
    (let lower = String.lowercase_ascii explained in
     let has needle =
       let nl = String.length needle and l = String.length lower in
       let rec go i = i + nl <= l && (String.sub lower i nl = needle || go (i + 1)) in
       go 0
     in
     has "index");
  match D.query db q with
  | [ [| V.Int 5 |] ] -> ()
  | _ -> Alcotest.fail "index-backed replan returns the right row"

let test_cache_restore_and_rollback () =
  let db = make_db () in
  let q = "SELECT COUNT(*) FROM emp" in
  ignore (D.query db q);
  ignore (D.query db q);
  (* restore builds a fresh engine: cold cache, correct answers *)
  let db2 = D.restore (D.dump db) in
  let hits, misses, entries = D.plan_cache_stats db2 in
  check int_t "restored cache is cold (hits)" 0 hits;
  check int_t "restored cache is cold (misses)" 0 misses;
  check int_t "restored cache is cold (entries)" 0 entries;
  (match D.query db2 q with
  | [ [| V.Int 20 |] ] -> ()
  | _ -> Alcotest.fail "restored db answers correctly");
  (* a rollback must not affect plan validity: cached plans carry no data *)
  ignore (D.query db2 q);
  D.begin_txn db2;
  ignore (D.exec db2 "INSERT INTO emp VALUES (999, 'ghost', 1)");
  (match D.query db2 q with
  | [ [| V.Int 21 |] ] -> ()
  | _ -> Alcotest.fail "in-txn count sees the insert");
  D.rollback db2;
  match D.query db2 q with
  | [ [| V.Int 20 |] ] -> ()
  | _ -> Alcotest.fail "post-rollback cached plan returns pre-txn rows"

let test_cache_lru_cap () =
  let db = make_db () in
  for i = 1 to 200 do
    ignore (D.query db (Printf.sprintf "SELECT name FROM emp WHERE id = %d" (i mod 25)))
  done;
  let _, _, entries = D.plan_cache_stats db in
  check bool_t "cache stays within its cap" true (entries <= 128)

(* --- property: prepared == inlined ------------------------------------- *)

let arb_query_shape =
  let gen =
    QCheck.Gen.(
      quad (int_bound 25) (int_bound 2500) (oneofl [ "="; "<"; ">"; "<=" ])
        (oneofl [ "id"; "salary" ]))
  in
  let print (a, b, op, col) = Printf.sprintf "id=%d sal=%d op=%s col=%s" a b op col in
  QCheck.make ~print gen

let prop_db = lazy (make_db ())

let prop_prepared_equals_inlined =
  QCheck.Test.make ~name:"prepared with bound params == inlined literals"
    ~count:100 arb_query_shape (fun (a, b, op, col) ->
      let db = Lazy.force prop_db in
      let mk v1 v2 =
        Printf.sprintf
          "SELECT id, name, salary FROM emp WHERE id >= %s AND %s %s %s ORDER BY id"
          v1 col op v2
      in
      let inlined = mk (string_of_int a) (string_of_int b) in
      let parameterized = mk "?" "?" in
      let expect = D.query db inlined in
      let s = D.prepare db parameterized in
      let got = D.Stmt.query s [| V.Int a; V.Int b |] in
      if got <> expect then
        QCheck.Test.fail_reportf "prepared differs from inlined for %s" inlined
      else begin
        (* the parameterized form lints clean: a bound-at-runtime value must
           not trip constant-analysis rules *)
        let stmt = Reldb.Sql_parser.parse parameterized in
        let findings =
          List.filter
            (fun f -> f.Analysis.Finding.severity <> Analysis.Finding.Info)
            (Analysis.Lint.lint_stmt ~catalog:(D.catalog db) stmt)
        in
        findings = []
      end)

(* --- property: bound plans == literal statements ------------------------- *)

(* One statement text with [?] slots, executed through a prepared handle
   with several bindings on one database, and as the text with each binding
   printed as literals through [Db.exec] on a twin database. Slots sit in
   index equality prefixes, range bounds, SET expressions and residuals;
   bindings include NULL. *)

type slot = Int_slot | Text_slot

let twin () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT NOT NULL, b INT, c INT, d TEXT)");
  ignore (D.exec db "CREATE UNIQUE INDEX t_a ON t (a)");
  ignore (D.exec db "CREATE INDEX t_bc ON t (b, c)");
  for i = 1 to 40 do
    let opt v = if i mod 7 = 0 then "NULL" else string_of_int v in
    ignore
      (D.exec db
         (Printf.sprintf "INSERT INTO t VALUES (%d, %s, %s, '%s')" i
            (opt (i mod 4)) (opt (i mod 9)) (if i mod 2 = 0 then "x" else "y")))
  done;
  db

(* WHERE atoms and SET items: their text and the slots they add *)
let where_atoms =
  [
    ("a = ?", [ Int_slot ]);
    ("a >= ?", [ Int_slot ]);
    ("a < ?", [ Int_slot ]);
    ("b = ?", [ Int_slot ]);
    ("c > ?", [ Int_slot ]);
    ("c <= ?", [ Int_slot ]);
    ("d <> ?", [ Text_slot ]);
    ("a % 3 = ?", [ Int_slot ]);
    ("c + ? > a", [ Int_slot ]);
    ("b IS NULL", []);
  ]

let set_items =
  [
    ("c = ?", [ Int_slot ]);
    ("c = c + ?", [ Int_slot ]);
    ("b = ?", [ Int_slot ]);
    ("d = ?", [ Text_slot ]);
    ("a = a + ?", [ Int_slot ]);
  ]

let gen_value = function
  | Int_slot ->
      QCheck.Gen.(
        frequency [ (1, return V.Null); (8, map (fun i -> V.Int i) (int_range (-2) 42)) ])
  | Text_slot ->
      QCheck.Gen.(
        frequency [ (1, return V.Null); (4, map (fun s -> V.Str s) (oneofl [ "x"; "y"; "z" ])) ])

let gen_bound_stmt =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let* atoms = list_size (int_range 0 3) (pick where_atoms) in
  let* kind = int_bound 2 in
  let* sets = list_size (int_range 1 2) (pick set_items) in
  let where =
    if atoms = [] then "" else " WHERE " ^ String.concat " AND " (List.map fst atoms)
  in
  let text, slots =
    match kind with
    | 0 -> ("SELECT a, b, c, d FROM t" ^ where ^ " ORDER BY a", List.concat_map snd atoms)
    | 1 ->
        ( "UPDATE t SET " ^ String.concat ", " (List.map fst sets) ^ where,
          List.concat_map snd sets @ List.concat_map snd atoms )
    | _ -> ("DELETE FROM t" ^ where, List.concat_map snd atoms)
  in
  let gen_binding = flatten_l (List.map gen_value slots) >|= Array.of_list in
  let* bindings = list_size (int_range 3 5) gen_binding in
  return (text, bindings)

let literal text binding =
  let parts = String.split_on_char '?' text in
  String.concat ""
    (List.mapi
       (fun i part ->
         if i = 0 then part else V.to_sql_literal binding.(i - 1) ^ part)
       parts)

let print_bound_stmts stmts =
  String.concat "\n"
    (List.map
       (fun (text, bindings) ->
         String.concat "\n  " (text :: List.map (literal text) bindings))
       stmts)

let outcome run =
  match run () with
  | D.Rows { tuples; _ } -> Ok (`Rows tuples)
  | D.Affected n -> Ok (`Affected n)
  | exception D.Sql_error _ -> Error ()

let prop_bound_plans_equal_literals =
  QCheck.Test.make ~name:"bound plans == literal statements" ~count:150
    (QCheck.make ~print:print_bound_stmts
       QCheck.Gen.(list_size (int_range 1 4) gen_bound_stmt))
    (fun stmts ->
      let bound = twin () and lit = twin () in
      List.for_all
        (fun (text, bindings) ->
          let s = D.prepare bound text in
          let _, m0, _ = D.plan_cache_stats bound in
          let same =
            List.for_all
              (fun binding ->
                let got = outcome (fun () -> D.Stmt.exec s binding) in
                let want = outcome (fun () -> D.exec lit (literal text binding)) in
                if got <> want then
                  QCheck.Test.fail_reportf "%s differs from its literal form %s" text
                    (literal text binding);
                if D.dump bound <> D.dump lit then
                  QCheck.Test.fail_reportf "tables differ after %s" (literal text binding);
                true)
              bindings
          in
          let _, m1, _ = D.plan_cache_stats bound in
          if m1 - m0 > 1 then
            QCheck.Test.fail_reportf "%s missed the plan cache %d times" text (m1 - m0);
          same)
        stmts)

(* A handle looks its text up on every execution: after CREATE INDEX the
   next execution plans again and reads through the new index. *)
let test_prepared_replans_after_create_index () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t2 (x INT, y TEXT)");
  for i = 1 to 50 do
    ignore (D.exec db (Printf.sprintf "INSERT INTO t2 VALUES (%d, 'v%d')" (i mod 10) i))
  done;
  let s = D.prepare db "SELECT y FROM t2 WHERE x = ? ORDER BY y" in
  let run () =
    let r0 = D.rows_read db in
    let rows = D.Stmt.query s [| V.Int 3 |] in
    (rows, D.rows_read db - r0)
  in
  let rows1, reads1 = run () in
  check int_t "first execution scans the table" 50 reads1;
  ignore (D.exec db "CREATE INDEX t2_x ON t2 (x)");
  check bool_t "EXPLAIN shows the new index" true
    (Astring_contains.contains
       (D.explain db (D.Stmt.sql s))
       "IndexScan t2.t2_x [?1 .. [?1");
  let rows2, reads2 = run () in
  check bool_t "same rows after CREATE INDEX" true (rows1 = rows2);
  check int_t "second execution reads only the matches" (List.length rows2) reads2

(* --- bulk writes -------------------------------------------------------- *)

let test_insert_many () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT NOT NULL, b TEXT)");
  ignore (D.exec db "CREATE UNIQUE INDEX t_a ON t (a)");
  let n =
    D.insert_many db "t"
      [ [| V.Int 1; V.Str "x" |]; [| V.Int 2; V.Str "y" |]; [| V.Int 3; V.Null |] ]
  in
  check int_t "rows loaded" 3 n;
  (match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "bulk rows visible to SQL");
  (* atomicity: a duplicate key in the batch undoes the whole batch *)
  (match
     D.insert_many db "t" [ [| V.Int 4; V.Null |]; [| V.Int 1; V.Str "dup" |] ]
   with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate key batch should fail");
  match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "failed batch left no partial rows"

(* --- multi-row INSERT grammar ------------------------------------------ *)

let test_multi_row_insert () =
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT, b TEXT)");
  (match D.exec db "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')" with
  | D.Affected 3 -> ()
  | _ -> Alcotest.fail "multi-VALUES INSERT affects 3");
  match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "three rows present"

(* --- exec_script -------------------------------------------------------- *)

let test_exec_script_transactional () =
  let db = D.create () in
  (* DDL + DML mix: DDL closes the implicit bracket, DML groups *)
  D.exec_script db
    [
      "CREATE TABLE t (a INT NOT NULL)";
      "INSERT INTO t VALUES (1)";
      "INSERT INTO t VALUES (2)";
      "CREATE UNIQUE INDEX t_a ON t (a)";
      "INSERT INTO t VALUES (3)";
    ];
  (match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "script loaded all rows");
  (* a failing statement rolls back the whole DML run it belongs to *)
  (match
     D.exec_script db
       [ "INSERT INTO t VALUES (10)"; "INSERT INTO t VALUES (1)" (* dup *) ]
   with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "duplicate in script should fail");
  (match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "failed script run left no partial rows");
  check bool_t "no transaction left open" false (D.in_transaction db);
  (* inside a caller transaction the script just joins it *)
  D.begin_txn db;
  D.exec_script db [ "INSERT INTO t VALUES (11)" ];
  check bool_t "caller txn still open" true (D.in_transaction db);
  D.rollback db;
  match D.query db "SELECT COUNT(*) FROM t" with
  | [ [| V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "caller rollback undoes script rows"

let test_dump_restore_roundtrip () =
  let db = make_db () in
  ignore (D.exec db "UPDATE emp SET name = 'renamed' WHERE id = 2");
  let db2 = D.restore (D.dump db) in
  check bool_t "roundtrip preserves rows" true
    (D.query db "SELECT * FROM emp ORDER BY id"
    = D.query db2 "SELECT * FROM emp ORDER BY id")

let tests =
  ( "prepared",
    [
      Alcotest.test_case "prepare and bind" `Quick test_prepare_basics;
      Alcotest.test_case "prepare error cases" `Quick test_prepare_errors;
      Alcotest.test_case "plan cache hit/miss trajectory" `Quick
        test_cache_trajectory;
      Alcotest.test_case "cache invalidation: DDL" `Quick
        test_cache_invalidation_ddl;
      Alcotest.test_case "cache invalidation: CREATE INDEX" `Quick
        test_cache_invalidation_index;
      Alcotest.test_case "cache: restore and rollback" `Quick
        test_cache_restore_and_rollback;
      Alcotest.test_case "cache LRU cap" `Quick test_cache_lru_cap;
      QCheck_alcotest.to_alcotest prop_prepared_equals_inlined;
      QCheck_alcotest.to_alcotest prop_bound_plans_equal_literals;
      Alcotest.test_case "prepared statement re-plans after CREATE INDEX" `Quick
        test_prepared_replans_after_create_index;
      Alcotest.test_case "insert_many" `Quick test_insert_many;
      Alcotest.test_case "multi-row INSERT" `Quick test_multi_row_insert;
      Alcotest.test_case "exec_script transactions" `Quick
        test_exec_script_transactional;
      Alcotest.test_case "dump/restore roundtrip" `Quick
        test_dump_restore_roundtrip;
    ] )
