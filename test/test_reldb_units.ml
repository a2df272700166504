(* Unit coverage of the relational-engine building blocks that the
   end-to-end SQL tests exercise only indirectly: values, schemas, tuples,
   the growable vector, the executor's physical operators, and the
   planner's access-path selection. *)

module V = Reldb.Value
module S = struct
  include Reldb.Schema

  (* nullable columns with the given names and types *)
  let make cols = Array.of_list (List.map (fun (n, ty) -> column n ty) cols)
end
module Tu = Reldb.Tuple

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* --- values ------------------------------------------------------------ *)

let test_value_order () =
  let le a b = V.compare a b < 0 in
  check bool_t "null first" true (le V.Null (V.Int (-100)));
  check bool_t "int/float mix" true (le (V.Int 1) (V.Float 1.5));
  check bool_t "float/int mix" true (le (V.Float 0.5) (V.Int 1));
  check bool_t "int = float" true (V.equal (V.Int 2) (V.Float 2.0));
  check bool_t "numeric < text" true (le (V.Int 999) (V.Str "0"));
  check bool_t "text < bytes" true (le (V.Str "\xff") (V.Bytes "\x00"));
  check bool_t "bytes bytewise" true (le (V.Bytes "a") (V.Bytes "ab"))

let test_value_hash_consistent () =
  (* equal values must hash equally (Int 2 = Float 2.0) *)
  check int_t "hash agreement" (V.hash (V.Int 2)) (V.hash (V.Float 2.0));
  check int_t "-0.0 hashes as 0" (V.hash (V.Int 0)) (V.hash (V.Float (-0.0)));
  check int_t "min_int" (V.hash (V.Int min_int)) (V.hash (V.Float (-0x1p62)))

let test_value_literals () =
  check string_t "string escape" "'it''s'" (V.to_sql_literal (V.Str "it's"));
  check string_t "bytes hex" "X'00ff'" (V.to_sql_literal (V.Bytes "\x00\xff"));
  check string_t "null" "NULL" (V.to_sql_literal V.Null);
  (* literals must parse back to the same value *)
  List.iter
    (fun v ->
      match Reldb.Sql_parser.parse_expr (V.to_sql_literal v) with
      | Reldb.Sql_ast.E_const v' when V.equal v v' -> ()
      | Reldb.Sql_ast.E_neg (Reldb.Sql_ast.E_const (V.Int i)) when V.equal v (V.Int (-i)) -> ()
      | _ -> Alcotest.failf "literal roundtrip failed for %s" (V.to_string v))
    [ V.Null; V.Int 42; V.Int (-7); V.Str "a'b"; V.Bytes "\x01\xfe" ]

let test_ty_names () =
  List.iter
    (fun ty ->
      match V.ty_of_name (V.ty_name ty) with
      | Some ty' when ty = ty' -> ()
      | _ -> Alcotest.fail "type name roundtrip")
    [ V.Tint; V.Tfloat; V.Ttext; V.Tbytes ]

(* --- schema / tuple ----------------------------------------------------- *)

let test_schema_lookup () =
  let s = S.make [ ("id", V.Tint); ("Name", V.Ttext) ] in
  check bool_t "case-insensitive" true (S.find_opt s "name" = Some 1);
  check bool_t "missing" true (S.find_opt s "nope" = None);
  let q = S.rename_prefix "t" s in
  check bool_t "qualified" true (S.find_opt q "t.id" = Some 0)

let test_schema_check () =
  let s =
    [| S.column ~nullable:false "id" V.Tint; S.column "v" V.Ttext |]
  in
  check bool_t "ok" true (S.check_tuple s [| V.Int 1; V.Null |] = Ok ());
  check bool_t "not null" true
    (match S.check_tuple s [| V.Null; V.Null |] with Error _ -> true | Ok () -> false);
  check bool_t "type" true
    (match S.check_tuple s [| V.Str "x"; V.Null |] with Error _ -> true | Ok () -> false);
  check bool_t "arity" true
    (match S.check_tuple s [| V.Int 1 |] with Error _ -> true | Ok () -> false)

let test_tuple_key_order () =
  let a = [| V.Int 1 |] and ab = [| V.Int 1; V.Int 0 |] in
  check bool_t "prefix smaller" true (Tu.compare_key a ab < 0);
  check bool_t "projection" true
    (Tu.key [| 2; 0 |] [| V.Int 1; V.Int 2; V.Int 3 |] = [| V.Int 3; V.Int 1 |])

(* [compare_cols] reads in place the order [compare_key] gives the keys, so
   a batch sorted by it visits an index's entries in the tree's order *)
let prop_compare_cols =
  let value =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> V.Int i) (int_range (-3) 3);
          map (fun f -> V.Float f) (oneofl [ -1.5; 0.0; 2.0; nan ]);
          map (fun s -> V.Str s) (string_size ~gen:(char_range 'a' 'c') (int_range 0 2));
          return V.Null;
        ])
  in
  let gen =
    QCheck.Gen.(
      triple
        (array_size (int_range 0 4) (int_range 0 3))
        (array_repeat 4 value) (array_repeat 4 value))
  in
  let print (cols, a, b) =
    Printf.sprintf "[%s] %s / %s"
      (String.concat ";" (Array.to_list (Array.map string_of_int cols)))
      (Tu.to_string a) (Tu.to_string b)
  in
  QCheck.Test.make ~name:"tuple compare_cols is compare_key of the keys" ~count:2000
    (QCheck.make ~print gen)
    (fun (cols, a, b) ->
      Int.compare (Tu.compare_cols cols a b) 0
      = Int.compare (Tu.compare_key (Tu.key cols a) (Tu.key cols b)) 0)

(* A compiled filter holds exactly when the three-valued result is true:
   random AND / OR / NOT trees of column-constant and column-column
   comparisons (and IS NULL) over rows holding NULL, [Int 1] beside
   [Float 1.0], ints past 2^53 beside the float 2^53, and TEXT with 00 or ff
   bytes, so the in-place tests of INT and TEXT constants meet every other
   type and NULL on both sides. *)
let prop_compile_pred =
  let module E = Reldb.Expr in
  let value =
    QCheck.Gen.oneofl
      [
        V.Null; V.Int 1; V.Int 0; V.Int (-1); V.Float 1.0; V.Float 0.5; V.Int ((1 lsl 53) + 1);
        V.Float (Float.pow 2. 53.); V.Int max_int; V.Str ""; V.Str "\x00"; V.Str "\xff"; V.Str "a\x00b";
        V.Str "a"; V.Bytes "\x00"; V.Bytes "\xff";
      ]
  in
  let op = QCheck.Gen.oneofl E.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let col = QCheck.Gen.int_range 0 2 in
  let leaf =
    QCheck.Gen.(
      oneof
        [
          map3 (fun o c v -> E.Cmp (o, E.Col c, E.Const v)) op col value;
          map3 (fun o c v -> E.Cmp (o, E.Const v, E.Col c)) op col value;
          map3 (fun o a b -> E.Cmp (o, E.Col a, E.Col b)) op col col;
          map (fun c -> E.Is_null (E.Col c)) col;
        ])
  in
  let expr =
    QCheck.Gen.(
      sized_size (int_range 0 4)
      @@ fix (fun self n ->
             if n = 0 then leaf
             else
               frequency
                 [
                   (1, leaf);
                   (2, map2 (fun a b -> E.And (a, b)) (self (n / 2)) (self (n / 2)));
                   (2, map2 (fun a b -> E.Or (a, b)) (self (n / 2)) (self (n / 2)));
                   (1, map (fun a -> E.Not a) (self (n - 1)));
                 ]))
  in
  let print (e, tu) = Format.asprintf "%a over %s" E.pp e (Tu.to_string tu) in
  QCheck.Test.make ~name:"compile_pred is \"the three-valued result is true\"" ~count:3000
    (QCheck.make ~print QCheck.Gen.(pair expr (array_repeat 3 value)))
    (fun (e, tu) -> E.eval_bool e tu = (E.eval e tu = V.Int 1))

(* --- vec ---------------------------------------------------------------- *)

let test_vec () =
  let v = Reldb.Vec.create ~fill:0 in
  for i = 0 to 99 do
    ignore (Reldb.Vec.push v i)
  done;
  check int_t "length" 100 (Reldb.Vec.length v);
  Reldb.Vec.set v 50 999;
  check int_t "set/get" 999 (Reldb.Vec.get v 50);
  check int_t "fold" (4950 - 50 + 999) (Reldb.Vec.fold ( + ) 0 v);
  check int_t "get past the end reads the fill" 0 (Reldb.Vec.get v 100);
  check int_t "get below 0 reads the fill" 0 (Reldb.Vec.get v (-1));
  (match Reldb.Vec.set v 100 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "oob set");
  check int_t "to_seq" 100 (Seq.length (Reldb.Vec.to_seq v))

(* Growing past 256 slots with a young element to push must not empty the
   minor heap: Array.make over a young block would collect first. *)
let test_vec_grow_young () =
  let v = Reldb.Vec.create ~fill:None in
  for _ = 1 to 512 do
    ignore (Reldb.Vec.push v None)
  done;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  (* full at 512 slots: this push grows the array to 1024 *)
  ignore (Reldb.Vec.push v (Some (ref 513)));
  check int_t "no forced minor collection" before (Gc.quick_stat ()).Gc.minor_collections;
  check int_t "pushed" 513 (match Reldb.Vec.get v 512 with Some r -> !r | None -> 0)

(* --- physical operators -------------------------------------------------- *)

let mk_table name rows =
  let t = Reldb.Table.create name (S.make [ ("k", V.Tint); ("v", V.Ttext) ]) in
  List.iter
    (fun (k, s) -> ignore (Reldb.Table.insert t [| V.Int k; V.Str s |]))
    rows;
  t

let test_nl_join_cross () =
  let l = mk_table "l2" [ (1, "a"); (2, "b") ] in
  let r = mk_table "r2" [ (10, "x"); (20, "y"); (30, "z") ] in
  let join =
    Reldb.Plan.Nl_join
      { outer = Reldb.Plan.Seq_scan l; inner = Reldb.Plan.Seq_scan r; pred = None }
  in
  check int_t "cross product" 6 (Reldb.Exec.row_count join)

let test_limit_offset_operator () =
  let t = mk_table "t3" (List.init 10 (fun i -> (i, string_of_int i))) in
  let plan limit offset =
    Reldb.Plan.Limit
      {
        input = Reldb.Plan.Seq_scan t;
        limit = Option.map Reldb.Plan.count limit;
        offset = Reldb.Plan.count offset;
        by = [||];
      }
  in
  check int_t "limit" 3 (Reldb.Exec.row_count (plan (Some 3) 0));
  check int_t "offset" 4 (Reldb.Exec.row_count (plan None 6));
  check int_t "beyond end" 0 (Reldb.Exec.row_count (plan (Some 5) 99))

let test_distinct_operator () =
  let t = mk_table "t4" [ (1, "a"); (1, "a"); (2, "b"); (1, "a") ] in
  check int_t "distinct" 2
    (Reldb.Exec.row_count (Reldb.Plan.Distinct (Reldb.Plan.Seq_scan t)))

let test_project_expressions () =
  let t = mk_table "t5" [ (3, "x") ] in
  let plan =
    Reldb.Plan.Project
      ( [|
          (Reldb.Expr.Arith (Reldb.Expr.Mul, Reldb.Expr.Col 0, Reldb.Expr.Const (V.Int 2)), "dbl");
          (Reldb.Expr.Func (Reldb.Expr.Upper, [ Reldb.Expr.Col 1 ]), "up");
        |],
        Reldb.Plan.Seq_scan t )
  in
  match Reldb.Exec.run_list plan with
  | [ [| V.Int 6; V.Str "X" |] ] -> ()
  | _ -> Alcotest.fail "projection values"

let test_union_all_operator () =
  let t = mk_table "t6" [ (1, "a") ] in
  let u = Reldb.Plan.Union_all [ Reldb.Plan.Seq_scan t; Reldb.Plan.Seq_scan t ] in
  check int_t "union all" 2 (Reldb.Exec.row_count u)

let test_hash_join_residual () =
  let l = mk_table "hl" [ (1, "a"); (1, "b"); (2, "c") ] in
  let r = mk_table "hr" [ (1, "b"); (1, "z"); (2, "c") ] in
  (* equi on k, residual: values must also match (cols 1 and 3 joined) *)
  let join residual =
    Reldb.Plan.Hash_join
      {
        left = Reldb.Plan.Seq_scan l;
        right = Reldb.Plan.Seq_scan r;
        left_key = [| 0 |];
        right_key = [| 0 |];
        residual;
      }
  in
  check int_t "no residual" 5 (Reldb.Exec.row_count (join None));
  check int_t "with residual" 2
    (Reldb.Exec.row_count
       (join (Some (Reldb.Expr.Cmp (Reldb.Expr.Eq, Reldb.Expr.Col 1, Reldb.Expr.Col 3)))))

let test_sort_stability () =
  (* equal keys keep input order (stable sort) *)
  let t = mk_table "ss" [ (1, "first"); (1, "second"); (0, "zero"); (1, "third") ] in
  let plan =
    Reldb.Plan.Sort
      { input = Reldb.Plan.Seq_scan t; keys = [ (Reldb.Expr.Col 0, Reldb.Plan.Asc) ] }
  in
  match Reldb.Exec.run_list plan with
  | [ [| _; V.Str "zero" |]; [| _; V.Str "first" |]; [| _; V.Str "second" |];
      [| _; V.Str "third" |] ] ->
      ()
  | _ -> Alcotest.fail "sort not stable"

let test_string_aggregates () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE w (s TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO w VALUES ('pear'), ('apple'), ('plum')");
  match Reldb.Db.query db "SELECT MIN(s), MAX(s), COUNT(s) FROM w" with
  | [ [| V.Str "apple"; V.Str "plum"; V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "string min/max"

(* --- planner access paths ------------------------------------------------ *)

let test_access_path_choice () =
  let t =
    Reldb.Table.create "ap"
      (S.make [ ("a", V.Tint); ("b", V.Tint); ("c", V.Ttext) ])
  in
  ignore (Reldb.Table.create_index t ~name:"ap_ab" ~cols:[| 0; 1 |] ~unique:false);
  for i = 0 to 49 do
    ignore (Reldb.Table.insert t [| V.Int (i mod 5); V.Int i; V.Str "x" |])
  done;
  let pred s = Some (Reldb.Planner.resolve_expr_for_table t (Reldb.Sql_parser.parse_expr s)) in
  let descr s = Reldb.Planner.access_path_description t (pred s) in
  check bool_t "eq prefix uses index" true
    (Astring_contains.contains (descr "a = 3") "IndexScan");
  check bool_t "eq+range uses index" true
    (Astring_contains.contains (descr "a = 3 AND b > 10") "IndexScan");
  check bool_t "non-prefix falls back" true
    (Astring_contains.contains (descr "b = 10") "SeqScan");
  check bool_t "null eq not indexed" true
    (Astring_contains.contains (descr "a = NULL") "SeqScan");
  (* candidates agree with a full scan + filter *)
  let naive s =
    let p = Option.get (pred s) in
    Seq.filter (fun (_, tu) -> Reldb.Expr.eval_bool p tu) (Reldb.Table.scan t)
    |> List.of_seq |> List.map fst |> List.sort compare
  in
  let via_planner s =
    Reldb.Planner.table_candidates t (pred s)
    |> List.of_seq |> List.map fst |> List.sort compare
  in
  List.iter
    (fun s -> check (Alcotest.list int_t) s (naive s) (via_planner s))
    [ "a = 3"; "a = 3 AND b > 10"; "a = 3 AND b <= 20"; "b = 10"; "a >= 4" ]

let test_table_rollback_on_unique () =
  let t = Reldb.Table.create "u" (S.make [ ("k", V.Tint) ]) in
  ignore (Reldb.Table.create_index t ~name:"u_k" ~cols:[| 0 |] ~unique:true);
  ignore (Reldb.Table.insert t [| V.Int 1 |]);
  (match Reldb.Table.insert t [| V.Int 1 |] with
  | exception Reldb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "dup accepted");
  check int_t "row count intact" 1 (Reldb.Table.row_count t);
  (* update that would violate restores the original *)
  let rowid, _ = List.hd (List.of_seq (Reldb.Table.scan t)) in
  ignore (Reldb.Table.insert t [| V.Int 2 |]);
  (match Reldb.Table.update t rowid [| V.Int 2 |] with
  | exception Reldb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "violating update accepted");
  check int_t "both rows" 2 (Reldb.Table.row_count t);
  check bool_t "old value restored" true
    (List.exists
       (fun (_, tu) -> tu.(0) = V.Int 1)
       (List.of_seq (Reldb.Table.scan t)))

(* A multi-row UPDATE that rewrites its keys in place in two indexes (a
   unique one and one with a rowid suffix) and then hits a unique violation
   in a third: outside a transaction, and inside one after an UPDATE that
   succeeded, the statement raises Sql_error and leaves the rows, every
   index's entries and Db.check as they were; rolling the transaction back
   then restores the state before it. *)
let test_in_place_rollback () =
  let db = Reldb.Db.create () in
  List.iter
    (fun s -> ignore (Reldb.Db.exec db s))
    [
      "CREATE TABLE ip (a INT, b INT, c INT)";
      "CREATE UNIQUE INDEX ip_a ON ip (a)";
      "CREATE INDEX ip_c ON ip (c, a)";
      "CREATE UNIQUE INDEX ip_b ON ip (b)";
    ];
  for i = 0 to 39 do
    ignore
      (Reldb.Db.exec db
         (Printf.sprintf "INSERT INTO ip VALUES (%d, %d, %d)" (10 * i) i (i mod 3)))
  done;
  let tbl = Reldb.Db.table db "ip" in
  let state () =
    ( List.of_seq (Reldb.Table.scan tbl),
      List.map
        (fun idx -> List.of_seq (Reldb.Btree.to_seq idx.Reldb.Table.tree))
        (Reldb.Table.indexes tbl) )
  in
  let same what before =
    check bool_t (what ^ ": rows and index entries") true (state () = before);
    check bool_t (what ^ ": Db.check") true (Reldb.Db.check db = Ok ())
  in
  (* rows 10..20 shift [a] up by 5 in place (in ip_a and ip_c); row 20's
     [b] becomes 21, which row 21 holds *)
  let failing () =
    match
      Reldb.Db.exec db "UPDATE ip SET a = a + 5, b = b + 1 WHERE a >= 100 AND a <= 200"
    with
    | exception Reldb.Db.Sql_error _ -> ()
    | _ -> Alcotest.fail "duplicate b accepted"
  in
  let before = state () in
  failing ();
  same "outside a transaction" before;
  Reldb.Db.begin_txn db;
  ignore (Reldb.Db.exec db "UPDATE ip SET a = a + 1, c = c + 3 WHERE a >= 50");
  let shifted = state () in
  check bool_t "the first UPDATE moved keys" true (shifted <> before);
  failing ();
  same "inside a transaction" shifted;
  Reldb.Db.rollback db;
  same "after rollback" before

(* UPDATEs of more than 256 rows inside a transaction, then a rollback.
   The table has 600 rows; each index takes its rows in another order: in
   access-path order (lu_a under a range on [a]), picked out of a walk
   over the index (lu_c when at least a fourteenth of its entries
   change), sorted (lu_c when fewer change), or reversed (half the keys of lu_b,
   which the rewrite in place refuses and moves). The second statement
   shifts [a] down by the spacing of its values, so each new key is
   another row's old one: the rollback must remove every new image before
   it restores any old one. Each statement leaves Db.check green, and the
   rollback restores every row and index entry. *)
let test_large_update_rollback () =
  let db = Reldb.Db.create () in
  List.iter
    (fun s -> ignore (Reldb.Db.exec db s))
    [
      "CREATE TABLE lu (a INT, b INT, c INT)";
      "CREATE UNIQUE INDEX lu_a ON lu (a)";
      "CREATE INDEX lu_c ON lu (c, a)";
      "CREATE UNIQUE INDEX lu_b ON lu (b)";
    ];
  for i = 0 to 599 do
    ignore
      (Reldb.Db.exec db
         (Printf.sprintf "INSERT INTO lu VALUES (%d, %d, %d)" (10 * i) i (i mod 7)))
  done;
  let tbl = Reldb.Db.table db "lu" in
  let state () =
    ( List.of_seq (Reldb.Table.scan tbl),
      List.map
        (fun idx -> List.of_seq (Reldb.Btree.to_seq idx.Reldb.Table.tree))
        (Reldb.Table.indexes tbl) )
  in
  let before = state () in
  Reldb.Db.begin_txn db;
  List.iter
    (fun (sql, rows) ->
      (match Reldb.Db.exec db sql with
      | Reldb.Db.Affected n -> check int_t (sql ^ ": rows") rows n
      | _ -> Alcotest.fail "not an UPDATE result");
      check bool_t (sql ^ ": Db.check") true (Reldb.Db.check db = Ok ()))
    [
      ("UPDATE lu SET a = a + 3, c = c + 1 WHERE a >= 1000", 500);
      ("UPDATE lu SET a = a - 10, c = c - 2 WHERE a >= 1000", 500);
      ("UPDATE lu SET b = 0 - b, c = 9 - c WHERE a >= 3000", 299);
      ("UPDATE lu SET c = c + 5 WHERE a >= 5700", 29);
    ];
  check int_t "row ids and images" 600 (Reldb.Table.row_count tbl);
  check bool_t "the updates changed rows" true (state () <> before);
  Reldb.Db.rollback db;
  check bool_t "rows and index entries restored" true (state () = before);
  check bool_t "Db.check after rollback" true (Reldb.Db.check db = Ok ())

(* Stored rows are never written in place: a snapshot taken before an
   UPDATE still holds the old values after it. *)
let test_snapshot_survives_update () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE sv (a INT, b TEXT)");
  ignore (Reldb.Db.exec db "CREATE UNIQUE INDEX sv_a ON sv (a)");
  for i = 0 to 299 do
    ignore (Reldb.Db.exec db (Printf.sprintf "INSERT INTO sv VALUES (%d, 'v%d')" i i))
  done;
  let encode snap = List.map Reldb.Wal.encode snap in
  let snap = Reldb.Db.snapshot db in
  let taken = encode snap in
  ignore (Reldb.Db.exec db "UPDATE sv SET a = a + 1, b = 'w' WHERE a >= 0");
  check bool_t "the snapshot is unchanged" true (encode snap = taken);
  check bool_t "a new snapshot differs" true (encode (Reldb.Db.snapshot db) <> taken)

let test_truncate () =
  let t = mk_table "tr" [ (1, "a"); (2, "b") ] in
  ignore (Reldb.Table.create_index t ~name:"tr_k" ~cols:[| 0 |] ~unique:true);
  Reldb.Table.truncate t;
  check int_t "empty" 0 (Reldb.Table.row_count t);
  (* indexes emptied too: reinserting old keys must work, and the slots are
     reset, so the refill starts at row id 0 *)
  check int_t "rowid restarts" 0 (Reldb.Table.insert t [| V.Int 1; V.Str "z" |]);
  check int_t "reuse" 1 (Reldb.Table.row_count t);
  check bool_t "index agrees" true
    (Option.is_some
       (Reldb.Btree.find (Option.get (Reldb.Table.find_index t "tr_k")).Reldb.Table.tree
          (Reldb.Key.encode [| V.Int 1 |])))

let test_render () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE r (a INT, b TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO r VALUES (1, 'x')");
  let s = Reldb.Db.render (Reldb.Db.exec db "SELECT a, b FROM r") in
  check bool_t "has header" true (Astring_contains.contains s "| a ");
  check bool_t "has row" true (Astring_contains.contains s "| 1 ");
  check bool_t "row count" true (Astring_contains.contains s "(1 rows)")

let test_catalog () =
  let c = Reldb.Catalog.create () in
  let _ = Reldb.Catalog.create_table c "T1" (S.make [ ("a", V.Tint) ]) in
  check bool_t "case-insensitive lookup" true
    (Reldb.Catalog.find_table c "t1" <> None);
  (match Reldb.Catalog.create_table c "t1" (S.make []) with
  | exception Reldb.Catalog.Catalog_error _ -> ()
  | _ -> Alcotest.fail "dup table accepted");
  Reldb.Catalog.drop_table c "T1";
  check bool_t "dropped" true (Reldb.Catalog.find_table c "t1" = None);
  (* scratch relations: found by their own lookup, not a table, no bump *)
  let v = Reldb.Catalog.version c in
  let schema = S.make [ ("id", V.Tint) ] in
  let s1 = Reldb.Catalog.scratch c "ctx" schema in
  check bool_t "same relation" true (Reldb.Catalog.scratch c "CTX" schema == s1);
  check int_t "no bump" v (Reldb.Catalog.version c);
  check bool_t "not a table" true
    (Reldb.Catalog.find_table c "ctx" = None && Reldb.Catalog.tables c = []);
  check bool_t "found" true
    (match Reldb.Catalog.find_scratch c "ctx" with Some t -> t == s1 | None -> false);
  (match Reldb.Catalog.create_table c "ctx" schema with
  | exception Reldb.Catalog.Catalog_error _ -> ()
  | _ -> Alcotest.fail "table shadowing a scratch relation accepted");
  match Reldb.Catalog.scratch c "ctx" (S.make [ ("v", V.Ttext) ]) with
  | exception Reldb.Catalog.Catalog_error _ -> ()
  | _ -> Alcotest.fail "scratch relation redefined"

let test_with_scratch () =
  let db = Reldb.Db.create () in
  let cols = [ ("id", V.Tint) ] in
  let fill rows f = Reldb.Db.with_scratch db ~name:"ctx" ~cols rows f in
  let sql_error f =
    match f () with exception Reldb.Db.Sql_error _ -> true | _ -> false
  in
  let count () = List.length (Reldb.Db.query db "SELECT id FROM ctx") in
  check int_t "filled for the statement" 2
    (fill [ [| V.Int 1 |]; [| V.Int 2 |] ] count);
  check int_t "empty afterwards" 0 (count ());
  check bool_t "nested fill rejected" true
    (sql_error (fun () -> fill [ [| V.Int 1 |] ] (fun () -> fill [ [| V.Int 2 |] ] count)));
  check bool_t "ill-typed row rejected" true
    (sql_error (fun () -> fill [ [| V.Int 1 |]; [| V.Str "x" |] ] count));
  check int_t "empty after errors" 0 (count ());
  check bool_t "other columns rejected" true
    (sql_error (fun () -> Reldb.Db.with_scratch db ~name:"ctx" ~cols:[ ("v", V.Ttext) ] [] count));
  check bool_t "no DML" true (sql_error (fun () -> Reldb.Db.exec db "INSERT INTO ctx VALUES (1)"));
  check bool_t "no DROP" true (sql_error (fun () -> Reldb.Db.exec db "DROP TABLE ctx"));
  check bool_t "no CREATE" true
    (sql_error (fun () -> Reldb.Db.exec db "CREATE TABLE ctx (id INT)"));
  check int_t "no snapshot" 0 (List.length (Reldb.Db.snapshot db))

let test_expr_columns_shift () =
  let e =
    Reldb.Sql_parser.parse_expr "x" |> fun _ ->
    Reldb.Expr.And
      ( Reldb.Expr.Cmp (Reldb.Expr.Eq, Reldb.Expr.Col 0, Reldb.Expr.Col 3),
        Reldb.Expr.Is_null (Reldb.Expr.Col 1) )
  in
  check (Alcotest.list int_t) "columns" [ 0; 1; 3 ] (Reldb.Expr.columns e);
  check (Alcotest.list int_t) "shifted" [ 5; 6; 8 ]
    (Reldb.Expr.columns (Reldb.Expr.shift_columns 5 e));
  check (Alcotest.list int_t) "conjuncts" [ 2 ]
    (List.map (fun _ -> 2) (Reldb.Expr.conjuncts e) |> List.sort_uniq compare)

(* [Value.equal a b] implies [Value.hash a = Value.hash b], across the
   cases where equal values differ in representation: [Int n] and
   [Float n.0] (ints beyond 2^53 included), [-0.0] and [0.0], NaNs, and at
   the ends of the int range: [min_int], [max_int], floats at and just
   inside +-2^62, and integral floats beyond 2^53 *)
let prop_hash_consistent =
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          map (fun i -> V.Int i) (int_range (-5) 5);
          map (fun i -> V.Int i) int;
          map (fun i -> V.Float (float_of_int i)) (int_range (-5) 5);
          map (fun f -> V.Float f) float;
          map (fun i -> V.Float (float_of_int i)) int;
          oneofl [ V.Float 0.0; V.Float (-0.0); V.Float nan; V.Float (-.nan); V.Null ];
          oneofl
            [ V.Int min_int; V.Int max_int; V.Float 0x1p62; V.Float (-0x1p62); V.Float (Float.pred 0x1p62);
              V.Float (Float.succ (-0x1p62)); V.Float 0x1p53; V.Float (0x1p53 +. 2.) ];
          map (fun s -> V.Str s) (string_size (int_range 0 3));
          map (fun s -> V.Bytes s) (string_size (int_range 0 3));
        ])
  in
  (* the second value is often the first's numeric twin *)
  let twin = function
    | V.Int i -> V.Float (float_of_int i)
    | V.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 -> V.Int (int_of_float f)
    | V.Float f -> V.Float (-.f)
    | v -> v
  in
  let gen =
    QCheck.Gen.(
      gen_value >>= fun a -> map (fun b -> (a, b)) (oneof [ gen_value; return (twin a) ]))
  in
  QCheck.Test.make ~name:"equal values hash alike" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> V.to_sql_literal a ^ ", " ^ V.to_sql_literal b) gen)
    (fun (a, b) -> (not (V.equal a b)) || V.hash a = V.hash b)

(* ... and spreads values that differ: a hash table of ids must not keep
   them in one bucket *)
let test_hash_spread () =
  let distinct l = List.length (List.sort_uniq compare (List.map V.hash l)) in
  check int_t "ints" 100 (distinct (List.init 100 (fun i -> V.Int (1000 + (37 * i)))));
  check int_t "floats" 100 (distinct (List.init 100 (fun i -> V.Float (0.5 +. float_of_int i))));
  check int_t "strings" 100 (distinct (List.init 100 (fun i -> V.Str (string_of_int i))))

(* The node-id table's buckets stay short for ids spaced by a power of
   two: 4,096 ids fill 2,048 buckets, two per bucket on average *)
let test_id_table_spread () =
  List.iter
    (fun stride ->
      let t = Ordered_xml.Node_row.Tbl.create 64 in
      for i = 0 to 4095 do Ordered_xml.Node_row.Tbl.replace t (1 + (i * stride)) () done;
      let longest = (Ordered_xml.Node_row.Tbl.stats t).Hashtbl.max_bucket_length in
      check bool_t (Printf.sprintf "stride %d: longest bucket %d <= 12" stride longest) true (longest <= 12))
    [ 1; 8; 64; 1024 ]

let tests =
  ( "reldb-units",
    [
      Alcotest.test_case "value ordering" `Quick test_value_order;
      Alcotest.test_case "value hashing" `Quick test_value_hash_consistent;
      QCheck_alcotest.to_alcotest prop_hash_consistent;
      Alcotest.test_case "value hashes spread" `Quick test_hash_spread;
      Alcotest.test_case "id table spreads strided ids" `Quick test_id_table_spread;
      Alcotest.test_case "value literals" `Quick test_value_literals;
      Alcotest.test_case "type names" `Quick test_ty_names;
      Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
      Alcotest.test_case "schema checking" `Quick test_schema_check;
      Alcotest.test_case "tuple keys" `Quick test_tuple_key_order;
      QCheck_alcotest.to_alcotest prop_compare_cols;
      QCheck_alcotest.to_alcotest prop_compile_pred;
      Alcotest.test_case "vec" `Quick test_vec;
      Alcotest.test_case "vec grows without a forced collection" `Quick test_vec_grow_young;
      Alcotest.test_case "nested-loop cross join" `Quick test_nl_join_cross;
      Alcotest.test_case "limit/offset operator" `Quick test_limit_offset_operator;
      Alcotest.test_case "distinct operator" `Quick test_distinct_operator;
      Alcotest.test_case "project expressions" `Quick test_project_expressions;
      Alcotest.test_case "union-all operator" `Quick test_union_all_operator;
      Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
      Alcotest.test_case "sort stability" `Quick test_sort_stability;
      Alcotest.test_case "string aggregates" `Quick test_string_aggregates;
      Alcotest.test_case "access-path choice" `Quick test_access_path_choice;
      Alcotest.test_case "constraint rollback" `Quick test_table_rollback_on_unique;
      Alcotest.test_case "in-place keys roll back" `Quick test_in_place_rollback;
      Alcotest.test_case "large UPDATE rolls back" `Quick test_large_update_rollback;
      Alcotest.test_case "snapshot survives UPDATE" `Quick test_snapshot_survives_update;
      Alcotest.test_case "truncate" `Quick test_truncate;
      Alcotest.test_case "result rendering" `Quick test_render;
      Alcotest.test_case "catalog" `Quick test_catalog;
      Alcotest.test_case "scratch relations" `Quick test_with_scratch;
      Alcotest.test_case "expr columns/shift" `Quick test_expr_columns_shift;
    ] )
