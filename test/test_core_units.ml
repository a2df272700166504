(* Unit coverage of the smaller core/xml building blocks: the PRNG, edge-row
   decoding, scratch relations, encoding descriptors, workload presets. *)

module O = Ordered_xml
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* --- rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Xmllib.Rng.create 99 and b = Xmllib.Rng.create 99 in
  let sa = List.init 50 (fun _ -> Xmllib.Rng.int a 1000) in
  let sb = List.init 50 (fun _ -> Xmllib.Rng.int b 1000) in
  check (Alcotest.list int_t) "same seed, same stream" sa sb;
  let c = Xmllib.Rng.create 100 in
  let sc = List.init 50 (fun _ -> Xmllib.Rng.int c 1000) in
  check bool_t "different seed differs" true (sa <> sc)

let test_rng_ranges () =
  let rng = Xmllib.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Xmllib.Rng.int_in rng 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "int_in out of range";
    let f = Xmllib.Rng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.fail "float out of range"
  done;
  (match Xmllib.Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bound accepted");
  let arr = [| 1; 2; 3; 4; 5 |] in
  Xmllib.Rng.shuffle rng arr;
  check (Alcotest.list int_t) "shuffle is a permutation" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (Array.to_list arr))

let test_rng_copy () =
  let a = Xmllib.Rng.create 7 in
  ignore (Xmllib.Rng.int a 10);
  let b = Xmllib.Rng.copy a in
  check int_t "copy continues identically" (Xmllib.Rng.int a 1_000_000)
    (Xmllib.Rng.int b 1_000_000)

(* --- encoding descriptors --------------------------------------------- *)

let test_encoding_names () =
  List.iter
    (fun enc ->
      match O.Encoding.of_name (O.Encoding.name enc) with
      | Some e when e = enc -> ()
      | _ -> Alcotest.failf "name roundtrip for %s" (O.Encoding.name enc))
    O.Encoding.all;
  check bool_t "unknown name" true (O.Encoding.of_name "nope" = None);
  (* table names are distinct per encoding *)
  let names = List.map (fun e -> O.Encoding.table_name ~doc:"d" e) O.Encoding.all in
  check int_t "distinct table names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- node rows --------------------------------------------------------- *)

let test_node_row_decode () =
  let tu =
    [|
      V.Int 7; V.Int 3; V.Int 1; V.Null; V.Str "hello"; V.Null; V.Int 4;
    |]
  in
  let r = O.Node_row.of_tuple O.Encoding.Local tu in
  check int_t "id" 7 r.O.Node_row.id;
  check bool_t "parent" true (r.O.Node_row.parent = Some 3);
  check bool_t "kind" true (r.O.Node_row.kind = O.Doc_index.Text_node);
  check string_t "value" "hello" r.O.Node_row.value;
  (match r.O.Node_row.ord with
  | O.Node_row.Ol 4 -> ()
  | _ -> Alcotest.fail "ord");
  (* ordering comparators *)
  let mk o = { r with O.Node_row.ord = O.Node_row.Ol o } in
  check bool_t "compare_ord" true (O.Node_row.compare_ord (mk 1) (mk 2) < 0);
  (* dewey accessor on the wrong encoding *)
  match O.Node_row.dewey r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dewey on local row"

(* --- scratch relations ---------------------------------------------------- *)

module S = O.Api.Store

let scratch_names = [ "ctx_global"; "ctx_local"; "ctx_dewey"; "ctx_ids" ]

let scratch_empty db =
  List.for_all
    (fun n ->
      match Reldb.Catalog.find_scratch (Reldb.Db.catalog db) n with
      | None -> true
      | Some t -> Reldb.Table.row_count t = 0)
    scratch_names

let scratch_hidden db =
  let tables =
    List.map Reldb.Table.name (Reldb.Catalog.tables (Reldb.Db.catalog db))
  in
  let snapshot = Reldb.Db.snapshot db in
  List.for_all
    (fun n ->
      (not (List.mem n tables))
      && List.for_all
           (List.for_all (function
             | Reldb.Wal.Rows (t, _) -> t <> n
             | Reldb.Wal.Exec (sql, _) -> not (Astring_contains.contains sql n)))
           snapshot)
    scratch_names

(* Q1-Q7, Q8's subtree and serialization, and the parent of the root, an
   ancestor, a following and a preceding query. *)
let invariant_reads store =
  let paths =
    List.filter_map (fun (q : O.Workload.query) -> q.O.Workload.q_xpath)
      O.Workload.queries
    @ [
        "/site/..";
        "//bidder/increase/ancestor::open_auction";
        "/site/people/person[2]/following::person";
        "/site/closed_auctions/preceding::item";
      ]
  in
  List.iter
    (fun p ->
      if S.query_ids store p = [] && p <> "/site/.." then
        Alcotest.failf "%s selects nothing" p)
    paths;
  let id = List.hd (S.query_ids store O.Workload.q8_target) in
  ignore (S.subtree store ~id);
  ignore (S.serialize store ~id)

let test_scratch_relations () =
  let doc = Xmllib.Generator.xmark ~seed:5 ~scale:1 () in
  List.iter
    (fun enc ->
      let name = O.Encoding.name enc in
      let db = Reldb.Db.create () in
      let store = S.create db ~name:"s" enc doc in
      let version () = Reldb.Catalog.version (Reldb.Db.catalog db) in
      let misses () =
        let _, m, _ = Reldb.Db.plan_cache_stats db in
        m
      in
      let v0 = version () in
      invariant_reads store;
      S.atomically store (fun () -> invariant_reads store);
      let m0 = misses () in
      invariant_reads store;
      S.atomically store (fun () -> invariant_reads store);
      check int_t (name ^ ": no catalog bump") v0 (version ());
      check int_t (name ^ ": second pass all cached") m0 (misses ());
      check bool_t (name ^ ": scratch empty") true (scratch_empty db);
      check bool_t (name ^ ": scratch hidden") true (scratch_hidden db);
      (* emptied when the statement's caller raises ... *)
      (match
         O.Node_row.with_relation db O.Node_row.ids_relation
           [ [| V.Int 1 |]; [| V.Int 2 |] ]
           (fun () -> failwith "boom")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      check bool_t (name ^ ": empty after raise") true (scratch_empty db);
      (* ... and when an atomic block rolls back *)
      let before = S.serialize store ~id:(S.root_id store) in
      (match
         S.atomically store (fun () ->
             let text = List.hd (S.query_ids store "//bidder/increase/text()") in
             ignore (S.set_text store ~id:text "changed");
             invariant_reads store;
             failwith "roll back")
       with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "exception swallowed");
      check bool_t (name ^ ": empty after rollback") true (scratch_empty db);
      check string_t (name ^ ": rolled back") before
        (S.serialize store ~id:(S.root_id store));
      check int_t (name ^ ": still no bump") v0 (version ()))
    O.Encoding.all;
  (* durable stores: no trace in the checkpoint or the WAL *)
  Test_wal.with_dir (fun dir ->
      let db = Reldb.Db.open_dir dir in
      let stores =
        List.map (fun enc -> S.create db ~name:"s" enc doc) O.Encoding.all
      in
      Reldb.Db.checkpoint db;
      List.iter
        (fun store ->
          invariant_reads store;
          S.atomically store (fun () ->
              let text = List.hd (S.query_ids store "//bidder/increase/text()") in
              ignore (S.set_text store ~id:text "durable");
              invariant_reads store))
        stores;
      Reldb.Db.checkpoint db;
      List.iter invariant_reads stores;
      (let store = List.hd stores in
       let text = List.hd (S.query_ids store "//text()") in
       ignore (S.set_text store ~id:text "after"));
      Reldb.Db.close db;
      Array.iter
        (fun file ->
          let bytes = Test_wal.read_bytes (Filename.concat dir file) in
          List.iter
            (fun n ->
              check bool_t (file ^ " has no " ^ n) false
                (Astring_contains.contains bytes n))
            scratch_names)
        (Sys.readdir dir);
      let db = Reldb.Db.open_dir dir in
      List.iter
        (fun enc ->
          let store = S.open_existing db ~name:"s" enc in
          check bool_t (O.Encoding.name enc ^ ": check after reopen") true
            (S.check store = Ok ());
          invariant_reads store)
        O.Encoding.all;
      check bool_t "reopened: scratch hidden" true (scratch_hidden db);
      Reldb.Db.close db)

(* --- workload presets --------------------------------------------------- *)

let test_workload () =
  check int_t "eight queries" 8 (List.length O.Workload.queries);
  let with_paths =
    List.filter (fun (q : O.Workload.query) -> q.O.Workload.q_xpath <> None)
      O.Workload.queries
  in
  (* every query parses *)
  List.iter
    (fun (q : O.Workload.query) ->
      match q.O.Workload.q_xpath with
      | Some xp -> ignore (O.Xpath_parser.parse xp)
      | None -> ())
    with_paths;
  ignore (O.Xpath_parser.parse O.Workload.q8_target);
  ignore (O.Xpath_parser.parse O.Workload.container_path);
  check int_t "positions" 3 (List.length O.Workload.positions);
  check int_t "front" 1 (O.Workload.insertion_pos O.Workload.Front ~sibling_count:10);
  check int_t "middle" 6 (O.Workload.insertion_pos O.Workload.Middle ~sibling_count:10);
  check int_t "back" 11 (O.Workload.insertion_pos O.Workload.Back ~sibling_count:10)

let test_deep_generator () =
  let doc = Xmllib.Generator.deep ~depth:50 ~branch:3 () in
  let stats = Xmllib.Stats.compute doc in
  check bool_t "deep enough" true (stats.Xmllib.Stats.max_depth >= 50);
  (* roundtrips through shredding like everything else *)
  let db = Reldb.Db.create () in
  ignore (O.Shred.shred db ~doc:"deep" O.Encoding.Dewey_enc doc);
  check bool_t "deep roundtrip" true
    (Xmllib.Types.equal_document doc
       (O.Reconstruct.document db ~doc:"deep" O.Encoding.Dewey_enc))

let tests =
  ( "core-units",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "encoding descriptors" `Quick test_encoding_names;
      Alcotest.test_case "node row decoding" `Quick test_node_row_decode;
      Alcotest.test_case "scratch relations invariant" `Quick
        test_scratch_relations;
      Alcotest.test_case "workload presets" `Quick test_workload;
      Alcotest.test_case "deep generator" `Quick test_deep_generator;
    ] )
