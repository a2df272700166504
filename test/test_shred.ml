(* Shredding, reconstruction, storage: invariants per encoding. *)

module O = Ordered_xml
module T = Xmllib.Types
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let sample =
  Xmllib.Parser.parse_document
    {|<a x="1"><b>t1</b><b p="q">t2<d/>t3</b><!--c--><?pi data?></a>|}

let shred_all doc =
  let db = Reldb.Db.create () in
  (db, List.map (fun enc -> (enc, O.Shred.shred db ~doc:"t" enc doc)) O.Encoding.all)

let test_row_counts () =
  let db, loaded = shred_all sample in
  let idx = O.Doc_index.build sample in
  List.iter
    (fun (enc, n) ->
      let table = Reldb.Db.table db (O.Encoding.table_name ~doc:"t" enc) in
      check int_t (O.Encoding.name enc ^ " loaded") (O.Doc_index.length idx) n;
      check int_t
        (O.Encoding.name enc ^ " rows")
        (O.Doc_index.length idx)
        (Reldb.Table.row_count table))
    loaded

let test_interval_nesting () =
  let db, _ = shred_all sample in
  List.iter
    (fun enc ->
      let rows =
        Reldb.Db.query db
          (Printf.sprintf "SELECT id, parent, g_order, g_end FROM %s"
             (O.Encoding.table_name ~doc:"t" enc))
      in
      let by_id = Hashtbl.create 16 in
      List.iter
        (fun r ->
          match r with
          | [| V.Int id; _; V.Int o; V.Int e |] -> Hashtbl.add by_id id (o, e)
          | _ -> Alcotest.fail "row shape")
        rows;
      List.iter
        (fun r ->
          match r with
          | [| V.Int _; V.Int p; V.Int o; V.Int e |] ->
              let po, pe = Hashtbl.find by_id p in
              if not (po < o && e < pe) then
                Alcotest.failf "%s: child interval (%d,%d) not inside (%d,%d)"
                  (O.Encoding.name enc) o e po pe
          | [| V.Int _; V.Null; V.Int o; V.Int e |] ->
              if not (o < e) then Alcotest.fail "root interval"
          | _ -> Alcotest.fail "row shape")
        rows)
    [ O.Encoding.Global; O.Encoding.Global_gap ]

(* the stored (g_order, g_end) of every id, loaded with the given gap *)
let intervals enc ?gap doc =
  let db = Reldb.Db.create () in
  let n = O.Shred.shred ?gap db ~doc:"g" enc doc in
  let out = Array.make n (0, 0) in
  List.iter
    (function
      | [| V.Int id; V.Int o; V.Int e |] -> out.(id) <- (o, e)
      | _ -> Alcotest.fail "row shape")
    (Reldb.Db.query db
       (Printf.sprintf "SELECT id, g_order, g_end FROM %s"
          (O.Encoding.table_name ~doc:"g" enc)));
  out

let test_gap_numbering_spacing () =
  let dense = intervals O.Encoding.Global sample in
  let gapped = intervals O.Encoding.Global_gap ~gap:32 sample in
  let n = Array.length dense in
  (* dense uses exactly 2n values *)
  let all_dense =
    Array.to_list dense |> List.concat_map (fun (a, b) -> [ a; b ])
  in
  check int_t "dense max" (2 * n) (List.fold_left max 0 all_dense);
  (* gapped preserves relative order *)
  Array.iteri
    (fun i (o, _) ->
      Array.iteri
        (fun j (o', _) ->
          if compare dense.(i) dense.(j) < 0 && not (o < o' || i = j) then
            Alcotest.fail "gapped order differs from dense")
        gapped
      |> ignore)
    gapped
  |> ignore;
  (* endpoints spaced by the gap *)
  let sorted = List.sort compare (Array.to_list gapped |> List.concat_map (fun (a, b) -> [ a; b ])) in
  let rec spaced = function
    | a :: (b :: _ as rest) ->
        if b - a <> 32 then Alcotest.failf "spacing %d" (b - a);
        spaced rest
    | _ -> ()
  in
  spaced sorted

let test_local_unique_sibling_ranks () =
  let db, _ = shred_all sample in
  let rows =
    Reldb.Db.query db "SELECT parent, l_order, COUNT(*) AS n FROM t_local \
                       GROUP BY parent, l_order"
  in
  List.iter
    (fun r ->
      match r.(2) with
      | V.Int 1 -> ()
      | _ -> Alcotest.fail "duplicate (parent, l_order)")
    rows;
  (match Reldb.Db.query db "SELECT l_order FROM t_local WHERE parent IS NULL" with
  | [ [| V.Int 1 |] ] -> ()
  | _ -> Alcotest.fail "the root's l_order is not 1");
  (* children are 1..n dense, attrs negative *)
  let kid_orders =
    Reldb.Db.query db
      "SELECT l_order FROM t_local WHERE parent = 0 AND l_order > 0 ORDER BY l_order"
  in
  check
    (Alcotest.list int_t)
    "dense ranks" [ 1; 2; 3; 4 ]
    (List.map (fun r -> match r.(0) with V.Int i -> i | _ -> 0) kid_orders)

let test_dewey_paths_sorted () =
  let db, _ = shred_all sample in
  let idx = O.Doc_index.build sample in
  let rows =
    Reldb.Db.query db "SELECT id, path FROM t_dewey ORDER BY path"
  in
  (* ordering by path must equal ordering by id (= record order) *)
  let ids = List.map (fun r -> match r.(0) with V.Int i -> i | _ -> -1) rows in
  check (Alcotest.list int_t) "path order = doc order"
    (List.init (O.Doc_index.length idx) (fun i -> i))
    ids

let test_nval_population () =
  let db = Reldb.Db.create () in
  let doc =
    Xmllib.Parser.parse_document {|<a n="42"><b>3.5</b><c>abc</c></a>|}
  in
  ignore (O.Shred.shred db ~doc:"n" O.Encoding.Global doc);
  check int_t "numeric rows" 2
    (List.length (Reldb.Db.query db "SELECT id FROM n_global WHERE nval IS NOT NULL"));
  match Reldb.Db.query db "SELECT nval FROM n_global WHERE value = '3.5'" with
  | [ [| V.Float 3.5 |] ] -> ()
  | _ -> Alcotest.fail "nval value"

let test_reconstruct_roundtrip () =
  let _, loadedcheck = shred_all sample in
  ignore loadedcheck;
  let db, _ = shred_all (Xmllib.Generator.xmark ~seed:3 ~scale:1 ()) in
  ignore db;
  (* roundtrip on the small sample, all encodings *)
  let db2, _ = shred_all sample in
  List.iter
    (fun enc ->
      let doc2 = O.Reconstruct.document db2 ~doc:"t" enc in
      check bool_t
        (O.Encoding.name enc ^ " roundtrip")
        true
        (T.equal_document sample doc2))
    O.Encoding.all

let test_reconstruct_subtree () =
  let db, _ = shred_all sample in
  List.iter
    (fun enc ->
      (* record 4 is <b p="q">t2<d/>t3</b> in record order? verify by tag *)
      let rows =
        Reldb.Db.query db
          (Printf.sprintf
             "SELECT id FROM %s WHERE tag = 'b' AND kind = 0"
             (O.Encoding.table_name ~doc:"t" enc))
      in
      let ids = List.map (fun r -> match r.(0) with V.Int i -> i | _ -> -1) rows in
      let second_b = List.nth (List.sort compare ids) 1 in
      match O.Reconstruct.subtree db ~doc:"t" enc ~id:second_b with
      | T.Element e ->
          check int_t
            (O.Encoding.name enc ^ " subtree children")
            3
            (List.length e.T.children)
      | _ -> Alcotest.fail "expected element")
    O.Encoding.all

let test_storage_measures () =
  let db, _ = shred_all (Xmllib.Generator.xmark ~seed:5 ~scale:1 ()) in
  let by_enc =
    List.map (fun enc -> (enc, O.Storage.measure db ~doc:"t" enc)) O.Encoding.all
  in
  let get enc = List.assoc enc by_enc in
  let g = get O.Encoding.Global
  and l = get O.Encoding.Local
  and d = get O.Encoding.Dewey_enc in
  check bool_t "same row count" true (g.O.Storage.rows = l.O.Storage.rows);
  (* the paper's storage shape: dewey keys biggest, local smallest *)
  check bool_t "dewey order keys > global" true
    (d.O.Storage.order_bytes > g.O.Storage.order_bytes);
  check bool_t "global order keys > local" true
    (g.O.Storage.order_bytes > l.O.Storage.order_bytes);
  check bool_t "dewey histogram non-empty" true
    (O.Storage.dewey_path_length_histogram db ~doc:"t" <> [])

let test_stream_shred_equals_dom_shred () =
  let doc = Xmllib.Generator.xmark ~seed:9 ~scale:1 () in
  let src = Xmllib.Printer.document_to_string doc in
  List.iter
    (fun enc ->
      let db1 = Reldb.Db.create () in
      ignore (O.Shred.shred db1 ~doc:"d" enc doc);
      let db2 = Reldb.Db.create () in
      let n = O.Shred.shred_stream db2 ~doc:"d" enc src in
      let dump db =
        let t = Reldb.Db.table db (O.Encoding.table_name ~doc:"d" enc) in
        List.of_seq (Seq.map snd (Reldb.Table.scan t))
        |> List.sort compare |> List.map Reldb.Tuple.to_string
      in
      check int_t (O.Encoding.name enc ^ " record count")
        (List.length (dump db1)) n;
      if dump db1 <> dump db2 then
        Alcotest.failf "%s: streaming shred differs from DOM shred"
          (O.Encoding.name enc))
    O.Encoding.all

(* comments and PIs outside the root element are not nodes of the document *)
let test_stream_outside_root () =
  List.iter
    (fun src ->
      List.iter
        (fun enc ->
          let db = Reldb.Db.create () in
          check int_t (src ^ " " ^ O.Encoding.name enc) 1
            (O.Shred.shred_stream db ~doc:"p" enc src))
        O.Encoding.all)
    [ "<!--c--><a/>"; "<a/><!--c-->"; "<?pi x?><a/>" ]

let test_streaming_serialization () =
  let doc = Xmllib.Generator.xmark ~seed:4 ~scale:1 () in
  let db, _ = shred_all doc |> fun (db, l) -> (db, l) in
  List.iter
    (fun enc ->
      let root = O.Reconstruct.root_id db ~doc:"t" enc in
      let direct = O.Reconstruct.serialize_subtree db ~doc:"t" enc ~id:root in
      let via_dom =
        Xmllib.Printer.node_to_string (O.Reconstruct.subtree db ~doc:"t" enc ~id:root)
      in
      if direct <> via_dom then
        Alcotest.failf "%s: streaming serialization diverges" (O.Encoding.name enc);
      (* also a nested subtree with attributes and mixed content *)
      let sub =
        (List.hd (O.Translate.eval db ~doc:"t" enc
                    (O.Xpath_parser.parse "/site/open_auctions/open_auction[2]")).O.Translate.rows)
          .O.Node_row.id
      in
      let d2 = O.Reconstruct.serialize_subtree db ~doc:"t" enc ~id:sub in
      let v2 =
        Xmllib.Printer.node_to_string (O.Reconstruct.subtree db ~doc:"t" enc ~id:sub)
      in
      if d2 <> v2 then
        Alcotest.failf "%s: nested streaming serialization diverges"
          (O.Encoding.name enc))
    O.Encoding.all

(* Serializing a subtree reads the rows rebuilding it reads, on every
   encoding: LOCAL orders its level-by-level fetch in the middle tier, with
   no statement of its own. Statements counted as plan-cache lookups. *)
let test_serialize_statements () =
  let doc = Xmllib.Generator.xmark ~seed:4 ~scale:1 () in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"s" enc doc in
      let id =
        List.nth (O.Api.Store.query_ids store "/site/open_auctions/open_auction") 1
      in
      let statements f =
        let h0, m0, _ = Reldb.Db.plan_cache_stats db in
        ignore (f ());
        let h1, m1, _ = Reldb.Db.plan_cache_stats db in
        h1 - h0 + (m1 - m0)
      in
      let rebuilt = statements (fun () -> O.Api.Store.subtree store ~id) in
      let serialized = statements (fun () -> O.Api.Store.serialize store ~id) in
      check int_t (O.Encoding.name enc ^ " statements") rebuilt serialized)
    O.Encoding.all

let prop_streaming_serialization_random =
  let gen =
    QCheck.Gen.map
      (fun (seed, enc_i) ->
        ( Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 (),
          List.nth O.Encoding.all (enc_i mod List.length O.Encoding.all) ))
      QCheck.Gen.(pair (int_bound 100_000) (int_bound 19))
  in
  let print (doc, enc) =
    O.Encoding.name enc ^ ": " ^ Xmllib.Printer.document_to_string doc
  in
  QCheck.Test.make ~name:"streaming serialization = DOM serialization"
    ~count:60 (QCheck.make ~print gen) (fun (doc, enc) ->
      let db = Reldb.Db.create () in
      ignore (O.Shred.shred db ~doc:"z" enc doc);
      let root = O.Reconstruct.root_id db ~doc:"z" enc in
      O.Reconstruct.serialize_subtree db ~doc:"z" enc ~id:root
      = Xmllib.Printer.node_to_string (Xmllib.Types.Element doc.T.root))

let prop_roundtrip_random =
  let gen =
    QCheck.Gen.map
      (fun (seed, enc_i) ->
        ( Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 (),
          List.nth O.Encoding.all (enc_i mod List.length O.Encoding.all) ))
      QCheck.Gen.(pair (int_bound 100_000) (int_bound 19))
  in
  let print (doc, enc) =
    O.Encoding.name enc ^ ": " ^ Xmllib.Printer.document_to_string doc
  in
  QCheck.Test.make ~name:"shred/reconstruct identity (random docs)" ~count:60
    (QCheck.make ~print gen) (fun (doc, enc) ->
      let db = Reldb.Db.create () in
      ignore (O.Shred.shred db ~doc:"r" enc doc);
      T.equal_document doc (O.Reconstruct.document db ~doc:"r" enc))

let tests =
  ( "shred",
    [
      Alcotest.test_case "row counts" `Quick test_row_counts;
      Alcotest.test_case "interval nesting" `Quick test_interval_nesting;
      Alcotest.test_case "gap numbering" `Quick test_gap_numbering_spacing;
      Alcotest.test_case "local sibling ranks" `Quick test_local_unique_sibling_ranks;
      Alcotest.test_case "dewey path order" `Quick test_dewey_paths_sorted;
      Alcotest.test_case "nval population" `Quick test_nval_population;
      Alcotest.test_case "reconstruct roundtrip" `Quick test_reconstruct_roundtrip;
      Alcotest.test_case "reconstruct subtree" `Quick test_reconstruct_subtree;
      Alcotest.test_case "storage measures" `Quick test_storage_measures;
      Alcotest.test_case "streaming = DOM shredding" `Quick test_stream_shred_equals_dom_shred;
      Alcotest.test_case "streaming load outside the root" `Quick test_stream_outside_root;
      Alcotest.test_case "streaming serialization" `Quick test_streaming_serialization;
      Alcotest.test_case "serialize issues subtree's statements" `Quick
        test_serialize_statements;
      QCheck_alcotest.to_alcotest prop_streaming_serialization_random;
      QCheck_alcotest.to_alcotest prop_roundtrip_random;
    ] )
