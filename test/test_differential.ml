(* Cross-encoding differential oracle (ISSUE 3): random documents x random
   XPath, evaluated through the full SQL path over every order encoding, must
   agree with the direct DOM oracle in document order — both on freshly
   shredded documents and after randomized update workloads that exercise the
   bulk-write and renumbering paths. *)

module O = Ordered_xml

let encodings = O.Encoding.all

(* --- fresh shreds: stores vs Dom_eval --------------------------------- *)

let doc_seeds = 30
let paths_per_doc = 7

let run_fresh_case cases doc_seed =
  let doc =
    Xmllib.Generator.random_tree ~seed:doc_seed ~max_depth:5 ~max_fanout:4 ()
  in
  let idx = O.Doc_index.build doc in
  let db = Reldb.Db.create () in
  let stores =
    List.map (fun enc -> (enc, O.Api.Store.create db ~name:"q" enc doc)) encodings
  in
  let rand = Random.State.make [| doc_seed |] in
  let paths = QCheck.Gen.generate ~rand ~n:paths_per_doc Xpath_gen.gen_path in
  List.iter
    (fun path ->
      incr cases;
      let xpath = O.Xpath_ast.to_string path in
      let expected = O.Dom_eval.eval idx path in
      List.iter
        (fun (enc, store) ->
          let got = O.Api.Store.query_ids store xpath in
          if got <> expected then
            Alcotest.failf "seed %d, %s, %s: oracle [%s], sql [%s]" doc_seed
              (O.Encoding.name enc) xpath
              (String.concat "," (List.map string_of_int expected))
              (String.concat "," (List.map string_of_int got)))
        stores)
    paths

let test_fresh_shreds () =
  let cases = ref 0 in
  for seed = 1 to doc_seeds do
    run_fresh_case cases seed
  done;
  Alcotest.check Alcotest.bool "at least 200 (doc, query) cases" true
    (!cases >= 200)

(* --- after update workloads -------------------------------------------- *)

let frag =
  Xmllib.Types.element "item"
    ~attrs:[ Xmllib.Types.attr "k0" "77" ]
    [ Xmllib.Types.text "mutated" ]

(* probes evaluated after each workload; attribute and text() selections go
   through query_values since attribute nodes cannot be reconstructed *)
let id_probes = [ "/doc/item"; "/doc/item[2]"; "/doc/item[last()]"; "//item" ]
let value_probes = [ "//item/@k0"; "/doc/item/text()"; "/doc/item[1]" ]

let apply_workload stores rng ops =
  for _ = 1 to ops do
    let count = O.Api.Store.count (snd (List.hd stores)) "/doc/item" in
    let op = Xmllib.Rng.int rng 3 in
    if op = 0 && count > 2 then begin
      let k = 1 + Xmllib.Rng.int rng count in
      List.iter
        (fun (_, s) ->
          match O.Api.Store.query_ids s (Printf.sprintf "/doc/item[%d]" k) with
          | [ id ] -> ignore (O.Api.Store.delete_subtree s ~id)
          | _ -> ())
        stores
    end
    else if op = 1 then begin
      let pos = 1 + Xmllib.Rng.int rng (count + 1) in
      List.iter
        (fun (_, s) ->
          ignore
            (O.Api.Store.insert_subtree s ~parent:(O.Api.Store.root_id s) ~pos
               frag))
        stores
    end
    else begin
      let k = 1 + Xmllib.Rng.int rng count in
      let v = string_of_int (Xmllib.Rng.int rng 1000) in
      List.iter
        (fun (_, s) ->
          match O.Api.Store.query_ids s (Printf.sprintf "/doc/item[%d]" k) with
          | [ id ] ->
              ignore (O.Api.Store.set_attribute s ~id ~name:"k1" ~value:v)
          | _ -> ())
        stores
    end
  done

let run_update_case cases seed =
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:6 () in
  let db = Reldb.Db.create () in
  let stores =
    List.map (fun enc -> (enc, O.Api.Store.create db ~name:"w" enc doc)) encodings
  in
  let rng = Xmllib.Rng.create seed in
  apply_workload stores rng 12;
  (* every encoding reconstructs the same document *)
  let rendered =
    List.map
      (fun (enc, s) ->
        (enc, Xmllib.Printer.document_to_string (O.Api.Store.document s)))
      stores
  in
  (match rendered with
  | (enc0, d0) :: rest ->
      List.iter
        (fun (enc, d) ->
          if d <> d0 then
            Alcotest.failf "seed %d: %s and %s reconstruct different documents"
              seed (O.Encoding.name enc0) (O.Encoding.name enc))
        rest
  | [] -> ());
  (* the DOM oracle over the reconstructed document agrees with the SQL path
     on string-values, and the encodings agree pairwise on ids *)
  let idx = O.Doc_index.build (O.Api.Store.document (snd (List.hd stores))) in
  List.iter
    (fun xpath ->
      incr cases;
      let path = O.Xpath_parser.parse xpath in
      let expected =
        List.map (O.Dom_eval.string_value idx) (O.Dom_eval.eval idx path)
      in
      List.iter
        (fun (enc, s) ->
          let got = O.Api.Store.query_values s xpath in
          if got <> expected then
            Alcotest.failf "seed %d, %s, %s: oracle values [%s], sql [%s]" seed
              (O.Encoding.name enc) xpath
              (String.concat ";" expected)
              (String.concat ";" got))
        stores)
    value_probes;
  List.iter
    (fun xpath ->
      incr cases;
      let results =
        List.map (fun (enc, s) -> (enc, O.Api.Store.query_ids s xpath)) stores
      in
      match results with
      | (enc0, ids0) :: rest ->
          List.iter
            (fun (enc, ids) ->
              if ids <> ids0 then
                Alcotest.failf "seed %d, %s: %s=[%s] but %s=[%s]" seed xpath
                  (O.Encoding.name enc0)
                  (String.concat "," (List.map string_of_int ids0))
                  (O.Encoding.name enc)
                  (String.concat "," (List.map string_of_int ids)))
            rest
      | [] -> ())
    id_probes;
  (* structural invariants survive the workload *)
  List.iter
    (fun (enc, s) ->
      match O.Api.Store.check s with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "seed %d: %s integrity violated: %s" seed
            (O.Encoding.name enc)
            (String.concat "; " msgs))
    stores

let test_after_updates () =
  let cases = ref 0 in
  for seed = 101 to 110 do
    run_update_case cases seed
  done;
  Alcotest.check Alcotest.bool "update-phase probes ran" true (!cases >= 50)

(* --- crash, recover, compare (ISSUE 4) --------------------------------- *)

(* A durable store under a random update workload, killed at a random WAL
   offset: the recovered store must agree with the DOM oracle replayed to
   the same committed prefix. Fragment values carry the characters that
   broke SQL-text quoting and statement splitting, which the typed log
   entries must carry as data. *)

let hostile_texts =
  [| "plain"; "a;b -- c"; "it's"; "line\nbreak"; "tab\there;"; "" |]

let crash_probes = [ "//item/@k0"; "/doc/item/text()"; "/doc/item[1]"; "//item" ]

let run_crash_case seed =
  let enc = List.nth encodings (seed mod List.length encodings) in
  Test_wal.with_dir @@ fun dir ->
  let db = Reldb.Db.open_dir ~fsync:Reldb.Wal.Never dir in
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:4 () in
  let store = O.Api.Store.create db ~name:"c" enc doc in
  Reldb.Db.checkpoint db;
  (* one op per transaction: WAL records and ops correspond 1:1 *)
  let rng = Xmllib.Rng.create seed in
  let snap () = O.Api.Store.document store in
  let snaps = ref [ snap () ] in
  (* log length after each op: maps a cut offset to the op prefix it keeps
     (an op whose transaction wrote nothing appends no record at all) *)
  let marks = ref [ Reldb.Db.wal_size db ] in
  for i = 1 to 10 do
    O.Api.Store.atomically store (fun () ->
        let count = O.Api.Store.count store "/doc/item" in
        let op = Xmllib.Rng.int rng 3 in
        if op = 0 && count > 2 then begin
          match
            O.Api.Store.query_ids store
              (Printf.sprintf "/doc/item[%d]" (1 + Xmllib.Rng.int rng count))
          with
          | [ id ] -> ignore (O.Api.Store.delete_subtree store ~id)
          | _ -> ()
        end
        else if op = 1 then
          let v = hostile_texts.(Xmllib.Rng.int rng (Array.length hostile_texts)) in
          let f =
            Xmllib.Types.element "item"
              ~attrs:[ Xmllib.Types.attr "k0" v ]
              [ Xmllib.Types.text v ]
          in
          ignore
            (O.Api.Store.insert_subtree store
               ~parent:(O.Api.Store.root_id store)
               ~pos:(1 + Xmllib.Rng.int rng (count + 1))
               f)
        else
          match
            O.Api.Store.query_ids store
              (Printf.sprintf "/doc/item[%d]" (1 + Xmllib.Rng.int rng count))
          with
          | [ id ] ->
              ignore
                (O.Api.Store.set_attribute store ~id ~name:"k0"
                   ~value:(Printf.sprintf "op;%d -- '" i))
          | _ -> ());
    snaps := snap () :: !snaps;
    marks := Reldb.Db.wal_size db :: !marks
  done;
  let snaps = Array.of_list (List.rev !snaps) in
  let marks = Array.of_list (List.rev !marks) in
  Reldb.Db.close db;
  let wal = Filename.concat dir "wal.1.log" in
  let image = Test_wal.read_bytes wal in
  (* kill at several random offsets of the op suffix, recover, compare *)
  for _ = 1 to 6 do
    let cut = 15 + Xmllib.Rng.int rng (String.length image - 14) in
    let k = ref 0 in
    Array.iteri (fun i m -> if m <= cut then k := i) marks;
    let k = !k in
    Test_wal.write_bytes wal (String.sub image 0 cut);
    let db = Reldb.Db.open_dir dir in
    let store = O.Api.Store.open_existing db ~name:"c" enc in
    (match O.Api.Store.check store with
    | Ok () -> ()
    | Error msgs ->
        Alcotest.failf "seed %d, cut %d: integrity violated: %s" seed cut
          (String.concat "; " msgs));
    let expected_doc = snaps.(k) in
    let got = Xmllib.Printer.document_to_string (O.Api.Store.document store) in
    if got <> Xmllib.Printer.document_to_string expected_doc then
      Alcotest.failf "seed %d, cut %d: recovered store is not the %d-op prefix"
        seed cut k;
    (* the DOM oracle over the expected prefix agrees with the SQL path *)
    let idx = O.Doc_index.build expected_doc in
    List.iter
      (fun xpath ->
        let path = O.Xpath_parser.parse xpath in
        let oracle =
          List.map (O.Dom_eval.string_value idx) (O.Dom_eval.eval idx path)
        in
        let sql = O.Api.Store.query_values store xpath in
        if sql <> oracle then
          Alcotest.failf "seed %d, cut %d, %s: oracle [%s], sql [%s]" seed cut
            xpath
            (String.concat ";" oracle)
            (String.concat ";" sql))
      crash_probes;
    Reldb.Db.close db
  done

let test_crash_recover_compare () =
  for seed = 201 to 208 do
    run_crash_case seed
  done

let tests =
  ( "differential",
    [
      Alcotest.test_case "fresh shreds agree with DOM oracle (200+ cases)"
        `Quick test_fresh_shreds;
      Alcotest.test_case "encodings agree after random update workloads"
        `Quick test_after_updates;
      Alcotest.test_case "crash-recover agrees with DOM oracle" `Quick
        test_crash_recover_compare;
    ] )
