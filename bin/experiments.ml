(* Experiment harness: regenerates every table/figure of the evaluation
   (DESIGN.md section 6, EXPERIMENTS.md for the recorded results).

   Usage:  dune exec bin/experiments.exe -- [e1|e2|...|e9|e11|e13|all]
   Times come from the monotonic clock (Obs.Clock); phase breakdowns (E11)
   are derived from the library's own spans; "rows" are logical rows
   read/written in the storage engine. *)

module O = Ordered_xml

let encodings = [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]

let time_ms f = snd (Obs.Clock.time_ms f)

let median_ms ?(runs = 5) f =
  let samples = List.init runs (fun _ -> time_ms (fun () -> ignore (f ()))) in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)

let header title =
  Printf.printf "\n=== %s ===\n" title

(* ------------------------------------------------------------------ E1 *)

let e1 () =
  header "E1: dataset characteristics (XMark-style auction documents)";
  Printf.printf "%-6s %9s %9s %7s %6s %9s %11s %6s\n" "scale" "elements"
    "attrs" "texts" "depth" "avg-fan" "bytes" "tags";
  List.iter
    (fun scale ->
      let doc = O.Workload.dataset ~scale in
      let s = Xmllib.Stats.compute doc in
      Printf.printf "%-6d %9d %9d %7d %6d %9.2f %11d %6d\n" scale
        s.Xmllib.Stats.elements s.Xmllib.Stats.attributes s.Xmllib.Stats.texts
        s.Xmllib.Stats.max_depth s.Xmllib.Stats.avg_fanout
        s.Xmllib.Stats.serialized_bytes s.Xmllib.Stats.distinct_tags)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ E2 *)

let e2 () =
  header "E2: storage cost per encoding (scale 4)";
  let doc = O.Workload.dataset ~scale:4 in
  let db = Reldb.Db.create () in
  Printf.printf "%-11s %8s %10s %12s %14s %10s %11s\n" "encoding" "rows"
    "heap(B)" "order(B)" "avg-key(B)" "index(B)" "total(B)";
  List.iter
    (fun enc ->
      ignore (O.Shred.shred db ~doc:"e2" enc doc);
      let s = O.Storage.measure db ~doc:"e2" enc in
      Printf.printf "%-11s %8d %10d %12d %14.1f %10d %11d\n"
        (O.Encoding.name enc) s.O.Storage.rows s.O.Storage.heap_bytes
        s.O.Storage.order_bytes s.O.Storage.avg_key_bytes
        s.O.Storage.index_bytes s.O.Storage.total_bytes)
    (encodings @ [ O.Encoding.Global_gap ]);
  Printf.printf "\nDewey encoded-path length histogram (bytes -> rows):\n ";
  List.iter
    (fun (len, n) -> Printf.printf " %d->%d" len n)
    (O.Storage.dewey_path_length_histogram db ~doc:"e2");
  print_newline ()

let e2b () =
  header "E2b: order-key size vs document depth (treebank-style deep trees)";
  Printf.printf "%-7s %12s %14s %14s %12s\n" "depth" "global(B)"
    "dewey avg(B)" "dewey max(B)" "ordpath max";
  List.iter
    (fun depth ->
      let doc = Xmllib.Generator.deep ~depth ~branch:3 () in
      let db = Reldb.Db.create () in
      let sg =
        ignore (O.Shred.shred db ~doc:"g" O.Encoding.Global doc);
        O.Storage.measure db ~doc:"g" O.Encoding.Global
      in
      let sd =
        ignore (O.Shred.shred db ~doc:"w" O.Encoding.Dewey_enc doc);
        O.Storage.measure db ~doc:"w" O.Encoding.Dewey_enc
      in
      let so =
        ignore (O.Shred.shred db ~doc:"o" O.Encoding.Dewey_caret doc);
        O.Storage.measure db ~doc:"o" O.Encoding.Dewey_caret
      in
      Printf.printf "%-7d %12.1f %14.1f %14d %12d\n" depth
        sg.O.Storage.avg_key_bytes sd.O.Storage.avg_key_bytes
        sd.O.Storage.max_key_bytes so.O.Storage.max_key_bytes)
    [ 4; 16; 64; 256 ]

(* ------------------------------------------------------------------ E3 *)

let e3 () =
  header "E3: ordered query performance, Q1-Q8 (scale 4, median us / rows read)";
  let doc = O.Workload.dataset ~scale:4 in
  let db = Reldb.Db.create () in
  let stores =
    List.map (fun enc -> (enc, O.Api.Store.create db ~name:"e3" enc doc)) encodings
  in
  Printf.printf "%-4s %-38s %14s %14s %14s\n" "id" "query" "global" "local"
    "dewey";
  List.iter
    (fun (q : O.Workload.query) ->
      Printf.printf "%-4s %-38s" q.O.Workload.q_id q.O.Workload.q_label;
      List.iter
        (fun (_, store) ->
          match q.O.Workload.q_xpath with
          | Some xp ->
              Reldb.Db.reset_counters db;
              let ms = median_ms ~runs:101 (fun () -> O.Api.Store.query store xp) in
              let rows = Reldb.Db.rows_read db / 101 in
              Printf.printf " %7.0f/%-6d" (1000. *. ms) rows
          | None ->
              (* Q8: reconstruct the first open auction *)
              let id =
                List.hd (O.Api.Store.query_ids store O.Workload.q8_target)
              in
              Reldb.Db.reset_counters db;
              let ms = median_ms ~runs:101 (fun () -> O.Api.Store.subtree store ~id) in
              let rows = Reldb.Db.rows_read db / 101 in
              Printf.printf " %7.0f/%-6d" (1000. *. ms) rows)
        stores;
      print_newline ())
    O.Workload.queries

(* ------------------------------------------------------------------ E4 *)

let e4 () =
  header "E4: insertion cost by position (container with 500 children)";
  Printf.printf "%-8s %22s %22s %22s   (rows renumbered / ms)\n" "" "front"
    "middle" "back";
  let run enc =
    Printf.printf "%-8s" (O.Encoding.name enc);
    List.iter
      (fun pos ->
        (* fresh store per data point *)
        let doc = Xmllib.Generator.flat ~tag:"item" ~count:500 () in
        let db = Reldb.Db.create () in
        let store = O.Api.Store.create db ~name:"e4" enc doc in
        let root = O.Api.Store.root_id store in
        let p = O.Workload.insertion_pos pos ~sibling_count:500 in
        let st, ms =
          Obs.Clock.time_ms (fun () ->
              O.Api.Store.insert_subtree store ~parent:root ~pos:p
                O.Workload.small_fragment)
        in
        Printf.printf " %12d / %6.1f" st.O.Update.rows_renumbered ms)
      O.Workload.positions;
    print_newline ()
  in
  List.iter run (encodings @ [ O.Encoding.Global_gap; O.Encoding.Dewey_caret ])

(* ------------------------------------------------------------------ E5 *)

let e5 () =
  header "E5: scalability with document size (median ms)";
  Printf.printf "%-6s %-11s %10s %10s %12s\n" "scale" "encoding" "Q2" "Q7"
    "mid-insert";
  List.iter
    (fun scale ->
      let doc = O.Workload.dataset ~scale in
      List.iter
        (fun enc ->
          let db = Reldb.Db.create () in
          let store = O.Api.Store.create db ~name:"e5" enc doc in
          let q n =
            match (List.nth O.Workload.queries n).O.Workload.q_xpath with
            | Some xp -> xp
            | None -> assert false
          in
          let ms_q2 = median_ms ~runs:3 (fun () -> O.Api.Store.query store (q 1)) in
          let ms_q7 = median_ms ~runs:3 (fun () -> O.Api.Store.query store (q 6)) in
          let container =
            List.hd (O.Api.Store.query_ids store O.Workload.container_path)
          in
          let n_kids = O.Api.Store.count store "/site/open_auctions/open_auction" in
          let ms_ins =
            time_ms (fun () ->
                ignore
                  (O.Api.Store.insert_subtree store ~parent:container
                     ~pos:(1 + (n_kids / 2)) O.Workload.small_fragment))
          in
          Printf.printf "%-6d %-11s %10.1f %10.1f %12.1f\n" scale
            (O.Encoding.name enc) ms_q2 ms_q7 ms_ins)
        encodings)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ E6 *)

let e6 () =
  header "E6: ablation - dense GLOBAL vs gap-based GLOBAL (100 random inserts)";
  Printf.printf "%-18s %16s %14s %10s\n" "variant" "rows renumbered"
    "rows written" "ms";
  let run label enc gap =
    let doc = Xmllib.Generator.flat ~tag:"item" ~count:300 () in
    let db = Reldb.Db.create () in
    let store = O.Api.Store.create ?gap db ~name:"e6" enc doc in
    let root = O.Api.Store.root_id store in
    let rng = Xmllib.Rng.create 11 in
    Reldb.Db.reset_counters db;
    let renum = ref 0 in
    let ms =
      time_ms (fun () ->
          for _ = 1 to 100 do
            let count = O.Api.Store.count store "/doc/item" in
            let pos = 1 + Xmllib.Rng.int rng (count + 1) in
            let st =
              O.Api.Store.insert_subtree store ~parent:root ~pos
                O.Workload.small_fragment
            in
            renum := !renum + st.O.Update.rows_renumbered
          done)
    in
    Printf.printf "%-18s %16d %14d %10.1f\n" label !renum
      (Reldb.Db.rows_written db) ms
  in
  run "global (dense)" O.Encoding.Global None;
  List.iter
    (fun g ->
      run (Printf.sprintf "global gap=%d" g) O.Encoding.Global_gap (Some g))
    [ 8; 32; 128 ];
  run "local" O.Encoding.Local None;
  run "dewey" O.Encoding.Dewey_enc None

(* ------------------------------------------------------------------ E7 *)

let e7 () =
  header "E7: bulk shredding throughput (scale 4)";
  let doc = O.Workload.dataset ~scale:4 in
  let idx = O.Doc_index.build doc in
  let n = O.Doc_index.length idx in
  Printf.printf "%-11s %10s %12s\n" "encoding" "ms" "records/s";
  List.iter
    (fun enc ->
      let ms =
        median_ms ~runs:3 (fun () ->
            let db = Reldb.Db.create () in
            O.Shred.shred db ~doc:"e7" enc doc)
      in
      Printf.printf "%-11s %10.1f %12.0f\n" (O.Encoding.name enc) ms
        (float_of_int n /. ms *. 1000.0))
    (encodings @ [ O.Encoding.Global_gap ])

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ E8 *)

let e8 () =
  header "E8: ablation - DEWEY vs ORDPATH careting (hotspot insertions)";
  Printf.printf "%-10s %-10s %16s %10s %14s %14s\n" "workload" "encoding"
    "rows renumbered" "ms" "avg key (B)" "max key (B)";
  let run label enc pos_of =
    let doc = Xmllib.Generator.flat ~tag:"item" ~count:300 () in
    let db = Reldb.Db.create () in
    let store = O.Api.Store.create db ~name:"e8" enc doc in
    let root = O.Api.Store.root_id store in
    let renum = ref 0 in
    let ms =
      time_ms (fun () ->
          for i = 1 to 200 do
            let st =
              O.Api.Store.insert_subtree store ~parent:root ~pos:(pos_of i)
                O.Workload.small_fragment
            in
            renum := !renum + st.O.Update.rows_renumbered
          done)
    in
    let s = O.Api.Store.storage store in
    Printf.printf "%-10s %-10s %16d %10.1f %14.1f %14d\n" label
      (O.Encoding.name enc) !renum ms s.O.Storage.avg_key_bytes
      s.O.Storage.max_key_bytes
  in
  (* hotspot: always the same middle position *)
  run "hotspot" O.Encoding.Dewey_enc (fun _ -> 150);
  run "hotspot" O.Encoding.Dewey_caret (fun _ -> 150);
  (* front: always position 1 *)
  run "front" O.Encoding.Dewey_enc (fun _ -> 1);
  run "front" O.Encoding.Dewey_caret (fun _ -> 1);
  (* appends: the friendly case for both *)
  run "append" O.Encoding.Dewey_enc (fun i -> 300 + i);
  run "append" O.Encoding.Dewey_caret (fun i -> 300 + i)

(* ------------------------------------------------------------------ E9 *)

let e9 () =
  header "E9: mixed read/write workloads (300 ops, scale 1; ms total)";
  Printf.printf "%-11s %12s %12s %12s\n" "encoding" "90R/10W" "50R/50W"
    "10R/90W";
  let read_queries =
    [
      "/site/open_auctions/open_auction/bidder[1]";
      "/site/people/person[address]/name";
      "/site/regions/africa/item[1]/following::item";
      "//closed_auction[price > 400]";
    ]
  in
  let run enc read_pct =
    let doc = O.Workload.dataset ~scale:1 in
    let db = Reldb.Db.create () in
    let store = O.Api.Store.create db ~name:"e9" enc doc in
    let rng = Xmllib.Rng.create (17 + read_pct) in
    let container =
      List.hd (O.Api.Store.query_ids store O.Workload.container_path)
    in
    time_ms (fun () ->
        for _ = 1 to 300 do
          if Xmllib.Rng.int rng 100 < read_pct then
            ignore
              (O.Api.Store.query store
                 (List.nth read_queries
                    (Xmllib.Rng.int rng (List.length read_queries))))
          else begin
            let n = O.Api.Store.count store "/site/open_auctions/open_auction" in
            if n > 4 && Xmllib.Rng.bool rng then
              let victim =
                List.hd
                  (O.Api.Store.query_ids store
                     (Printf.sprintf "/site/open_auctions/open_auction[%d]"
                        (1 + Xmllib.Rng.int rng n)))
              in
              ignore (O.Api.Store.delete_subtree store ~id:victim)
            else
              ignore
                (O.Api.Store.insert_subtree store ~parent:container
                   ~pos:(1 + Xmllib.Rng.int rng (n + 1))
                   O.Workload.small_fragment)
          end
        done)
  in
  List.iter
    (fun enc ->
      Printf.printf "%-11s %12.0f %12.0f %12.0f\n" (O.Encoding.name enc)
        (run enc 90) (run enc 50) (run enc 10))
    (encodings @ [ O.Encoding.Global_gap; O.Encoding.Dewey_caret ])

(* ------------------------------------------------------------------ E10 *)

let e11 () =
  header "E11: query/update phase breakdown from spans (scale 2; total ms per phase)";
  (* every phase figure below comes from the library's own spans
     (Obs.Span.collect), not from stopwatch calls around API entry points *)
  let phases_of spans names =
    let agg = Obs.Span.aggregate spans in
    List.map
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) agg with
        | Some (_, _, ms) -> ms
        | None -> 0.0)
      names
  in
  let doc = O.Workload.dataset ~scale:2 in
  let query_phases = [ "xpath-parse"; "translate"; "sql-parse"; "plan"; "exec" ] in
  Printf.printf "%-11s %-34s" "encoding" "query";
  List.iter (fun p -> Printf.printf " %11s" p) query_phases;
  print_newline ();
  let queries =
    [
      "/site/open_auctions/open_auction/bidder[1]";
      "/site/regions/africa/item[1]/following-sibling::item";
    ]
  in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"e11" enc doc in
      List.iter
        (fun q ->
          let _, spans =
            Obs.Span.collect (fun () -> ignore (O.Api.Store.query store q))
          in
          Printf.printf "%-11s %-34s" (O.Encoding.name enc) q;
          List.iter (fun ms -> Printf.printf " %11.2f" ms)
            (phases_of spans query_phases);
          print_newline ())
        queries)
    encodings;
  let update_phases = [ "renumber"; "sql-parse"; "plan"; "exec" ] in
  Printf.printf "\n%-11s %-34s" "encoding" "update";
  List.iter (fun p -> Printf.printf " %11s" p) update_phases;
  print_newline ();
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"e11" enc doc in
      let container =
        List.hd (O.Api.Store.query_ids store O.Workload.container_path)
      in
      let _, spans =
        Obs.Span.collect (fun () ->
            ignore
              (O.Api.Store.insert_subtree store ~parent:container ~pos:1
                 O.Workload.small_fragment))
      in
      Printf.printf "%-11s %-34s" (O.Encoding.name enc) "front insert";
      List.iter (fun ms -> Printf.printf " %11.2f" ms)
        (phases_of spans update_phases);
      print_newline ())
    (encodings @ [ O.Encoding.Global_gap; O.Encoding.Dewey_caret ])

(* ----------------------------------------------------------------- E13 *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_tmp_db ?fsync f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oxq_e13_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir (Reldb.Db.open_dir ?fsync dir))

let e13 () =
  header "E13: WAL overhead per insert, recovery time vs log length";
  let create_stmt = "CREATE TABLE t (id INT NOT NULL, v TEXT)" in
  let insert i = Printf.sprintf "INSERT INTO t VALUES (%d, 'row %d')" i i in
  let run_inserts db n =
    time_ms (fun () ->
        for i = 1 to n do
          ignore (Reldb.Db.exec db (insert i))
        done)
  in
  (* per-insert cost: autocommit single-row INSERTs, each one WAL record *)
  let mem_n = 2000 in
  let mem_db = Reldb.Db.create () in
  ignore (Reldb.Db.exec mem_db create_stmt);
  let mem_ms = run_inserts mem_db mem_n in
  let mem_us = mem_ms *. 1000.0 /. float_of_int mem_n in
  Printf.printf "%-22s %10s %12s %10s\n" "configuration" "inserts" "us/insert"
    "overhead";
  Printf.printf "%-22s %10d %12.2f %10s\n" "in-memory" mem_n mem_us "1.0x";
  List.iter
    (fun (label, policy, n) ->
      with_tmp_db ~fsync:policy (fun _dir db ->
          ignore (Reldb.Db.exec db create_stmt);
          let ms = run_inserts db n in
          let us = ms *. 1000.0 /. float_of_int n in
          Printf.printf "%-22s %10d %12.2f %9.1fx\n" label n us (us /. mem_us);
          Reldb.Db.close db))
    [
      ("durable fsync=never", Reldb.Wal.Never, 2000);
      ("durable fsync=every32", Reldb.Wal.Every 32, 2000);
      ("durable fsync=always", Reldb.Wal.Always, 300);
    ];
  (* recovery time as the log grows, and after folding it into a checkpoint *)
  Printf.printf "\n%-14s %14s %14s %18s\n" "log (inserts)" "recovery ms"
    "wal bytes" "post-ckpt rec ms";
  List.iter
    (fun n ->
      with_tmp_db ~fsync:Reldb.Wal.Never (fun dir db ->
          ignore (Reldb.Db.exec db create_stmt);
          for i = 1 to n do
            ignore (Reldb.Db.exec db (insert i))
          done;
          let wal_bytes = Reldb.Db.wal_size db in
          Reldb.Db.close db;
          let db2 = Reldb.Db.open_dir dir in
          let replay_ms =
            match Reldb.Db.last_recovery db2 with
            | Some r -> r.Reldb.Db.rec_ms
            | None -> nan
          in
          Reldb.Db.checkpoint db2;
          Reldb.Db.close db2;
          let db3 = Reldb.Db.open_dir dir in
          let ckpt_ms =
            match Reldb.Db.last_recovery db3 with
            | Some r -> r.Reldb.Db.rec_ms
            | None -> nan
          in
          Reldb.Db.close db3;
          Printf.printf "%-14d %14.2f %14d %18.2f\n" n replay_ms wal_bytes
            ckpt_ms))
    [ 1000; 4000; 16000 ]

(* ----------------------------------------------------------------- E14 *)

let e14 () =
  header "E14: schema-aware vs blind translation (XMark DTD, scale 4)";
  let g = Analysis.Schema_check.graph (Xmllib.Dtd.parse Xmllib.Generator.xmark_dtd) in
  let doc = O.Workload.dataset ~scale:4 in
  let db = Reldb.Db.create () in
  let stores =
    List.map
      (fun enc -> (enc, O.Api.Store.create db ~name:"e14" enc doc))
      encodings
  in
  let ids (r : O.Translate.result) =
    List.map (fun (row : O.Node_row.t) -> row.O.Node_row.id) r.O.Translate.rows
  in
  let queries =
    [
      ("//bidder/increase", "descendant -> fixed child chain");
      ("//emailaddress", "descendant -> fixed child chain");
      ("/site/people/person/address[1]/city", "address? proves <=1: [1] dropped");
      ( "/site/open_auctions/open_auction[1]/following::open_auction",
        "following -> following-sibling" );
      ("//person/bidder", "unsatisfiable: 0-row plan, no SQL");
    ]
  in
  Printf.printf "%-11s %12s %12s %9s %9s\n" "encoding" "blind ms" "schema ms"
    "b-stmts" "s-stmts";
  List.iter
    (fun (q, note) ->
      let path = O.Xpath_parser.parse q in
      Printf.printf "-- %s  (%s)\n" q note;
      List.iter
        (fun (enc, _) ->
          (* the schema-aware timing includes the analysis itself *)
          let blind () = O.Translate.eval db ~doc:"e14" enc path in
          let schema () = Analysis.Schema_check.eval g db ~doc:"e14" enc path in
          let bres = blind () and sres = schema () in
          if ids bres <> ids sres then
            Printf.printf "   RESULT MISMATCH under %s!\n" (O.Encoding.name enc);
          let bms = median_ms ~runs:3 blind and sms = median_ms ~runs:3 schema in
          Printf.printf "%-11s %12.1f %12.1f %9d %9d\n" (O.Encoding.name enc)
            bms sms bres.O.Translate.statements sres.O.Translate.statements)
        stores)
    queries

let all =
  [ ("e1", e1); ("e2", e2); ("e2b", e2b); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e11", e11);
    ("e13", e13); ("e14", e14) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let targets =
    match args with
    | [] | [ "all" ] -> List.map fst all
    | ids -> ids
  in
  List.iter
    (fun id ->
      match List.assoc_opt id all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %s (want e1..e14 or all)\n" id;
          exit 1)
    targets
