(* Streaming ingest: load XML into the relational store in one SAX pass —
   no DOM — into a database directory, keep it current with bulk (forest)
   insertions, and checkpoint the directory.

   Every order encoding supports one-pass loading because all three are
   stack-computable (preorder interval counters, sibling counters, a Dewey
   component stack); this example uses the ORDPATH variant so the feed of
   incoming auctions never renumbers existing rows.

   Run with: dune exec examples/streaming_load.exe *)

module O = Ordered_xml

let () =
  (* pretend this arrived over the wire *)
  let xml =
    Xmllib.Printer.document_to_string (O.Workload.dataset ~scale:2)
  in
  Printf.printf "incoming document: %d bytes\n" (String.length xml);

  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "feed_%d" (Unix.getpid ()))
  in
  (* every row is logged as it lands; the OS flushes the log *)
  let db = Reldb.Db.open_dir ~fsync:Reldb.Wal.Never dir in
  let t0 = Unix.gettimeofday () in
  let records = O.Shred.shred_stream db ~doc:"feed" O.Encoding.Dewey_caret xml in
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  Printf.printf "streamed %d records into feed_ordpath in %.1f ms (%.0f rec/s)\n"
    records ms
    (float_of_int records /. ms *. 1000.0);

  let store = O.Api.Store.open_existing db ~name:"feed" O.Encoding.Dewey_caret in
  Printf.printf "open auctions: %d\n"
    (O.Api.Store.count store "/site/open_auctions/open_auction");

  (* a batch of new auctions arrives: insert them all at the front of the
     list with one bulk operation *)
  let batch =
    List.init 5 (fun i -> O.Workload.update_fragment ~seed:(100 + i))
  in
  let container = List.hd (O.Api.Store.query_ids store "/site/open_auctions") in
  let st = O.Api.Store.insert_forest store ~parent:container ~pos:1 batch in
  Printf.printf
    "bulk-inserted %d rows as 5 new auctions; existing rows renumbered: %d\n"
    st.O.Update.rows_inserted st.O.Update.rows_renumbered;
  Printf.printf "newest auction's first bid: %s\n"
    (match
       O.Api.Store.query_values store
         "/site/open_auctions/open_auction[1]/bidder[1]/increase"
     with
    | v :: _ -> v
    | [] -> "(none)");

  (* ordered semantics survived the bulk insert *)
  Printf.printf "auctions now: %d (first five are the new batch: %b)\n"
    (O.Api.Store.count store "/site/open_auctions/open_auction")
    (O.Api.Store.count store
       "/site/open_auctions/open_auction[position() <= 5][bidder]"
    = 5);

  (* fold the log into a checkpoint and prove the directory reloads *)
  Reldb.Db.checkpoint db;
  Reldb.Db.close db;
  let db2 = Reldb.Db.open_dir dir in
  let store2 = O.Api.Store.open_existing db2 ~name:"feed" O.Encoding.Dewey_caret in
  Printf.printf "checkpointed to %s; reload agrees: %b\n" dir
    (Xmllib.Types.equal_document
       (O.Api.Store.document store)
       (O.Api.Store.document store2));
  Reldb.Db.close db2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir
