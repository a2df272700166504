(* Durability (ISSUE 4): the write-ahead log must frame records so that any
   crash leaves a valid prefix plus a detectable torn tail, [Db.open_dir]
   must recover exactly the committed prefix from any such file, and the
   commit / checkpoint sequences must be kill-safe at every step boundary.
   The [wal] suite covers framing and the durable engine API; the
   [wal-crash] suite is the fault-injection harness: it truncates the log
   at {e every} byte offset and kills the process (via failpoint hooks) at
   every commit and checkpoint step, asserting recovery always yields a
   prefix-consistent database. *)

module D = Reldb.Db
module W = Reldb.Wal
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* --- scratch directories ---------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let tmp_counter = ref 0

let fresh_dir () =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "oxq_wal_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf d;
  d

let with_dir f =
  let d = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* --- crash simulation -------------------------------------------------- *)

exception Crash

(* Run [f] with a hook that raises at [point], simulating a kill there. The
   database handle used inside [f] must be abandoned afterwards; only
   [Db.open_dir] on the directory is meaningful, as after a real crash. *)
let crash_at point f =
  W.set_failpoint (Some (fun p -> if p = point then raise Crash));
  Fun.protect
    ~finally:(fun () -> W.set_failpoint None)
    (fun () ->
      match f () with
      | () -> Alcotest.failf "failpoint %s never fired" point
      | exception Crash -> ())

(* ====================================================================== *)
(* wal: framing and the durable engine API                                 *)
(* ====================================================================== *)

let sample_records =
  [
    W.Stmt "INSERT INTO t VALUES (1, 'one')";
    W.Batch [ "UPDATE t SET v = 'x' WHERE id = 1"; "DELETE FROM t WHERE id = 2" ];
    W.Batch [];
    W.Stmt "";
    W.Stmt "INSERT INTO t VALUES (3, 'embedded; -- hostile\n''quote''')";
  ]

let write_sample_wal dir =
  let path = Filename.concat dir "wal.0.log" in
  let w = W.open_writer ~policy:W.Never ~gen:0 path in
  List.iter (W.append w) sample_records;
  W.close w;
  path

let test_crc32 () =
  (* the IEEE 802.3 check value *)
  check int_t "check vector" 0xCBF43926 (W.crc32 "123456789");
  check int_t "empty string" 0 (W.crc32 "");
  check bool_t "sensitive to change" true (W.crc32 "abc" <> W.crc32 "abd")

let test_roundtrip () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = write_sample_wal dir in
  let r = W.read_file path in
  check bool_t "records survive the round trip" true
    (r.W.records = sample_records);
  check int_t "generation" 0 r.W.file_gen;
  check int_t "no torn tail" 0 r.W.torn_bytes;
  check int_t "valid_len is the whole file"
    (String.length (read_bytes path))
    r.W.valid_len

let test_truncate_every_offset () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = write_sample_wal dir in
  let image = read_bytes path in
  let ends = W.frame_ends path in
  check int_t "one frame per record" (List.length sample_records)
    (List.length ends);
  let trunc = Filename.concat dir "trunc.log" in
  for len = 0 to String.length image do
    write_bytes trunc (String.sub image 0 len);
    let r = W.read_file trunc in
    let k = List.length (List.filter (fun e -> e <= len) ends) in
    if List.length r.W.records <> k || r.W.records <> take k sample_records
    then
      Alcotest.failf "truncated at %d: expected the first %d records, got %d"
        len k (List.length r.W.records);
    if len < 15 then begin
      (* header torn: no generation, everything is tail *)
      check int_t "torn header gen" (-1) r.W.file_gen;
      check int_t "torn header tail" len r.W.torn_bytes
    end
    else
      check int_t
        (Printf.sprintf "valid + torn tile the file at %d" len)
        len
        (r.W.valid_len + r.W.torn_bytes)
  done

let test_corrupt_record_ends_prefix () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = write_sample_wal dir in
  let image = read_bytes path in
  let ends = W.frame_ends path in
  (* flip one byte inside the payload of the second record: the first
     record must survive, everything from the flip's frame on is tail *)
  let first_end = List.nth ends 0 in
  let bad = Bytes.of_string image in
  Bytes.set bad (first_end + 12)
    (Char.chr (Char.code (Bytes.get bad (first_end + 12)) lxor 0x40));
  let trunc = Filename.concat dir "flip.log" in
  write_bytes trunc (Bytes.to_string bad);
  let r = W.read_file trunc in
  check int_t "prefix before the flip" 1 (List.length r.W.records);
  check int_t "valid_len stops at the flip" first_end r.W.valid_len

let test_writer_truncates_torn_tail () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = write_sample_wal dir in
  let image = read_bytes path in
  let ends = W.frame_ends path in
  let cut = List.nth ends 1 + 3 in
  (* mid-record *)
  write_bytes path (String.sub image 0 cut);
  let w = W.open_writer ~policy:W.Never ~gen:0 path in
  check int_t "reopened size is the valid prefix" (List.nth ends 1) (W.size w);
  W.append w (W.Stmt "after recovery");
  W.close w;
  let r = W.read_file path in
  check bool_t "append lands after the surviving prefix" true
    (r.W.records = take 2 sample_records @ [ W.Stmt "after recovery" ]);
  check int_t "clean file" 0 r.W.torn_bytes

let test_writer_gen_mismatch () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = write_sample_wal dir in
  (match W.open_writer ~policy:W.Never ~gen:7 path with
  | exception W.Corrupt _ -> ()
  | w ->
      W.close w;
      Alcotest.fail "expected Corrupt on generation mismatch");
  (* header-torn files are reinitialized instead *)
  write_bytes path "OXW";
  let w = W.open_writer ~policy:W.Never ~gen:7 path in
  check int_t "reinitialized to the caller's gen" 7 (W.gen w);
  W.close w;
  check int_t "fresh header" 7 (W.read_file path).W.file_gen

let test_fsync_policies () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let run policy =
    let path = Filename.concat dir "policy.log" in
    (try Sys.remove path with Sys_error _ -> ());
    let w = W.open_writer ~policy ~gen:0 path in
    let creation_syncs = W.fsyncs w in
    for i = 1 to 10 do
      W.append w (W.Stmt (Printf.sprintf "INSERT INTO t VALUES (%d)" i))
    done;
    let n = W.fsyncs w - creation_syncs in
    W.close w;
    (W.appends w, n)
  in
  check (Alcotest.pair int_t int_t) "Always syncs per append" (10, 10)
    (run W.Always);
  check (Alcotest.pair int_t int_t) "Every 3 syncs on the interval" (10, 3)
    (run (W.Every 3));
  check (Alcotest.pair int_t int_t) "Never leaves syncing to close" (10, 0)
    (run W.Never)

(* --- the durable engine API -------------------------------------------- *)

let seed_stmts =
  [
    "CREATE TABLE t (id INT NOT NULL, v TEXT)";
    "INSERT INTO t VALUES (1, 'one')";
    "INSERT INTO t VALUES (2, 'two'), (3, 'three')";
    "UPDATE t SET v = 'ONE' WHERE id = 1";
    "DELETE FROM t WHERE id = 2";
    "INSERT INTO t VALUES (4, 'four; -- not a comment\n''line''')";
  ]

(* the state after replaying the first [k] seed statements, as a dump *)
let expected_dump k =
  let db = D.create () in
  List.iter (fun s -> ignore (D.exec db s)) (take k seed_stmts);
  D.dump db

let test_open_close_reopen () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Always dir in
  check bool_t "durable" true (D.is_durable db);
  check (Alcotest.option string_t) "db_dir" (Some dir) (D.db_dir db);
  List.iter (fun s -> ignore (D.exec db s)) seed_stmts;
  let live = D.dump db in
  D.close db;
  check bool_t "closed handle is no longer durable" false (D.is_durable db);
  let db2 = D.open_dir dir in
  check string_t "recovered state equals the live state" live (D.dump db2);
  (match D.last_recovery db2 with
  | None -> Alcotest.fail "open_dir must report recovery stats"
  | Some r ->
      check int_t "gen 0" 0 r.D.rec_gen;
      check bool_t "no checkpoint yet" false r.D.rec_checkpoint;
      check int_t "one record per autocommit statement"
        (List.length seed_stmts) r.D.rec_records;
      check int_t "statement count" (List.length seed_stmts) r.D.rec_statements;
      check int_t "clean log" 0 r.D.rec_torn_bytes);
  D.close db2

let test_select_not_logged () =
  with_dir @@ fun dir ->
  let db = D.open_dir dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
  ignore (D.exec db "INSERT INTO t VALUES (1)");
  let size = D.wal_size db in
  ignore (D.query db "SELECT id FROM t");
  ignore (D.query db "SELECT count(*) FROM t WHERE id > 0");
  check int_t "reads do not grow the log" size (D.wal_size db);
  D.close db

let test_txn_batching () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Always dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
  D.with_transaction db (fun () ->
      ignore (D.exec db "INSERT INTO t VALUES (1)");
      ignore (D.exec db "INSERT INTO t VALUES (2)"));
  (* one committed transaction = one Batch record *)
  let wal = Filename.concat dir "wal.0.log" in
  (match (W.read_file wal).W.records with
  | [ W.Stmt _; W.Batch [ _; _ ] ] -> ()
  | rs -> Alcotest.failf "unexpected log shape (%d records)" (List.length rs));
  (* rolled-back work must leave no trace in the log *)
  let size = D.wal_size db in
  (try
     D.with_transaction db (fun () ->
         ignore (D.exec db "INSERT INTO t VALUES (99)");
         failwith "abort")
   with Failure _ -> ());
  check int_t "rollback leaves the log untouched" size (D.wal_size db);
  D.close db;
  let db2 = D.open_dir dir in
  check int_t "recovered rows" 2
    (List.length (D.query db2 "SELECT id FROM t"));
  check int_t "aborted row absent" 0
    (List.length (D.query db2 "SELECT id FROM t WHERE id = 99"));
  D.close db2

let test_prepared_and_bulk_logged () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Always dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL, v TEXT, f FLOAT)");
  let s = D.prepare db "INSERT INTO t VALUES (?, ?, ?)" in
  ignore (D.Stmt.exec s [| V.Int 1; V.Str "it's ; tricky"; V.Float 0.5 |]);
  ignore (D.Stmt.exec s [| V.Int 2; V.Null; V.Float 1e22 |]);
  ignore
    (D.insert_many db "t"
       [
         [| V.Int 3; V.Str "bulk"; V.Float nan |];
         [| V.Int 4; V.Str "rows"; V.Float infinity |];
       ]);
  ignore (D.insert_row db "t" [| V.Int 5; V.Str "single"; V.Null |]);
  (* min_int's magnitude is no int literal *)
  ignore (D.Stmt.exec s [| V.Int max_int; V.Str "max"; V.Null |]);
  ignore
    (D.exec_params db "INSERT INTO t VALUES (?, ?, ?)"
       [| V.Int min_int; V.Str "min"; V.Null |]);
  let live = D.dump db in
  D.close db;
  let db2 = D.open_dir dir in
  check string_t "prepared + bulk writes all replay" live (D.dump db2);
  check int_t "row count" 7 (List.length (D.query db2 "SELECT id FROM t"));
  (match D.query_one db2 "SELECT v FROM t WHERE id = 1" with
  | Some [| V.Str v |] -> check string_t "quoted param survives" "it's ; tricky" v
  | _ -> Alcotest.fail "row 1 missing");
  D.close db2

let test_checkpoint () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Always dir in
  List.iter (fun s -> ignore (D.exec db s)) seed_stmts;
  D.checkpoint db;
  check bool_t "log reset to header" true (D.wal_size db <= 15);
  let files = Sys.readdir dir in
  Array.sort compare files;
  check
    (Alcotest.list string_t)
    "old generation swept"
    [ "checkpoint.1.sql"; "wal.1.log" ]
    (Array.to_list files);
  ignore (D.exec db "INSERT INTO t VALUES (9, 'post-checkpoint')");
  let live = D.dump db in
  D.close db;
  let db2 = D.open_dir dir in
  check string_t "checkpoint + suffix replay" live (D.dump db2);
  (match D.last_recovery db2 with
  | Some r ->
      check int_t "gen 1" 1 r.D.rec_gen;
      check bool_t "loaded the snapshot" true r.D.rec_checkpoint;
      check int_t "only the suffix replays" 1 r.D.rec_records
  | None -> Alcotest.fail "no recovery stats");
  D.close db2

let test_auto_checkpoint () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~auto_checkpoint:400 dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL, v TEXT)");
  for i = 1 to 40 do
    ignore
      (D.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'row %d')" i i))
  done;
  check bool_t "log stays under the threshold plus one record" true
    (D.wal_size db < 600);
  let live = D.dump db in
  D.close db;
  let db2 = D.open_dir dir in
  check string_t "state survives auto checkpoints" live (D.dump db2);
  check bool_t "several generations elapsed" true
    (match D.last_recovery db2 with Some r -> r.D.rec_gen > 1 | None -> false);
  D.close db2

let test_in_memory_unaffected () =
  let db = D.create () in
  check bool_t "not durable" false (D.is_durable db);
  check (Alcotest.option string_t) "no dir" None (D.db_dir db);
  check int_t "no wal" 0 (D.wal_size db);
  check bool_t "no recovery stats" true (D.last_recovery db = None);
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
  ignore (D.exec db "INSERT INTO t VALUES (1)");
  (match D.checkpoint db with
  | exception D.Sql_error _ -> ()
  | () -> Alcotest.fail "checkpoint must require a durable database");
  D.close db (* a no-op, but must not raise *)

let test_obs_counters () =
  with_dir @@ fun dir ->
  Obs.reset ();
  let db = D.open_dir ~fsync:W.Always dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
  ignore (D.exec db "INSERT INTO t VALUES (1)");
  D.close db;
  let db2 = D.open_dir dir in
  D.close db2;
  check int_t "wal.append" 2 (Obs.counter_value "wal.append");
  check bool_t "wal.fsync counted" true (Obs.counter_value "wal.fsync" >= 2);
  check int_t "wal.replayed" 2 (Obs.counter_value "wal.replayed");
  let report = Obs.Report.to_text () in
  check bool_t "recovery latency recorded" true
    (Astring_contains.contains report "db.recovery");
  Obs.reset ()

(* ====================================================================== *)
(* wal-crash: fault injection                                              *)
(* ====================================================================== *)

(* Build a durable database from [seed_stmts] (one WAL record each), then
   for EVERY byte offset of the log: copy the directory with the log
   truncated at that offset, recover, and demand exactly the state produced
   by the longest record prefix that survives the cut. *)
let test_truncate_wal_every_offset () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Never dir in
  List.iter (fun s -> ignore (D.exec db s)) seed_stmts;
  D.close db;
  let wal = Filename.concat dir "wal.0.log" in
  let image = read_bytes wal in
  let ends = W.frame_ends wal in
  let expected = Array.init (List.length seed_stmts + 1) expected_dump in
  with_dir @@ fun dir2 ->
  Unix.mkdir dir2 0o755;
  let wal2 = Filename.concat dir2 "wal.0.log" in
  for len = 0 to String.length image do
    write_bytes wal2 (String.sub image 0 len);
    let k = List.length (List.filter (fun e -> e <= len) ends) in
    let db = D.open_dir dir2 in
    let dump = D.dump db in
    let stats = D.last_recovery db in
    D.close db;
    if dump <> expected.(k) then
      Alcotest.failf "truncated at %d: state is not the %d-statement prefix"
        len k;
    (match stats with
    | Some r ->
        if r.D.rec_records <> k then
          Alcotest.failf "truncated at %d: replayed %d records, expected %d"
            len r.D.rec_records k
    | None -> Alcotest.fail "no recovery stats");
    (* recovery truncated the tail: a second open replays the same prefix *)
    if len mod 7 = 0 then begin
      let db = D.open_dir dir2 in
      let again = D.dump db in
      D.close db;
      check string_t
        (Printf.sprintf "reopen after recovery at %d is stable" len)
        dump again
    end
  done

(* After recovery from a cut, the database must accept new writes and make
   them durable — the torn tail must not poison subsequent appends. *)
let test_write_after_recovery () =
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Never dir in
  List.iter (fun s -> ignore (D.exec db s)) seed_stmts;
  D.close db;
  let wal = Filename.concat dir "wal.0.log" in
  let image = read_bytes wal in
  let ends = W.frame_ends wal in
  let cut = List.nth ends 2 + 5 in
  (* mid-record: 3 statements survive *)
  write_bytes wal (String.sub image 0 cut);
  let db = D.open_dir ~fsync:W.Always dir in
  ignore (D.exec db "INSERT INTO t VALUES (7, 'fresh')");
  let live = D.dump db in
  D.close db;
  let db2 = D.open_dir dir in
  check string_t "prefix + fresh write" live (D.dump db2);
  check int_t "recovered record count" 4
    (match D.last_recovery db2 with Some r -> r.D.rec_records | None -> -1);
  D.close db2

let test_crash_in_commit () =
  let run point =
    with_dir @@ fun dir ->
    let db = D.open_dir ~fsync:W.Always dir in
    ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
    ignore (D.exec db "INSERT INTO t VALUES (1)");
    crash_at point (fun () ->
        D.with_transaction db (fun () ->
            ignore (D.exec db "INSERT INTO t VALUES (2)");
            ignore (D.exec db "INSERT INTO t VALUES (3)")));
    let db2 = D.open_dir dir in
    let ids =
      List.map
        (function [| V.Int i |] -> i | _ -> -1)
        (D.query db2 "SELECT id FROM t ORDER BY id")
    in
    D.close db2;
    ids
  in
  (* killed before the batch reaches the log: the transaction vanishes
     whole; killed after: it is durable in full — never half of it *)
  check (Alcotest.list int_t) "crash before logging loses the txn whole"
    [ 1 ]
    (run "commit.before_log");
  check (Alcotest.list int_t) "crash after logging keeps the txn whole"
    [ 1; 2; 3 ]
    (run "commit.logged")

let test_crash_in_checkpoint () =
  let points =
    [
      "checkpoint.begin";
      "checkpoint.temp_written";
      "checkpoint.wal_created";
      "checkpoint.renamed";
      "checkpoint.switched";
    ]
  in
  List.iter
    (fun point ->
      with_dir @@ fun dir ->
      let db = D.open_dir ~fsync:W.Always dir in
      List.iter (fun s -> ignore (D.exec db s)) seed_stmts;
      let full = D.dump db in
      crash_at point (fun () -> D.checkpoint db);
      let db2 = D.open_dir dir in
      let dump = D.dump db2 in
      if dump <> full then
        Alcotest.failf "kill at %s lost data during checkpoint" point;
      (* the survivor is fully usable: write, checkpoint, reopen *)
      ignore (D.exec db2 "INSERT INTO t VALUES (8, 'post-crash')");
      D.checkpoint db2;
      let live = D.dump db2 in
      D.close db2;
      let db3 = D.open_dir dir in
      if D.dump db3 <> live then
        Alcotest.failf "state diverged after recovering from %s" point;
      (* exactly one generation remains on disk *)
      let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
      (match files with
      | [ c; w ]
        when Filename.check_suffix c ".sql" && Filename.check_suffix w ".log"
        ->
          ()
      | _ ->
          Alcotest.failf "kill at %s left debris: %s" point
            (String.concat ", " files));
      D.close db3)
    points

let test_stale_tmp_swept () =
  with_dir @@ fun dir ->
  let db = D.open_dir dir in
  ignore (D.exec db "CREATE TABLE t (id INT NOT NULL)");
  D.close db;
  (* debris a crash between checkpoint steps could leave behind *)
  write_bytes (Filename.concat dir "checkpoint.1.sql.tmp") "half a dump";
  write_bytes (Filename.concat dir "wal.7.log") "OXW";
  let db2 = D.open_dir dir in
  check int_t "recovered data intact" 0
    (List.length (D.query db2 "SELECT id FROM t"));
  D.close db2;
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  check (Alcotest.list string_t) "debris swept" [ "wal.0.log" ] files

(* Store-level crash consistency: shred a document into a durable engine,
   run updates each in its own transaction (one Batch record per op), kill
   at random WAL offsets, recover, and demand the store pass its structural
   integrity check and serialize to the exact document some op-prefix
   produced. *)
let test_store_crash_recovery () =
  let module O = Ordered_xml in
  with_dir @@ fun dir ->
  let db = D.open_dir ~fsync:W.Never dir in
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:5 () in
  let store = O.Api.Store.create db ~name:"s" O.Encoding.Dewey_enc doc in
  D.checkpoint db;
  (* from here on: one op = one transaction = one WAL record *)
  let serialize () =
    Xmllib.Printer.document_to_string (O.Api.Store.document store)
  in
  let snaps = ref [ serialize () ] in
  let rng = Xmllib.Rng.create 4242 in
  let frag k =
    Xmllib.Types.element "item"
      ~attrs:[ Xmllib.Types.attr "k0" (string_of_int k) ]
      [ Xmllib.Types.text (Printf.sprintf "op %d" k) ]
  in
  for i = 1 to 12 do
    O.Api.Store.atomically store (fun () ->
        let count = O.Api.Store.count store "/doc/item" in
        match Xmllib.Rng.int rng 3 with
        | 0 when count > 2 ->
            let k = 1 + Xmllib.Rng.int rng count in
            (match
               O.Api.Store.query_ids store (Printf.sprintf "/doc/item[%d]" k)
             with
            | [ id ] -> ignore (O.Api.Store.delete_subtree store ~id)
            | _ -> ())
        | 1 ->
            let pos = 1 + Xmllib.Rng.int rng (count + 1) in
            ignore
              (O.Api.Store.insert_subtree store
                 ~parent:(O.Api.Store.root_id store)
                 ~pos (frag i))
        | _ ->
            let k = 1 + Xmllib.Rng.int rng count in
            (match
               O.Api.Store.query_ids store (Printf.sprintf "/doc/item[%d]" k)
             with
            | [ id ] ->
                ignore
                  (O.Api.Store.set_attribute store ~id ~name:"k1"
                     ~value:(string_of_int i))
            | _ -> ()));
    snaps := serialize () :: !snaps
  done;
  let snaps = Array.of_list (List.rev !snaps) in
  D.close db;
  let gen1 = Filename.concat dir "wal.1.log" in
  let image = read_bytes gen1 in
  let ends = W.frame_ends gen1 in
  check int_t "one record per op" 12 (List.length ends);
  (* every frame boundary, plus cuts landing inside each record *)
  let cuts =
    List.concat_map (fun e -> [ e; e + 4 ]) (15 :: ends)
    |> List.filter (fun c -> c <= String.length image)
    |> List.sort_uniq compare
  in
  with_dir @@ fun dir2 ->
  Unix.mkdir dir2 0o755;
  let ckpt = read_bytes (Filename.concat dir "checkpoint.1.sql") in
  write_bytes (Filename.concat dir2 "checkpoint.1.sql") ckpt;
  List.iter
    (fun cut ->
      write_bytes (Filename.concat dir2 "wal.1.log")
        (String.sub image 0 cut);
      let k = List.length (List.filter (fun e -> e <= cut) ends) in
      let db = D.open_dir dir2 in
      let store = O.Api.Store.open_existing db ~name:"s" O.Encoding.Dewey_enc in
      (match O.Api.Store.check store with
      | Ok () -> ()
      | Error msgs ->
          Alcotest.failf "cut at %d: integrity violated: %s" cut
            (String.concat "; " msgs));
      let got =
        Xmllib.Printer.document_to_string (O.Api.Store.document store)
      in
      D.close db;
      if got <> snaps.(k) then
        Alcotest.failf "cut at %d: document is not the %d-op prefix" cut k)
    cuts

let tests =
  ( "wal",
    [
      Alcotest.test_case "crc32 vectors" `Quick test_crc32;
      Alcotest.test_case "record framing round trip" `Quick test_roundtrip;
      Alcotest.test_case "read_file at every truncation offset" `Quick
        test_truncate_every_offset;
      Alcotest.test_case "bit flip ends the valid prefix" `Quick
        test_corrupt_record_ends_prefix;
      Alcotest.test_case "writer truncates torn tail" `Quick
        test_writer_truncates_torn_tail;
      Alcotest.test_case "writer generation checks" `Quick
        test_writer_gen_mismatch;
      Alcotest.test_case "fsync policies" `Quick test_fsync_policies;
      Alcotest.test_case "open, write, close, reopen" `Quick
        test_open_close_reopen;
      Alcotest.test_case "reads are not logged" `Quick test_select_not_logged;
      Alcotest.test_case "transaction batching and rollback" `Quick
        test_txn_batching;
      Alcotest.test_case "prepared and bulk writes are logged" `Quick
        test_prepared_and_bulk_logged;
      Alcotest.test_case "checkpoint folds the log" `Quick test_checkpoint;
      Alcotest.test_case "auto checkpoint" `Quick test_auto_checkpoint;
      Alcotest.test_case "in-memory databases are unaffected" `Quick
        test_in_memory_unaffected;
      Alcotest.test_case "observability counters" `Quick test_obs_counters;
    ] )

let crash_tests =
  ( "wal-crash",
    [
      Alcotest.test_case "truncate the WAL at every byte offset" `Quick
        test_truncate_wal_every_offset;
      Alcotest.test_case "writes after recovery are durable" `Quick
        test_write_after_recovery;
      Alcotest.test_case "kill inside commit" `Quick test_crash_in_commit;
      Alcotest.test_case "kill at every checkpoint step" `Quick
        test_crash_in_checkpoint;
      Alcotest.test_case "interrupted-checkpoint debris is swept" `Quick
        test_stale_tmp_swept;
      Alcotest.test_case "store-level crash recovery" `Quick
        test_store_crash_recovery;
    ] )
