(* Bench regression guard. Three checks, fast enough to wire into
   `make check`; the repeated, per-layer timings are perfbench's
   (perfbench/run.py):
   - counters: after warm-up, Q1-Q7 on GLOBAL, LOCAL and DEWEY bump the
     catalog version 0 times and hit the plan cache on at least 95 % of
     their statements (deterministic, so no tolerance is needed);
   - insert reads: after warm-up, one front insert per encoding reads at
     most [rows_renumbered + 100] rows, so an insert pays for the rows it
     renumbers and not for a scan of the table;
   - in-place renumbering: with Obs on around that insert, every encoding
     rewrites at least one index entry per renumbered row in its slot
     ([index.rewritten]) and deletes and re-inserts none ([index.moved] =
     0); ORDPATH's caret renumbering lifts the moved siblings last-first, so
     none crosses a sibling still waiting;
   - document-order reads: after warm-up, Q7 ([following::]) on LOCAL reads
     at most twice the rows GLOBAL reads: the matches and their ancestors,
     not the whole document;
   - positional reads: after warm-up, on XMark scale 4, Q2 ([bidder[1]]) and
     Q3 ([bidder[last()]]) on GLOBAL, LOCAL and DEWEY read at most Q1's rows
     plus two per context (an open_auction): each context's probe of the
     (parent, tag, order) index stops at its first or last bidder;
   - writes: after each write shape has run once, a second front insert,
     set_text and delete on every encoding miss the plan cache 0 times and
     parse no SQL (no [sql-parse] span): every statement a write sends is a
     fixed text with its per-call values bound to [?] slots, planned once;
   - runs: on XMark scale 4, Q1-Q4 issue one statement each on GLOBAL,
     LOCAL and DEWEY and Q6 one on GLOBAL and DEWEY; open_auction[k]/
     bidder[1] for 5 new k misses the plan cache 0 times;
   - timing: Q1 over GLOBAL must not regress more than 3x over the
     checked-in baseline (bench/baseline.json). *)

module O = Ordered_xml

(* measure the engine, not the instrumentation *)
let () = Obs.set_enabled false

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error m -> die "bench-smoke: %s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* minimal scan for ["q1_global_us": <number>] — not a JSON parser, just
   enough to read the one checked-in figure without a dependency *)
let baseline_us path =
  let text = read_file path in
  let key = "\"q1_global_us\"" in
  let klen = String.length key and len = String.length text in
  let rec find i =
    if i + klen > len then die "%s: no %s key" path key
    else if String.sub text i klen = key then i + klen
    else find (i + 1)
  in
  let i = ref (find 0) in
  while !i < len && (text.[!i] = ':' || text.[!i] = ' ') do
    incr i
  done;
  let j = ref !i in
  while
    !j < len && (match text.[!j] with '0' .. '9' | '.' -> true | _ -> false)
  do
    incr j
  done;
  if !j = !i then die "%s: no number after %s" path key;
  float_of_string (String.sub text !i (!j - !i))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Q1-Q7 (Q8 is a subtree fetch, not a path) *)
let paths =
  List.filter_map (fun (q : O.Workload.query) -> q.O.Workload.q_xpath)
    O.Workload.queries

let min_hit_ratio = 0.95

let check_counters doc =
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"b" enc doc in
      let run () = List.iter (fun p -> ignore (O.Api.Store.query store p)) paths in
      run ();
      let version () = Reldb.Catalog.version (Reldb.Db.catalog db) in
      let v0 = version () and h0, m0, _ = Reldb.Db.plan_cache_stats db in
      for _ = 1 to 5 do
        run ()
      done;
      let h1, m1, _ = Reldb.Db.plan_cache_stats db in
      let hits = h1 - h0 and misses = m1 - m0 in
      let ratio = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
      let bumps = version () - v0 in
      Printf.printf
        "bench-smoke: q1-q7/%s catalog bumps %d, plan cache %d/%d hits (%.3f)\n"
        (O.Encoding.name enc) bumps hits (hits + misses) ratio;
      if bumps <> 0 then
        die "bench-smoke: FAIL - reads bumped the catalog version on %s"
          (O.Encoding.name enc);
      if ratio < min_hit_ratio then
        die "bench-smoke: FAIL - plan-cache hit ratio %.3f < %.2f on %s" ratio
          min_hit_ratio (O.Encoding.name enc))
    [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]

let max_extra_reads = 100

let check_insert_reads doc =
  let fragment = Xmllib.Types.element "item" [ Xmllib.Types.text "new" ] in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"b" enc doc in
      let root = O.Api.Store.root_id store in
      let insert () = O.Api.Store.insert_subtree store ~parent:root ~pos:1 fragment in
      ignore (insert ());
      let r0 = Reldb.Db.rows_read db in
      let w0 = Obs.counter_value "index.rewritten"
      and m0 = Obs.counter_value "index.moved" in
      Obs.set_enabled true;
      let st = Fun.protect ~finally:(fun () -> Obs.set_enabled false) insert in
      let reads = Reldb.Db.rows_read db - r0 in
      let rewritten = Obs.counter_value "index.rewritten" - w0
      and moved = Obs.counter_value "index.moved" - m0 in
      let renumbered = st.O.Update.rows_renumbered in
      Printf.printf
        "bench-smoke: front insert/%s read %d rows, renumbered %d (limit %d); \
         index entries rewritten %d, moved %d\n"
        (O.Encoding.name enc) reads renumbered (renumbered + max_extra_reads)
        rewritten moved;
      if reads > renumbered + max_extra_reads then
        die "bench-smoke: FAIL - a front insert on %s read %d rows for %d renumbered"
          (O.Encoding.name enc) reads renumbered;
      if moved <> 0 || rewritten < renumbered then
        die
          "bench-smoke: FAIL - a front insert on %s renumbered %d rows but \
           rewrote %d index entries in place and moved %d"
          (O.Encoding.name enc) renumbered rewritten moved)
    O.Encoding.all

let check_write_parses doc =
  let fragment = Xmllib.Types.element "item" [ Xmllib.Types.text "new" ] in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"b" enc doc in
      let root = O.Api.Store.root_id store in
      let misses = ref 0 and parses = ref 0 in
      let write ~measure f =
        if not measure then ignore (f ())
        else begin
          let _, m0, _ = Reldb.Db.plan_cache_stats db in
          Obs.set_enabled true;
          let _, spans =
            Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () ->
                Obs.Span.collect f)
          in
          let _, m1, _ = Reldb.Db.plan_cache_stats db in
          misses := !misses + m1 - m0;
          parses :=
            !parses
            + List.length
                (List.filter (fun sp -> sp.Obs.Span.sp_name = "sql-parse") spans)
        end
      in
      (* a front insert, set_text on its text node, then its delete; the
         ids are looked up between the writes, outside the measurement *)
      let round ~measure =
        write ~measure (fun () ->
            O.Api.Store.insert_subtree store ~parent:root ~pos:1 fragment);
        let id q = List.hd (O.Api.Store.query_ids store q) in
        let item = id "/site/item[1]" and text = id "/site/item[1]/text()" in
        write ~measure (fun () -> O.Api.Store.set_text store ~id:text "changed");
        write ~measure (fun () -> O.Api.Store.delete_subtree store ~id:item)
      in
      round ~measure:false;
      round ~measure:true;
      Printf.printf
        "bench-smoke: front insert + set_text + delete/%s after warm-up: %d \
         plan-cache misses, %d sql-parse spans (limit 0)\n"
        (O.Encoding.name enc) !misses !parses;
      if !misses <> 0 || !parses <> 0 then
        die "bench-smoke: FAIL - writes on %s missed the plan cache %d times and parsed %d statements"
          (O.Encoding.name enc) !misses !parses)
    O.Encoding.all

let xpath id =
  Option.get
    (List.find (fun (q : O.Workload.query) -> q.O.Workload.q_id = id)
       O.Workload.queries)
      .O.Workload.q_xpath

let check_order_reads doc =
  let q7 = xpath "Q7" in
  let reads enc =
    let db = Reldb.Db.create () in
    let store = O.Api.Store.create db ~name:"b" enc doc in
    ignore (O.Api.Store.query store q7);
    let r0 = Reldb.Db.rows_read db in
    ignore (O.Api.Store.query store q7);
    Reldb.Db.rows_read db - r0
  in
  let local = reads O.Encoding.Local and global = reads O.Encoding.Global in
  Printf.printf "bench-smoke: q7 read %d rows on local, %d on global (limit %d)\n"
    local global (2 * global);
  if local > 2 * global then
    die "bench-smoke: FAIL - q7 on local read %d rows, more than twice global's %d"
      local global

let check_positional_reads () =
  let doc = O.Workload.dataset ~scale:4 in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"b" enc doc in
      (* rows read and results of a warm run *)
      let run id =
        ignore (O.Api.Store.query store (xpath id));
        let r0 = Reldb.Db.rows_read db in
        let res = O.Api.Store.query store (xpath id) in
        (Reldb.Db.rows_read db - r0, List.length res.O.Translate.rows)
      in
      let q1_reads, contexts = run "Q1" in
      let limit = q1_reads + (2 * contexts) in
      List.iter
        (fun id ->
          let reads, _ = run id in
          Printf.printf
            "bench-smoke: %s/%s read %d rows; q1 read %d, %d contexts (limit %d)\n"
            (String.lowercase_ascii id) (O.Encoding.name enc) reads q1_reads
            contexts limit;
          if reads > limit then
            die "bench-smoke: FAIL - %s on %s read %d rows, more than %d" id
              (O.Encoding.name enc) reads limit)
        [ "Q2"; "Q3" ])
    [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]

(* One statement per run: on XMark scale 4, Q1-Q4 are one statement each
   under GLOBAL, LOCAL and DEWEY, and Q6 one under GLOBAL and DEWEY; a
   position is a bound value, so open_auction[k]/bidder[1] for new k misses
   the plan cache 0 times after the first k. *)
let check_runs () =
  let doc = O.Workload.dataset ~scale:4 in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"b" enc doc in
      let single =
        [ "Q1"; "Q2"; "Q3"; "Q4" ] @ if enc = O.Encoding.Local then [] else [ "Q6" ]
      in
      List.iter
        (fun id ->
          let n = (O.Api.Store.query store (xpath id)).O.Translate.statements in
          Printf.printf "bench-smoke: %s/%s issued %d statement(s) (limit 1)\n"
            (String.lowercase_ascii id) (O.Encoding.name enc) n;
          if n <> 1 then
            die "bench-smoke: FAIL - %s on %s issued %d statements, not 1" id
              (O.Encoding.name enc) n)
        single;
      let nth k =
        ignore
          (O.Api.Store.query store
             (Printf.sprintf "/site/open_auctions/open_auction[%d]/bidder[1]" k))
      in
      nth 1;
      let _, m0, _ = Reldb.Db.plan_cache_stats db in
      List.iter nth [ 2; 3; 5; 8; 13 ];
      let _, m1, _ = Reldb.Db.plan_cache_stats db in
      Printf.printf
        "bench-smoke: open_auction[k]/bidder[1]/%s, 5 new k: %d plan-cache misses (limit 0)\n"
        (O.Encoding.name enc) (m1 - m0);
      if m1 <> m0 then
        die "bench-smoke: FAIL - open_auction[k] on %s missed the plan cache %d times"
          (O.Encoding.name enc) (m1 - m0))
    [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]

let () =
  let baseline_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "bench/baseline.json"
  in
  let base = baseline_us baseline_path in
  let doc = O.Workload.dataset ~scale:1 in
  check_counters doc;
  check_insert_reads doc;
  check_order_reads doc;
  check_write_parses doc;
  check_positional_reads ();
  check_runs ();
  let db = Reldb.Db.create () in
  (* the guarded figure is the in-memory engine: opening a database without
     a directory must keep the WAL code out of the write and query paths *)
  if Reldb.Db.is_durable db then die "bench-smoke: Db.create is durable?";
  let store = O.Api.Store.create db ~name:"b" O.Encoding.Global doc in
  let q1 = List.hd paths in
  (* warm-up also fills the plan cache, matching steady-state service *)
  for _ = 1 to 50 do
    ignore (O.Api.Store.query store q1)
  done;
  let runs = 2000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do
    ignore (O.Api.Store.query store q1)
  done;
  let per_run_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int runs in
  Printf.printf
    "bench-smoke: q1/global %.1f us/run (baseline %.1f us, limit %.1f us)\n"
    per_run_us base (3.0 *. base);
  if per_run_us > 3.0 *. base then
    die "bench-smoke: FAIL - Q1 latency regressed more than 3x over baseline";
  (* informational: the same query against a durable (WAL-backed) database.
     Reads are never logged, so this should track the in-memory figure; it
     is printed for the record but not guarded. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oxq_bench_smoke_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let ddb = Reldb.Db.open_dir ~fsync:Reldb.Wal.Never dir in
      let dstore = O.Api.Store.create ddb ~name:"b" O.Encoding.Global doc in
      for _ = 1 to 50 do
        ignore (O.Api.Store.query dstore q1)
      done;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to runs do
        ignore (O.Api.Store.query dstore q1)
      done;
      let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int runs in
      Reldb.Db.close ddb;
      Printf.printf "bench-smoke: q1/global durable %.1f us/run (informational)\n"
        dur_us);
  print_endline "bench-smoke: OK"
