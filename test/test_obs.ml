(* Observability: metric registries, percentile math, span trees, and the
   instrumented executor behind Db.explain_analyze. *)

module D = Reldb.Db

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let float_t = Alcotest.float 1e-9

(* tests share the process-global registries: start each one clean *)
let fresh () =
  Obs.set_enabled true;
  Obs.reset ()

let test_counter () =
  fresh ();
  let c = Obs.Counter.create "c.test" in
  check int_t "initial" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  check int_t "after incr+add" 11 (Obs.Counter.value c);
  (* create finds, it does not reset *)
  let c' = Obs.Counter.create "c.test" in
  check int_t "find-or-create aliases" 11 (Obs.Counter.value c');
  Obs.incr "c.test";
  check int_t "name-based incr" 12 (Obs.Counter.value c);
  check bool_t "find" true (Obs.Counter.find "c.test" <> None);
  check bool_t "find missing" true (Obs.Counter.find "c.absent" = None)

let test_histogram_percentiles () =
  fresh ();
  let h = Obs.Histogram.create "h.test" in
  (* observe 1..100 shuffled: nearest-rank percentiles are exact *)
  List.iter
    (fun i -> Obs.Histogram.observe h (float_of_int (((i * 37) mod 100) + 1)))
    (List.init 100 Fun.id);
  check int_t "count" 100 (Obs.Histogram.count h);
  check float_t "sum" 5050.0 (Obs.Histogram.sum h);
  check float_t "min" 1.0 (Obs.Histogram.min_value h);
  check float_t "max" 100.0 (Obs.Histogram.max_value h);
  check float_t "mean" 50.5 (Obs.Histogram.mean h);
  check float_t "p50" 50.0 (Obs.Histogram.p50 h);
  check float_t "p95" 95.0 (Obs.Histogram.p95 h);
  check float_t "p99" 99.0 (Obs.Histogram.p99 h);
  check float_t "p100" 100.0 (Obs.Histogram.percentile h 100.0);
  (* a tiny population: nearest rank of p50 over {1,2} is the 1st sample *)
  let h2 = Obs.Histogram.create "h.two" in
  Obs.Histogram.observe h2 1.0;
  Obs.Histogram.observe h2 2.0;
  check float_t "p50 of two" 1.0 (Obs.Histogram.p50 h2);
  let empty = Obs.Histogram.create "h.empty" in
  check float_t "empty percentile" 0.0 (Obs.Histogram.p50 empty)

let test_disabled_is_inert () =
  fresh ();
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled true) @@ fun () ->
  Obs.incr "off.counter";
  Obs.observe "off.hist" 1.0;
  let ran = ref false in
  let x, spans =
    Obs.Span.collect (fun () ->
        Obs.Span.with_ "off.span" (fun () ->
            ran := true;
            42))
  in
  check int_t "thunk still runs" 42 x;
  check bool_t "ran" true !ran;
  check int_t "no spans recorded" 0 (List.length spans);
  check bool_t "no counter registered" true (Obs.Counter.find "off.counter" = None);
  check bool_t "no histogram registered" true (Obs.Histogram.find "off.hist" = None)

let test_span_nesting () =
  fresh ();
  let x, spans =
    Obs.Span.collect (fun () ->
        Obs.Span.with_ "outer" ~attrs:[ ("k", "v") ] (fun () ->
            Obs.Span.with_ "in1" (fun () -> ());
            Obs.Span.with_ "in2" (fun () -> ());
            7))
  in
  check int_t "result" 7 x;
  let names = List.map (fun s -> s.Obs.Span.sp_name) spans in
  check (Alcotest.list Alcotest.string) "preorder" [ "outer"; "in1"; "in2" ] names;
  let outer = List.hd spans in
  let in1 = List.nth spans 1 in
  check int_t "outer depth" 0 outer.Obs.Span.sp_depth;
  check int_t "inner depth" 1 in1.Obs.Span.sp_depth;
  check bool_t "attrs kept" true (outer.Obs.Span.sp_attrs = [ ("k", "v") ]);
  check bool_t "outer covers inner" true
    (Obs.Span.elapsed_ms outer >= Obs.Span.elapsed_ms in1);
  (* aggregate folds repeated names *)
  let agg = Obs.Span.aggregate spans in
  (match List.find_opt (fun (n, _, _) -> n = "in1") agg with
  | Some (_, n, _) -> check int_t "in1 count" 1 n
  | None -> Alcotest.fail "in1 missing from aggregate");
  (* rendering indents by depth *)
  let text = Obs.Span.to_string spans in
  check bool_t "render mentions outer" true
    (String.length text > 0 && String.sub text 0 5 = "outer");
  (* spans outside collect are not retained *)
  Obs.Span.with_ "loose" (fun () -> ());
  let _, spans2 = Obs.Span.collect (fun () -> ()) in
  check int_t "collect starts empty" 0 (List.length spans2)

let test_span_exception () =
  fresh ();
  let boom () =
    Obs.Span.with_ "fail" (fun () -> failwith "boom")
  in
  let _, spans =
    Obs.Span.collect (fun () -> try boom () with Failure _ -> ())
  in
  check int_t "failing span still recorded" 1 (List.length spans)

let test_db_exec_metrics () =
  fresh ();
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT)");
  ignore (D.exec db "INSERT INTO t VALUES (1), (2), (3)");
  ignore (D.exec db "SELECT * FROM t");
  ignore (D.exec db "SELECT * FROM t");
  (match Obs.Counter.find "db.statements" with
  | Some c -> check int_t "statement counter" 4 (Obs.Counter.value c)
  | None -> Alcotest.fail "db.statements not registered");
  (match Obs.Histogram.find "db.exec.select" with
  | Some h -> check int_t "select histogram" 2 (Obs.Histogram.count h)
  | None -> Alcotest.fail "db.exec.select not registered");
  let report = Obs.Report.to_text () in
  check bool_t "report mentions selects" true
    (Astring_contains.contains report "db.exec.select");
  let json = Obs.Report.to_json () in
  check bool_t "json mentions counters" true (Astring_contains.contains json "\"counters\"")

let test_slow_query_log () =
  fresh ();
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE t (a INT)");
  D.set_slow_query_threshold db (Some 0.0);
  ignore (D.exec db "INSERT INTO t VALUES (1)");
  ignore (D.exec db "SELECT * FROM t");
  (match D.slow_queries db with
  | (_, sql) :: _ -> check bool_t "newest first" true (Astring_contains.contains sql "SELECT")
  | [] -> Alcotest.fail "slow log empty at threshold 0");
  check int_t "both logged" 2 (List.length (D.slow_queries db));
  D.set_slow_query_threshold db None;
  ignore (D.exec db "SELECT * FROM t");
  check int_t "disabled stops logging" 2 (List.length (D.slow_queries db));
  D.clear_slow_queries db;
  check int_t "cleared" 0 (List.length (D.slow_queries db))

let test_explain_analyze () =
  fresh ();
  let db = D.create () in
  ignore (D.exec db "CREATE TABLE emp (id INT, dept INT)");
  for i = 1 to 20 do
    ignore
      (D.exec db (Printf.sprintf "INSERT INTO emp VALUES (%d, %d)" i (i mod 3)))
  done;
  D.reset_counters db;
  let before = D.rows_read db in
  let out = D.explain_analyze db "SELECT * FROM emp WHERE dept = 1" [||] in
  let scanned = D.rows_read db - before in
  check bool_t "names the operator" true (Astring_contains.contains out "SeqScan emp");
  check bool_t "scan produced every row" true
    (Astring_contains.contains out (Printf.sprintf "rows=%d" scanned));
  check bool_t "filter output present" true (Astring_contains.contains out "rows=7");
  check bool_t "total line" true (Astring_contains.contains out "logical rows read");
  (* rejects non-SELECT *)
  (match D.explain_analyze db "INSERT INTO emp VALUES (0, 0)" [||] with
  | exception D.Sql_error _ -> ()
  | _ -> Alcotest.fail "explain_analyze accepted an INSERT");
  (* loop counts: the inner side of a nested-loop join restarts per outer row *)
  let out2 =
    D.explain_analyze db
      "SELECT * FROM emp a, emp b WHERE a.id = 1 AND b.dept = a.dept" [||]
  in
  check bool_t "join plan shown" true
    (Astring_contains.contains out2 "Join" || Astring_contains.contains out2 "loops=")

let tests =
  ( "obs",
    [
      Alcotest.test_case "counters" `Quick test_counter;
      Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
      Alcotest.test_case "disabled switch" `Quick test_disabled_is_inert;
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span on exception" `Quick test_span_exception;
      Alcotest.test_case "db exec metrics" `Quick test_db_exec_metrics;
      Alcotest.test_case "slow query log" `Quick test_slow_query_log;
      Alcotest.test_case "explain analyze" `Quick test_explain_analyze;
    ] )
