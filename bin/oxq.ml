(* oxq — ordered-XML query tool.

   A small CLI over the library: load an XML file, shred it under a chosen
   order encoding, and run XPath queries (or dump the SQL they translate to,
   or reshape statistics). An in-process demonstration of the full stack.

     oxq query  file.xml '/a/b[1]' --encoding dewey
     oxq sql    file.xml '/a/b[last()]' --encoding global
     oxq stats  file.xml
     oxq tables file.xml --encoding local *)

module O = Ordered_xml

(* [open_in_bin] opens a directory; reading it would fail without the path *)
let read_file path =
  if Sys.is_directory path then raise (Sys_error (path ^ ": is a directory"));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A directory is a database directory (see `oxq dump`); anything else is
   XML. With [--db DIR] the engine is durable: the first run shreds the
   input into DIR (checkpoint + write-ahead log) and later runs recover
   from DIR, ignoring the input file's contents. *)
let load_store ?db_dir path enc =
  match db_dir with
  | Some dir -> (
      let db = Reldb.Db.open_dir dir in
      match O.Api.Store.open_existing db ~name:"doc" enc with
      | store -> (db, store)
      | exception Reldb.Db.Sql_error _ ->
          let doc = Xmllib.Parser.parse_document (read_file path) in
          (db, O.Api.Store.create db ~name:"doc" enc doc))
  | None ->
      if Sys.is_directory path then
        let db = Reldb.Db.open_dir path in
        (db, O.Api.Store.open_existing db ~name:"doc" enc)
      else begin
        let doc = Xmllib.Parser.parse_document (read_file path) in
        let db = Reldb.Db.create () in
        (db, O.Api.Store.create db ~name:"doc" enc doc)
      end

let db_dir_opt =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "db" ] ~docv:"DIR"
        ~doc:
          "Open a durable database in $(docv) (created on first use): the \
           document is recovered from its checkpoint and write-ahead log \
           instead of being reshredded, and committed writes survive \
           crashes. The XML input only seeds $(docv) on the first run.")

let enc_arg =
  let parse s =
    match O.Encoding.of_name s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown encoding %s" s))
  in
  let print ppf e = Format.pp_print_string ppf (O.Encoding.name e) in
  Cmdliner.Arg.conv (parse, print)

let encoding =
  Cmdliner.Arg.(
    value
    & opt enc_arg O.Encoding.Dewey_enc
    & info [ "e"; "encoding" ] ~docv:"ENC"
        ~doc:"Order encoding: global, global-gap, local or dewey.")

let file =
  Cmdliner.Arg.(
    required & pos 0 (some file) None & info [] ~docv:"FILE"
      ~doc:
        "XML input; query, sql, tables and flwor also take a database \
         directory written by $(b,oxq dump).")

let xpath =
  Cmdliner.Arg.(
    required & pos 1 (some string) None & info [] ~docv:"XPATH" ~doc:"Query.")

let wrap f =
  try
    f ();
    0
  with
  | Xmllib.Parser.Parse_error m
  | O.Xpath_parser.Parse_error m
  | O.Flwor.Parse_error m
  | O.Flwor.Eval_error m
  | Reldb.Db.Sql_error m
  | Sys_error m ->
      Printf.eprintf "error: %s\n" m;
      1

let trace_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Print the span tree of the run (load, query phases, engine \
           statements) after the results.")

(* ------------------------------------------------------------------ *)
(* Schema-aware analysis options                                       *)
(* ------------------------------------------------------------------ *)

let dtd_opt =
  Cmdliner.Arg.(
    value
    & opt (some file) None
    & info [ "dtd" ] ~docv:"DTD"
        ~doc:
          "DTD file: enable schema-aware analysis — unsatisfiable steps \
           short-circuit to 0-row plans, provably-singleton positional \
           predicates are dropped, and descendant/following axes are \
           strength-reduced where the schema fixes their shape.")

let root_opt =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "root" ] ~docv:"NAME"
        ~doc:
          "Document root element for schema analysis (default: inferred \
           from the DTD — elements no content model mentions).")

let load_dtd path =
  try Xmllib.Dtd.parse (read_file path)
  with Xmllib.Dtd.Parse_error m ->
    Printf.eprintf "DTD error: %s\n" m;
    exit 2

(* the DTD's reachability graph, built once per command *)
let schema_graph dtd root =
  let roots = Option.map (fun r -> [ r ]) root in
  Analysis.Schema_check.graph ?roots dtd

(* A result row as [oxq query] prints it: an attribute as name="value",
   escaped as a start tag writes it, any other node as its subtree's XML. *)
let result_line store (row : O.Node_row.t) =
  if row.O.Node_row.kind = O.Doc_index.Attr then
    Printf.sprintf "%s=\"%s\"" row.O.Node_row.tag (Xmllib.Printer.escape_attr row.O.Node_row.value)
  else Xmllib.Printer.node_to_string (O.Api.Store.subtree store ~id:row.O.Node_row.id)

let query_cmd =
  let run enc path q trace db_dir dtd_path root =
    wrap (fun () ->
        let go () =
          let db, store = load_store ?db_dir path enc in
          Fun.protect ~finally:(fun () -> Reldb.Db.close db) @@ fun () ->
          let rows () = (O.Api.Store.query store q).O.Translate.rows in
          let rows =
            match dtd_path with
            | None -> rows ()
            | Some dp -> (
                let dtd = load_dtd dp in
                let g = schema_graph dtd root in
                match Xmllib.Dtd.validate dtd (O.Api.Store.document store) with
                | Error msgs ->
                    Printf.eprintf
                      "warning: document does not satisfy the DTD (%d \
                       violation(s)); translating without schema analysis\n"
                      (List.length msgs);
                    rows ()
                | Ok () ->
                    let sat =
                      List.filter_map
                        (fun p ->
                          let r = Analysis.Schema_check.analyze g p in
                          if r.Analysis.Schema_check.satisfiable then
                            Some r.Analysis.Schema_check.rewritten
                          else None)
                        (O.Xpath_parser.parse_union q)
                    in
                    if sat = [] then []
                    else
                      (O.Translate.exec db ~doc:"doc" enc (O.Translate.compile ~doc:"doc" enc sat))
                        .O.Translate.rows)
          in
          Obs.Span.with_ "reconstruct" (fun () -> List.map (result_line store) rows)
        in
        let lines, spans =
          if trace then Obs.Span.collect go else (go (), [])
        in
        List.iter print_endline lines;
        if trace then begin
          print_endline "-- trace:";
          print_string (Obs.Span.to_string spans)
        end)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "query" ~doc:"Evaluate an XPath query; print matches as XML.")
    Cmdliner.Term.(
      const run $ encoding $ file $ xpath $ trace_flag $ db_dir_opt
      $ dtd_opt $ root_opt)

let analyze_flag =
  Cmdliner.Arg.(
    value & flag
    & info [ "analyze" ]
        ~doc:
          "Run EXPLAIN ANALYZE on each compiled run from the document root, \
           its values bound: the physical plan annotated with actual row \
           counts, loop counts and per-operator time.")

let run_path (r : O.Translate.run) =
  O.Xpath_ast.to_string { O.Xpath_ast.absolute = r.O.Translate.from_root; steps = r.O.Translate.steps }

(* the statement a middle-tier step reads its candidates with, if one *)
let rec fetch_sql = function
  | O.Translate.Root r | O.Translate.Context r | O.Translate.Doc_order r -> Some r.O.Translate.sql
  | O.Translate.Prefixes sql -> Some sql
  | O.Translate.With_self f -> fetch_sql f
  | O.Translate.Self_rows | O.Translate.Chain_walk | O.Translate.Levels -> None

(* The compiled segments of each path, as evaluation executes them. *)
let print_segments db ~analyze paths compiled =
  List.iter2
    (fun p segs ->
      Printf.printf "-- compiled: %s\n" (O.Xpath_ast.to_string p);
      List.iteri
        (fun i seg ->
          match seg with
          | O.Translate.Step s ->
              Printf.printf "-- %d. middle-tier step: %s\n" (i + 1)
                (O.Xpath_ast.step_to_string s.O.Translate.step);
              Option.iter print_endline (fetch_sql s.O.Translate.fetch)
          | O.Translate.Run r ->
              Printf.printf "-- %d. run%s%s: %s\n%s\n" (i + 1)
                (if r.O.Translate.from_root then " from the root" else " from the context")
                (if r.O.Translate.sorted then ", sorted" else "")
                (run_path r) r.O.Translate.sql;
              if r.O.Translate.params <> [||] then
                Printf.printf "--    values: %s\n"
                  (String.concat ", "
                     (Array.to_list (Array.map Reldb.Value.to_sql_literal r.O.Translate.params)));
              if analyze then
                if r.O.Translate.from_root then
                  Printf.printf "-- explain analyze:\n%s\n"
                    (Reldb.Db.explain_analyze db r.O.Translate.sql r.O.Translate.params)
                else
                  print_endline
                    "-- explain analyze: this run reads the previous step's context, \
                     which exists only while the query runs")
        segs)
    paths compiled

let sql_cmd =
  let run enc path q analyze db_dir dtd_path root =
    wrap (fun () ->
        let db, store = load_store ?db_dir path enc in
        Fun.protect ~finally:(fun () -> Reldb.Db.close db) @@ fun () ->
        (* the store's compiled query: the value [query] runs next *)
        let paths = O.Xpath_parser.parse_union q in
        print_segments db ~analyze paths (O.Api.Store.compile store q);
        let r = O.Api.Store.query store q in
        Printf.printf "-- executed: %d statement(s), %d result node(s)\n"
          r.O.Translate.statements
          (List.length r.O.Translate.rows);
        List.iter print_endline r.O.Translate.sql_log;
        match dtd_path with
        | None -> ()
        | Some dp ->
            let g = schema_graph (load_dtd dp) root in
            List.iter
              (fun p ->
                let sr = Analysis.Schema_check.analyze g p in
                Printf.printf "-- schema analysis: %s\n"
                  (O.Xpath_ast.to_string p);
                List.iter
                  (fun f ->
                    Printf.printf "  %s\n" (Analysis.Finding.to_string f))
                  sr.Analysis.Schema_check.findings;
                if not sr.Analysis.Schema_check.satisfiable then
                  print_endline
                    "  plan: unsatisfiable under the DTD; 0 rows, no SQL \
                     issued"
                else begin
                  let rw = sr.Analysis.Schema_check.rewritten in
                  if rw <> p then begin
                    Printf.printf "  rewritten: %s\n" (O.Xpath_ast.to_string rw);
                    print_segments db ~analyze:false [ rw ] (O.Translate.compile ~doc:"doc" enc [ rw ])
                  end
                end)
              paths)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sql"
       ~doc:"Show the runs a query compiles to and the statements it executes.")
    Cmdliner.Term.(
      const run $ encoding $ file $ xpath $ analyze_flag $ db_dir_opt
      $ dtd_opt $ root_opt)

let stats_cmd =
  let xpaths =
    Cmdliner.Arg.(
      value & pos_right 0 string []
      & info [] ~docv:"XPATH"
          ~doc:"Queries to run once each, in order, after the load; the metrics include them.")
  in
  let run enc path xpaths =
    wrap (fun () ->
        let doc = Xmllib.Parser.parse_document (read_file path) in
        Format.printf "%a@." Xmllib.Stats.pp (Xmllib.Stats.compute doc);
        (* shred under the chosen encoding so the engine metrics below
           reflect a real load *)
        let db = Reldb.Db.create () in
        let store = O.Api.Store.create db ~name:"doc" enc doc in
        Format.printf "@.%a@." O.Storage.pp (O.Api.Store.storage store);
        List.iter (fun q -> ignore (O.Api.Store.query store q)) xpaths;
        let hits, misses, entries = Reldb.Db.plan_cache_stats db in
        Printf.printf "\nplan cache: %d hit(s), %d miss(es), %d cached plan(s)\n"
          hits misses entries;
        Printf.printf "xpath cache: %d hit(s), %d miss(es), %d compiled quer%s\n"
          (Obs.counter_value "xpath_cache.hit") (Obs.counter_value "xpath_cache.miss")
          (O.Api.Store.cached store)
          (if O.Api.Store.cached store = 1 then "y" else "ies");
        print_newline ();
        print_string (Obs.Report.to_text ()))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "stats"
       ~doc:
         "Structural statistics of the document, storage cost under the \
          chosen encoding, and engine metrics for the load and the given queries.")
    Cmdliner.Term.(const run $ encoding $ file $ xpaths)

let tables_cmd =
  let run enc path db_dir =
    wrap (fun () ->
        let db, store = load_store ?db_dir path enc in
        ignore store;
        let tname = O.Encoding.table_name ~doc:"doc" enc in
        print_string
          (Reldb.Db.render
             (Reldb.Db.exec db (Printf.sprintf "SELECT * FROM %s" tname)));
        print_newline ();
        Reldb.Db.close db)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "tables" ~doc:"Dump the shredded edge table.")
    Cmdliner.Term.(const run $ encoding $ file $ db_dir_opt)

let flwor_cmd =
  let q =
    Cmdliner.Arg.(
      required & pos 1 (some string) None & info [] ~docv:"FLWOR" ~doc:"Query.")
  in
  let run enc path q db_dir =
    wrap (fun () ->
        let db, store = load_store ?db_dir path enc in
        List.iter
          (fun n -> print_string (Xmllib.Printer.pretty ~indent:2 n))
          (O.Api.Store.flwor store q);
        Reldb.Db.close db)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "flwor"
       ~doc:"Run a FLWOR-lite publishing query (for/let/where/order/return).")
    Cmdliner.Term.(const run $ encoding $ file $ q $ db_dir_opt)

let validate_cmd =
  let dtd_file =
    Cmdliner.Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"DTD" ~doc:"DTD file (ELEMENT/ATTLIST declarations).")
  in
  let run path dtd_path =
    wrap (fun () ->
        let doc = Xmllib.Parser.parse_document (read_file path) in
        let dtd =
          try Xmllib.Dtd.parse (read_file dtd_path)
          with Xmllib.Dtd.Parse_error m ->
            Printf.eprintf "DTD error: %s\n" m;
            exit 1
        in
        match Xmllib.Dtd.validate dtd doc with
        | Ok () -> print_endline "valid"
        | Error msgs ->
            List.iter (fun m -> Printf.printf "invalid: %s\n" m) msgs;
            exit 1)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "validate" ~doc:"Validate a document against a DTD.")
    Cmdliner.Term.(const run $ file $ dtd_file)

let dump_cmd =
  let out =
    Cmdliner.Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output database directory.")
  in
  let run enc path out =
    wrap (fun () ->
        let db, _ = load_store ~db_dir:out path enc in
        Reldb.Db.checkpoint db;
        Reldb.Db.close db;
        Printf.printf "wrote %s\n" out)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "dump"
       ~doc:
         "Shred the document into a database directory and checkpoint it \
          (query it by passing the directory to query/sql/tables).")
    Cmdliner.Term.(const run $ encoding $ file $ out)

(* ------------------------------------------------------------------ *)
(* Static analysis (oxq lint)                                          *)
(* ------------------------------------------------------------------ *)

(* A small document shredded under every encoding gives the linter real
   schemas and indexes to check against (unsargable, redundant-distinct and
   plan rules are catalog-aware); the context relations are registered so
   that runs over them plan. *)
let lint_db () =
  let doc =
    Xmllib.Parser.parse_document
      "<doc><item k=\"1\">x</item><item k=\"2\">y</item></doc>"
  in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc ->
      ignore (O.Api.Store.create db ~name:"doc" enc doc);
      O.Node_row.with_relation db (O.Node_row.ctx_relation enc) [] ignore)
    O.Encoding.all;
  db

let print_findings indent fs =
  List.iter
    (fun f -> Printf.printf "%s%s\n" indent (Analysis.Finding.to_string f))
    fs

let lint_sql db stmt_text =
  let catalog = Reldb.Db.catalog db in
  match Reldb.Sql_parser.parse stmt_text with
  | exception Reldb.Sql_parser.Parse_error m ->
      [ Analysis.Finding.error "parse" "statement does not parse: %s" m ]
  | stmt ->
      let lint = Analysis.Lint.lint_stmt ~catalog stmt in
      let plan =
        match stmt with
        | Reldb.Sql_ast.Select sel -> (
            match Reldb.Planner.plan_select catalog sel with
            | exception Reldb.Planner.Plan_error _ -> []
            | plan -> Analysis.Plan_lint.lint_plan plan)
        | _ -> []
      in
      Analysis.Finding.sort (lint @ plan)

(* Every compiled run of every path, under each encoding: the statements
   evaluation issues. Middle-tier steps are notes. *)
let lint_xpath db encodings paths =
  let any_error = ref false in
  List.iter
    (fun enc ->
      List.iter2
        (fun path segs ->
          Printf.printf "-- %s: %s\n" (O.Encoding.name enc)
            (O.Xpath_ast.to_string path);
          List.iteri
            (fun i seg ->
              let what =
                match seg with
                | O.Translate.Step s -> "middle-tier step " ^ O.Xpath_ast.step_to_string s.O.Translate.step
                | O.Translate.Run r -> "run " ^ run_path r
              in
              let findings = Analysis.Lint.lint_segment (Reldb.Db.catalog db) enc seg in
              Printf.printf "  %d. %s\n" (i + 1) what;
              if findings = [] then print_endline "    clean"
              else begin
                print_findings "    " findings;
                if Analysis.Finding.has_errors findings then any_error := true
              end)
            segs)
        paths
        (O.Translate.compile ~doc:"doc" enc paths))
    encodings;
  !any_error

let lint_cmd =
  let xpath_opt =
    Cmdliner.Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"XPATH"
          ~doc:"XPath query: lint its translation under each encoding.")
  in
  let sql_opt =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "sql" ] ~docv:"STMT"
          ~doc:"Lint a raw SQL statement instead of an XPath translation.")
  in
  let enc_opt =
    Cmdliner.Arg.(
      value
      & opt (some enc_arg) None
      & info [ "e"; "encoding" ] ~docv:"ENC"
          ~doc:
            "Restrict XPath linting to one encoding (default: all \
             encodings).")
  in
  let run enc_opt xpath_opt sql_opt dtd_path root =
    try
      match (xpath_opt, sql_opt) with
      | None, None | Some _, Some _ ->
          prerr_endline "error: pass exactly one of XPATH or --sql STMT";
          2
      | None, Some stmt_text ->
          let db = lint_db () in
          let findings = lint_sql db stmt_text in
          if findings = [] then begin
            print_endline "clean";
            0
          end
          else begin
            print_findings "" findings;
            if Analysis.Finding.has_errors findings then 1 else 0
          end
      | Some q, None ->
          let db = lint_db () in
          let encodings =
            match enc_opt with Some e -> [ e ] | None -> O.Encoding.all
          in
          let paths = O.Xpath_parser.parse_union q in
          let any_error = ref false in
          (* XPath-level rules, independent of encoding and DTD *)
          List.iter
            (fun p ->
              match Analysis.Lint.lint_xpath p with
              | [] -> ()
              | fs ->
                  Printf.printf "-- xpath: %s\n" (O.Xpath_ast.to_string p);
                  print_findings "  " fs;
                  if Analysis.Finding.has_errors fs then any_error := true)
            paths;
          (* schema analysis when a DTD is supplied: report findings once
             per path, then lint the rewritten (satisfiable) paths below *)
          let paths =
            match dtd_path with
            | None -> paths
            | Some dp ->
                let g = schema_graph (load_dtd dp) root in
                List.filter_map
                  (fun p ->
                    let r = Analysis.Schema_check.analyze g p in
                    Printf.printf "-- schema: %s\n" (O.Xpath_ast.to_string p);
                    if r.Analysis.Schema_check.findings = [] then
                      print_endline "  clean"
                    else print_findings "  " r.Analysis.Schema_check.findings;
                    if Analysis.Finding.has_errors r.Analysis.Schema_check.findings
                    then any_error := true;
                    if not r.Analysis.Schema_check.satisfiable then None
                    else begin
                      let rw = r.Analysis.Schema_check.rewritten in
                      if rw <> p then
                        Printf.printf "  rewritten: %s\n"
                          (O.Xpath_ast.to_string rw);
                      Some rw
                    end)
                  paths
          in
          if lint_xpath db encodings paths then any_error := true;
          if !any_error then 1 else 0
    with
    | O.Xpath_parser.Parse_error m | Reldb.Db.Sql_error m | Sys_error m ->
        Printf.eprintf "error: %s\n" m;
        2
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "lint"
       ~doc:
         "Statically analyze a query: XPath-level rules, optional \
          DTD-driven schema analysis (satisfiability, cardinality, axis \
          strength reduction), SQL lint rules, order-correctness against \
          each encoding's document-order contract, and plan inspection. \
          Exit 1 when any error-severity finding fires.")
    Cmdliner.Term.(
      const run $ enc_opt $ xpath_opt $ sql_opt $ dtd_opt $ root_opt)

let () =
  let info =
    Cmdliner.Cmd.info "oxq" ~version:"1.0.0"
      ~doc:"Store and query ordered XML in a relational engine."
  in
  exit
    (Cmdliner.Cmd.eval'
       (Cmdliner.Cmd.group info
          [ query_cmd; sql_cmd; stats_cmd; tables_cmd; dump_cmd; flwor_cmd; validate_cmd; lint_cmd ]))
