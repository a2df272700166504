(* oxq — ordered-XML query tool.

   A small CLI over the library: load an XML file, shred it under a chosen
   order encoding, and run XPath queries (or dump the SQL they translate to,
   or reshape statistics). An in-process demonstration of the full stack.

     oxq query  file.xml '/a/b[1]' --encoding dewey
     oxq sql    file.xml '/a/b[last()]' --encoding global
     oxq stats  file.xml
     oxq tables file.xml --encoding local *)

module O = Ordered_xml

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* .sql files are engine dumps (see `oxq dump`); anything else is XML.
   With [--db DIR] the engine is durable: the first run shreds the input
   into DIR (checkpoint + write-ahead log) and later runs recover from DIR,
   ignoring the input file's contents. *)
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
      if Filename.check_suffix path ".sql" then
        let db = Reldb.Db.restore_from_file path in
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
    required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XML input.")

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
  | Reldb.Db.Sql_error m ->
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

let schema_analyze dtd root path =
  let roots = Option.map (fun r -> [ r ]) root in
  Analysis.Schema_check.analyze ?roots dtd path

let query_cmd =
  let run enc path q trace db_dir dtd_path root =
    wrap (fun () ->
        let go () =
          let db, store = load_store ?db_dir path enc in
          Fun.protect ~finally:(fun () -> Reldb.Db.close db) @@ fun () ->
          match dtd_path with
          | None -> O.Api.Store.query_nodes store q
          | Some dp -> (
              let dtd = load_dtd dp in
              match Xmllib.Dtd.validate dtd (O.Api.Store.document store) with
              | Error msgs ->
                  Printf.eprintf
                    "warning: document does not satisfy the DTD (%d \
                     violation(s)); translating without schema analysis\n"
                    (List.length msgs);
                  O.Api.Store.query_nodes store q
              | Ok () ->
                  let sat =
                    List.filter_map
                      (fun p ->
                        let r = schema_analyze dtd root p in
                        if r.Analysis.Schema_check.satisfiable then
                          Some r.Analysis.Schema_check.rewritten
                        else None)
                      (O.Xpath_parser.parse_union q)
                  in
                  if sat = [] then []
                  else
                    let res = O.Translate.eval_union db ~doc:"doc" enc sat in
                    List.map
                      (fun (row : O.Node_row.t) ->
                        O.Api.Store.subtree store ~id:row.O.Node_row.id)
                      res.O.Translate.rows)
        in
        let nodes, spans =
          if trace then Obs.Span.collect go else (go (), [])
        in
        List.iter
          (fun node -> print_endline (Xmllib.Printer.node_to_string node))
          nodes;
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
          "Run EXPLAIN ANALYZE on the single-statement translation (when \
           the query is eligible): the physical plan annotated with actual \
           row counts, loop counts and per-operator time.")

let sql_cmd =
  let run enc path q analyze db_dir dtd_path root =
    wrap (fun () ->
        let db, store = load_store ?db_dir path enc in
        Fun.protect ~finally:(fun () -> Reldb.Db.close db) @@ fun () ->
        let r = O.Api.Store.query store q in
        Printf.printf "-- runs: %d statement(s), %d result node(s)\n"
          r.O.Translate.statements
          (List.length r.O.Translate.rows);
        List.iter print_endline r.O.Translate.sql_log;
        (match O.Xpath_parser.parse_union q with
        | [ path ] when O.Translate_sql.eligible enc path ->
            let sql = O.Translate_sql.translate ~doc:"doc" enc path in
            Printf.printf "-- single-statement form:\n%s\n" sql;
            if analyze then
              Printf.printf "-- explain analyze:\n%s\n"
                (Reldb.Db.explain_analyze db sql)
        | _ ->
            if analyze then
              print_endline
                "-- explain analyze: query has no single-statement form");
        match dtd_path with
        | None -> ()
        | Some dp ->
            let dtd = load_dtd dp in
            List.iter
              (fun p ->
                let sr = schema_analyze dtd root p in
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
                  if rw <> p then
                    Printf.printf "  rewritten: %s\n" (O.Xpath_ast.to_string rw);
                  if O.Translate_sql.eligible enc rw then
                    Printf.printf "-- schema-aware single-statement form:\n%s\n"
                      (O.Translate_sql.translate
                         ~unique:sr.Analysis.Schema_check.unique ~doc:"doc"
                         enc rw)
                end)
              (O.Xpath_parser.parse_union q))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sql" ~doc:"Show the SQL a query translates to.")
    Cmdliner.Term.(
      const run $ encoding $ file $ xpath $ analyze_flag $ db_dir_opt
      $ dtd_opt $ root_opt)

let stats_cmd =
  let run enc path =
    wrap (fun () ->
        let doc = Xmllib.Parser.parse_document (read_file path) in
        Format.printf "%a@." Xmllib.Stats.pp (Xmllib.Stats.compute doc);
        (* shred under the chosen encoding so the engine metrics below
           reflect a real load *)
        let db = Reldb.Db.create () in
        let store = O.Api.Store.create db ~name:"doc" enc doc in
        Format.printf "@.%a@." O.Storage.pp (O.Api.Store.storage store);
        let hits, misses, entries = Reldb.Db.plan_cache_stats db in
        Printf.printf "\nplan cache: %d hit(s), %d miss(es), %d cached plan(s)\n"
          hits misses entries;
        print_newline ();
        print_string (Obs.Report.to_text ()))
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "stats"
       ~doc:
         "Structural statistics of the document, storage cost under the \
          chosen encoding, and engine metrics for the load.")
    Cmdliner.Term.(const run $ encoding $ file)

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
      & info [ "o"; "output" ] ~docv:"OUT.sql" ~doc:"Output SQL script.")
  in
  let run enc path out db_dir =
    wrap (fun () ->
        let db, _ = load_store ?db_dir path enc in
        Reldb.Db.dump_to_file db out;
        Printf.printf "wrote %s\n" out;
        Reldb.Db.close db)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "dump"
       ~doc:
         "Shred the document and write the whole database as a SQL script \
          (reload it by passing the .sql file to query/sql/tables).")
    Cmdliner.Term.(const run $ encoding $ file $ out $ db_dir_opt)

(* ------------------------------------------------------------------ *)
(* Static analysis (oxq lint)                                          *)
(* ------------------------------------------------------------------ *)

(* A small document shredded under every encoding gives the linter real
   schemas and indexes to check against (unsargable, redundant-distinct and
   plan rules are catalog-aware). *)
let lint_db () =
  let doc =
    Xmllib.Parser.parse_document
      "<doc><item k=\"1\">x</item><item k=\"2\">y</item></doc>"
  in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc -> ignore (O.Api.Store.create db ~name:"doc" enc doc))
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

let lint_xpath db ~explicit_enc encodings paths =
  let catalog = Reldb.Db.catalog db in
  let any_error = ref false in
  List.iter
    (fun enc ->
      List.iter
        (fun path ->
          Printf.printf "-- %s: %s\n" (O.Encoding.name enc)
            (O.Xpath_ast.to_string path);
          let findings =
            if O.Translate_sql.eligible enc path then begin
              let sql, meta = O.Translate_sql.translate_meta ~doc:"doc" enc path in
              match Reldb.Sql_parser.parse sql with
              | exception Reldb.Sql_parser.Parse_error m ->
                  [
                    Analysis.Finding.error "parse-back"
                      "translated SQL does not parse back: %s" m;
                  ]
              | stmt ->
                  let lint = Analysis.Lint.lint_stmt ~catalog stmt in
                  let order = Analysis.Order_check.check_stmt enc ~meta stmt in
                  let plan =
                    match stmt with
                    | Reldb.Sql_ast.Select sel ->
                        Analysis.Plan_lint.lint_plan
                          (Reldb.Planner.plan_select catalog sel)
                    | _ -> []
                  in
                  Analysis.Finding.sort (lint @ order @ plan)
            end
            else begin
              (* outside the fragment: unsupported axes are contract
                 violations when the user pinned the encoding, otherwise
                 informational (the other encodings may still serve it) *)
              let severity =
                if explicit_enc then Analysis.Finding.Error
                else Analysis.Finding.Info
              in
              match Analysis.Order_check.check_axes ~severity enc path with
              | [] ->
                  let reason =
                    try
                      ignore (O.Translate_sql.translate ~doc:"doc" enc path);
                      "outside the single-statement fragment"
                    with O.Translate_sql.Not_single_statement m -> m
                  in
                  [
                    Analysis.Finding.info "fragment"
                      "no single-statement form: %s" reason;
                  ]
              | fs -> fs
            end
          in
          if findings = [] then print_endline "  clean"
          else begin
            print_findings "  " findings;
            if Analysis.Finding.has_errors findings then any_error := true
          end)
        paths)
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
                let dtd = load_dtd dp in
                List.filter_map
                  (fun p ->
                    let r = schema_analyze dtd root p in
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
          if lint_xpath db ~explicit_enc:(enc_opt <> None) encodings paths
          then any_error := true;
          if !any_error then 1 else 0
    with
    | O.Xpath_parser.Parse_error m | Reldb.Db.Sql_error m ->
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
