(* Robustness fuzzing: every parser must either succeed or raise its own
   documented exception — never crash, loop, or leak an internal error. *)

module O = Ordered_xml

let no_crash name count gen f =
  QCheck.Test.make ~name ~count gen (fun input ->
      match f input with
      | _ -> true
      | exception Xmllib.Parser.Parse_error _
      | exception Xmllib.Lexer.Error _
      | exception Xmllib.Sax.Error _
      | exception O.Xpath_parser.Parse_error _
      | exception O.Flwor.Parse_error _
      | exception Reldb.Db.Sql_error _
      | exception Invalid_argument _ ->
          true)

(* strings biased towards each grammar's own alphabet *)
let biased alphabet =
  QCheck.make ~print:(fun s -> s)
    QCheck.Gen.(
      map (String.concat "")
        (list_size (int_bound 30)
           (oneof [ oneofl alphabet; map (String.make 1) printable ])))

let xmlish =
  biased
    [ "<"; ">"; "</"; "/>"; "a"; "b"; "="; "\""; "'"; "&"; "&amp;"; "<!--";
      "-->"; "<?"; "?>"; "<![CDATA["; "]]>"; " "; "x" ]

let xpathish =
  biased
    [ "/"; "//"; "["; "]"; "("; ")"; "@"; "*"; "."; ".."; "::"; "text()";
      "node()"; "and"; "or"; "not"; "position()"; "last()"; "count"; "a";
      "b"; "1"; "'s'"; "="; "<"; ">"; "|"; " " ]

let sqlish =
  biased
    [ "SELECT"; "FROM"; "WHERE"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET";
      "DELETE"; "CREATE"; "TABLE"; "INDEX"; "GROUP"; "BY"; "ORDER"; "("; ")";
      ","; "*"; "="; "'"; "t"; "a"; "1"; "X'00'"; " "; ";"; "--"; "LIMIT";
      "OFFSET"; " LIMIT 1 BY "; "DISTINCT"; "UNION ALL"; "DESC" ]

let flworish =
  biased
    [ "for"; "let"; "where"; "order"; "by"; "return"; "$x"; "in"; ":=";
      "/a"; "$x/b"; "<r>"; "</r>"; "{"; "}"; "'s'"; ">"; "1"; " " ]

(* whole markup pieces: concatenations are often well-formed documents,
   with prologs, epilogs and repeated attributes *)
let markupish =
  biased
    [ "<a>"; "</a>"; "<b x='1'>"; "</b>"; "<a/>"; "<b x='1' x='2'/>";
      "<b x='1' y='2'/>"; "<!--c-->"; "<?p d?>"; "<?xml version='1.0'?>";
      "<!DOCTYPE a>"; "t"; " "; "&amp;"; "<![CDATA[<]]>" ]

(* the XML readers raise their own declared exception and nothing else:
   no lexer error, no Invalid_argument *)
let prop_xml_parser =
  QCheck.Test.make ~name:"xml parser never crashes" ~count:1000
    (QCheck.oneof [ xmlish; markupish ])
    (fun s ->
      match Xmllib.Parser.parse_document s with
      | _ | (exception Xmllib.Parser.Parse_error _) -> true)

let prop_sax =
  QCheck.Test.make ~name:"sax never crashes" ~count:500 xmlish (fun s ->
      match Xmllib.Sax.count_events s with
      | _ | (exception Xmllib.Sax.Error _) -> true)

(* The streaming reader accepts exactly what the DOM parser accepts, and
   then yields the events of the parsed tree. *)
let prop_sax_agrees =
  QCheck.Test.make ~name:"sax events = parsed DOM events" ~count:1000
    (QCheck.oneof [ xmlish; markupish ])
    (fun src ->
      let dom =
        match Xmllib.Parser.parse_document src with
        | doc ->
            let evs = ref [] in
            Xmllib.Sax.iter_node (fun ev -> evs := ev :: !evs) (Xmllib.Types.Element doc.root);
            Some (List.rev !evs)
        | exception Xmllib.Parser.Parse_error _ -> None
      in
      let sax =
        match Xmllib.Sax.fold src ~init:[] ~f:(fun evs ev -> ev :: evs) with
        | evs -> Some (List.rev evs)
        | exception Xmllib.Sax.Error _ -> None
      in
      dom = sax)

let prop_xpath_parser =
  no_crash "xpath parser never crashes" 500 xpathish (fun s ->
      ignore (O.Xpath_parser.parse_union s))

let prop_sql =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE t (a INT, b TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO t VALUES (1, 'x')");
  no_crash "sql engine never crashes" 500 sqlish (fun s ->
      ignore (Reldb.Db.exec db s))

(* random tails after a valid SELECT head reach the ORDER BY / LIMIT BY
   clauses and the planner's checks on them *)
let prop_sql_tail =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE t (a INT, b TEXT)");
  ignore (Reldb.Db.exec db "CREATE INDEX t_ab ON t (a, b)");
  ignore (Reldb.Db.exec db "INSERT INTO t VALUES (1, 'x'), (1, 'y'), (2, 'x')");
  no_crash "select tails never crash" 500 sqlish (fun s ->
      ignore (Reldb.Db.exec db ("SELECT a, b FROM t " ^ s)))

let prop_flwor_parser =
  no_crash "flwor parser never crashes" 500 flworish (fun s ->
      ignore (O.Flwor.parse s))

let prop_dewey_decode =
  no_crash "dewey decode never crashes" 500
    (QCheck.string_gen QCheck.Gen.char)
    (fun s -> ignore (O.Dewey.decode s))

let prop_entities =
  no_crash "entity decoder never crashes" 300
    (biased [ "&"; ";"; "#"; "x"; "amp"; "lt"; "a"; "1" ])
    (fun s -> ignore (Xmllib.Lexer.decode_entities s))

(* parsed XPath renders back to something the parser accepts, and both parse
   to the same evaluation result *)
let prop_xpath_render_roundtrip =
  QCheck.Test.make ~name:"xpath render/parse roundtrip" ~count:300
    Xpath_gen.arb_path (fun path ->
      let rendered = O.Xpath_ast.to_string path in
      let reparsed = O.Xpath_parser.parse rendered in
      O.Xpath_ast.to_string reparsed = rendered)

(* differential self-check: every run every generated path compiles to,
   under every encoding, must (a) parse back through the engine's own parser
   and (b) survive the static analyzer — SQL lint, the order check against
   the run's promise, plan lint — with nothing worse than a note *)
let analysis_db =
  lazy
    (let doc = Xmllib.Generator.random_tree ~seed:7 ~max_depth:4 ~max_fanout:4 () in
     let db = Reldb.Db.create () in
     List.iter
       (fun enc ->
         ignore (O.Api.Store.create db ~name:"q" enc doc);
         O.Node_row.with_relation db (O.Node_row.ctx_relation enc) [] ignore)
       O.Encoding.all;
     db)

let prop_translation_lints_clean =
  QCheck.Test.make
    ~name:"translations parse back and lint clean" ~count:200
    Xpath_gen.arb_path (fun path ->
      let catalog = Reldb.Db.catalog (Lazy.force analysis_db) in
      List.for_all
        (fun enc ->
          List.for_all
            (fun seg ->
              match
                List.filter
                  (fun f ->
                    f.Analysis.Finding.severity <> Analysis.Finding.Info
                    (* a vacuous path (e.g. /descendant::a/self::b) correctly
                       translates to an always-false WHERE; the contradiction
                       warning is the analyzer doing its job, not a bug *)
                    && f.Analysis.Finding.rule <> "contradiction")
                  (Analysis.Lint.lint_segment catalog enc seg)
              with
              | [] -> true
              | bad ->
                  QCheck.Test.fail_reportf "%s: run not clean:\n%s\n%s"
                    (O.Encoding.name enc)
                    (String.concat "\n" (List.map Analysis.Finding.to_string bad))
                    (match seg with O.Translate.Run r -> r.O.Translate.sql | O.Translate.Step _ -> ""))
            (List.concat (O.Translate.compile ~doc:"q" enc [ path ])))
        O.Encoding.all)

(* randomized update workloads must leave every encoding's structural
   invariants intact (Integrity.check as a fuzz gate) *)
let frag =
  Xmllib.Types.element "item"
    ~attrs:[ Xmllib.Types.attr "k0" "77" ]
    [ Xmllib.Types.text "fuzzed" ]

let prop_random_updates_keep_integrity =
  let gen =
    QCheck.Gen.(
      pair (int_bound 10_000) (list_size (int_range 1 10) (int_bound 99)))
  in
  let print (seed, ops) =
    Printf.sprintf "seed=%d ops=%s" seed
      (String.concat "," (List.map string_of_int ops))
  in
  QCheck.Test.make ~name:"integrity holds after random update workloads"
    ~count:25 (QCheck.make ~print gen) (fun (seed, ops) ->
      let doc = Xmllib.Generator.flat ~tag:"item" ~count:6 () in
      let db = Reldb.Db.create () in
      let stores =
        List.map
          (fun enc -> (enc, O.Api.Store.create db ~name:"w" enc doc))
          O.Encoding.all
      in
      let rng = Xmllib.Rng.create seed in
      List.iter
        (fun op ->
          let count = O.Api.Store.count (snd (List.hd stores)) "/doc/item" in
          if op mod 3 = 0 && count > 2 then begin
            let k = 1 + Xmllib.Rng.int rng count in
            List.iter
              (fun (_, s) ->
                match
                  O.Api.Store.query_ids s (Printf.sprintf "/doc/item[%d]" k)
                with
                | [ id ] -> ignore (O.Api.Store.delete_subtree s ~id)
                | _ -> ())
              stores
          end
          else if op mod 3 = 1 then begin
            let pos = 1 + Xmllib.Rng.int rng (count + 1) in
            List.iter
              (fun (_, s) ->
                ignore
                  (O.Api.Store.insert_subtree s
                     ~parent:(O.Api.Store.root_id s) ~pos frag))
              stores
          end
          else begin
            let k = 1 + Xmllib.Rng.int rng count in
            let v = string_of_int (Xmllib.Rng.int rng 1000) in
            List.iter
              (fun (_, s) ->
                match
                  O.Api.Store.query_ids s (Printf.sprintf "/doc/item[%d]" k)
                with
                | [ id ] ->
                    ignore (O.Api.Store.set_attribute s ~id ~name:"k1" ~value:v)
                | _ -> ())
              stores
          end)
        ops;
      List.for_all
        (fun (enc, s) ->
          match O.Integrity.check (O.Api.Store.db s) ~doc:"w" enc with
          | Ok () -> true
          | Error msgs ->
              QCheck.Test.fail_reportf "%s integrity violated: %s"
                (O.Encoding.name enc)
                (String.concat "; " msgs))
        stores)

let tests =
  ( "fuzz",
    [
      QCheck_alcotest.to_alcotest prop_xml_parser;
      QCheck_alcotest.to_alcotest prop_sax;
      QCheck_alcotest.to_alcotest prop_sax_agrees;
      QCheck_alcotest.to_alcotest prop_xpath_parser;
      QCheck_alcotest.to_alcotest prop_sql;
      QCheck_alcotest.to_alcotest prop_sql_tail;
      QCheck_alcotest.to_alcotest prop_flwor_parser;
      QCheck_alcotest.to_alcotest prop_dewey_decode;
      QCheck_alcotest.to_alcotest prop_entities;
      QCheck_alcotest.to_alcotest prop_xpath_render_roundtrip;
      QCheck_alcotest.to_alcotest prop_translation_lints_clean;
      QCheck_alcotest.to_alcotest prop_random_updates_keep_integrity;
    ] )
