(* Schema-aware XPath analysis (ISSUE 5): unit tests over the example
   catalog schema plus the differential oracle — random (DTD, DTD-valid
   document, schema-relevant query) triples where the schema-aware
   translation, the blind translation, and the DOM oracle must agree under
   every encoding, and unsatisfiable queries must return zero rows without
   issuing SQL. *)

module O = Ordered_xml
module A = O.Xpath_ast
module D = Xmllib.Dtd
module SC = Analysis.Schema_check

let check = Alcotest.check
let bool_t = Alcotest.bool
let string_t = Alcotest.string

let catalog_dtd =
  lazy
    (D.parse
       {|
       <!ELEMENT catalog (book*)>
       <!ELEMENT book (title, author+, price?)>
       <!ELEMENT title (#PCDATA)>
       <!ELEMENT author (#PCDATA)>
       <!ELEMENT price (#PCDATA)>
       <!ATTLIST book isbn CDATA #REQUIRED year CDATA #IMPLIED>
       |})

let analyze q = SC.analyze (SC.graph (Lazy.force catalog_dtd)) (O.Xpath_parser.parse q)

let has_rule rule (r : SC.result) =
  List.exists (fun (f : Analysis.Finding.t) -> f.rule = rule) r.findings

(* --- graph ------------------------------------------------------------- *)

let test_graph () =
  let g = SC.graph (Lazy.force catalog_dtd) in
  check (Alcotest.list string_t) "roots" [ "catalog" ] (SC.graph_roots g);
  check (Alcotest.list string_t) "reachable"
    [ "author"; "book"; "catalog"; "price"; "title" ]
    (SC.graph_reachable g);
  check bool_t "catalog occurs once" true (SC.occurrence g "catalog" = SC.One);
  check bool_t "book occurs many" true (SC.occurrence g "book" = SC.Many);
  (* an element declared but unreachable from the root *)
  let g2 =
    SC.graph ~roots:[ "book" ]
      (D.parse "<!ELEMENT book (title)> <!ELEMENT title (#PCDATA)> <!ELEMENT orphan EMPTY>")
  in
  check bool_t "orphan unreachable" true
    (not (List.mem "orphan" (SC.graph_reachable g2)))

(* --- satisfiability ---------------------------------------------------- *)

let test_unsat () =
  let r = analyze "//zzz" in
  check bool_t "undeclared element unsatisfiable" false r.satisfiable;
  check bool_t "error finding" true (has_rule "schema-unsat" r);
  (* undeclared attribute in a predicate *)
  let r = analyze "/catalog/book[@bogus]/title" in
  check bool_t "undeclared attribute pred" false r.satisfiable;
  (* a child that exists in the DTD but not under this parent *)
  let r = analyze "/catalog/title" in
  check bool_t "title not a catalog child" false r.satisfiable;
  (* text() under an element-only content model *)
  let r = analyze "/catalog/text()" in
  check bool_t "text under element-only content" false r.satisfiable;
  (* satisfiable queries stay satisfiable *)
  check bool_t "plain path satisfiable" true (analyze "/catalog/book/title").satisfiable;
  check bool_t "pred path satisfiable" true
    (analyze "/catalog/book[price]/title").satisfiable

(* --- cardinality ------------------------------------------------------- *)

let test_cardinality () =
  (* title is (title, ...) — exactly one per book, so [1] is a no-op *)
  let r = analyze "/catalog/book/title[1]" in
  check bool_t "[1] dropped" true (has_rule "schema-cardinality" r);
  check string_t "rewritten" "/catalog/book/title" (A.to_string r.rewritten);
  (* author+ can repeat: [1] must survive *)
  let r = analyze "/catalog/book/author[1]" in
  check string_t "author [1] kept" "/catalog/book/author[1]"
    (A.to_string r.rewritten);
  (* count(title) >= 2 can never hold when the schema caps title at one *)
  let r = analyze "/catalog/book[count(title) >= 2]" in
  check bool_t "impossible count" false r.satisfiable

(* --- axis strength reduction ------------------------------------------- *)

let test_axis_reduction () =
  let r = analyze "//title" in
  check string_t "descendant to chain" "/catalog/book/title"
    (A.to_string r.rewritten);
  check bool_t "axis finding" true (has_rule "schema-axis" r);
  (* positional predicate with a repeatable intermediate blocks the rewrite:
     //title[1] means the first title in the document, not per book *)
  let r = analyze "//title[1]" in
  check string_t "positional blocks chain" "/descendant::title[1]"
    (A.to_string r.rewritten)

(* --- differential oracle ------------------------------------------------ *)

(* For each seed: a random DAG-shaped DTD, a document sampled from it, and a
   batch of schema-relevant queries. The DOM oracle, the blind translation,
   and the schema-aware translation must agree under every encoding, and
   unsatisfiable verdicts must come with empty oracle results. *)

let encodings = O.Encoding.all
let dtd_seeds = 30
let paths_per_dtd = 10

let run_schema_case cases seed =
  let rand = Random.State.make [| 7919 * seed |] in
  let case = QCheck.Gen.generate1 ~rand Xpath_gen.gen_schema_case in
  let dtd =
    try D.parse case.Xpath_gen.dtd_text
    with D.Parse_error m ->
      Alcotest.failf "seed %d: generated DTD does not parse (%s):\n%s" seed m
        case.Xpath_gen.dtd_text
  in
  let doc = D.sample dtd ~root:case.Xpath_gen.root (Xmllib.Rng.create seed) in
  (match D.validate dtd doc with
  | Ok () -> ()
  | Error msgs ->
      Alcotest.failf "seed %d: sampled document invalid: %s" seed
        (String.concat "; " msgs));
  let idx = O.Doc_index.build doc in
  let g = SC.graph ~roots:[ case.Xpath_gen.root ] dtd in
  let db = Reldb.Db.create () in
  List.iter
    (fun enc -> ignore (O.Api.Store.create db ~name:"s" enc doc))
    encodings;
  let paths =
    QCheck.Gen.generate ~rand ~n:paths_per_dtd
      (Xpath_gen.gen_schema_path case.Xpath_gen.ntags)
  in
  List.iter
    (fun path ->
      incr cases;
      let xpath = A.to_string path in
      let expected = O.Dom_eval.eval idx path in
      let r = SC.analyze g path in
      if (not r.SC.satisfiable) && expected <> [] then
        Alcotest.failf "seed %d, %s: declared unsatisfiable but oracle has %d rows"
          seed xpath (List.length expected);
      List.iter
        (fun enc ->
          let ids (res : O.Translate.result) =
            List.map
              (fun (row : O.Node_row.t) -> row.O.Node_row.id)
              res.O.Translate.rows
          in
          let blind = O.Translate.eval db ~doc:"s" enc path in
          let schema = SC.eval g db ~doc:"s" enc path in
          if ids blind <> expected then
            Alcotest.failf "seed %d, %s, %s: blind [%s], oracle [%s]" seed
              (O.Encoding.name enc) xpath
              (String.concat "," (List.map string_of_int (ids blind)))
              (String.concat "," (List.map string_of_int expected));
          if ids schema <> expected then
            Alcotest.failf
              "seed %d, %s, %s: schema-aware [%s], oracle [%s] (rewritten %s)"
              seed (O.Encoding.name enc) xpath
              (String.concat "," (List.map string_of_int (ids schema)))
              (String.concat "," (List.map string_of_int expected))
              (A.to_string r.SC.rewritten);
          if (not r.SC.satisfiable) && schema.O.Translate.statements <> 0 then
            Alcotest.failf "seed %d, %s, %s: unsatisfiable path issued %d statements"
              seed (O.Encoding.name enc) xpath schema.O.Translate.statements)
        encodings)
    paths

let test_differential () =
  let cases = ref 0 in
  for seed = 1 to dtd_seeds do
    run_schema_case cases seed
  done;
  check bool_t "at least 300 (dtd, doc, query) cases" true (!cases >= 300)

let tests =
  ( "schema_check",
    [
      Alcotest.test_case "reachability graph" `Quick test_graph;
      Alcotest.test_case "satisfiability" `Quick test_unsat;
      Alcotest.test_case "cardinality inference" `Quick test_cardinality;
      Alcotest.test_case "axis strength reduction" `Quick test_axis_reduction;
      Alcotest.test_case "differential: schema vs blind vs DOM (300+ cases)"
        `Quick test_differential;
    ] )
