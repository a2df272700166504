(* XML substrate: lexer, parser, printer, stats, generators. *)

module T = Xmllib.Types
module P = Xmllib.Parser
module Pr = Xmllib.Printer

let check = Alcotest.check
let string_t = Alcotest.string
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let parse_ok src = P.parse_document src

let parse_fails src =
  match P.parse_document src with
  | exception P.Parse_error _ -> ()
  | _ -> Alcotest.failf "expected a parse error on %S" src

let roundtrip src =
  let doc = parse_ok src in
  Pr.document_to_string doc

(* --- parsing ------------------------------------------------------- *)

let test_simple () =
  let doc = parse_ok "<a><b>hi</b><c/></a>" in
  check string_t "root tag" "a" doc.T.root.T.tag;
  check int_t "children" 2 (List.length doc.T.root.T.children)

let test_attributes () =
  let doc = parse_ok {|<a x="1" y='two &amp; three'/>|} in
  let n = T.Element doc.T.root in
  check (Alcotest.option string_t) "x" (Some "1") (T.attribute_value n "x");
  check (Alcotest.option string_t) "y" (Some "two & three") (T.attribute_value n "y")

let test_entities () =
  let doc = parse_ok "<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>" in
  check string_t "decoded" "<>&'\"AB" (T.text_content (T.Element doc.T.root))

(* CharRef ::= '&#' [0-9]+ ';' | '&#x' [0-9a-fA-F]+ ';', naming an XML
   Char: no sign, underscore or radix prefix, no NUL, surrogate or U+FFFE *)
let test_char_refs () =
  List.iter
    (fun r ->
      let src = "<a>" ^ r ^ "</a>" in
      parse_fails src;
      match Xmllib.Sax.count_events src with
      | exception Xmllib.Sax.Error _ -> ()
      | _ -> Alcotest.failf "expected SAX error on %S" src)
    [ "&#0x41;"; "&#+65;"; "&#1_0;"; "&#0;"; "&#xD800;"; "&#xFFFE;" ];
  List.iter
    (fun (r, utf8) ->
      let doc = parse_ok ("<a b='" ^ r ^ "'>[" ^ r ^ "]</a>") in
      check string_t r ("[" ^ utf8 ^ "]") (T.text_content (T.Element doc.T.root));
      check (Alcotest.option string_t) (r ^ " in an attribute") (Some utf8)
        (T.attribute_value (T.Element doc.T.root) "b"))
    [ ("&#9;", "\t"); ("&#xE000;", "\xee\x80\x80"); ("&#x10FFFF;", "\xf4\x8f\xbf\xbf") ]

let test_cdata () =
  let doc = parse_ok "<a><![CDATA[<raw> & text]]></a>" in
  check string_t "cdata" "<raw> & text" (T.text_content (T.Element doc.T.root))

let test_comment_pi () =
  let doc = parse_ok "<a><!-- note --><?target some data?></a>" in
  match doc.T.root.T.children with
  | [ T.Comment c; T.Pi { target; data } ] ->
      check string_t "comment" " note " c;
      check string_t "pi target" "target" target;
      check string_t "pi data" "some data" data
  | _ -> Alcotest.fail "expected comment + pi"

let test_decl_doctype () =
  let doc =
    parse_ok
      "<?xml version=\"1.0\"?><!DOCTYPE a [<!ELEMENT a ANY>]><a>x</a>"
  in
  check bool_t "decl" true doc.T.decl;
  check string_t "content" "x" (T.text_content (T.Element doc.T.root))

let test_whitespace_modes () =
  let src = "<a>\n  <b>x</b>\n</a>" in
  let data = parse_ok src in
  check int_t "ws dropped" 1 (List.length data.T.root.T.children);
  let ws = P.parse_document_ws src in
  check int_t "ws kept" 3 (List.length ws.T.root.T.children)

let test_mixed_content_ws () =
  (* whitespace inside mixed content is significant *)
  let doc = parse_ok "<a>one <b>two</b> three</a>" in
  check string_t "mixed" "one two three" (T.text_content (T.Element doc.T.root))

let test_self_closing () =
  let doc = parse_ok "<a><b/><b></b></a>" in
  check int_t "two empty" 2 (List.length doc.T.root.T.children)

let test_nested_deep () =
  let deep = String.concat "" (List.init 200 (fun _ -> "<d>")) ^ "x"
             ^ String.concat "" (List.init 200 (fun _ -> "</d>")) in
  let doc = parse_ok ("<a>" ^ deep ^ "</a>") in
  check int_t "depth" 202 (T.depth (T.Element doc.T.root))

let test_errors () =
  parse_fails "";
  parse_fails "<a>";
  parse_fails "<a></b>";
  parse_fails "<a><b></a></b>";
  parse_fails "<a x=1/>";
  parse_fails "<a x=\"1\" x=\"2\"/>";
  parse_fails "<a>&unknown;</a>";
  parse_fails "<a>&#xZZ;</a>";
  parse_fails "text only";
  parse_fails "<a/><b/>"

(* Comment ::= '<!--' ((Char - '-') | ('-' (Char - '-')))* '-->': no "--"
   inside and no '-' last, so every comment parsed can be printed again *)
let test_comment_grammar () =
  List.iter
    (fun src ->
      parse_fails src;
      match Xmllib.Sax.count_events src with
      | exception Xmllib.Sax.Error _ -> ()
      | _ -> Alcotest.failf "expected SAX error on %S" src)
    [ "<a><!-- x -- y --></a>"; "<a><!-- x ---></a>"; "<a><!-----></a>"; "<a><!--x</a>" ];
  List.iter
    (fun (src, body) ->
      match (parse_ok src).T.root.T.children with
      | [ T.Comment c ] ->
          check string_t src body c;
          check string_t (src ^ " prints back") src (roundtrip src)
      | _ -> Alcotest.failf "%S: not one comment" src)
    [ ("<a><!----></a>", ""); ("<a><!--x - y--></a>", "x - y"); ("<a><!-- -x- --></a>", " -x- ") ]

(* Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
   [#x10000-#x10FFFF], in UTF-8: a raw character is refused in text, CDATA
   and attribute values exactly when its character reference is *)
let test_raw_chars () =
  let contexts raw = [ "<a>x" ^ raw ^ "y</a>"; "<a b='" ^ raw ^ "'/>"; "<a><![CDATA[" ^ raw ^ "]]></a>" ] in
  List.iter
    (fun raw ->
      List.iter
        (fun src ->
          parse_fails src;
          match Xmllib.Sax.count_events src with
          | exception Xmllib.Sax.Error _ -> ()
          | _ -> Alcotest.failf "expected SAX error on %S" src)
        (contexts raw))
    [ "\x00"; "\x01"; "\x1f"; "\xff"; "\xc3"; "\xc0\x80"; "\xed\xa0\x80"; "\xef\xbf\xbe"; "\xf4\x90\x80\x80" ];
  List.iter
    (fun raw ->
      let doc = parse_ok ("<a b='" ^ raw ^ "'>[" ^ raw ^ "]</a>") in
      check string_t "text" ("[" ^ raw ^ "]") (T.text_content (T.Element doc.T.root));
      check (Alcotest.option string_t) "attribute" (Some raw)
        (T.attribute_value (T.Element doc.T.root) "b"))
    [ "\t"; "\xc3\xa9"; "\xee\x80\x80"; "\xef\xbf\xbd"; "\xf0\x9f\x98\x80"; "\xf4\x8f\xbf\xbf" ]

(* a comment's delimiter is matched in place: no string per scanned byte *)
let test_long_comment_allocation () =
  let body = String.make (1 lsl 20) 'c' in
  let src = "<a><!--" ^ body ^ "--></a>" in
  let w0 = Gc.minor_words () in
  let doc = parse_ok src in
  let per_byte = (Gc.minor_words () -. w0) /. float_of_int (String.length src) in
  check int_t "one comment" 1 (List.length doc.T.root.T.children);
  if per_byte >= 0.5 then
    Alcotest.failf "%.2f minor words per input byte (limit 0.5)" per_byte

(* --- printing ------------------------------------------------------ *)

let test_print_escapes () =
  let n = T.element "a" ~attrs:[ T.attr "k" "a\"b<c" ] [ T.text "x<y&z" ] in
  check string_t "escaped"
    "<a k=\"a&quot;b&lt;c\">x&lt;y&amp;z</a>"
    (Pr.node_to_string n)

(* [escape_attr] is the escaping a start tag writes between its quotes *)
let test_escape_attr () =
  List.iter
    (fun v ->
      check string_t v
        (Pr.node_to_string (T.element "a" ~attrs:[ T.attr "k" v ] []))
        ("<a k=\"" ^ Pr.escape_attr v ^ "\"/>"))
    [ "plain"; "a\"b<c>&d"; "tab\tlf\ncr\r"; "caf\xc3\xa9" ];
  check string_t "quote, tab, line feed" "&quot;&#9;&#10;" (Pr.escape_attr "\"\t\n")

let test_print_parse_roundtrip () =
  let src = "<a k=\"v\"><b>one</b><!--c--><?p d?><c/>tail</a>" in
  check string_t "stable" (roundtrip src) (roundtrip (roundtrip src))

(* Regressions (ISSUE 4): raw tab/LF/CR in attribute values fall to XML 1.0
   §3.3.3 attribute-value normalization, and raw CR in character data to
   §2.11 end-of-line handling — a conforming reparse would fold them away.
   The printer must emit character references instead. *)

let reparse_node n = T.Element (parse_ok (Pr.node_to_string n)).T.root

let test_attr_control_roundtrip () =
  let hostile = "a\nb\tc\rd\"e<f&g" in
  let n = T.element "a" ~attrs:[ T.attr "k" hostile ] [] in
  let printed = Pr.node_to_string n in
  check string_t "control chars become character references"
    "<a k=\"a&#10;b&#9;c&#13;d&quot;e&lt;f&amp;g\"/>" printed;
  check (Alcotest.option string_t) "value survives a reparse" (Some hostile)
    (T.attribute_value (reparse_node n) "k")

let test_text_cr_roundtrip () =
  let n = T.element "a" [ T.text "one\rtwo\r\nthree\nfour" ] in
  let printed = Pr.node_to_string n in
  check string_t "CR becomes a character reference"
    "<a>one&#13;two&#13;\nthree\nfour</a>" printed;
  check string_t "text survives a reparse" "one\rtwo\r\nthree\nfour"
    (T.text_content (reparse_node n))

let test_comment_unserializable () =
  let ok = T.element "a" [ T.Comment "x - y" ] in
  check string_t "lone dashes are fine" "<a><!--x - y--></a>"
    (Pr.node_to_string ok);
  List.iter
    (fun body ->
      match Pr.node_to_string (T.Comment body) with
      | exception Pr.Unserializable _ -> ()
      | s -> Alcotest.failf "comment %S must not serialize (got %S)" body s)
    [ "a--b"; "--"; "ends with -" ]

let test_pi_unserializable () =
  let ok = T.element "a" [ T.Pi { target = "p"; data = "x > y?" } ] in
  check string_t "question marks are fine" "<a><?p x > y??></a>"
    (Pr.node_to_string ok);
  (match Pr.node_to_string (T.Pi { target = "p"; data = "a?>b" }) with
  | exception Pr.Unserializable _ -> ()
  | s -> Alcotest.failf "PI data with \"?>\" must not serialize (got %S)" s)

(* a character the parser refuses raw has no escape either: printing it
   would emit XML that does not parse back *)
let test_unprintable_chars () =
  List.iter
    (fun raw ->
      List.iter
        (fun (what, n) ->
          match Pr.node_to_string n with
          | exception Pr.Unserializable _ -> ()
          | s -> Alcotest.failf "%s holding %S must not serialize (got %S)" what raw s)
        [
          ("text", T.element "a" [ T.text ("x" ^ raw) ]);
          ("attribute", T.element ~attrs:[ { T.attr_name = "b"; attr_value = raw } ] "a" []);
          ("comment", T.Comment raw);
          ("PI data", T.Pi { target = "p"; data = raw });
        ])
    [ "\x01"; "\xff"; "\xef\xbf\xbe" ];
  let n = T.element "a" [ T.text "\xc3\xa9\t" ] in
  check string_t "valid UTF-8 prints raw" "<a>\xc3\xa9\t</a>" (Pr.node_to_string n)

let test_pretty () =
  let n = T.element "a" [ T.element "b" [ T.text "x" ] ] in
  let s = Pr.pretty n in
  check bool_t "indented" true (String.length s > 10 && String.contains s '\n')

(* --- stats / normalize --------------------------------------------- *)

let test_stats () =
  let doc = parse_ok "<a x=\"1\"><b>t</b><b>u</b><!--c--></a>" in
  let s = Xmllib.Stats.compute doc in
  check int_t "elements" 3 s.Xmllib.Stats.elements;
  check int_t "attrs" 1 s.Xmllib.Stats.attributes;
  check int_t "texts" 2 s.Xmllib.Stats.texts;
  check int_t "others" 1 s.Xmllib.Stats.others;
  check int_t "depth" 3 s.Xmllib.Stats.max_depth;
  check int_t "tags" 2 s.Xmllib.Stats.distinct_tags

let test_tag_histogram () =
  let doc = parse_ok "<a><b/><b/><c/></a>" in
  match Xmllib.Stats.tag_histogram doc with
  | ("b", 2) :: _ -> ()
  | h ->
      Alcotest.failf "histogram head: %s"
        (String.concat "," (List.map (fun (t, c) -> Printf.sprintf "%s=%d" t c) h))

let test_normalize () =
  let n =
    T.element "a" [ T.text "x"; T.text ""; T.text "y"; T.element "b" [] ]
  in
  match T.normalize n with
  | T.Element { children = [ T.Text "xy"; T.Element _ ]; _ } -> ()
  | _ -> Alcotest.fail "normalize merged wrong"

let test_node_count () =
  let doc = parse_ok "<a x=\"1\"><b>t</b></a>" in
  (* a + @x + b + text *)
  check int_t "count" 4 (T.node_count (T.Element doc.T.root))

(* --- generators ----------------------------------------------------- *)

let test_xmark_deterministic () =
  let a = Xmllib.Generator.xmark ~seed:7 ~scale:1 () in
  let b = Xmllib.Generator.xmark ~seed:7 ~scale:1 () in
  check bool_t "same" true (T.equal_document a b);
  let c = Xmllib.Generator.xmark ~seed:8 ~scale:1 () in
  check bool_t "different seed" false (T.equal_document a c)

let test_xmark_shape () =
  let doc = Xmllib.Generator.xmark ~seed:1 ~scale:1 () in
  check string_t "root" "site" doc.T.root.T.tag;
  let tops = List.filter_map T.tag_of doc.T.root.T.children in
  check
    (Alcotest.list string_t)
    "sections"
    [ "regions"; "categories"; "people"; "open_auctions"; "closed_auctions" ]
    tops

let test_xmark_scales () =
  let s1 = Xmllib.Stats.compute (Xmllib.Generator.xmark ~seed:1 ~scale:1 ()) in
  let s4 = Xmllib.Stats.compute (Xmllib.Generator.xmark ~seed:1 ~scale:4 ()) in
  check bool_t "scale grows" true
    (s4.Xmllib.Stats.elements > 3 * s1.Xmllib.Stats.elements)

let test_flat () =
  let doc = Xmllib.Generator.flat ~tag:"item" ~count:10 () in
  check int_t "children" 10 (List.length doc.T.root.T.children)

let test_random_tree_parses () =
  for seed = 1 to 20 do
    let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
    let doc2 = P.parse_document_ws (Pr.document_to_string doc) in
    if not (T.equal_document (T.doc_of_node (T.normalize (T.Element doc.T.root)))
              (T.doc_of_node (T.normalize (T.Element doc2.T.root))))
    then Alcotest.failf "random tree %d failed print/parse roundtrip" seed
  done

(* qcheck: generator documents always survive print -> parse *)
let gen_doc =
  QCheck.Gen.(
    map
      (fun (seed, depth, fanout) ->
        Xmllib.Generator.random_tree ~seed ~max_depth:(1 + depth)
          ~max_fanout:(1 + fanout) ())
      (triple (int_bound 10_000) (int_bound 5) (int_bound 5)))

let arb_doc = QCheck.make ~print:Pr.document_to_string gen_doc

let prop_print_parse =
  QCheck.Test.make ~name:"print/parse identity" ~count:100 arb_doc (fun doc ->
      let doc2 = P.parse_document_ws (Pr.document_to_string doc) in
      T.equal_node
        (T.normalize (T.Element doc.T.root))
        (T.normalize (T.Element doc2.T.root)))

let prop_decode_entities =
  QCheck.Test.make ~name:"escape/decode identity" ~count:200
    QCheck.(string_gen QCheck.Gen.printable)
    (fun s -> Xmllib.Lexer.decode_entities (Pr.escape_text s) = s)

let test_sax_events () =
  let src = "<a x=\"1\"><b>t</b><!--c--><?p d?></a>" in
  let events = ref [] in
  Xmllib.Sax.iter src (fun ev -> events := ev :: !events);
  match List.rev !events with
  | [
   Xmllib.Sax.Start_element { tag = "a"; attrs = [ ("x", "1") ] };
   Xmllib.Sax.Start_element { tag = "b"; attrs = [] };
   Xmllib.Sax.Text "t";
   Xmllib.Sax.End_element "b";
   Xmllib.Sax.Comment "c";
   Xmllib.Sax.Pi { target = "p"; data = "d" };
   Xmllib.Sax.End_element "a";
  ] ->
      ()
  | evs -> Alcotest.failf "unexpected event stream (%d events)" (List.length evs)

let test_sax_wellformedness () =
  let bad src =
    match Xmllib.Sax.count_events src with
    | exception Xmllib.Sax.Error _ -> ()
    | _ -> Alcotest.failf "expected SAX error on %S" src
  in
  bad "<a>";
  bad "<a></b>";
  bad "<a/><b/>";
  bad "text";
  bad "";
  bad "<a x=\"1\" x=\"2\"/>";
  bad "<!--c--><?xml version=\"1.0\"?><a/>";
  bad " <?xml version=\"1.0\"?><a/>"

(* comments and PIs outside the root element are not nodes: no events *)
let test_sax_outside_root () =
  List.iter
    (fun src ->
      match List.rev (Xmllib.Sax.fold src ~init:[] ~f:(fun l ev -> ev :: l)) with
      | [ Xmllib.Sax.Start_element { tag = "a"; attrs = [] }; Xmllib.Sax.End_element "a" ] -> ()
      | evs -> Alcotest.failf "%S: %d events" src (List.length evs))
    [ "<!--c--><a/>"; "<a/><!--c-->"; "<?pi x?><a/>"; "<a/><?pi x?>" ]

let test_sax_counts_match_dom () =
  let doc = Xmllib.Generator.xmark ~seed:2 ~scale:1 () in
  let src = Pr.document_to_string doc in
  (* events = non-attr records * 2-for-elements... simpler: compare texts *)
  let texts = ref 0 in
  Xmllib.Sax.iter src (fun ev ->
      match ev with Xmllib.Sax.Text _ -> incr texts | _ -> ());
  let s = Xmllib.Stats.compute doc in
  check int_t "text events" s.Xmllib.Stats.texts !texts

let tests =
  ( "xml",
    [
      Alcotest.test_case "simple" `Quick test_simple;
      Alcotest.test_case "attributes" `Quick test_attributes;
      Alcotest.test_case "entities" `Quick test_entities;
      Alcotest.test_case "character references" `Quick test_char_refs;
      Alcotest.test_case "cdata" `Quick test_cdata;
      Alcotest.test_case "comment+pi" `Quick test_comment_pi;
      Alcotest.test_case "decl+doctype" `Quick test_decl_doctype;
      Alcotest.test_case "whitespace modes" `Quick test_whitespace_modes;
      Alcotest.test_case "mixed content ws" `Quick test_mixed_content_ws;
      Alcotest.test_case "self-closing" `Quick test_self_closing;
      Alcotest.test_case "deep nesting" `Quick test_nested_deep;
      Alcotest.test_case "malformed inputs" `Quick test_errors;
      Alcotest.test_case "comment grammar" `Quick test_comment_grammar;
      Alcotest.test_case "raw characters" `Quick test_raw_chars;
      Alcotest.test_case "long comment allocation" `Quick test_long_comment_allocation;
      Alcotest.test_case "print escapes" `Quick test_print_escapes;
      Alcotest.test_case "attribute value escapes" `Quick test_escape_attr;
      Alcotest.test_case "unprintable characters" `Quick test_unprintable_chars;
      Alcotest.test_case "print/parse stable" `Quick test_print_parse_roundtrip;
      Alcotest.test_case "attr control chars roundtrip" `Quick
        test_attr_control_roundtrip;
      Alcotest.test_case "text CR roundtrip" `Quick test_text_cr_roundtrip;
      Alcotest.test_case "unserializable comments" `Quick
        test_comment_unserializable;
      Alcotest.test_case "unserializable PIs" `Quick test_pi_unserializable;
      Alcotest.test_case "pretty printer" `Quick test_pretty;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "tag histogram" `Quick test_tag_histogram;
      Alcotest.test_case "normalize" `Quick test_normalize;
      Alcotest.test_case "node count" `Quick test_node_count;
      Alcotest.test_case "xmark deterministic" `Quick test_xmark_deterministic;
      Alcotest.test_case "xmark shape" `Quick test_xmark_shape;
      Alcotest.test_case "xmark scales" `Quick test_xmark_scales;
      Alcotest.test_case "flat generator" `Quick test_flat;
      Alcotest.test_case "random trees parse" `Quick test_random_tree_parses;
      Alcotest.test_case "sax events" `Quick test_sax_events;
      Alcotest.test_case "sax well-formedness" `Quick test_sax_wellformedness;
      Alcotest.test_case "sax matches dom" `Quick test_sax_counts_match_dom;
      Alcotest.test_case "sax outside the root" `Quick test_sax_outside_root;
      QCheck_alcotest.to_alcotest prop_print_parse;
      QCheck_alcotest.to_alcotest prop_decode_entities;
    ] )
