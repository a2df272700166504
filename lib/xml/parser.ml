exception Parse_error of string

(* The tree is {!Sax.build} over {!Sax.fold}'s events; the one thing the
   events leave out, a leading XML declaration, is its first token. *)
let parse_doc ~keep_ws src =
  match Sax.build (Sax.iter ~keep_ws src) with
  | [ Types.Element root ] ->
      let decl = match Lexer.next (Lexer.create src) with Lexer.Decl_tok -> true | _ -> false in
      { Types.decl; root }
  | _ -> raise (Parse_error "expected one root element")
  | exception Sax.Error msg -> raise (Parse_error msg)

let parse_document src = parse_doc ~keep_ws:false src
let parse_document_ws src = parse_doc ~keep_ws:true src
