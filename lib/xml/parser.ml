exception Parse_error of string

let fail_at (pos : Lexer.position) msg =
  raise
    (Parse_error (Printf.sprintf "line %d, column %d: %s" pos.line pos.col msg))

let is_blank s =
  let ok = ref true in
  String.iter
    (fun c -> match c with ' ' | '\t' | '\r' | '\n' -> () | _ -> ok := false)
    s;
  !ok

(* Parse a sequence of sibling nodes until we hit [End_tag] or [Eof]. Returns
   the children (in order) and the terminator. *)
let rec parse_siblings lx ~keep_ws acc =
  let pos = Lexer.position lx in
  match Lexer.next lx with
  | Lexer.Eof -> (List.rev acc, `Eof)
  | Lexer.End_tag name -> (List.rev acc, `End (name, pos))
  | Lexer.Chars s ->
      if (not keep_ws) && is_blank s then parse_siblings lx ~keep_ws acc
      else parse_siblings lx ~keep_ws (Types.Text s :: acc)
  | Lexer.Comment_tok s -> parse_siblings lx ~keep_ws (Types.Comment s :: acc)
  | Lexer.Pi_tok { target; data } ->
      parse_siblings lx ~keep_ws (Types.Pi { target; data } :: acc)
  | Lexer.Decl_tok -> fail_at pos "XML declaration not at document start"
  | Lexer.Doctype_tok -> fail_at pos "DOCTYPE not allowed here"
  | Lexer.Start_tag { name; attrs; self_closing } ->
      let node = parse_element lx ~keep_ws ~name ~attrs ~self_closing ~pos in
      parse_siblings lx ~keep_ws (node :: acc)

and parse_element lx ~keep_ws ~name ~attrs ~self_closing ~pos =
  let attrs =
    List.map (fun (n, v) -> { Types.attr_name = n; attr_value = v }) attrs
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun (a : Types.attribute) ->
      if Hashtbl.mem seen a.attr_name then
        fail_at pos (Printf.sprintf "duplicate attribute %s" a.attr_name);
      Hashtbl.add seen a.attr_name ())
    attrs;
  if self_closing then Types.Element { tag = name; attrs; children = [] }
  else
    match parse_siblings lx ~keep_ws [] with
    | children, `End (close, _) when close = name ->
        Types.Element { tag = name; attrs; children }
    | _, `End (close, cpos) ->
        fail_at cpos
          (Printf.sprintf "mismatched end tag: expected </%s>, got </%s>" name
             close)
    | _, `Eof -> fail_at pos (Printf.sprintf "unclosed element <%s>" name)

let parse_prolog lx =
  (* Returns whether an XML declaration was present; skips DOCTYPE/comments/PIs
     before the root element and hands back the first real token. *)
  let decl = ref false in
  let rec go first =
    let pos = Lexer.position lx in
    match Lexer.next lx with
    | Lexer.Decl_tok ->
        if not first then fail_at pos "misplaced XML declaration";
        decl := true;
        go false
    | Lexer.Doctype_tok | Lexer.Comment_tok _ | Lexer.Pi_tok _ -> go false
    | Lexer.Chars s when is_blank s -> go false
    | tok -> (tok, pos)
  in
  let tok, pos = go true in
  (!decl, tok, pos)

let parse_doc ~keep_ws src =
  let lx = Lexer.create src in
  try
    let decl, tok, pos = parse_prolog lx in
    match tok with
    | Lexer.Start_tag { name; attrs; self_closing } -> begin
        let node = parse_element lx ~keep_ws ~name ~attrs ~self_closing ~pos in
        (* only trailing misc allowed *)
        let rec check_epilog () =
          let pos = Lexer.position lx in
          match Lexer.next lx with
          | Lexer.Eof -> ()
          | Lexer.Comment_tok _ | Lexer.Pi_tok _ -> check_epilog ()
          | Lexer.Chars s when is_blank s -> check_epilog ()
          | _ -> fail_at pos "content after document root"
        in
        check_epilog ();
        match node with
        | Types.Element root -> { Types.decl; root }
        | Types.Text _ | Types.Comment _ | Types.Pi _ -> assert false
      end
    | Lexer.Eof -> raise (Parse_error "empty document")
    | _ -> fail_at pos "expected root element"
  with Lexer.Error (pos, msg) -> fail_at pos msg

let parse_document src = parse_doc ~keep_ws:false src
let parse_document_ws src = parse_doc ~keep_ws:true src
