type event =
  | Start_element of { tag : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of { target : string; data : string }

exception Error of string

let fail (pos : Lexer.position) msg =
  raise (Error (Printf.sprintf "line %d, column %d: %s" pos.line pos.col msg))

let is_blank s =
  let ok = ref true in
  String.iter
    (fun c -> match c with ' ' | '\t' | '\r' | '\n' -> () | _ -> ok := false)
    s;
  !ok

let rec check_attrs pos = function
  | [] -> ()
  | (name, _) :: rest ->
      if List.mem_assoc name rest then
        fail pos (Printf.sprintf "duplicate attribute %s" name);
      check_attrs pos rest

(* Accepts what {!Parser.parse_document} accepts: an XML declaration only as
   the very first token, comments and PIs outside the root element dropped
   (no events), no duplicate attribute names. *)
let fold ?(keep_ws = false) src ~init ~f =
  let lx = Lexer.create src in
  let acc = ref init in
  let emit ev = acc := f !acc ev in
  let stack = ref [] in
  let seen_root = ref false in
  let rec go ~first =
    let pos = Lexer.position lx in
    match Lexer.next lx with
    | Lexer.Eof ->
        (match !stack with
        | [] -> if not !seen_root then fail pos "empty document"
        | tag :: _ -> fail pos (Printf.sprintf "unclosed element <%s>" tag))
    | Lexer.Decl_tok ->
        if not first then fail pos "misplaced XML declaration";
        go ~first:false
    | Lexer.Doctype_tok ->
        if !stack <> [] || !seen_root then fail pos "misplaced declaration";
        go ~first:false
    | Lexer.Chars s ->
        if !stack = [] then begin
          if not (is_blank s) then fail pos "text outside the document root"
        end
        else if keep_ws || not (is_blank s) then emit (Text s);
        go ~first:false
    | Lexer.Comment_tok s ->
        if !stack <> [] then emit (Comment s);
        go ~first:false
    | Lexer.Pi_tok { target; data } ->
        if !stack <> [] then emit (Pi { target; data });
        go ~first:false
    | Lexer.Start_tag { name; attrs; self_closing } ->
        if !stack = [] && !seen_root then fail pos "content after document root";
        check_attrs pos attrs;
        seen_root := true;
        emit (Start_element { tag = name; attrs });
        if self_closing then emit (End_element name)
        else stack := name :: !stack;
        go ~first:false
    | Lexer.End_tag name -> (
        match !stack with
        | top :: rest when top = name ->
            emit (End_element name);
            stack := rest;
            go ~first:false
        | top :: _ ->
            fail pos
              (Printf.sprintf "mismatched end tag: expected </%s>, got </%s>"
                 top name)
        | [] -> fail pos (Printf.sprintf "stray end tag </%s>" name))
  in
  (try go ~first:true with Lexer.Error (pos, msg) -> fail pos msg);
  !acc

let iter ?keep_ws src f = fold ?keep_ws src ~init:() ~f:(fun () ev -> f ev)

let count_events src = fold src ~init:0 ~f:(fun n _ -> n + 1)

let rec iter_node f = function
  | Types.Element { tag; attrs; children } ->
      f
        (Start_element
           {
             tag;
             attrs = List.map (fun (a : Types.attribute) -> (a.attr_name, a.attr_value)) attrs;
           });
      List.iter (iter_node f) children;
      f (End_element tag)
  | Types.Text s -> f (Text s)
  | Types.Comment s -> f (Comment s)
  | Types.Pi { target; data } -> f (Pi { target; data })
