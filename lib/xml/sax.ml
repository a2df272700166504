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

(* An XML declaration only as the very first token, comments and PIs
   outside the root element dropped (no events), no duplicate attribute
   names. {!Parser} is this reader plus {!build}. *)
let iter ?(keep_ws = false) src emit =
  let lx = Lexer.create src in
  let stack = ref [] in
  let inside () = match !stack with [] -> false | _ :: _ -> true in
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
        if inside () || !seen_root then fail pos "misplaced declaration";
        go ~first:false
    | Lexer.Chars s ->
        if not (inside ()) then begin
          if not (is_blank s) then fail pos "text outside the document root"
        end
        else if keep_ws || not (is_blank s) then emit (Text s);
        go ~first:false
    | Lexer.Comment_tok s ->
        if inside () then emit (Comment s);
        go ~first:false
    | Lexer.Pi_tok { target; data } ->
        if inside () then emit (Pi { target; data });
        go ~first:false
    | Lexer.Start_tag { name; attrs; self_closing } ->
        if (not (inside ())) && !seen_root then fail pos "content after document root";
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
  try go ~first:true with Lexer.Error (pos, msg) -> fail pos msg

let fold ?keep_ws src ~init ~f =
  let acc = ref init in
  iter ?keep_ws src (fun ev -> acc := f !acc ev);
  !acc

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

(* The tree builder: a stack of open elements, each holding its children
   so far in reverse; the bottom frame collects the top-level nodes. *)
type frame = { tag : string; attrs : Types.attribute list; mutable kids : Types.node list }

let build produce =
  let base = { tag = ""; attrs = []; kids = [] } in
  let stack = ref [ base ] in
  let add n = match !stack with f :: _ -> f.kids <- n :: f.kids | [] -> () in
  produce (function
    | Start_element { tag; attrs } ->
        let attrs =
          List.map (fun (attr_name, attr_value) -> { Types.attr_name; attr_value }) attrs
        in
        stack := { tag; attrs; kids = [] } :: !stack
    | End_element _ -> (
        match !stack with
        | f :: (_ :: _ as rest) ->
            stack := rest;
            add (Types.Element { tag = f.tag; attrs = f.attrs; children = List.rev f.kids })
        | _ -> ())
    | Text s -> add (Types.Text s)
    | Comment s -> add (Types.Comment s)
    | Pi { target; data } -> add (Types.Pi { target; data }));
  List.rev base.kids
