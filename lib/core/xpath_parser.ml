open Xpath_ast

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { mutable toks : Xpath_lexer.token list }

let peek st = match st.toks with [] -> Xpath_lexer.Eof | t :: _ -> t
let peek2 st = match st.toks with _ :: t :: _ -> t | _ -> Xpath_lexer.Eof
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let tok_str = function
  | Xpath_lexer.Slash -> "/"
  | Xpath_lexer.Dslash -> "//"
  | Xpath_lexer.At -> "@"
  | Xpath_lexer.Lbracket -> "["
  | Xpath_lexer.Rbracket -> "]"
  | Xpath_lexer.Lparen -> "("
  | Xpath_lexer.Rparen -> ")"
  | Xpath_lexer.Dcolon -> "::"
  | Xpath_lexer.Dot -> "."
  | Xpath_lexer.Dotdot -> ".."
  | Xpath_lexer.Star -> "*"
  | Xpath_lexer.Comma -> ","
  | Xpath_lexer.Pipe -> "|"
  | Xpath_lexer.Cmp c -> cmp_name c
  | Xpath_lexer.Num f -> Printf.sprintf "%g" f
  | Xpath_lexer.Str s -> Printf.sprintf "'%s'" s
  | Xpath_lexer.Ident s -> s
  | Xpath_lexer.Eof -> "end of input"

(* [n op f] over the integers [n >= least] (positions count from 1, counts
   from 0), where the literal [f] is an XPath number: the same test as an
   integer comparison, never truncated. A literal beyond the integers, or a
   fraction, becomes the integer bound it implies, or a test that always
   ([>= least]) or never ([< least]) holds. *)
let int_cmp ~least op f =
  let never = (Lt, least) and always = (Ge, least) in
  let beyond = 0x1p62 (* -. float min_int *) in
  if Float.is_integer f && Float.abs f < beyond then (op, int_of_float f)
  else
    match op with
    | Eq -> never
    | Ne -> always
    | Lt | Le ->
        (* n <= floor f *)
        let c = Float.floor f in
        if c >= beyond then always else if c < float least then never else (Le, int_of_float c)
    | Gt | Ge ->
        (* n >= ceil f *)
        let c = Float.ceil f in
        if c >= beyond then never else if c <= float least then always else (Ge, int_of_float c)

let axis_of_name = function
  | "child" -> Some Child
  | "descendant" -> Some Descendant
  | "descendant-or-self" -> Some Descendant_or_self
  | "self" -> Some Self
  | "parent" -> Some Parent
  | "attribute" -> Some Attribute
  | "following-sibling" -> Some Following_sibling
  | "preceding-sibling" -> Some Preceding_sibling
  | "following" -> Some Following
  | "preceding" -> Some Preceding
  | "ancestor" -> Some Ancestor
  | "ancestor-or-self" -> Some Ancestor_or_self
  | _ -> None

let parse_test st =
  match peek st with
  | Xpath_lexer.Star ->
      advance st;
      Any_name
  | Xpath_lexer.Ident name when peek2 st = Xpath_lexer.Lparen -> begin
      advance st;
      advance st;
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ) after %s(, got %s" name (tok_str t));
      match name with
      | "text" -> Text_test
      | "comment" -> Comment_test
      | "node" -> Node_test
      | _ -> fail "unknown node test %s()" name
    end
  | Xpath_lexer.Ident name ->
      advance st;
      Name name
  | t -> fail "expected a node test, got %s" (tok_str t)

let rec parse_predicate st =
  (* '[' already consumed *)
  let p = parse_or st in
  (match peek st with
  | Xpath_lexer.Rbracket -> advance st
  | t -> fail "expected ], got %s" (tok_str t));
  p

and parse_or st =
  let left = parse_and st in
  match peek st with
  | Xpath_lexer.Ident "or" ->
      advance st;
      P_or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_atom st in
  match peek st with
  | Xpath_lexer.Ident "and" ->
      advance st;
      P_and (left, parse_and st)
  | _ -> left

and parse_atom st =
  match peek st with
  | Xpath_lexer.Num f ->
      advance st;
      if not (Float.is_integer f && f >= 1. && f < 0x1p62) then fail "positions must be positive integers";
      P_pos (Eq, int_of_float f)
  | Xpath_lexer.Lparen ->
      advance st;
      let p = parse_or st in
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ), got %s" (tok_str t));
      p
  | Xpath_lexer.Ident "not" when peek2 st = Xpath_lexer.Lparen ->
      advance st;
      advance st;
      let p = parse_or st in
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ), got %s" (tok_str t));
      P_not p
  | Xpath_lexer.Ident "count" when peek2 st = Xpath_lexer.Lparen ->
      advance st;
      advance st;
      let path = parse_relpath st in
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ), got %s" (tok_str t));
      let op =
        match peek st with
        | Xpath_lexer.Cmp c ->
            advance st;
            c
        | t -> fail "expected a comparison after count(), got %s" (tok_str t)
      in
      let op, k =
        match peek st with
        | Xpath_lexer.Num f ->
            advance st;
            int_cmp ~least:0 op f
        | t -> fail "expected a number, got %s" (tok_str t)
      in
      P_count (path, op, k)
  | Xpath_lexer.Ident "last" when peek2 st = Xpath_lexer.Lparen ->
      advance st;
      advance st;
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ), got %s" (tok_str t));
      P_last
  | Xpath_lexer.Ident "position" when peek2 st = Xpath_lexer.Lparen ->
      advance st;
      advance st;
      (match peek st with
      | Xpath_lexer.Rparen -> advance st
      | t -> fail "expected ), got %s" (tok_str t));
      let op =
        match peek st with
        | Xpath_lexer.Cmp c ->
            advance st;
            c
        | t -> fail "expected a comparison after position(), got %s" (tok_str t)
      in
      let op, k =
        match peek st with
        | Xpath_lexer.Num f ->
            advance st;
            int_cmp ~least:1 op f
        | t -> fail "expected a number, got %s" (tok_str t)
      in
      P_pos (op, k)
  | _ ->
      (* relative path, optionally compared to a literal *)
      let path = parse_relpath st in
      (match peek st with
      | Xpath_lexer.Cmp op ->
          advance st;
          let lit =
            match peek st with
            | Xpath_lexer.Num f ->
                advance st;
                L_num f
            | Xpath_lexer.Str s ->
                advance st;
                L_str s
            | t -> fail "expected a literal, got %s" (tok_str t)
          in
          P_cmp (path, op, lit)
      | _ -> P_exists path)

and parse_step st =
  match peek st with
  | Xpath_lexer.Dot ->
      advance st;
      { axis = Self; test = Node_test; preds = [] }
  | Xpath_lexer.Dotdot ->
      advance st;
      { axis = Parent; test = Node_test; preds = [] }
  | Xpath_lexer.At ->
      advance st;
      let test = parse_test st in
      { axis = Attribute; test; preds = parse_preds st }
  | Xpath_lexer.Ident name
    when peek2 st = Xpath_lexer.Dcolon && axis_of_name name <> None -> begin
      advance st;
      advance st;
      match axis_of_name name with
      | Some axis ->
          let test = parse_test st in
          { axis; test; preds = parse_preds st }
      | None -> assert false
    end
  | Xpath_lexer.Ident name when peek2 st = Xpath_lexer.Dcolon ->
      fail "unknown axis %s" name
  | _ ->
      let test = parse_test st in
      { axis = Child; test; preds = parse_preds st }

and parse_preds st =
  match peek st with
  | Xpath_lexer.Lbracket ->
      advance st;
      let p = parse_predicate st in
      p :: parse_preds st
  | _ -> []

and parse_relpath st =
  let first = parse_step st in
  let rec more acc =
    match peek st with
    | Xpath_lexer.Slash ->
        advance st;
        more (parse_step st :: acc)
    | Xpath_lexer.Dslash ->
        advance st;
        let s = parse_step st in
        more ({ s with axis = descend s.axis } :: acc)
    | _ -> List.rev acc
  in
  { absolute = false; steps = more [ first ] }

and descend = function
  | Child -> Descendant
  | axis ->
      fail "'//' cannot be combined with an explicit %s axis" (axis_name axis)

let parse_path st =
  match peek st with
  | Xpath_lexer.Slash ->
      advance st;
      let rel = parse_relpath st in
      { rel with absolute = true }
  | Xpath_lexer.Dslash ->
      advance st;
      let rel = parse_relpath st in
      let steps =
        match rel.steps with
        | s :: rest -> { s with axis = descend s.axis } :: rest
        | [] -> []
      in
      { absolute = true; steps }
  | _ -> parse_relpath st

let finish st =
  match peek st with
  | Xpath_lexer.Eof -> ()
  | t -> fail "trailing input: %s" (tok_str t)

let parse src =
  let toks =
    try Xpath_lexer.tokenize src with Xpath_lexer.Error m -> fail "%s" m
  in
  let st = { toks } in
  let p = parse_path st in
  finish st;
  if p.steps = [] then fail "empty path";
  p

let parse_union src =
  let toks =
    try Xpath_lexer.tokenize src with Xpath_lexer.Error m -> fail "%s" m
  in
  let st = { toks } in
  let rec go acc =
    let p = parse_path st in
    if p.steps = [] then fail "empty path";
    match peek st with
    | Xpath_lexer.Pipe ->
        advance st;
        go (p :: acc)
    | _ -> List.rev (p :: acc)
  in
  let paths = go [] in
  finish st;
  paths

let parse_relative src =
  let p = parse src in
  if p.absolute then fail "expected a relative path";
  p
