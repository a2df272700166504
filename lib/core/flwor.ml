module A = Xpath_ast
module T = Xmllib.Types

exception Parse_error of string
exception Eval_error of string

let pfail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
let efail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* AST                                                                 *)
(* ------------------------------------------------------------------ *)

type pathexpr =
  | P_abs of A.path
  | P_var of string * A.path option  (* $x or $x/rel/path *)

type rhs = R_lit of A.literal | R_path of pathexpr

type cond = { c_path : pathexpr; c_cmp : (A.cmp * rhs) option }

type clause =
  | For of string * pathexpr
  | Let of string * pathexpr
  | Where of cond list
  | Order of pathexpr * [ `Asc | `Desc ]

type content =
  | K_text of string
  | K_splice of pathexpr
  | K_elem of elem

and elem = {
  e_tag : string;
  e_attrs : (string * apart list) list;
  e_children : content list;
}

and apart = AP_text of string | AP_splice of pathexpr

type t = { clauses : clause list; ctor : content list }

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_pathexpr s =
  if s = "" then pfail "empty path expression";
  if s.[0] = '$' then begin
    match String.index_opt s '/' with
    | None ->
        let v = String.sub s 1 (String.length s - 1) in
        if v = "" then pfail "missing variable name";
        P_var (v, None)
    | Some i ->
        let v = String.sub s 1 (i - 1) in
        if v = "" then pfail "missing variable name";
        let rel = String.sub s (i + 1) (String.length s - i - 1) in
        (try P_var (v, Some (Xpath_parser.parse_relative rel))
         with Xpath_parser.Parse_error m -> pfail "in %s: %s" s m)
  end
  else
    try P_abs (Xpath_parser.parse s)
    with Xpath_parser.Parse_error m -> pfail "in %s: %s" s m

(* words of the clause section, gluing quoted strings back together *)
let words_of src =
  let raw =
    String.split_on_char ' ' (String.map (function '\n' | '\t' | '\r' -> ' ' | c -> c) src)
    |> List.filter (fun w -> w <> "")
  in
  let rec glue acc = function
    | [] -> List.rev acc
    | w :: rest
      when String.length w >= 1
           && w.[0] = '\''
           && not (String.length w >= 2 && w.[String.length w - 1] = '\'') ->
        (* a quoted literal containing spaces: join until the closing quote *)
        let rec take parts = function
          | [] -> pfail "unterminated string literal"
          | p :: more ->
              if String.length p >= 1 && p.[String.length p - 1] = '\'' then
                (String.concat " " (List.rev (p :: parts)), more)
              else take (p :: parts) more
        in
        let joined, more = take [ w ] rest in
        glue (joined :: acc) more
    | w :: rest -> glue (w :: acc) rest
  in
  glue [] raw

let cmp_of_word = function
  | "=" -> Some A.Eq
  | "!=" -> Some A.Ne
  | "<" -> Some A.Lt
  | "<=" -> Some A.Le
  | ">" -> Some A.Gt
  | ">=" -> Some A.Ge
  | _ -> None

let literal_of_word w =
  if String.length w >= 2 && w.[0] = '\'' && w.[String.length w - 1] = '\'' then
    A.L_str (String.sub w 1 (String.length w - 2))
  else
    match float_of_string_opt w with
    | Some f -> A.L_num f
    | None -> pfail "expected a literal, got %s" w

let rec parse_clauses words acc =
  match words with
  | "return" :: _ -> (List.rev acc, words)
  | "for" :: var :: "in" :: pe :: rest ->
      if String.length var < 2 || var.[0] <> '$' then
        pfail "for expects a $variable, got %s" var;
      parse_clauses rest
        (For (String.sub var 1 (String.length var - 1), parse_pathexpr pe) :: acc)
  | "let" :: var :: ":=" :: pe :: rest ->
      if String.length var < 2 || var.[0] <> '$' then
        pfail "let expects a $variable, got %s" var;
      parse_clauses rest
        (Let (String.sub var 1 (String.length var - 1), parse_pathexpr pe) :: acc)
  | "where" :: rest ->
      let rec conds ws acc_c =
        match ws with
        | pe :: op :: rhs :: more when cmp_of_word op <> None ->
            (* the right-hand side is a literal, or another path/variable
               (turning the condition into a value join) *)
            let r =
              if String.length rhs > 0 && (rhs.[0] = '$' || rhs.[0] = '/') then
                R_path (parse_pathexpr rhs)
              else R_lit (literal_of_word rhs)
            in
            let c =
              {
                c_path = parse_pathexpr pe;
                c_cmp = Some (Option.get (cmp_of_word op), r);
              }
            in
            continue (c :: acc_c) more
        | pe :: more -> continue ({ c_path = parse_pathexpr pe; c_cmp = None } :: acc_c) more
        | [] -> pfail "empty where clause"
      and continue acc_c = function
        | "and" :: more -> conds more acc_c
        | more -> (List.rev acc_c, more)
      in
      let cs, rest = conds rest [] in
      parse_clauses rest (Where cs :: acc)
  | "order" :: "by" :: pe :: rest ->
      let dir, rest =
        match rest with
        | "descending" :: r -> (`Desc, r)
        | "ascending" :: r -> (`Asc, r)
        | r -> (`Asc, r)
      in
      parse_clauses rest (Order (parse_pathexpr pe, dir) :: acc)
  | w :: _ -> pfail "unexpected token %s (expected for/let/where/order/return)" w
  | [] -> pfail "missing return clause"

(* --- constructor ----------------------------------------------------- *)

type cstate = { src : string; mutable pos : int }

let peekc st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && (match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let expectc st c =
  match peekc st with
  | Some x when x = c -> st.pos <- st.pos + 1
  | _ -> pfail "expected %c in constructor" c

let read_name st =
  let start = st.pos in
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' | '.' -> true
    | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then pfail "expected a name in constructor";
  String.sub st.src start (st.pos - start)

let read_until st stop =
  let start = st.pos in
  while st.pos < String.length st.src && st.src.[st.pos] <> stop do
    st.pos <- st.pos + 1
  done;
  if st.pos >= String.length st.src then pfail "missing %c in constructor" stop;
  String.sub st.src start (st.pos - start)

let read_splice st =
  (* at '{' *)
  expectc st '{';
  let body = String.trim (read_until st '}') in
  expectc st '}';
  parse_pathexpr body

let rec parse_elem st =
  expectc st '<';
  let tag = read_name st in
  let attrs = parse_attrs st [] in
  skip_ws st;
  match peekc st with
  | Some '/' ->
      st.pos <- st.pos + 1;
      expectc st '>';
      { e_tag = tag; e_attrs = attrs; e_children = [] }
  | Some '>' ->
      st.pos <- st.pos + 1;
      let children = parse_contents ~top:false st [] in
      (* at '</' *)
      expectc st '<';
      expectc st '/';
      let close = read_name st in
      if close <> tag then pfail "mismatched </%s> (expected </%s>)" close tag;
      skip_ws st;
      expectc st '>';
      { e_tag = tag; e_attrs = attrs; e_children = children }
  | _ -> pfail "malformed constructor tag <%s" tag

and parse_attrs st acc =
  skip_ws st;
  match peekc st with
  | Some c when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' ->
      let name = read_name st in
      skip_ws st;
      expectc st '=';
      skip_ws st;
      expectc st '"';
      let rec parts acc_p =
        match peekc st with
        | Some '"' ->
            st.pos <- st.pos + 1;
            List.rev acc_p
        | Some '{' -> parts (AP_splice (read_splice st) :: acc_p)
        | Some _ ->
            let start = st.pos in
            while
              st.pos < String.length st.src
              && st.src.[st.pos] <> '"'
              && st.src.[st.pos] <> '{'
            do
              st.pos <- st.pos + 1
            done;
            parts (AP_text (String.sub st.src start (st.pos - start)) :: acc_p)
        | None -> pfail "unterminated attribute value in constructor"
      in
      parse_attrs st ((name, parts []) :: acc)
  | _ -> List.rev acc

and parse_contents ~top st acc =
  match peekc st with
  | None -> if top then List.rev acc else pfail "unterminated constructor"
  | Some '<' ->
      if st.pos + 1 < String.length st.src && st.src.[st.pos + 1] = '/' then
        if top then pfail "stray end tag in constructor" else List.rev acc
      else parse_contents ~top st (K_elem (parse_elem st) :: acc)
  | Some '{' -> parse_contents ~top st (K_splice (read_splice st) :: acc)
  | Some _ ->
      let start = st.pos in
      while
        st.pos < String.length st.src
        && st.src.[st.pos] <> '<'
        && st.src.[st.pos] <> '{'
      do
        st.pos <- st.pos + 1
      done;
      let txt = String.sub st.src start (st.pos - start) in
      let txt = Xmllib.Lexer.decode_entities txt in
      if String.trim txt = "" then parse_contents ~top st acc
      else parse_contents ~top st (K_text txt :: acc)

let parse src =
  (* split at the top-level 'return' keyword *)
  let re_pos =
    let n = String.length src in
    let rec find i =
      if i + 6 > n then pfail "missing return clause"
      else if
        String.sub src i 6 = "return"
        && (i = 0 || src.[i - 1] = ' ' || src.[i - 1] = '\n' || src.[i - 1] = '\t')
        && i + 6 < n
        && (src.[i + 6] = ' ' || src.[i + 6] = '\n' || src.[i + 6] = '<' || src.[i + 6] = '{')
      then i
      else find (i + 1)
    in
    find 0
  in
  let clause_text = String.sub src 0 re_pos in
  let ctor_text = String.sub src (re_pos + 6) (String.length src - re_pos - 6) in
  let clauses, leftover = parse_clauses (words_of clause_text @ [ "return" ]) [] in
  (match leftover with [ "return" ] -> () | _ -> pfail "malformed clause section");
  if not (List.exists (function For _ -> true | _ -> false) clauses) then
    pfail "at least one for clause is required";
  let st = { src = ctor_text; pos = 0 } in
  skip_ws st;
  let ctor = parse_contents ~top:true st [] in
  skip_ws st;
  if st.pos < String.length st.src then pfail "trailing input after constructor";
  if ctor = [] then pfail "empty constructor";
  { clauses; ctor }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

type env = (string * Node_row.t list) list

type ectx = { db : Reldb.Db.t; doc : string; enc : Encoding.t }

let resolve ctx (env : env) = function
  | P_abs p ->
      (Translate.eval ctx.db ~doc:ctx.doc ctx.enc p).Translate.rows
  | P_var (v, rel) -> (
      match List.assoc_opt v env with
      | None -> efail "unbound variable $%s" v
      | Some rows -> (
          match rel with
          | None -> rows
          | Some p ->
              let ids = List.map (fun (r : Node_row.t) -> r.Node_row.id) rows in
              (Translate.eval_from_ids ctx.db ~doc:ctx.doc ctx.enc ~ids p)
                .Translate.rows))

let string_value ctx (r : Node_row.t) =
  match r.Node_row.kind with
  | Doc_index.Elem ->
      T.text_content (Reconstruct.subtree ctx.db ~doc:ctx.doc ctx.enc ~id:r.Node_row.id)
  | _ -> r.Node_row.value

let cond_holds ctx env (c : cond) =
  let rows = resolve ctx env c.c_path in
  match c.c_cmp with
  | None -> rows <> []
  | Some (op, R_lit lit) ->
      List.exists (fun r -> Encoding.value_matches op lit (string_value ctx r)) rows
  | Some (op, R_path pe) ->
      (* existential pair semantics, as in XPath: any left/right value pair
         may satisfy the comparison *)
      let rhs = resolve ctx env pe in
      List.exists
        (fun l ->
          let sv = string_value ctx l in
          List.exists
            (fun r -> Encoding.value_matches op (A.L_str (string_value ctx r)) sv)
            rhs)
        rows

let apply_clause ctx (envs : env list) = function
  | For (v, pe) ->
      List.concat_map
        (fun env ->
          List.map (fun row -> (v, [ row ]) :: env) (resolve ctx env pe))
        envs
  | Let (v, pe) -> List.map (fun env -> (v, resolve ctx env pe) :: env) envs
  | Where conds ->
      List.filter (fun env -> List.for_all (cond_holds ctx env) conds) envs
  | Order (pe, dir) ->
      let keyed =
        List.map
          (fun env ->
            let key =
              match resolve ctx env pe with
              | [] -> ""
              | r :: _ -> string_value ctx r
            in
            (key, env))
          envs
      in
      let numeric =
        keyed <> []
        && List.for_all
             (fun (k, _) -> not (Float.is_nan (Encoding.number_of_string k)))
             keyed
      in
      let cmp (a, _) (b, _) =
        let c =
          if numeric then
            compare (Encoding.number_of_string a) (Encoding.number_of_string b)
          else String.compare a b
        in
        match dir with `Asc -> c | `Desc -> -c
      in
      List.map snd (List.stable_sort cmp keyed)

let splice_nodes ctx rows =
  List.map
    (fun (r : Node_row.t) ->
      match r.Node_row.kind with
      | Doc_index.Attr -> T.Text r.Node_row.value
      | _ -> Reconstruct.subtree ctx.db ~doc:ctx.doc ctx.enc ~id:r.Node_row.id)
    rows

let rec instantiate ctx env (c : content) : T.node list =
  match c with
  | K_text s -> [ T.Text s ]
  | K_splice pe -> splice_nodes ctx (resolve ctx env pe)
  | K_elem e ->
      let attrs =
        List.map
          (fun (name, parts) ->
            let value =
              String.concat ""
                (List.map
                   (function
                     | AP_text s -> s
                     | AP_splice pe -> (
                         match resolve ctx env pe with
                         | [] -> ""
                         | r :: _ -> string_value ctx r))
                   parts)
            in
            { T.attr_name = name; attr_value = value })
          e.e_attrs
      in
      let children = List.concat_map (instantiate ctx env) e.e_children in
      [ T.Element { T.tag = e.e_tag; attrs; children } ]

let eval db ~doc enc (q : t) =
  let ctx = { db; doc; enc } in
  let envs = List.fold_left (apply_clause ctx) [ [] ] q.clauses in
  List.concat_map
    (fun env -> List.concat_map (instantiate ctx env) q.ctor)
    envs

let run db ~doc enc src = eval db ~doc enc (parse src)
