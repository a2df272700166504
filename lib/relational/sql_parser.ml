open Sql_ast

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type state = { mutable toks : Sql_lexer.token list; mutable params : int }

let peek st = match st.toks with [] -> Sql_lexer.Eof | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let token_str = function
  | Sql_lexer.Ident s -> Printf.sprintf "identifier %s" s
  | Sql_lexer.Kw s -> s
  | Sql_lexer.Int_lit i -> string_of_int i
  | Sql_lexer.Float_lit f -> string_of_float f
  | Sql_lexer.Str_lit s -> Printf.sprintf "'%s'" s
  | Sql_lexer.Bytes_lit _ -> "bytes literal"
  | Sql_lexer.Sym s -> Printf.sprintf "%S" s
  | Sql_lexer.Eof -> "end of input"

let eat_kw st kw =
  match peek st with
  | Sql_lexer.Kw k when k = kw -> advance st
  | t -> fail "expected %s, got %s" kw (token_str t)

let try_kw st kw =
  match peek st with
  | Sql_lexer.Kw k when k = kw ->
      advance st;
      true
  | _ -> false

let eat_sym st sym =
  match peek st with
  | Sql_lexer.Sym s when s = sym -> advance st
  | t -> fail "expected %S, got %s" sym (token_str t)

let try_sym st sym =
  match peek st with
  | Sql_lexer.Sym s when s = sym ->
      advance st;
      true
  | _ -> false

let ident st =
  match peek st with
  | Sql_lexer.Ident s ->
      advance st;
      s
  | t -> fail "expected an identifier, got %s" (token_str t)

let int_lit st =
  match peek st with
  | Sql_lexer.Int_lit i ->
      advance st;
      i
  | t -> fail "expected an integer, got %s" (token_str t)

(* one or more [item]s separated by commas *)
let comma_list st item =
  let rec go acc =
    let x = item st in
    if try_sym st "," then go (x :: acc) else List.rev (x :: acc)
  in
  go []

(* --- expressions ---------------------------------------------------- *)

let rec parse_or st =
  let left = parse_and st in
  if try_kw st "OR" then E_or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if try_kw st "AND" then E_and (left, parse_and st) else left

and parse_not st =
  if try_kw st "NOT" then E_not (parse_not st) else parse_predicate st

and parse_predicate st =
  let left = parse_additive st in
  match peek st with
  | Sql_lexer.Sym ("=" | "<>" | "<" | "<=" | ">" | ">=") ->
      let op =
        match peek st with
        | Sql_lexer.Sym "=" -> Expr.Eq
        | Sql_lexer.Sym "<>" -> Expr.Ne
        | Sql_lexer.Sym "<" -> Expr.Lt
        | Sql_lexer.Sym "<=" -> Expr.Le
        | Sql_lexer.Sym ">" -> Expr.Gt
        | Sql_lexer.Sym ">=" -> Expr.Ge
        | _ -> assert false
      in
      advance st;
      E_cmp (op, left, parse_additive st)
  | Sql_lexer.Kw "IS" ->
      advance st;
      if try_kw st "NOT" then begin
        eat_kw st "NULL";
        E_is_not_null left
      end
      else begin
        eat_kw st "NULL";
        E_is_null left
      end
  | Sql_lexer.Kw "LIKE" ->
      advance st;
      begin
        match peek st with
        | Sql_lexer.Str_lit p ->
            advance st;
            E_like (left, p)
        | t -> fail "LIKE expects a string literal, got %s" (token_str t)
      end
  | Sql_lexer.Kw "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      eat_kw st "AND";
      let hi = parse_additive st in
      E_between (left, lo, hi)
  | Sql_lexer.Kw "IN" ->
      advance st;
      eat_sym st "(";
      let rec vals acc =
        let v =
          match peek st with
          | Sql_lexer.Int_lit i ->
              advance st;
              Value.Int i
          | Sql_lexer.Float_lit f ->
              advance st;
              Value.Float f
          | Sql_lexer.Str_lit s ->
              advance st;
              Value.Str s
          | Sql_lexer.Bytes_lit b ->
              advance st;
              Value.Bytes b
          | Sql_lexer.Kw "NULL" ->
              advance st;
              Value.Null
          | t -> fail "IN list expects literals, got %s" (token_str t)
        in
        if try_sym st "," then vals (v :: acc) else List.rev (v :: acc)
      in
      let vs = vals [] in
      eat_sym st ")";
      E_in (left, vs)
  | Sql_lexer.Kw "NOT" ->
      advance st;
      (* NOT LIKE / NOT BETWEEN / NOT IN *)
      E_not (parse_negatable st left)
  | _ -> left

and parse_negatable st left =
  match peek st with
  | Sql_lexer.Kw "LIKE" ->
      advance st;
      begin
        match peek st with
        | Sql_lexer.Str_lit p ->
            advance st;
            E_like (left, p)
        | t -> fail "LIKE expects a string literal, got %s" (token_str t)
      end
  | Sql_lexer.Kw "BETWEEN" ->
      advance st;
      let lo = parse_additive st in
      eat_kw st "AND";
      let hi = parse_additive st in
      E_between (left, lo, hi)
  | Sql_lexer.Kw "IN" ->
      advance st;
      eat_sym st "(";
      let rec vals acc =
        let v =
          match peek st with
          | Sql_lexer.Int_lit i ->
              advance st;
              Value.Int i
          | Sql_lexer.Str_lit s ->
              advance st;
              Value.Str s
          | t -> fail "IN list expects literals, got %s" (token_str t)
        in
        if try_sym st "," then vals (v :: acc) else List.rev (v :: acc)
      in
      let vs = vals [] in
      eat_sym st ")";
      E_in (left, vs)
  | t -> fail "expected LIKE/BETWEEN/IN, got %s" (token_str t)

and parse_additive st =
  let left = parse_multiplicative st in
  let rec go left =
    match peek st with
    | Sql_lexer.Sym "+" ->
        advance st;
        go (E_arith (Expr.Add, left, parse_multiplicative st))
    | Sql_lexer.Sym "-" ->
        advance st;
        go (E_arith (Expr.Sub, left, parse_multiplicative st))
    | Sql_lexer.Sym "||" ->
        advance st;
        go (E_concat (left, parse_multiplicative st))
    | _ -> left
  in
  go left

and parse_multiplicative st =
  let left = parse_unary st in
  let rec go left =
    match peek st with
    | Sql_lexer.Sym "*" ->
        advance st;
        go (E_arith (Expr.Mul, left, parse_unary st))
    | Sql_lexer.Sym "/" ->
        advance st;
        go (E_arith (Expr.Div, left, parse_unary st))
    | Sql_lexer.Sym "%" ->
        advance st;
        go (E_arith (Expr.Mod, left, parse_unary st))
    | _ -> left
  in
  go left

and parse_unary st =
  if try_sym st "-" then E_neg (parse_unary st) else parse_primary st

and parse_primary st =
  match peek st with
  | Sql_lexer.Int_lit i ->
      advance st;
      E_const (Value.Int i)
  | Sql_lexer.Float_lit f ->
      advance st;
      E_const (Value.Float f)
  | Sql_lexer.Str_lit s ->
      advance st;
      E_const (Value.Str s)
  | Sql_lexer.Bytes_lit b ->
      advance st;
      E_const (Value.Bytes b)
  | Sql_lexer.Kw "NULL" ->
      advance st;
      E_const Value.Null
  | Sql_lexer.Sym "(" ->
      advance st;
      let e = parse_or st in
      eat_sym st ")";
      e
  | Sql_lexer.Sym "*" ->
      advance st;
      E_star
  | Sql_lexer.Sym "?" ->
      advance st;
      let i = st.params in
      st.params <- st.params + 1;
      E_param i
  | Sql_lexer.Ident name ->
      advance st;
      if try_sym st "(" then begin
        (* function call, possibly with * argument *)
        if try_sym st ")" then E_func (String.uppercase_ascii name, [])
        else begin
          let a = comma_list st parse_or in
          eat_sym st ")";
          E_func (String.uppercase_ascii name, a)
        end
      end
      else if try_sym st "." then
        let col = ident st in
        E_col (Some name, col)
      else E_col (None, name)
  | t -> fail "unexpected token in expression: %s" (token_str t)

(* --- statements ----------------------------------------------------- *)

let parse_select st =
  eat_kw st "SELECT";
  let distinct = try_kw st "DISTINCT" in
  let rec items acc =
    let item =
      match peek st with
      | Sql_lexer.Sym "*" ->
          advance st;
          Star
      | _ ->
          let e = parse_or st in
          let alias =
            if try_kw st "AS" then Some (ident st)
            else
              match peek st with
              | Sql_lexer.Ident a ->
                  advance st;
                  Some a
              | _ -> None
          in
          Item (e, alias)
    in
    if try_sym st "," then items (item :: acc) else List.rev (item :: acc)
  in
  let items = items [] in
  eat_kw st "FROM";
  let rec tables acc =
    let name = ident st in
    let alias =
      if try_kw st "AS" then Some (ident st)
      else
        match peek st with
        | Sql_lexer.Ident a ->
            advance st;
            Some a
        | _ -> None
    in
    if try_sym st "," then tables ((name, alias) :: acc)
    else List.rev ((name, alias) :: acc)
  in
  let from = tables [] in
  let where = if try_kw st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if try_kw st "GROUP" then begin
      eat_kw st "BY";
      comma_list st parse_or
    end
    else []
  in
  let having = if try_kw st "HAVING" then Some (parse_or st) else None in
  let order_by =
    if try_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec go acc =
        let e = parse_or st in
        let dir =
          if try_kw st "DESC" then Desc
          else begin
            ignore (try_kw st "ASC");
            Asc
          end
        in
        if try_sym st "," then go ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      go []
    end
    else []
  in
  (* a row count: an integer literal or a ? slot, bound when the plan runs *)
  let count st =
    if try_sym st "?" then begin
      st.params <- st.params + 1;
      E_param (st.params - 1)
    end
    else E_const (Value.Int (int_lit st))
  in
  let limit = if try_kw st "LIMIT" then Some (count st) else None in
  let offset = if try_kw st "OFFSET" then Some (count st) else None in
  let limit_by =
    if limit <> None && try_kw st "BY" then begin
      let by = comma_list st parse_or in
      if try_kw st "LIMIT" then fail "LIMIT BY cannot be combined with a plain LIMIT";
      by
    end
    else []
  in
  { distinct; items; from; where; group_by; having; order_by; limit; offset; limit_by }

let parse_insert st =
  eat_kw st "INSERT";
  eat_kw st "INTO";
  let table = ident st in
  let columns =
    if try_sym st "(" then begin
      let rec go acc =
        let c = ident st in
        if try_sym st "," then go (c :: acc) else List.rev (c :: acc)
      in
      let cols = go [] in
      eat_sym st ")";
      Some cols
    end
    else None
  in
  eat_kw st "VALUES";
  let rec rows acc =
    eat_sym st "(";
    let rec vals acc =
      let e = parse_or st in
      if try_sym st "," then vals (e :: acc) else List.rev (e :: acc)
    in
    let row = vals [] in
    eat_sym st ")";
    if try_sym st "," then rows (row :: acc) else List.rev (row :: acc)
  in
  Insert { table; columns; values = rows [] }

let parse_update st =
  eat_kw st "UPDATE";
  let table = ident st in
  eat_kw st "SET";
  let rec sets acc =
    let col = ident st in
    eat_sym st "=";
    let e = parse_or st in
    if try_sym st "," then sets ((col, e) :: acc) else List.rev ((col, e) :: acc)
  in
  let sets = sets [] in
  let where = if try_kw st "WHERE" then Some (parse_or st) else None in
  Update { table; sets; where }

let parse_delete st =
  eat_kw st "DELETE";
  eat_kw st "FROM";
  let table = ident st in
  let where = if try_kw st "WHERE" then Some (parse_or st) else None in
  Delete { table; where }

let parse_create st =
  eat_kw st "CREATE";
  let unique = try_kw st "UNIQUE" in
  if try_kw st "TABLE" then begin
    if unique then fail "UNIQUE TABLE is not a thing";
    let name = ident st in
    eat_sym st "(";
    let rec cols acc =
      let cd_name = ident st in
      let ty_name =
        match peek st with
        | Sql_lexer.Ident s ->
            advance st;
            s
        | t -> fail "expected a type name, got %s" (token_str t)
      in
      let cd_type =
        match Value.ty_of_name ty_name with
        | Some ty -> ty
        | None -> fail "unknown type %s" ty_name
      in
      let cd_not_null =
        if try_kw st "NOT" then begin
          eat_kw st "NULL";
          true
        end
        else false
      in
      let col = { cd_name; cd_type; cd_not_null } in
      if try_sym st "," then cols (col :: acc) else List.rev (col :: acc)
    in
    let columns = cols [] in
    eat_sym st ")";
    Create_table { name; columns }
  end
  else begin
    eat_kw st "INDEX";
    let name = ident st in
    eat_kw st "ON";
    let table = ident st in
    eat_sym st "(";
    let rec cols acc =
      let c = ident st in
      if try_sym st "," then cols (c :: acc) else List.rev (c :: acc)
    in
    let columns = cols [] in
    eat_sym st ")";
    Create_index { name; table; columns; unique }
  end

let parse_stmt st =
  match peek st with
  | Sql_lexer.Kw "SELECT" -> begin
      let first = parse_select st in
      let rec unions acc =
        if try_kw st "UNION" then begin
          eat_kw st "ALL";
          unions (parse_select st :: acc)
        end
        else List.rev acc
      in
      match unions [ first ] with
      | [ q ] -> Select q
      | qs ->
          if List.exists (fun q -> q.limit_by <> []) qs then
            fail "LIMIT BY cannot be combined with UNION ALL";
          Union_all qs
    end
  | Sql_lexer.Kw "INSERT" -> parse_insert st
  | Sql_lexer.Kw "UPDATE" -> parse_update st
  | Sql_lexer.Kw "DELETE" -> parse_delete st
  | Sql_lexer.Kw "CREATE" -> parse_create st
  | Sql_lexer.Kw "DROP" ->
      advance st;
      eat_kw st "TABLE";
      Drop_table (ident st)
  | Sql_lexer.Kw "BEGIN" ->
      advance st;
      Begin_txn
  | Sql_lexer.Kw "COMMIT" ->
      advance st;
      Commit_txn
  | Sql_lexer.Kw "ROLLBACK" ->
      advance st;
      Rollback_txn
  | t -> fail "expected a statement, got %s" (token_str t)

let finish st =
  ignore (try_sym st ";");
  match peek st with
  | Sql_lexer.Eof -> ()
  | t -> fail "trailing input: %s" (token_str t)

let parse_params src =
  let toks = try Sql_lexer.tokenize src with Sql_lexer.Error m -> fail "%s" m in
  let st = { toks; params = 0 } in
  let stmt = parse_stmt st in
  finish st;
  (stmt, st.params)

let parse src = fst (parse_params src)

let parse_expr src =
  let toks = try Sql_lexer.tokenize src with Sql_lexer.Error m -> fail "%s" m in
  let st = { toks; params = 0 } in
  let e = parse_or st in
  finish st;
  e
