type t = Global | Global_gap | Local | Dewey_enc | Dewey_caret

let all = [ Global; Global_gap; Local; Dewey_enc; Dewey_caret ]

let name = function
  | Global -> "global"
  | Global_gap -> "global-gap"
  | Local -> "local"
  | Dewey_enc -> "dewey"
  | Dewey_caret -> "ordpath"

let of_name = function
  | "global" -> Some Global
  | "global-gap" | "gap" -> Some Global_gap
  | "local" -> Some Local
  | "dewey" -> Some Dewey_enc
  | "ordpath" | "dewey-caret" -> Some Dewey_caret
  | _ -> None

let suffix = function
  | Global -> "global"
  | Global_gap -> "gapped"
  | Local -> "local"
  | Dewey_enc -> "dewey"
  | Dewey_caret -> "ordpath"

let table_name ~doc enc = doc ^ "_" ^ suffix enc

let default_gap = 32

let col_id = 0
let col_parent = 1
let col_kind = 2
let col_tag = 3
let col_value = 4
let col_nval = 5
let col_g_order = 6
let col_g_end = 7
let col_l_order = 6
let col_depth = 6
let col_path = 7

let order_col = function
  | Global | Global_gap -> "g_order"
  | Local -> "l_order"
  | Dewey_enc | Dewey_caret -> "path"

let common_cols =
  "id INT NOT NULL, parent INT, kind INT NOT NULL, tag TEXT, value TEXT, \
   nval FLOAT"

let ddl ~doc enc =
  let t = table_name ~doc enc in
  match enc with
  | Global | Global_gap ->
      [
        Printf.sprintf
          "CREATE TABLE %s (%s, g_order INT NOT NULL, g_end INT NOT NULL)" t
          common_cols;
        Printf.sprintf "CREATE UNIQUE INDEX %s_order ON %s (g_order)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_id ON %s (id)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_parent ON %s (parent, tag, g_order)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_tag ON %s (tag, g_order)" t t;
      ]
  | Local ->
      [
        Printf.sprintf "CREATE TABLE %s (%s, l_order INT NOT NULL)" t
          common_cols;
        Printf.sprintf "CREATE UNIQUE INDEX %s_parent ON %s (parent, l_order)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_id ON %s (id)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_tag ON %s (tag, parent, l_order)" t t;
      ]
  | Dewey_enc | Dewey_caret ->
      [
        Printf.sprintf
          "CREATE TABLE %s (%s, depth INT NOT NULL, path BYTES NOT NULL)" t
          common_cols;
        Printf.sprintf "CREATE UNIQUE INDEX %s_path ON %s (path)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_id ON %s (id)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_parent ON %s (parent, tag, path)" t t;
        Printf.sprintf "CREATE UNIQUE INDEX %s_tag ON %s (tag, path)" t t;
      ]

let create_tables db ~doc enc =
  List.iter (fun sql -> ignore (Reldb.Db.exec db sql)) (ddl ~doc enc)

let drop_tables db ~doc enc =
  ignore (Reldb.Db.exec db (Printf.sprintf "DROP TABLE %s" (table_name ~doc enc)))

let number_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f when Float.is_finite f -> f
  | Some _ | None -> Float.nan

let cmp_holds (op : Xpath_ast.cmp) c =
  match op with
  | Xpath_ast.Eq -> c = 0
  | Xpath_ast.Ne -> c <> 0
  | Xpath_ast.Lt -> c < 0
  | Xpath_ast.Le -> c <= 0
  | Xpath_ast.Gt -> c > 0
  | Xpath_ast.Ge -> c >= 0

(* any comparison with NaN is false *)
let num_holds op a b =
  (not (Float.is_nan a)) && (not (Float.is_nan b)) && cmp_holds op (Float.compare a b)

let value_matches op (lit : Xpath_ast.literal) sv =
  match (lit, op) with
  | Xpath_ast.L_num f, _ -> num_holds op (number_of_string sv) f
  | Xpath_ast.L_str s, (Xpath_ast.Eq | Xpath_ast.Ne) -> cmp_holds op (String.compare sv s)
  | Xpath_ast.L_str s, _ -> num_holds op (number_of_string sv) (number_of_string s)

let nval_of ~kind value =
  match kind with
  | Doc_index.Text_node | Doc_index.Attr ->
      let f = number_of_string value in
      if Float.is_nan f then Reldb.Value.Null else Reldb.Value.Float f
  | Doc_index.Elem | Doc_index.Comment_node | Doc_index.Pi_node ->
      Reldb.Value.Null
