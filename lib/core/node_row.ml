module V = Reldb.Value

type ord = Og of int * int | Ol of int | Od of string

type t = {
  id : int;
  parent : int option;
  kind : Doc_index.kind;
  tag : string;
  value : string;
  ord : ord;
}

(* Every tuple decoded here is a row of a statement that selects
   [select_list] (over a context relation, the context id last) from tables
   the engine type-checks on every insert, whose [id], [kind] and order
   columns are NOT NULL. So no call of [mistyped] can be reached. *)
let mistyped v = invalid_arg ("Node_row: mistyped column " ^ V.to_string v)
let get_int = function V.Int i -> i | v -> mistyped v
let get_str_opt = function V.Null -> "" | V.Str s -> s | v -> mistyped v
let ctx_id tu = get_int tu.(Array.length tu - 1)

module Tbl = Hashtbl.Make (struct type t = int let equal = Int.equal let hash = V.hash_int end)

let of_tuple enc (tu : Reldb.Tuple.t) =
  let id = get_int tu.(Encoding.col_id) in
  let parent =
    match tu.(Encoding.col_parent) with
    | V.Null -> None
    | v -> Some (get_int v)
  in
  let kind = Doc_index.kind_of_code (get_int tu.(Encoding.col_kind)) in
  let tag = get_str_opt tu.(Encoding.col_tag) in
  let value = get_str_opt tu.(Encoding.col_value) in
  let ord =
    match enc with
    | Encoding.Global | Encoding.Global_gap ->
        Og (get_int tu.(Encoding.col_g_order), get_int tu.(Encoding.col_g_end))
    | Encoding.Local -> Ol (get_int tu.(Encoding.col_l_order))
    | Encoding.Dewey_enc | Encoding.Dewey_caret -> begin
        match tu.(Encoding.col_path) with V.Bytes b -> Od b | v -> mistyped v
      end
  in
  { id; parent; kind; tag; value; ord }

let select_list enc alias =
  let order_cols =
    match enc with
    | Encoding.Global | Encoding.Global_gap -> [ "g_order"; "g_end" ]
    | Encoding.Local -> [ "l_order" ]
    | Encoding.Dewey_enc | Encoding.Dewey_caret -> [ "depth"; "path" ]
  in
  String.concat ", "
    (List.map
       (fun c -> alias ^ "." ^ c)
       ([ "id"; "parent"; "kind"; "tag"; "value"; "nval" ] @ order_cols))

(* unreachable: each encoding's code reads only its own order values, and
   the rows one call compares come from one table *)
let other_encoding f = invalid_arg ("Node_row." ^ f ^ ": another encoding's row")

let compare_ord a b =
  match (a.ord, b.ord) with
  | Og (x, _), Og (y, _) -> Stdlib.compare x y
  | Ol x, Ol y -> Stdlib.compare x y
  | Od x, Od y -> String.compare x y
  | _ -> other_encoding "compare_ord"

let global t = match t.ord with Og (o, e) -> (o, e) | Ol _ | Od _ -> other_encoding "global"
let local t = match t.ord with Ol o -> o | Og _ | Od _ -> other_encoding "local"
let dewey t = match t.ord with Od b -> Dewey.decode b | Og _ | Ol _ -> other_encoding "dewey"

let subtree_range = function
  | Og (o, e) -> Some ("g_order >= ? AND g_order <= ?", [| V.Int o; V.Int e |])
  | Od p -> Some ("path >= ? AND path < ?", [| V.Bytes p; V.Bytes (p ^ "\xff") |])
  | Ol _ -> None

(* ---- context relations --------------------------------------------- *)

type relation = { rel_name : string; rel_cols : (string * V.ty) list }

let ctx_relation = function
  | Encoding.Global | Encoding.Global_gap ->
      {
        rel_name = "ctx_global";
        rel_cols =
          [
            ("id", V.Tint); ("parent", V.Tint); ("kind", V.Tint);
            ("g_order", V.Tint); ("g_end", V.Tint);
          ];
      }
  | Encoding.Local ->
      {
        rel_name = "ctx_local";
        rel_cols =
          [ ("id", V.Tint); ("parent", V.Tint); ("kind", V.Tint); ("l_order", V.Tint) ];
      }
  | Encoding.Dewey_enc | Encoding.Dewey_caret ->
      {
        rel_name = "ctx_dewey";
        rel_cols =
          [ ("id", V.Tint); ("parent", V.Tint); ("kind", V.Tint); ("path", V.Tbytes) ];
      }

let ids_relation = { rel_name = "ctx_ids"; rel_cols = [ ("id", V.Tint) ] }

let ctx_tuple t =
  let parent = match t.parent with Some p -> V.Int p | None -> V.Null in
  let kind = V.Int (Doc_index.kind_code t.kind) in
  match t.ord with
  | Og (o, e) -> [| V.Int t.id; parent; kind; V.Int o; V.Int e |]
  | Ol o -> [| V.Int t.id; parent; kind; V.Int o |]
  | Od p -> [| V.Int t.id; parent; kind; V.Bytes p |]

let with_relation db rel rows f =
  Reldb.Db.with_scratch db ~name:rel.rel_name ~cols:rel.rel_cols rows f
