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

let get_int = function
  | V.Int i -> i
  | v -> invalid_arg ("Node_row: expected INT, got " ^ V.to_string v)

let get_str_opt = function
  | V.Null -> ""
  | V.Str s -> s
  | v -> invalid_arg ("Node_row: expected TEXT, got " ^ V.to_string v)

let of_tuple enc (tu : Reldb.Tuple.t) =
  let id = get_int tu.(Encoding.col_id) in
  let parent =
    match tu.(Encoding.col_parent) with
    | V.Null -> None
    | V.Int p -> Some p
    | v -> invalid_arg ("Node_row: bad parent " ^ V.to_string v)
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
        match tu.(Encoding.col_path) with
        | V.Bytes b -> Od b
        | v -> invalid_arg ("Node_row: bad path " ^ V.to_string v)
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

let compare_ord a b =
  match (a.ord, b.ord) with
  | Og (x, _), Og (y, _) -> Stdlib.compare x y
  | Ol x, Ol y -> Stdlib.compare x y
  | Od x, Od y -> String.compare x y
  | _ -> invalid_arg "Node_row.compare_ord: mixed encodings"

let dewey t =
  match t.ord with
  | Od b -> Dewey.decode b
  | Og _ | Ol _ -> invalid_arg "Node_row.dewey: not a DEWEY row"

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
          [
            ("id", V.Tint); ("parent", V.Tint); ("kind", V.Tint);
            ("path", V.Tbytes); ("path_ub", V.Tbytes);
          ];
      }

let ids_relation = { rel_name = "ctx_ids"; rel_cols = [ ("id", V.Tint) ] }

let ctx_tuple t =
  let parent = match t.parent with Some p -> V.Int p | None -> V.Null in
  let kind = V.Int (Doc_index.kind_code t.kind) in
  match t.ord with
  | Og (o, e) -> [| V.Int t.id; parent; kind; V.Int o; V.Int e |]
  | Ol o -> [| V.Int t.id; parent; kind; V.Int o |]
  | Od p ->
      [| V.Int t.id; parent; kind; V.Bytes p; V.Bytes (Dewey.prefix_upper_bound p) |]

let with_relation db rel rows f =
  Reldb.Db.with_scratch db ~name:rel.rel_name ~cols:rel.rel_cols rows f
