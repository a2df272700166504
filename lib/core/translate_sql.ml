module A = Xpath_ast
module V = Reldb.Value

exception Not_single_statement of string

let fail fmt = Printf.ksprintf (fun s -> raise (Not_single_statement s)) fmt

(* ------------------------------------------------------------------ *)
(* Fragment checks                                                     *)
(* ------------------------------------------------------------------ *)

let axis_supported = Translate.axis_supported

(* the whole path as one run of the join table, without positions *)
let eligible enc (path : A.path) =
  (match path.A.steps with
  | { A.axis = A.Child | A.Descendant | A.Descendant_or_self; _ } :: _ -> true
  | _ -> false)
  && List.for_all (Translate.step_lowers enc ~lead:false) path.A.steps

(* ------------------------------------------------------------------ *)
(* Fragment metadata                                                   *)
(* ------------------------------------------------------------------ *)

type fragment_meta = {
  fm_encoding : Encoding.t;
  fm_table : string;
  fm_result_alias : string;
  fm_aliases : string list;
  fm_ordered : bool;
  fm_order_column : string option;
  fm_axes : A.axis list;
}

let rec axes_of_pred (p : A.predicate) acc =
  match p with
  | A.P_exists path | A.P_cmp (path, _, _) -> axes_of_path path acc
  | A.P_count (path, _, _) -> axes_of_path path acc
  | A.P_and (a, b) | A.P_or (a, b) -> axes_of_pred a (axes_of_pred b acc)
  | A.P_not a -> axes_of_pred a acc
  | A.P_pos _ | A.P_last -> acc

and axes_of_path (path : A.path) acc =
  List.fold_left
    (fun acc (s : A.step) ->
      List.fold_left
        (fun acc p -> axes_of_pred p acc)
        (s.A.axis :: acc) s.A.preds)
    acc path.A.steps

let path_axes path = List.sort_uniq compare (axes_of_path path [])

let translate_meta ?(unique = false) ~doc enc (path : A.path) =
  if not (eligible enc path) then
    fail
      "path is outside the single-statement fragment for the %s encoding"
      (Encoding.name enc);
  let table = Encoding.table_name ~doc enc in
  (* LOCAL has no document-order column: its rows come back unordered *)
  let order_column =
    if enc = Encoding.Local then None else Some (Encoding.order_col enc)
  in
  let l =
    Translate.lower_path ~unique ~sort:(order_column <> None) enc ~table path.A.steps
  in
  let meta =
    {
      fm_encoding = enc;
      fm_table = table;
      fm_result_alias = l.Translate.result;
      fm_aliases = l.Translate.aliases;
      fm_ordered = order_column <> None;
      fm_order_column = order_column;
      fm_axes = path_axes path;
    }
  in
  (l.Translate.sql, meta)

let translate ?unique ~doc enc path = fst (translate_meta ?unique ~doc enc path)

let eval ?unique db ~doc enc (path : A.path) =
  let sql = translate ?unique ~doc enc path in
  let rows = List.map (Node_row.of_tuple enc) (Reldb.Db.query db sql) in
  match enc with
  | Encoding.Local ->
      (* no document order in the relation: the middle tier must sort,
         paying the parent-chain fetches — the paper's LOCAL caveat *)
      let sorted, extra = Translate.sort_document_order db ~doc enc rows in
      { Translate.rows = sorted; statements = 1 + extra; sql_log = [ sql ] }
  | _ -> { Translate.rows; statements = 1; sql_log = [ sql ] }
