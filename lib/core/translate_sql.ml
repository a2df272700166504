module A = Xpath_ast
module V = Reldb.Value

exception Not_single_statement of string

let fail fmt = Printf.ksprintf (fun s -> raise (Not_single_statement s)) fmt

let is_global = function
  | Encoding.Global | Encoding.Global_gap -> true
  | Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret -> false

(* ------------------------------------------------------------------ *)
(* Fragment checks                                                     *)
(* ------------------------------------------------------------------ *)

let axis_supported enc (axis : A.axis) =
  match axis with
  | A.Child | A.Attribute | A.Parent | A.Self | A.Following_sibling
  | A.Preceding_sibling ->
      true
  | A.Descendant | A.Descendant_or_self | A.Following | A.Preceding
  | A.Ancestor | A.Ancestor_or_self ->
      (* only interval numbering makes these closed-form in one statement —
         the expressiveness edge the paper credits to global order *)
      is_global enc

let rec pred_supported enc (p : A.predicate) =
  match p with
  | A.P_exists path | A.P_cmp (path, _, _) ->
      List.for_all
        (fun (s : A.step) ->
          axis_supported enc s.A.axis && List.for_all (pred_supported enc) s.A.preds)
        path.A.steps
  | A.P_and (a, b) -> pred_supported enc a && pred_supported enc b
  | A.P_pos _ | A.P_last | A.P_or _ | A.P_not _ | A.P_count _ -> false

let step_supported enc (s : A.step) =
  axis_supported enc s.A.axis && List.for_all (pred_supported enc) s.A.preds

let eligible enc (path : A.path) =
  (match path.A.steps with
  | { A.axis = A.Child | A.Descendant | A.Descendant_or_self; _ } :: _ -> true
  | _ -> false)
  && List.for_all (step_supported enc) path.A.steps

(* ------------------------------------------------------------------ *)
(* SQL generation                                                      *)
(* ------------------------------------------------------------------ *)

type gen = {
  enc : Encoding.t;
  tname : string;
  mutable aliases : string list;  (* reversed *)
  mutable conds : string list;  (* reversed *)
  mutable count : int;
}

let new_alias g =
  let a = Printf.sprintf "s%d" g.count in
  g.count <- g.count + 1;
  g.aliases <- a :: g.aliases;
  a

let add g cond = g.conds <- cond :: g.conds

(* join condition between the previous step's alias and the new one *)
let axis_join g ~prev alias (axis : A.axis) =
  let glob fmt = Printf.ksprintf (fun s -> add g s) fmt in
  match axis with
  | A.Child -> glob "%s.parent = %s.id AND %s.kind <> 2" alias prev alias
  | A.Attribute -> glob "%s.parent = %s.id" alias prev
  | A.Parent -> glob "%s.id = %s.parent" alias prev
  | A.Following_sibling -> begin
      (* attribute nodes have no siblings: the context must be a non-attr *)
      glob "%s.parent = %s.parent AND %s.kind <> 2 AND %s.kind <> 2" alias prev
        alias prev;
      match g.enc with
      | Encoding.Global | Encoding.Global_gap ->
          glob "%s.g_order > %s.g_order" alias prev
      | Encoding.Local -> glob "%s.l_order > %s.l_order" alias prev
      | Encoding.Dewey_enc | Encoding.Dewey_caret ->
          glob "%s.path > %s.path" alias prev
    end
  | A.Preceding_sibling -> begin
      glob "%s.parent = %s.parent AND %s.kind <> 2 AND %s.kind <> 2" alias prev
        alias prev;
      match g.enc with
      | Encoding.Global | Encoding.Global_gap ->
          glob "%s.g_order < %s.g_order" alias prev
      | Encoding.Local -> glob "%s.l_order < %s.l_order AND %s.l_order > 0" alias prev alias
      | Encoding.Dewey_enc | Encoding.Dewey_caret ->
          glob "%s.path < %s.path" alias prev
    end
  | A.Descendant ->
      glob "%s.g_order > %s.g_order AND %s.g_order < %s.g_end AND %s.kind <> 2"
        alias prev alias prev alias
  | A.Descendant_or_self ->
      glob "%s.g_order >= %s.g_order AND %s.g_order < %s.g_end AND %s.kind <> 2"
        alias prev alias prev alias
  | A.Following -> glob "%s.g_order > %s.g_end AND %s.kind <> 2" alias prev alias
  | A.Preceding -> glob "%s.g_end < %s.g_order AND %s.kind <> 2" alias prev alias
  | A.Ancestor -> glob "%s.g_order < %s.g_order AND %s.g_end > %s.g_end" alias prev alias prev
  | A.Ancestor_or_self ->
      glob "%s.g_order <= %s.g_order AND %s.g_end >= %s.g_end" alias prev alias prev
  | A.Self -> assert false (* handled by the caller without a new alias *)

let cmp_sql = function
  | A.Eq -> "="
  | A.Ne -> "<>"
  | A.Lt -> "<"
  | A.Le -> "<="
  | A.Gt -> ">"
  | A.Ge -> ">="

(* one step: returns the alias holding the step's result *)
let rec gen_step g ~prev (step : A.step) =
  let alias =
    match step.A.axis with
    | A.Self ->
        (* no new alias: just a test on the previous one *)
        add g (Translate.test_cond prev A.Child step.A.test);
        prev
    | axis ->
        let a = new_alias g in
        axis_join g ~prev a axis;
        add g (Translate.test_cond a axis step.A.test);
        a
  in
  List.iter (gen_pred g ~ctx:alias) step.A.preds;
  alias

and gen_pred g ~ctx (p : A.predicate) =
  match p with
  | A.P_and (a, b) ->
      gen_pred g ~ctx a;
      gen_pred g ~ctx b
  | A.P_exists path -> ignore (gen_rel g ~ctx path)
  | A.P_cmp (path, op, lit) -> begin
      let target = gen_rel g ~ctx path in
      (* an element target compares via its text children (same data-centric
         string-value convention as the step-at-a-time translator) *)
      let selects_elements =
        match List.rev path.A.steps with
        | last :: _ -> (
            match (last.A.axis, last.A.test) with
            | A.Attribute, _ -> false
            | _, (A.Name _ | A.Any_name) -> true
            | _, A.Node_test -> true (* conservatively route through text() *)
            | _, (A.Text_test | A.Comment_test) -> false)
        | [] -> true
      in
      let value_alias =
        if selects_elements then
          gen_rel g ~ctx:target
            { A.absolute = false;
              steps = [ { A.axis = A.Child; test = A.Text_test; preds = [] } ] }
        else target
      in
      match lit with
      | A.L_num f ->
          add g (Printf.sprintf "%s.nval %s %s" value_alias (cmp_sql op)
                   (V.to_sql_literal (V.Float f)))
      | A.L_str s -> (
          match op with
          | A.Eq | A.Ne ->
              add g (Printf.sprintf "%s.value %s %s" value_alias (cmp_sql op)
                       (V.to_sql_literal (V.Str s)))
          | A.Lt | A.Le | A.Gt | A.Ge ->
              let f = Translate.number_of_string s in
              if Float.is_nan f then add g "1 = 0"
              else
                add g (Printf.sprintf "%s.nval %s %s" value_alias (cmp_sql op)
                         (V.to_sql_literal (V.Float f))))
    end
  | A.P_pos _ | A.P_last | A.P_or _ | A.P_not _ | A.P_count _ ->
      fail "positional, disjunctive or counting predicates need the \
            step-at-a-time mode"

and gen_rel g ~ctx (path : A.path) =
  List.fold_left (fun prev step -> gen_step g ~prev step) ctx path.A.steps

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
  let g = { enc; tname = Encoding.table_name ~doc enc; aliases = []; conds = []; count = 0 } in
  (* first step chains off the (virtual) document root *)
  let first, rest =
    match path.A.steps with s :: r -> (s, r) | [] -> assert false
  in
  let first_alias =
    match first.A.axis with
    | A.Child ->
        let a = new_alias g in
        add g (Printf.sprintf "%s.parent IS NULL" a);
        add g (Translate.test_cond a A.Child first.A.test);
        a
    | A.Descendant | A.Descendant_or_self ->
        let a = new_alias g in
        add g (Printf.sprintf "%s.kind <> 2" a);
        add g (Translate.test_cond a A.Child first.A.test);
        a
    | _ -> fail "an absolute path must start with child or descendant"
  in
  List.iter (gen_pred g ~ctx:first_alias) first.A.preds;
  let result = List.fold_left (fun prev step -> gen_step g ~prev step) first_alias rest in
  let from =
    String.concat ", "
      (List.rev_map (fun a -> Printf.sprintf "%s %s" g.tname a) g.aliases)
  in
  let where = String.concat " AND " (List.rev g.conds) in
  let order_column =
    if enc = Encoding.Local then None else Some (Encoding.order_col enc)
  in
  let order =
    match order_column with
    | Some col -> Printf.sprintf " ORDER BY %s.%s" result col
    | None -> ""
  in
  (* a single alias is one pass over the base table — no self-join, so no
     duplicates to eliminate; [unique] is the schema analysis vouching that
     each result row is reached exactly once, so dedup can be skipped *)
  let distinct =
    if unique || List.length g.aliases <= 1 then "" else "DISTINCT "
  in
  let sql =
    Printf.sprintf "SELECT %s%s FROM %s WHERE %s%s" distinct
      (Node_row.select_list enc result)
      from where order
  in
  let meta =
    {
      fm_encoding = enc;
      fm_table = g.tname;
      fm_result_alias = result;
      fm_aliases = List.rev g.aliases;
      fm_ordered = order_column <> None;
      fm_order_column = order_column;
      fm_axes = path_axes path;
    }
  in
  (sql, meta)

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
