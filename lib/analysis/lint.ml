module S = Reldb.Sql_ast
module E = Reldb.Expr
module V = Reldb.Value
module Simplify = Reldb.Simplify

let norm = String.lowercase_ascii

(* ------------------------------------------------------------------ *)
(* Surface-expression helpers                                          *)
(* ------------------------------------------------------------------ *)

let cmp_str = function
  | E.Eq -> "="
  | E.Ne -> "<>"
  | E.Lt -> "<"
  | E.Le -> "<="
  | E.Gt -> ">"
  | E.Ge -> ">="

let arith_str = function
  | E.Add -> "+"
  | E.Sub -> "-"
  | E.Mul -> "*"
  | E.Div -> "/"
  | E.Mod -> "%"

let rec render (e : S.sexpr) =
  match e with
  | S.E_const v -> V.to_sql_literal v
  | S.E_param i -> Printf.sprintf "?%d" (i + 1)
  | S.E_col (Some q, n) -> q ^ "." ^ n
  | S.E_col (None, n) -> n
  | S.E_cmp (op, a, b) ->
      Printf.sprintf "%s %s %s" (render a) (cmp_str op) (render b)
  | S.E_and (a, b) -> Printf.sprintf "(%s AND %s)" (render a) (render b)
  | S.E_or (a, b) -> Printf.sprintf "(%s OR %s)" (render a) (render b)
  | S.E_not a -> Printf.sprintf "NOT (%s)" (render a)
  | S.E_arith (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (render a) (arith_str op) (render b)
  | S.E_neg a -> "-" ^ render a
  | S.E_concat (a, b) -> Printf.sprintf "%s || %s" (render a) (render b)
  | S.E_is_null a -> render a ^ " IS NULL"
  | S.E_is_not_null a -> render a ^ " IS NOT NULL"
  | S.E_like (a, p) -> Printf.sprintf "%s LIKE '%s'" (render a) p
  | S.E_in (a, vs) ->
      Printf.sprintf "%s IN (%s)" (render a)
        (String.concat ", " (List.map V.to_sql_literal vs))
  | S.E_between (a, lo, hi) ->
      Printf.sprintf "%s BETWEEN %s AND %s" (render a) (render lo) (render hi)
  | S.E_func (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map render args))
  | S.E_star -> "*"

let rec s_conjuncts e acc =
  match e with
  | S.E_and (a, b) -> s_conjuncts a (s_conjuncts b acc)
  | e -> e :: acc

(* A bound-at-runtime parameter is as opaque as a column: it silences the
   tautology/contradiction lints rather than triggering them. *)
let s_has_col e = List.exists (function S.E_col _ | S.E_param _ -> true | _ -> false) (S.subterms e)

let s_cols e = List.filter_map (function S.E_col (q, n) -> Some (Option.map norm q, norm n) | _ -> None) (S.subterms e)

let const_of = function
  | S.E_const v -> Some v
  | S.E_neg (S.E_const (V.Int n)) -> Some (V.Int (-n))
  | S.E_neg (S.E_const (V.Float f)) -> Some (V.Float (-.f))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Conversion to Expr for the Simplify core                            *)
(* ------------------------------------------------------------------ *)

(* Column references are interned to positions so the interval analysis can
   correlate conjuncts over the same column; anything it cannot model
   (function calls, [*]) becomes a fresh opaque column — sound, just weaker. *)
let make_converter () =
  let tbl : (string option * string, int) Hashtbl.t = Hashtbl.create 8 in
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let intern key =
    match Hashtbl.find_opt tbl key with
    | Some i -> i
    | None ->
        let i = fresh () in
        Hashtbl.add tbl key i;
        i
  in
  Reldb.Planner.lower ~leaf:(function
    | S.E_col (q, n) -> Some (E.Col (intern (Option.map norm q, norm n)))
    | S.E_param _ | S.E_func _ | S.E_star -> Some (E.Col (fresh ()))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

(* alias resolution for a column reference: a qualifier names its FROM
   alias; an unqualified name resolves when only one FROM item could own
   it (trivially with one item, via the catalog schemas and a derived
   table's item names otherwise) *)
let make_resolver ~catalog (from : S.from_item list) =
  let aliases = List.map (fun i -> norm (S.from_alias i)) from in
  let owns n = function
    | S.Base (tn, _) -> (
        match Reldb.Catalog.find_table catalog tn with
        | None -> false
        | Some t -> Reldb.Schema.find_opt (Reldb.Table.schema t) n <> None)
    | S.Derived (q, _) ->
        List.exists
          (function
            | S.Star -> true
            | S.Item (_, Some a) | S.Item (S.E_col (_, a), None) -> norm a = n
            | S.Item _ -> false)
          q.S.items
  in
  fun q n ->
    match q with
    | Some q -> if List.mem q aliases then Some q else None
    | None -> (
        match from with
        | [ item ] -> Some (norm (S.from_alias item))
        | _ -> (
            match List.filter (owns n) from with
            | [ item ] -> Some (norm (S.from_alias item))
            | _ -> None))

let lint_cartesian ~resolve (from : S.from_item list) where add =
  let aliases = List.map (fun i -> norm (S.from_alias i)) from in
  if List.length aliases >= 2 then begin
    let parent = Hashtbl.create 8 in
    List.iter (fun a -> Hashtbl.replace parent a a) aliases;
    let rec find a =
      let p = Hashtbl.find parent a in
      if p = a then a
      else begin
        let r = find p in
        Hashtbl.replace parent a r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then Hashtbl.replace parent ra rb
    in
    (* an atom is any predicate below the boolean connectives; every pair of
       aliases it mentions is connected — equality or range alike, since the
       descendant-axis joins of the translator are range joins *)
    let rec atoms e =
      match e with
      | S.E_and (a, b) | S.E_or (a, b) ->
          atoms a;
          atoms b
      | S.E_not a -> atoms a
      | e -> (
          let als =
            List.sort_uniq compare
              (List.filter_map (fun (q, n) -> resolve q n) (s_cols e))
          in
          match als with
          | first :: rest -> List.iter (union first) rest
          | [] -> ())
    in
    Option.iter atoms where;
    let components = List.sort_uniq compare (List.map find aliases) in
    if List.length components > 1 then
      let groups =
        List.map
          (fun root ->
            String.concat ", " (List.filter (fun a -> find a = root) aliases))
          components
      in
      add
        (Finding.error "cartesian-product"
           "no predicate connects FROM groups {%s}: result is a cartesian \
            product"
           (String.concat "} {" groups))
  end

let lint_conjunct_semantics to_e where add =
  match where with
  | None -> ()
  | Some w ->
      List.iter
        (fun sc ->
          match Simplify.truth_of (Simplify.fold (to_e sc)) with
          | Simplify.True ->
              add
                (Finding.warning "tautology"
                   "conjunct %s is always true and can be dropped" (render sc))
          | _ -> ())
        (s_conjuncts w []);
      (match Simplify.simplify_conjuncts (E.conjuncts (to_e w)) with
      | Simplify.Contradiction ->
          add
            (Finding.warning "contradiction"
               "WHERE clause is always false: no row can satisfy it")
      | Simplify.Conjuncts _ -> ())

let lint_degenerate where add =
  match where with
  | None -> ()
  | Some w ->
      List.iter
        (fun e ->
          match e with
          | S.E_in (a, [ v ]) ->
              add
                (Finding.info "degenerate-in"
                   "IN with a single value: write %s = %s" (render a)
                   (V.to_sql_literal v))
          | S.E_in (a, vs) when vs <> [] ->
              let distinct = List.sort_uniq V.compare vs in
              if List.length distinct < List.length vs then
                add
                  (Finding.info "degenerate-in"
                     "IN list of %s contains duplicate values" (render a))
          | S.E_between (a, lo, hi) -> (
              match (const_of lo, const_of hi) with
              | Some l, Some h ->
                  let c = V.compare l h in
                  if c > 0 then
                    add
                      (Finding.warning "degenerate-between"
                         "%s is always false (lower bound above upper)"
                         (render e))
                  else if c = 0 then
                    add
                      (Finding.info "degenerate-between"
                         "%s is an equality in disguise: write %s = %s"
                         (render e) (render a) (V.to_sql_literal l))
              | _ -> ())
          | _ -> ())
        (S.subterms w)

let lint_unsargable ~catalog ~resolve (from : S.from_item list) where add =
  match where with
  | Some w ->
      let table_of_alias alias =
        List.find_map
          (function
            | S.Base (tn, _) as item when norm (S.from_alias item) = alias ->
                Reldb.Catalog.find_table catalog tn
            | _ -> None)
          from
      in
      let check_side conj wrapped other =
        if s_has_col other then ()
        else
          match wrapped with
          | S.E_col _ | S.E_const _ -> ()
          | w when s_has_col w -> (
              match List.sort_uniq compare (s_cols w) with
              | [ (q, n) ] -> (
                  match Option.bind (resolve q n) table_of_alias with
                  | None -> ()
                  | Some table -> (
                      match
                        Reldb.Schema.find_opt (Reldb.Table.schema table) n
                      with
                      | None -> ()
                      | Some pos -> (
                          let leading idx =
                            Array.length idx.Reldb.Table.key_cols > 0
                            && idx.Reldb.Table.key_cols.(0) = pos
                          in
                          match
                            List.find_opt leading (Reldb.Table.indexes table)
                          with
                          | Some idx ->
                              add
                                (Finding.warning "unsargable"
                                   "%s wraps column %s of %s, so index %s \
                                    cannot serve it; compare the bare column"
                                   (render conj) n
                                   (Reldb.Table.name table)
                                   idx.Reldb.Table.idx_name)
                          | None -> ())))
              | _ -> ())
          | _ -> ()
      in
      List.iter
        (fun conj ->
          match conj with
          | S.E_cmp (_, a, b) ->
              check_side conj a b;
              check_side conj b a
          | _ -> ())
        (s_conjuncts w [])
  | None -> ()

let lint_distinct ~catalog (sel : S.select) add =
  if sel.S.distinct then
    if sel.S.group_by <> [] then begin
      let items =
        List.filter_map
          (function S.Item (e, _) -> Some e | S.Star -> None)
          sel.S.items
      in
      if
        List.for_all (fun g -> List.exists (fun i -> i = g) items)
          sel.S.group_by
      then
        add
          (Finding.warning "redundant-distinct"
             "DISTINCT is redundant: every GROUP BY key is projected, so \
              output rows are already unique")
    end
    else
      match sel.S.from with
      | [ S.Base (tname, _) ] -> (
          match Reldb.Catalog.find_table catalog tname with
          | None -> ()
          | Some table -> (
              let schema = Reldb.Table.schema table in
              let star =
                List.exists (function S.Star -> true | _ -> false) sel.S.items
              in
              let projected =
                if star then
                  List.init (Reldb.Schema.arity schema) (fun i -> i)
                else
                  List.filter_map
                    (function
                      | S.Item (S.E_col (_, n), _) ->
                          Reldb.Schema.find_opt schema n
                      | _ -> None)
                    sel.S.items
              in
              let covered idx =
                idx.Reldb.Table.unique
                && Array.for_all
                     (fun c -> List.mem c projected)
                     idx.Reldb.Table.key_cols
              in
              match List.find_opt covered (Reldb.Table.indexes table) with
              | Some idx ->
                  add
                    (Finding.warning "redundant-distinct"
                       "DISTINCT is redundant: the projection covers unique \
                        index %s of %s, so rows are already unique"
                       idx.Reldb.Table.idx_name tname)
              | None -> ()))
      | _ -> ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let rec lint_select ~catalog (sel : S.select) =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let resolve = make_resolver ~catalog sel.S.from in
  let to_e = make_converter () in
  lint_cartesian ~resolve sel.S.from sel.S.where add;
  lint_conjunct_semantics to_e sel.S.where add;
  lint_degenerate sel.S.where add;
  lint_degenerate sel.S.having add;
  lint_unsargable ~catalog ~resolve sel.S.from sel.S.where add;
  lint_distinct ~catalog sel add;
  List.rev !acc
  @ List.concat_map
      (function S.Derived (q, _) -> lint_select ~catalog q | S.Base _ -> [])
      sel.S.from

let lint_dml ~catalog ~table where =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let from = [ S.Base (table, None) ] in
  let resolve = make_resolver ~catalog from in
  let to_e = make_converter () in
  lint_conjunct_semantics to_e where add;
  lint_degenerate where add;
  lint_unsargable ~catalog ~resolve from where add;
  List.rev !acc

let lint_stmt ~catalog (stmt : S.stmt) =
  let findings =
    match stmt with
    | S.Select sel -> lint_select ~catalog sel
    | S.Union_all u -> List.concat_map (lint_select ~catalog) u.S.branches
    | S.Update { table; where; _ } -> lint_dml ~catalog ~table where
    | S.Delete { table; where } -> lint_dml ~catalog ~table where
    | S.Insert _ | S.Create_table _ | S.Create_index _ | S.Drop_table _
    | S.Begin_txn | S.Commit_txn | S.Rollback_txn ->
        []
  in
  Finding.sort findings

(* ------------------------------------------------------------------ *)
(* XPath-level rules                                                   *)
(* ------------------------------------------------------------------ *)

module A = Ordered_xml.Xpath_ast

(* count() compares a non-negative integer, so degenerate bounds mirror the
   IN/BETWEEN rules: [count(p) >= 0] is a tautology, [count(p) < 0] a
   contradiction, and [count(p) > 0] is [p] (an existence test) in
   disguise. *)
let lint_count add (p : A.predicate) =
  match p with
  | A.P_count (pth, op, k) -> begin
      let txt = A.pred_to_string p in
      let always_true =
        match op with A.Ge -> k <= 0 | A.Gt -> k < 0 | A.Ne -> k < 0 | _ -> false
      in
      let always_false =
        match op with A.Lt -> k <= 0 | A.Le -> k < 0 | A.Eq -> k < 0 | _ -> false
      in
      if always_true then
        add
          (Finding.warning "degenerate-count"
             "[%s] always holds (count() is never negative) and can be \
              dropped"
             txt)
      else if always_false then
        add
          (Finding.warning "degenerate-count"
             "[%s] can never hold (count() is never negative): the \
              predicate filters out every node"
             txt)
      else
        match (op, k) with
        | A.Gt, 0 | A.Ge, 1 ->
            add
              (Finding.info "degenerate-count"
                 "[%s] is an existence test in disguise: write [%s]" txt
                 (A.to_string pth))
        | A.Eq, 0 ->
            add
              (Finding.info "degenerate-count"
                 "[%s] is a negated existence test: write [not(%s)]" txt
                 (A.to_string pth))
        | _ -> ()
    end
  | _ -> ()

let lint_xpath (path : A.path) =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let rec walk_pred (p : A.predicate) =
    lint_count add p;
    match p with
    | A.P_exists pth | A.P_cmp (pth, _, _) | A.P_count (pth, _, _) ->
        walk_path pth
    | A.P_and (a, b) | A.P_or (a, b) ->
        walk_pred a;
        walk_pred b
    | A.P_not a -> walk_pred a
    | A.P_pos _ | A.P_last -> ()
  and walk_path (pth : A.path) =
    List.iter (fun (s : A.step) -> List.iter walk_pred s.A.preds) pth.A.steps
  in
  walk_path path;
  Finding.sort (List.rev !acc)

(* one statement a compiled query holds: parsed back, linted and planned,
   and checked against the order its run promises *)
let lint_compiled catalog ?order sql =
  match Reldb.Sql_parser.parse sql with
  | exception Reldb.Sql_parser.Parse_error m ->
      [ Finding.error "parse-back" "translated SQL does not parse back: %s" m ]
  | stmt ->
      let plan =
        match stmt with
        | S.Select sel -> (
            match Reldb.Planner.plan_select catalog sel with
            | exception Reldb.Planner.Plan_error m -> [ Finding.error "plan" "run does not plan: %s" m ]
            | plan -> Plan_lint.lint_plan plan)
        | _ -> []
      in
      lint_stmt ~catalog stmt @ Option.fold order ~none:[] ~some:(fun (enc, r) -> Order_check.check_run enc r stmt) @ plan

let rec lint_segment catalog enc (seg : Ordered_xml.Translate.segment) =
  let module T = Ordered_xml.Translate in
  let run (r : T.run) = lint_compiled catalog ~order:(enc, r) r.T.sql in
  let segments = List.concat_map (lint_segment catalog enc) in
  let rec fetch = function
    | T.Root r | T.Context r | T.Doc_order r -> run r
    | T.Prefixes sql -> lint_compiled catalog sql
    | T.With_self f -> fetch f
    | T.Self_rows | T.Chain_walk | T.Levels -> []
  in
  let rec pred = function
    | T.Exists segs | T.Count (segs, _, _) -> segments segs
    | T.Cmp (segs, _, _, texts) -> segments (segs @ texts)
    | T.And (a, b) | T.Or (a, b) -> pred a @ pred b
    | T.Not a -> pred a
    | T.Pos _ | T.Last -> []
  in
  Finding.sort
    (match seg with
    | T.Run r -> run r
    | T.Step s ->
        Finding.info "middle-tier" "no join holds this step under %s: the middle tier evaluates it"
          (Ordered_xml.Encoding.name enc)
        :: fetch s.T.fetch
        @ List.concat_map pred s.T.preds)
