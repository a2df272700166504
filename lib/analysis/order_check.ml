module O = Ordered_xml
module S = Reldb.Sql_ast
module T = O.Translate

let norm = String.lowercase_ascii

let expected_order_column (enc : O.Encoding.t) =
  match enc with
  | O.Encoding.Global | O.Encoding.Global_gap -> Some "g_order"
  | O.Encoding.Dewey_enc | O.Encoding.Dewey_caret -> Some "path"
  | O.Encoding.Local -> None

(* the (alias, column) keys the run's ORDER BY must list, in order: under
   LOCAL the chain's levels, and for a child chain from the root every
   chain alias's order column, root down; otherwise the encoding's order
   column of the chain's last alias, or of its last two for a positional
   tail *)
let order_keys enc (r : T.run) =
  let col = Option.value (expected_order_column enc) ~default:"l_order" in
  match (enc, List.rev r.T.chain) with
  | O.Encoding.Local, _ -> r.T.chain
  | _ when T.child_chain ~from_root:r.T.from_root r.T.steps -> r.T.chain
  | _, (e, _) :: (p, _) :: _ when r.T.tail -> [ (p, col); (e, col) ]
  | _, (e, _) :: _ -> [ (e, col) ]
  | _, [] -> []

(* the statement's promised order, and that of the derived table it reads
   (a positional tail's, checked the same way) *)
let rec check_select enc (r : T.run) (sel : S.select) =
  let derived =
    match (r.T.derived, List.find_map (function S.Derived (q, _) -> Some q | S.Base _ -> None) sel.S.from) with
    | Some d, Some q -> check_select enc d q
    | None, None -> []
    | Some _, None -> [ Finding.error "order-contract" "the run's derived table is missing from the statement" ]
    | None, Some _ -> [ Finding.error "order-contract" "the statement reads a derived table the run does not hold" ]
  in
  let keys = order_keys enc r in
  let expected = String.concat ", " (List.map (fun (a, c) -> a ^ "." ^ c) keys) in
  derived
  @
  if not (r.T.sorted || r.T.tail) then []
  else
    let n = List.length keys in
    (* only a positional tail's last key may descend *)
    let rec matches i keys order_by =
      match (keys, order_by) with
      | [], [] -> true
      | (a, c) :: keys, (S.E_col (Some q, c'), dir) :: order_by ->
          norm q = norm a && norm c' = c
          && (dir = S.Asc || (r.T.tail && i = n - 1))
          && matches (i + 1) keys order_by
      | _ -> false
    in
    let what = if r.T.tail then "a positional tail" else "a sorted run" in
    if sel.S.order_by = [] then
      [ Finding.error "order-contract" "missing ORDER BY %s: %s needs it" expected what ]
    else if not (matches 0 keys sel.S.order_by) then
      [
        Finding.error "order-contract"
          "ORDER BY does not match the %s order of %s (expected ORDER BY %s ascending)"
          (O.Encoding.name enc) what expected;
      ]
    else if r.T.tail && sel.S.limit = None then
      [ Finding.error "order-contract" "a positional tail without LIMIT" ]
    else []

let check_run enc (r : T.run) (stmt : S.stmt) =
  match stmt with
  | S.Select sel ->
      check_select enc r sel
      @
      if r.T.sorted then []
      else
        [
          Finding.info "order-contract"
            "rows come back unsorted: the middle tier sorts the result into document order";
        ]
  | _ -> [ Finding.error "order-contract" "translated statement is not a SELECT" ]
