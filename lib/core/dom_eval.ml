open Xpath_ast

(* The virtual document root is id -1; its only child is record 0. *)
let virtual_root = -1

let kind_ok axis (k : Doc_index.kind) (test : node_test) tag =
  match (axis, test) with
  | Attribute, Name n -> k = Doc_index.Attr && tag = n
  | Attribute, Any_name -> k = Doc_index.Attr
  | Attribute, Node_test -> k = Doc_index.Attr
  | Attribute, (Text_test | Comment_test) -> false
  | _, Name n -> k = Doc_index.Elem && tag = n
  | _, Any_name -> k = Doc_index.Elem
  | _, Text_test -> k = Doc_index.Text_node
  | _, Comment_test -> k = Doc_index.Comment_node
  | _, Node_test -> k <> Doc_index.Attr

let subtree_ids idx i =
  (* non-attribute records strictly inside the subtree of i, in doc order *)
  let r = Doc_index.record idx i in
  let out = ref [] in
  for j = i + r.Doc_index.size downto i + 1 do
    if (Doc_index.record idx j).Doc_index.kind <> Doc_index.Attr then
      out := j :: !out
  done;
  !out

let all_non_attr idx =
  let out = ref [] in
  for j = Doc_index.length idx - 1 downto 0 do
    if (Doc_index.record idx j).Doc_index.kind <> Doc_index.Attr then
      out := j :: !out
  done;
  !out

(* Candidates for an axis from context node [i], in axis order (reverse axes
   yield reverse document order, per XPath positional semantics). *)
let axis_candidates idx axis i =
  if i = virtual_root then
    match axis with
    | Child -> [ 0 ]
    | Descendant -> all_non_attr idx
    | Descendant_or_self -> all_non_attr idx
    | Self -> []
    | Parent | Attribute | Following_sibling | Preceding_sibling | Following
    | Preceding | Ancestor | Ancestor_or_self ->
        []
  else
    let r = Doc_index.record idx i in
    match axis with
    | Child -> Doc_index.children idx i
    | Attribute -> Doc_index.attributes idx i
    | Descendant -> subtree_ids idx i
    | Descendant_or_self -> i :: subtree_ids idx i
    | Self -> [ i ]
    | Parent -> ( match Doc_index.parent_of idx i with None -> [] | Some p -> [ p ])
    | Following_sibling ->
        if r.Doc_index.kind = Doc_index.Attr then []
        else begin
          match Doc_index.parent_of idx i with
          | None -> []
          | Some p ->
              List.filter
                (fun j ->
                  (Doc_index.record idx j).Doc_index.pos > r.Doc_index.pos)
                (Doc_index.children idx p)
        end
    | Preceding_sibling ->
        if r.Doc_index.kind = Doc_index.Attr then []
        else begin
          match Doc_index.parent_of idx i with
          | None -> []
          | Some p ->
              List.rev
                (List.filter
                   (fun j ->
                     (Doc_index.record idx j).Doc_index.pos < r.Doc_index.pos)
                   (Doc_index.children idx p))
        end
    | Following ->
        let after = i + r.Doc_index.size in
        List.filter (fun j -> j > after) (all_non_attr idx)
    | Preceding ->
        let ancs = Doc_index.ancestors idx i in
        List.rev
          (List.filter
             (fun j -> j < i && not (List.mem j ancs))
             (all_non_attr idx))
    | Ancestor -> Doc_index.ancestors idx i
    | Ancestor_or_self -> i :: Doc_index.ancestors idx i

let rec eval_steps idx ctx steps =
  match steps with
  | [] -> ctx
  | step :: rest ->
      let next =
        List.concat_map (fun i -> eval_step idx i step) ctx
        |> List.sort_uniq Stdlib.compare
      in
      eval_steps idx next rest

and eval_step idx i (step : step) =
  let candidates = axis_candidates idx step.axis i in
  let tested =
    List.filter
      (fun j ->
        let r = Doc_index.record idx j in
        kind_ok step.axis r.Doc_index.kind step.test r.Doc_index.tag)
      candidates
  in
  List.fold_left (fun nodes p -> apply_pred idx nodes p) tested step.preds

and apply_pred idx nodes p =
  let n = List.length nodes in
  List.filteri (fun k j -> pred_holds idx ~pos:(k + 1) ~last:n j p) nodes

and pred_holds idx ~pos ~last j p =
  match p with
  | P_pos (op, k) -> Encoding.cmp_holds op (Stdlib.compare pos k)
  | P_last -> pos = last
  | P_exists path -> eval_steps idx [ j ] path.steps <> []
  | P_cmp (path, op, lit) ->
      List.exists
        (fun sel -> Encoding.value_matches op lit (Doc_index.string_value idx sel))
        (eval_steps idx [ j ] path.steps)
  | P_count (path, op, k) ->
      Encoding.cmp_holds op
        (Stdlib.compare (List.length (eval_steps idx [ j ] path.steps)) k)
  | P_and (a, b) -> pred_holds idx ~pos ~last j a && pred_holds idx ~pos ~last j b
  | P_or (a, b) -> pred_holds idx ~pos ~last j a || pred_holds idx ~pos ~last j b
  | P_not a -> not (pred_holds idx ~pos ~last j a)

let eval_from idx ctx (path : path) =
  let start = if path.absolute then [ virtual_root ] else ctx in
  eval_steps idx start path.steps

let eval idx (path : path) =
  let start = if path.absolute then [ virtual_root ] else [ 0 ] in
  eval_steps idx start path.steps

let eval_union idx (u : union) =
  List.sort_uniq Stdlib.compare (List.concat_map (eval idx) u)

let string_value = Doc_index.string_value
