type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type probe_bound = { bound : Expr.t; strict : bool }

type scan_range =
  | Fixed of Btree.bound * Btree.bound
  | Probe of { key : Expr.t array; lo : probe_bound option; hi : probe_bound option }

type t =
  | Seq_scan of Table.t
  | Index_scan of {
      table : Table.t;
      index : Table.index;
      range : scan_range;
      reverse : bool;
    }
  | Filter of Expr.t * t
  | Project of (Expr.t * string) array * t
  | Nl_join of { outer : t; inner : t; pred : Expr.t option }
  | Index_nl_join of {
      outer : t;
      table : Table.t;
      index : Table.index;
      key : Expr.t array;
      lo : probe_bound option;
      hi : probe_bound option;
      residual : Expr.t option;
      cap : Expr.t option;
      reverse : bool;
    }
  | Hash_join of {
      left : t;
      right : t;
      left_key : int array;
      right_key : int array;
      residual : Expr.t option;
    }
  | Sort of { input : t; keys : (Expr.t * order) list }
  | Distinct of t
  | Aggregate of {
      input : t;
      group_by : (Expr.t * string) array;
      aggs : (agg * string) array;
    }
  | Limit of { input : t; limit : Expr.t option; offset : Expr.t; by : Expr.t array }
  | Union_all of t list

let count n = Expr.Const (Value.Int n)

let probe_range key ~lo ~hi row =
  let prefix = Array.map (fun e -> Expr.eval e row) key in
  let on_next v ~strict =
    let k = Array.append prefix [| v |] in
    if strict then Btree.Excl k else Btree.Incl k
  in
  let bound ~default = function
    | None -> Some default
    | Some { bound; strict } -> (
        match Expr.eval bound row with
        | Value.Null -> None
        | v -> Some (on_next v ~strict))
  in
  let whole =
    if Array.length prefix = 0 then Btree.Unbounded else Btree.Incl prefix
  in
  (* with no lower bound, start above NULL, which ranks lowest: [col < x] is
     never true of a NULL column *)
  let floor = if hi = None then whole else on_next Value.Null ~strict:true in
  match (bound ~default:floor lo, bound ~default:whole hi) with
  | Some lo, Some hi when not (Array.exists Value.is_null prefix) -> Some (lo, hi)
  | _ -> None

let range_bounds = function
  | Fixed (lo, hi) -> Some (lo, hi)
  | Probe { key; lo; hi } -> probe_range key ~lo ~hi [||]

let map_bound f = Option.map (fun b -> { b with bound = f b.bound })

let map_range f = function
  | Fixed _ as r -> r
  | Probe { key; lo; hi } ->
      Probe { key = Array.map f key; lo = map_bound f lo; hi = map_bound f hi }

let map_agg f = function
  | Count_star -> Count_star
  | Count e -> Count (f e)
  | Sum e -> Sum (f e)
  | Min e -> Min (f e)
  | Max e -> Max (f e)
  | Avg e -> Avg (f e)

let rec map_exprs f p =
  let m = map_exprs f in
  let named = Array.map (fun (e, name) -> (f e, name)) in
  match p with
  | Seq_scan _ -> p
  | Index_scan s -> Index_scan { s with range = map_range f s.range }
  | Filter (e, input) -> Filter (f e, m input)
  | Project (cols, input) -> Project (named cols, m input)
  | Nl_join j ->
      Nl_join { outer = m j.outer; inner = m j.inner; pred = Option.map f j.pred }
  | Index_nl_join j ->
      Index_nl_join
        {
          j with
          outer = m j.outer;
          key = Array.map f j.key;
          lo = map_bound f j.lo;
          hi = map_bound f j.hi;
          residual = Option.map f j.residual;
          cap = Option.map f j.cap;
        }
  | Hash_join j ->
      Hash_join
        { j with left = m j.left; right = m j.right; residual = Option.map f j.residual }
  | Sort s -> Sort { input = m s.input; keys = List.map (fun (e, o) -> (f e, o)) s.keys }
  | Distinct input -> Distinct (m input)
  | Aggregate a ->
      Aggregate
        {
          input = m a.input;
          group_by = named a.group_by;
          aggs = Array.map (fun (g, name) -> (map_agg f g, name)) a.aggs;
        }
  | Limit l ->
      Limit
        {
          input = m l.input;
          limit = Option.map f l.limit;
          offset = f l.offset;
          by = Array.map f l.by;
        }
  | Union_all branches -> Union_all (List.map m branches)

let bind_expr params =
  Expr.subst_params (fun i ->
      if i < Array.length params then Expr.Const params.(i) else Expr.Param i)

let bind params p = map_exprs (bind_expr params) p

let expr_type schema (e : Expr.t) : Value.ty =
  let rec go = function
    | Expr.Const v -> Option.value (Value.type_of v) ~default:Value.Ttext
    | Expr.Param _ -> Value.Ttext
    | Expr.Col i ->
        if i < Array.length schema then schema.(i).Schema.col_type
        else Value.Ttext
    | Expr.Cmp _ | Expr.And _ | Expr.Or _ | Expr.Not _ | Expr.Is_null _
    | Expr.Is_not_null _ | Expr.Like _ | Expr.In_list _ ->
        Value.Tint
    | Expr.Arith (_, a, b) -> begin
        match (go a, go b) with
        | Value.Tint, Value.Tint -> Value.Tint
        | _ -> Value.Tfloat
      end
    | Expr.Neg a -> go a
    | Expr.Concat (a, b) -> begin
        match (go a, go b) with
        | Value.Tbytes, Value.Tbytes -> Value.Tbytes
        | _ -> Value.Ttext
      end
    | Expr.Func ((Expr.Length | Expr.Abs), _) -> Value.Tint
    | Expr.Func (Expr.Substr, a :: _) when go a = Value.Tbytes -> Value.Tbytes
    | Expr.Func ((Expr.Lower | Expr.Upper | Expr.Substr), _) -> Value.Ttext
  in
  go e

let rec schema_of = function
  | Seq_scan t | Index_scan { table = t; _ } -> Table.schema t
  | Filter (_, p) | Distinct p -> schema_of p
  | Project (cols, p) ->
      let input = schema_of p in
      Array.map
        (fun (e, name) -> Schema.column name (expr_type input e))
        cols
  | Nl_join { outer; inner; _ } ->
      Schema.concat (schema_of outer) (schema_of inner)
  | Index_nl_join { outer; table; _ } ->
      Schema.concat (schema_of outer) (Table.schema table)
  | Hash_join { left; right; _ } ->
      Schema.concat (schema_of left) (schema_of right)
  | Sort { input; _ } | Limit { input; _ } -> schema_of input
  | Union_all [] -> [||]
  | Union_all (p :: _) -> schema_of p
  | Aggregate { input; group_by; aggs } ->
      let ischema = schema_of input in
      let groups =
        Array.map (fun (e, name) -> Schema.column name (expr_type ischema e)) group_by
      in
      let aggcols =
        Array.map
          (fun (agg, name) ->
            let ty =
              match agg with
              | Count_star | Count _ -> Value.Tint
              | Avg _ -> Value.Tfloat
              | Sum e | Min e | Max e -> expr_type ischema e
            in
            Schema.column name ty)
          aggs
      in
      Array.append groups aggcols

let agg_name = function
  | Count_star -> "COUNT(*)"
  | Count _ -> "COUNT"
  | Sum _ -> "SUM"
  | Min _ -> "MIN"
  | Max _ -> "MAX"
  | Avg _ -> "AVG"

let bound_str = function
  | Btree.Unbounded -> "-inf"
  | Btree.Incl k -> "[" ^ Tuple.to_string k
  | Btree.Excl k -> "(" ^ Tuple.to_string k

let label = function
  | Seq_scan t -> "SeqScan " ^ Table.name t
  | Index_scan { table; index; range; reverse } ->
      (* a parameter shows as its slot: ?1, ?2, ... *)
      let shown =
        map_range
          (Expr.subst_params (fun i ->
               Expr.Const (Value.Str (Printf.sprintf "?%d" (i + 1)))))
          range
      in
      Printf.sprintf "IndexScan %s.%s %s%s" (Table.name table) index.Table.idx_name
        (match range_bounds shown with
        | Some (lo, hi) -> bound_str lo ^ " .. " ^ bound_str hi
        | None -> "empty")
        (if reverse then " DESC" else "")
  | Filter (e, _) -> Format.asprintf "Filter %a" Expr.pp e
  | Project (cols, _) ->
      Printf.sprintf "Project [%s]"
        (String.concat ", " (Array.to_list (Array.map snd cols)))
  | Nl_join { pred; _ } ->
      Printf.sprintf "NestedLoopJoin%s"
        (match pred with
        | None -> ""
        | Some e -> Format.asprintf " on %a" Expr.pp e)
  | Index_nl_join { table; index; key; lo; hi; residual; cap; reverse; _ } ->
      let expr = Format.asprintf "%a" Expr.pp in
      let lo =
        Option.map (fun { bound; strict } -> (if strict then "(" else "[") ^ expr bound) lo
      and hi =
        Option.map (fun { bound; strict } -> expr bound ^ if strict then ")" else "]") hi
      in
      let range =
        if lo = None && hi = None then ""
        else
          Printf.sprintf " range %s .. %s"
            (Option.value lo ~default:"-inf")
            (Option.value hi ~default:"+inf")
      in
      Printf.sprintf "IndexNestedLoopJoin %s.%s key(%s)%s%s%s" (Table.name table)
        index.Table.idx_name
        (String.concat ", " (List.map expr (Array.to_list key)))
        range
        (match residual with None -> "" | Some e -> " filter " ^ expr e)
        (match cap with
        | None -> ""
        | Some n -> Printf.sprintf " cap %s%s" (expr n) (if reverse then " desc" else ""))
  | Hash_join { left_key; right_key; _ } ->
      Printf.sprintf "HashJoin build(%s) probe(%s)"
        (String.concat "," (Array.to_list (Array.map string_of_int left_key)))
        (String.concat "," (Array.to_list (Array.map string_of_int right_key)))
  | Sort { keys; _ } ->
      Printf.sprintf "Sort [%s]"
        (String.concat ", "
           (List.map
              (fun (e, o) ->
                Format.asprintf "%a %s" Expr.pp e
                  (match o with Asc -> "ASC" | Desc -> "DESC"))
              keys))
  | Distinct _ -> "Distinct"
  | Aggregate { group_by; aggs; _ } ->
      Printf.sprintf "Aggregate groups=[%s] aggs=[%s]"
        (String.concat ", " (Array.to_list (Array.map snd group_by)))
        (String.concat ", "
           (Array.to_list (Array.map (fun (a, _) -> agg_name a) aggs)))
  | Limit { limit; offset; by; _ } ->
      let expr = Format.asprintf "%a" Expr.pp in
      Printf.sprintf "Limit %s offset %s%s"
        (match limit with None -> "ALL" | Some n -> expr n)
        (expr offset)
        (if by = [||] then ""
         else
           Printf.sprintf " by (%s)"
             (String.concat ", "
                (Array.to_list (Array.map (Format.asprintf "%a" Expr.pp) by))))
  | Union_all _ -> "UnionAll"

let children = function
  | Seq_scan _ | Index_scan _ -> []
  | Filter (_, p)
  | Project (_, p)
  | Sort { input = p; _ }
  | Distinct p
  | Aggregate { input = p; _ }
  | Limit { input = p; _ } ->
      [ p ]
  | Nl_join { outer; inner; _ } -> [ outer; inner ]
  | Index_nl_join { outer; _ } -> [ outer ]
  | Hash_join { left; right; _ } -> [ left; right ]
  | Union_all branches -> branches

let rec pp_indent ppf (level, p) =
  Format.fprintf ppf "%s%s@." (String.make (level * 2) ' ') (label p);
  List.iter (fun c -> pp_indent ppf (level + 1, c)) (children p)

let pp ppf p = pp_indent ppf (0, p)
