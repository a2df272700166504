type order = Asc | Desc

type agg =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t

type 'e probe_end = { bound : 'e; strict : bool }
type probe_bound = Expr.t probe_end

type scan_range =
  | Non_null
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
  | Ordered of { input : t; keys : (Expr.t * order) list }
  | Distinct of t
  | Aggregate of {
      input : t;
      group_by : (Expr.t * string) array;
      aggs : (agg * string) array;
    }
  | Limit of { input : t; limit : Expr.t option; offset : Expr.t; by : Expr.t array }
  | Union_all of t list

let count n = Expr.Const (Value.Int n)

let non_null = (Btree.Incl (Key.prefix_end (Key.encode [| Value.Null |])), Btree.Unbounded)

(* [fixed.(i)]: the encoding of key part [i] if the caller knows it is a
   constant *)
type probe_scratch = {
  fixed : bytes option array;
  keys : Key.scratch;
  lo_keys : Key.scratch;
  hi_keys : Key.scratch;
}

let probe_scratch fixed =
  { fixed; keys = Key.scratch (); lo_keys = Key.scratch (); hi_keys = Key.scratch () }

let fixed sc i = if i < Array.length sc.fixed then sc.fixed.(i) else None

(* [len] bytes of [src] into [dst] at [pos]: for a few bytes a loop is
   cheaper than Bytes.blit *)
let copy src dst pos len =
  for j = 0 to len - 1 do
    Bytes.set dst (pos + j) (Bytes.get src j)
  done

(* The probe's key [pre], [size] bytes, extended by [v] if any, and with
   [past] the least key above all its extensions: [pre] itself or a
   scratch key of [keys] *)
let extend keys pre size v ~past =
  match v with
  | None when not past -> pre
  | _ ->
      let len = size + (match v with Some v -> Key.size v | None -> 0) + if past then 1 else 0 in
      let b = Key.scratch_key keys len in
      copy pre b 0 size;
      let pos = match v with Some v -> Key.write b size v | None -> size in
      if past then ignore (Key.write_end b pos);
      b

(* one end of a probe range, its value and whether it is strict *)
let end_value eval row = function
  | None -> None
  | Some { bound; strict } -> Some (eval bound row, strict)

(* the encoded size of key parts [i ..], or -1 if one is NULL *)
let rec key_size eval sc key row i acc =
  if i >= Array.length key then acc
  else
    match fixed sc i with
    | Some e -> key_size eval sc key row (i + 1) (acc + Bytes.length e)
    | None -> (
        match eval key.(i) row with
        | Value.Null -> -1
        | v -> key_size eval sc key row (i + 1) (acc + Key.size v))

let probe_range eval sc key ~lo ~hi row =
  let n = Array.length key in
  let size = key_size eval sc key row 0 0 in
  match (size < 0, end_value eval row lo, end_value eval row hi) with
  | true, _, _ | _, Some (Value.Null, _), _ | _, _, Some (Value.Null, _) -> None
  | false, lo_v, hi_v ->
      (* the parts again (expressions are pure), now into a key of their size *)
      let pre = Key.scratch_key sc.keys size in
      let pos = ref 0 in
      for i = 0 to n - 1 do
        match fixed sc i with
        | Some e ->
            copy e pre !pos (Bytes.length e);
            pos := !pos + Bytes.length e
        | None -> pos := Key.write pre !pos (eval key.(i) row)
      done;
      let lo =
        match lo_v with
        | Some (v, strict) -> Btree.Incl (extend sc.lo_keys pre size (Some v) ~past:strict)
        (* with no lower bound but an upper one, start above NULL, which
           ranks lowest: [col < x] is never true of a NULL column *)
        | None when Option.is_some hi ->
            Btree.Incl (extend sc.lo_keys pre size (Some Value.Null) ~past:true)
        | None when n = 0 -> Btree.Unbounded
        | None -> Btree.Incl pre
      in
      let hi =
        match hi_v with
        | Some (v, strict) -> Btree.Excl (extend sc.hi_keys pre size (Some v) ~past:(not strict))
        | None when n = 0 -> Btree.Unbounded
        | None -> Btree.Excl (extend sc.hi_keys pre size None ~past:true)
      in
      Some (lo, hi)

(* [probe_range] as EXPLAIN shows it: each end as the values it bounds,
   "[" inclusive, "(" exclusive, each bound on the key's leading values *)
let probe_text show key ~lo ~hi =
  let prefix = Array.map show key in
  let on v strict = (if strict then "(" else "[") ^ Tuple.to_string (Array.append prefix [| v |]) in
  let whole = if Array.length prefix = 0 then "-inf" else "[" ^ Tuple.to_string prefix in
  let text default = function
    | None -> Some default
    | Some { bound; strict } -> (
        match show bound with Value.Null -> None | v -> Some (on v strict))
  in
  let floor = if Option.is_none hi then whole else on Value.Null true in
  match (Array.exists Value.is_null prefix, text floor lo, text whole hi) with
  | false, Some lo, Some hi -> lo ^ " .. " ^ hi
  | _ -> "empty"

let map_agg f = function
  | Count_star -> Count_star
  | Count e -> Count (f e)
  | Sum e -> Sum (f e)
  | Min e -> Min (f e)
  | Max e -> Max (f e)
  | Avg e -> Avg (f e)

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
  | Sort { input; _ } | Ordered { input; _ } | Limit { input; _ } -> schema_of input
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

let keys_str keys =
  Printf.sprintf "[%s]"
    (String.concat ", "
       (List.map
          (fun (e, o) -> Format.asprintf "%a %s" Expr.pp e (match o with Asc -> "ASC" | Desc -> "DESC"))
          keys))

let label = function
  | Seq_scan t -> "SeqScan " ^ Table.name t
  | Index_scan { table; index; range; reverse } ->
      (* a parameter shows as its slot: ?1, ?2, ... *)
      let shown = function
        | Expr.Param i -> Value.Str (Printf.sprintf "?%d" (i + 1))
        | e -> Expr.eval e [||]
      in
      Printf.sprintf "IndexScan %s.%s %s%s" (Table.name table) index.Table.idx_name
        (match range with
        | Non_null -> "(NULL .. -inf"
        | Probe { key; lo; hi } -> probe_text shown key ~lo ~hi)
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
  | Sort { keys; _ } -> "Sort " ^ keys_str keys
  | Ordered { keys; _ } -> "Ordered " ^ keys_str keys ^ " (delivered)"
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
  | Ordered { input = p; _ }
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
