(* The reference evaluator of the executor oracle: the pull-based [Seq]
   interpreter and the tree-walking expression evaluator the engine ran
   before plans were compiled into push pipelines, kept here unchanged but
   for two things: a [?] slot reads [params] instead of a copy of the plan
   with the values bound in, and an [Ordered] node passes its input
   through as the engine does (the planner oracle, not this one, checks
   that the order it claims holds). It shares only the plan types, [Btree],
   [Table] and [Plan.probe_range] with the engine. *)

module R = Reldb
module Expr = R.Expr
module Value = R.Value
module Tuple = R.Tuple
module Plan = R.Plan
module Table = R.Table
module Btree = R.Btree

exception Exec_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Expr.Eval_error s)) fmt
let bool_v = function true -> Value.Int 1 | false -> Value.Int 0

let to_tvl = function
  | Value.Null -> None
  | Value.Int 0 -> Some false
  | Value.Int _ -> Some true
  | Value.Float f -> Some (f <> 0.0)
  | v -> err "expected a boolean, got %s" (Value.to_string v)

let of_tvl = function None -> Value.Null | Some b -> bool_v b

let num_arith op a b =
  let open Value in
  match (op, a, b) with
  | Expr.Add, Int x, Int y -> Int (x + y)
  | Expr.Sub, Int x, Int y -> Int (x - y)
  | Expr.Mul, Int x, Int y -> Int (x * y)
  | Expr.Div, Int _, Int 0 -> err "division by zero"
  | Expr.Div, Int x, Int y -> Int (x / y)
  | Expr.Mod, Int _, Int 0 -> err "modulo by zero"
  | Expr.Mod, Int x, Int y -> Int (x mod y)
  | Expr.Mod, _, _ -> err "MOD requires integers"
  | op, (Int _ | Float _), (Int _ | Float _) ->
      let f = function Int i -> float_of_int i | Float f -> f | _ -> nan in
      let x = f a and y = f b in
      Float
        (match op with
        | Expr.Add -> x +. y
        | Expr.Sub -> x -. y
        | Expr.Mul -> x *. y
        | Expr.Div -> if y = 0.0 then err "division by zero" else x /. y
        | Expr.Mod -> nan)
  | _, a, b ->
      err "arithmetic on non-numeric values %s, %s" (Value.to_string a) (Value.to_string b)

let substr s start len =
  let n = String.length s in
  let from = max 1 start - 1 in
  if from >= n || len <= 0 then "" else String.sub s from (min len (n - from))

let rec eval params (e : Expr.t) tuple =
  let eval = eval params in
  match e with
  | Expr.Const v -> v
  | Expr.Param i ->
      if i < Array.length params then params.(i) else err "unbound parameter ?%d" (i + 1)
  | Expr.Col i ->
      if i < 0 || i >= Array.length tuple then
        err "column %d out of range (arity %d)" i (Array.length tuple)
      else tuple.(i)
  | Expr.Cmp (op, a, b) -> begin
      let va = eval a tuple and vb = eval b tuple in
      if Value.is_null va || Value.is_null vb then Value.Null
      else
        let c = Value.compare va vb in
        bool_v
          (match op with
          | Expr.Eq -> c = 0
          | Expr.Ne -> c <> 0
          | Expr.Lt -> c < 0
          | Expr.Le -> c <= 0
          | Expr.Gt -> c > 0
          | Expr.Ge -> c >= 0)
    end
  | Expr.And (a, b) -> begin
      match to_tvl (eval a tuple) with
      | Some false -> bool_v false
      | Some true -> of_tvl (to_tvl (eval b tuple))
      | None -> (
          match to_tvl (eval b tuple) with
          | Some false -> bool_v false
          | Some true | None -> Value.Null)
    end
  | Expr.Or (a, b) -> begin
      match to_tvl (eval a tuple) with
      | Some true -> bool_v true
      | Some false -> of_tvl (to_tvl (eval b tuple))
      | None -> (
          match to_tvl (eval b tuple) with
          | Some true -> bool_v true
          | Some false | None -> Value.Null)
    end
  | Expr.Not a -> of_tvl (Option.map not (to_tvl (eval a tuple)))
  | Expr.Arith (op, a, b) ->
      let va = eval a tuple and vb = eval b tuple in
      if Value.is_null va || Value.is_null vb then Value.Null else num_arith op va vb
  | Expr.Neg a -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> err "negation of %s" (Value.to_string v)
    end
  | Expr.Concat (a, b) -> begin
      match (eval a tuple, eval b tuple) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Bytes x, Value.Bytes y -> Value.Bytes (x ^ y)
      | x, y -> Value.Str (Value.to_string x ^ Value.to_string y)
    end
  | Expr.Is_null a -> bool_v (Value.is_null (eval a tuple))
  | Expr.Is_not_null a -> bool_v (not (Value.is_null (eval a tuple)))
  | Expr.Like (a, pattern) -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | Value.Str s -> bool_v (Expr.like_match ~pattern s)
      | v -> err "LIKE on non-text value %s" (Value.to_string v)
    end
  | Expr.In_list (a, vs) -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | v -> bool_v (List.exists (Value.equal v) vs)
    end
  | Expr.Func (f, args) -> eval_func f (List.map (fun a -> eval a tuple) args)

and eval_func f args =
  let open Value in
  match (f, args) with
  | _, args when List.exists Value.is_null args -> Null
  | Expr.Length, [ Str s ] -> Int (String.length s)
  | Expr.Length, [ Bytes s ] -> Int (String.length s)
  | Expr.Abs, [ Int i ] -> Int (abs i)
  | Expr.Abs, [ Float f ] -> Float (Float.abs f)
  | Expr.Lower, [ Str s ] -> Str (String.lowercase_ascii s)
  | Expr.Upper, [ Str s ] -> Str (String.uppercase_ascii s)
  | Expr.Substr, [ Str s; Int start ] -> Str (substr s start max_int)
  | Expr.Substr, [ Str s; Int start; Int len ] -> Str (substr s start len)
  | Expr.Substr, [ Bytes s; Int start ] -> Bytes (substr s start max_int)
  | Expr.Substr, [ Bytes s; Int start; Int len ] -> Bytes (substr s start len)
  | _, _ -> err "bad arguments to function"

let eval_bool params e tuple =
  match to_tvl (eval params e tuple) with Some b -> b | None -> false

(* ---- the pull-based interpreter ---------------------------------------- *)

let sort_tuples params keys tuples =
  let exprs = Array.of_list (List.map fst keys) in
  let desc = Array.of_list (List.map (fun (_, dir) -> dir = Plan.Desc) keys) in
  let decorated =
    List.map (fun t -> (Array.map (fun e -> eval params e t) exprs, t)) tuples
  in
  let cmp (ka, _) (kb, _) =
    let rec go i =
      if i = Array.length ka then 0
      else
        let c = Value.compare ka.(i) kb.(i) in
        if c = 0 then go (i + 1) else if desc.(i) then -c else c
    in
    go 0
  in
  List.map snd (List.stable_sort cmp decorated)

type agg_state = {
  mutable count : int;
  mutable sum_i : int;
  mutable sum_f : float;
  mutable saw_float : bool;
  mutable minv : Value.t;
  mutable maxv : Value.t;
}

let new_agg_state () =
  { count = 0; sum_i = 0; sum_f = 0.0; saw_float = false; minv = Value.Null; maxv = Value.Null }

let agg_feed st (v : Value.t) =
  match v with
  | Value.Null -> ()
  | v ->
      st.count <- st.count + 1;
      (match v with
      | Value.Int i -> st.sum_i <- st.sum_i + i
      | Value.Float f ->
          st.saw_float <- true;
          st.sum_f <- st.sum_f +. f
      | Value.Str _ | Value.Bytes _ | Value.Null -> ());
      if Value.is_null st.minv || Value.compare v st.minv < 0 then st.minv <- v;
      if Value.is_null st.maxv || Value.compare v st.maxv > 0 then st.maxv <- v

let agg_result (agg : Plan.agg) (star_count : int) st =
  match agg with
  | Plan.Count_star -> Value.Int star_count
  | Plan.Count _ -> Value.Int st.count
  | Plan.Sum _ ->
      if st.count = 0 then Value.Null
      else if st.saw_float then Value.Float (st.sum_f +. float_of_int st.sum_i)
      else Value.Int st.sum_i
  | Plan.Min _ -> st.minv
  | Plan.Max _ -> st.maxv
  | Plan.Avg _ ->
      if st.count = 0 then Value.Null
      else Value.Float ((st.sum_f +. float_of_int st.sum_i) /. float_of_int st.count)

let agg_expr = function
  | Plan.Count_star -> None
  | Plan.Count e | Plan.Sum e | Plan.Min e | Plan.Max e | Plan.Avg e -> Some e

let group tbl k make =
  let h = Tuple.hash_key k in
  match List.find_opt (fun (k', _) -> Tuple.equal k k') (Hashtbl.find_all tbl h) with
  | Some (_, v) -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl h (k, v);
      v

let entries index ~reverse = function
  | None -> Seq.empty
  | Some (lo, hi) ->
      if reverse then Btree.range_desc index.Table.tree ~lo ~hi
      else Btree.range index.Table.tree ~lo ~hi

let count params what e =
  match eval params e [||] with
  | Value.Int n when n >= 0 -> n
  | v ->
      raise
        (Exec_error
           (Printf.sprintf "%s must be a non-negative integer, got %s" what
              (Value.to_sql_literal v)))

let range_bounds params = function
  | Plan.Fixed (lo, hi) -> Some (lo, hi)
  | Plan.Probe { key; lo; hi } -> Plan.probe_range (eval params) key ~lo ~hi [||]

let rec eval_plan params (p : Plan.t) : Tuple.t Seq.t =
  let run = eval_plan params in
  let eval = eval params and eval_bool = eval_bool params and count = count params in
  match p with
  | Plan.Seq_scan t -> Seq.map snd (Table.scan t)
  | Plan.Index_scan { table; index; range; reverse } ->
      Seq.filter_map
        (fun (_, rowid) -> Table.get table rowid)
        (entries index ~reverse (range_bounds params range))
  | Plan.Filter (pred, input) -> Seq.filter (fun t -> eval_bool pred t) (run input)
  | Plan.Project (cols, input) ->
      Seq.map (fun t -> Array.map (fun (e, _) -> eval e t) cols) (run input)
  | Plan.Nl_join { outer; inner; pred } ->
      let inner_rows = List.of_seq (run inner) in
      Seq.concat_map
        (fun ot ->
          List.to_seq
            (List.filter_map
               (fun it ->
                 let joined = Array.append ot it in
                 match pred with
                 | None -> Some joined
                 | Some e -> if eval_bool e joined then Some joined else None)
               inner_rows))
        (run outer)
  | Plan.Index_nl_join { outer; table; index; key; lo; hi; residual; cap; reverse } ->
      let cap =
        Option.bind cap (fun e ->
            match eval e [||] with Value.Int n when n >= 0 -> Some n | _ -> None)
      in
      let probe ot =
        let rows =
          Seq.filter_map
            (fun (_, rowid) ->
              match Table.get table rowid with
              | None -> None
              | Some it -> (
                  let joined = Array.append ot it in
                  match residual with
                  | None -> Some joined
                  | Some e -> if eval_bool e joined then Some joined else None))
            (entries index ~reverse (Plan.probe_range eval key ~lo ~hi ot))
        in
        match cap with None -> rows | Some n -> Seq.take n rows
      in
      Seq.concat_map probe (run outer)
  | Plan.Hash_join { left; right; left_key; right_key; residual } ->
      let table = Hashtbl.create 1024 in
      Seq.iter
        (fun lt ->
          let k = Array.map (Array.get lt) left_key in
          if not (Array.exists Value.is_null k) then Hashtbl.add table (Tuple.hash_key k) (k, lt))
        (run left);
      Seq.concat_map
        (fun rt ->
          let k = Array.map (Array.get rt) right_key in
          if Array.exists Value.is_null k then Seq.empty
          else
            let candidates = Hashtbl.find_all table (Tuple.hash_key k) in
            List.to_seq
              (List.rev
                 (List.filter_map
                    (fun (lk, lt) ->
                      if Tuple.equal lk k then begin
                        let joined = Array.append lt rt in
                        match residual with
                        | None -> Some joined
                        | Some e -> if eval_bool e joined then Some joined else None
                      end
                      else None)
                    candidates)))
        (run right)
  | Plan.Sort { input; keys } ->
      let rows = List.of_seq (run input) in
      List.to_seq (sort_tuples params keys rows)
  | Plan.Ordered { input; _ } -> run input
  | Plan.Distinct input ->
      let seen = Hashtbl.create 256 in
      Seq.filter
        (fun t ->
          let h = Tuple.hash_key t in
          let bucket = Hashtbl.find_all seen h in
          if List.exists (fun u -> Tuple.equal u t) bucket then false
          else begin
            Hashtbl.add seen h t;
            true
          end)
        (run input)
  | Plan.Aggregate { input; group_by; aggs } ->
      let groups = Hashtbl.create 256 in
      let order = ref [] in
      Seq.iter
        (fun t ->
          let gkey = Array.map (fun (e, _) -> eval e t) group_by in
          let _, star, states =
            group groups gkey (fun () ->
                let e = (gkey, ref 0, Array.init (Array.length aggs) (fun _ -> new_agg_state ())) in
                order := e :: !order;
                e)
          in
          incr star;
          Array.iteri
            (fun i (agg, _) ->
              match agg_expr agg with None -> () | Some e -> agg_feed states.(i) (eval e t))
            aggs)
        (run input);
      let finalize (gkey, star, states) =
        Array.append gkey (Array.mapi (fun i (agg, _) -> agg_result agg !star states.(i)) aggs)
      in
      let entries = List.rev !order in
      let entries =
        if entries = [] && Array.length group_by = 0 then
          [ ([||], ref 0, Array.init (Array.length aggs) (fun _ -> new_agg_state ())) ]
        else entries
      in
      List.to_seq (List.map finalize entries)
  | Plan.Limit { input; limit; offset; by } ->
      let offset = count "OFFSET" offset and limit = Option.map (count "LIMIT") limit in
      if by = [||] then
        let s = Seq.drop offset (run input) in
        match limit with None -> s | Some n -> Seq.take n s
      else begin
        let seen = Hashtbl.create 64 in
        let keep t =
          let n = group seen (Array.map (fun e -> eval e t) by) (fun () -> ref 0) in
          incr n;
          (!n > offset && match limit with None -> true | Some k -> !n - offset <= k)
        in
        Seq.filter keep (run input)
      end
  | Plan.Union_all branches -> Seq.concat_map run (List.to_seq branches)

let rec rows_with_ids params (p : Plan.t) =
  match p with
  | Plan.Seq_scan t -> Table.scan t
  | Plan.Index_scan { table; index; range; reverse } ->
      Seq.filter_map
        (fun (_, rowid) -> Option.map (fun tu -> (rowid, tu)) (Table.get table rowid))
        (entries index ~reverse (range_bounds params range))
  | Plan.Filter (pred, input) ->
      Seq.filter (fun (_, tu) -> eval_bool params pred tu) (rows_with_ids params input)
  | Plan.Limit { limit = Some (Expr.Const (Value.Int 0)); _ } -> Seq.empty
  | p -> raise (Exec_error ("not a single-table access path: " ^ Plan.label p))

let run params p = List.of_seq (eval_plan params p)
