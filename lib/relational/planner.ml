exception Plan_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

(* Virtual column encoding while the join order is still open:
   tbl_idx * slot_width + local column. *)
let slot_width = 1_000_000
let vcol tbl col = (tbl * slot_width) + col
let vcol_table v = v / slot_width
let vcol_local v = v mod slot_width

let agg_funcs = [ "COUNT"; "SUM"; "MIN"; "MAX"; "AVG" ]

let scalar_func = function
  | "LENGTH" -> Some Expr.Length
  | "ABS" -> Some Expr.Abs
  | "LOWER" -> Some Expr.Lower
  | "UPPER" -> Some Expr.Upper
  | "SUBSTR" | "SUBSTRING" -> Some Expr.Substr
  | "PATH_SHIFT" -> Some Expr.Path_shift
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Name resolution                                                     *)
(* ------------------------------------------------------------------ *)

(* A FROM entry: a table, or a derived table planned on its own. [first]:
   an engine-owned scratch relation (Catalog.scratch), whose row count at
   planning time says nothing about later executions, or a derived table;
   either drives the join. *)
type source = Base of Table.t | Derived of Plan.t

type from_entry = {
  alias : string;
  schema : Schema.t;
  source : source;
  tbl_idx : int;
  first : bool;
}

let norm = String.lowercase_ascii

let base_entry alias table i ~first =
  { alias; schema = Table.schema table; source = Base table; tbl_idx = i; first }

let make_env ~plan catalog (from : Sql_ast.from_item list) =
  List.mapi
    (fun i item ->
      let alias = norm (Sql_ast.from_alias item) in
      match item with
      | Sql_ast.Base (name, _) -> (
          match Catalog.find_table catalog name with
          | Some table -> base_entry alias table i ~first:false
          | None -> (
              match Catalog.find_scratch catalog name with
              | Some table -> base_entry alias table i ~first:true
              | None -> fail "no such table %s" name))
      | Sql_ast.Derived (q, _) ->
          let p = plan catalog q in
          let schema = Plan.schema_of p in
          Array.iteri
            (fun c (col : Schema.column) ->
              if Schema.find_opt schema col.Schema.col_name <> Some c then
                fail "derived table %s has two columns named %s" alias col.Schema.col_name)
            schema;
          { alias; schema; source = Derived p; tbl_idx = i; first = true })
    from

let resolve_col env qualifier name =
  match qualifier with
  | Some q -> begin
      match List.find_opt (fun e -> e.alias = norm q) env with
      | None -> fail "unknown table alias %s" q
      | Some e -> (
          match Schema.find_opt e.schema name with
          | Some c -> vcol e.tbl_idx c
          | None -> fail "table %s has no column %s" q name)
    end
  | None -> begin
      let hits =
        List.filter_map
          (fun e ->
            Option.map (fun c -> vcol e.tbl_idx c) (Schema.find_opt e.schema name))
          env
      in
      match hits with
      | [ v ] -> v
      | [] -> fail "unknown column %s" name
      | _ -> fail "ambiguous column %s" name
    end

(* The one lowering of a surface expression to an Expr: [leaf] lowers a
   node when it returns one (a column, and whatever else the caller maps
   itself), else the node lowers structurally, BETWEEN as two comparisons.
   An aggregate call, or a column or [*] that [leaf] leaves, is refused. *)
let rec lower ~leaf (e : Sql_ast.sexpr) : Expr.t =
  match leaf e with
  | Some x -> x
  | None -> (
      let l = lower ~leaf in
      match e with
      | Sql_ast.E_const v -> Expr.Const v
      | Sql_ast.E_param i -> Expr.Param i
      | Sql_ast.E_cmp (op, a, b) -> Expr.Cmp (op, l a, l b)
      | Sql_ast.E_and (a, b) -> Expr.And (l a, l b)
      | Sql_ast.E_or (a, b) -> Expr.Or (l a, l b)
      | Sql_ast.E_not a -> Expr.Not (l a)
      | Sql_ast.E_arith (op, a, b) -> Expr.Arith (op, l a, l b)
      | Sql_ast.E_neg a -> Expr.Neg (l a)
      | Sql_ast.E_concat (a, b) -> Expr.Concat (l a, l b)
      | Sql_ast.E_is_null a -> Expr.Is_null (l a)
      | Sql_ast.E_is_not_null a -> Expr.Is_not_null (l a)
      | Sql_ast.E_like (a, p) -> Expr.Like (l a, p)
      | Sql_ast.E_in (a, vs) -> Expr.In_list (l a, vs)
      | Sql_ast.E_between (a, lo, hi) ->
          let a' = l a in
          Expr.And (Expr.Cmp (Expr.Ge, a', l lo), Expr.Cmp (Expr.Le, a', l hi))
      | Sql_ast.E_func (name, args) -> (
          match scalar_func name with
          | Some f -> Expr.Func (f, List.map l args)
          | None when List.mem name agg_funcs -> fail "aggregate %s not allowed here" name
          | None -> fail "unknown function %s" name)
      | Sql_ast.E_col (_, n) -> fail "column %s not allowed in this context" n
      | Sql_ast.E_star -> fail "* not allowed in this context")

(* a surface expression with virtual column numbers *)
let resolve env =
  lower ~leaf:(function Sql_ast.E_col (q, n) -> Some (Expr.Col (resolve_col env q n)) | _ -> None)

let contains_agg e =
  List.exists (function Sql_ast.E_func (name, _) -> List.mem name agg_funcs | _ -> false) (Sql_ast.subterms e)

(* ------------------------------------------------------------------ *)
(* Access-path selection                                               *)
(* ------------------------------------------------------------------ *)

(* Match conjuncts to [idx]'s key: equalities on a prefix of the key, then
   at most one lower and one upper bound on the next key column (Simplify
   has already kept only the tightest constant bound per column). The
   indexed table's columns start at [split]; the other side of each
   comparison must pass [usable]: a non-NULL constant or a parameter for a
   scan, evaluated when the scan opens, an expression over the outer row for
   a join probe, evaluated once per outer row. Consumed conjuncts are exact
   (Plan.probe_range applies SQL's NULL semantics). Returns (key, lo, hi, consumed, score): two points per
   equality, plus one for a whole key or a range. *)
let match_index ~split ~usable (idx : Table.index) conjuncts =
  let flip = function
    | Expr.Lt -> Expr.Gt
    | Expr.Le -> Expr.Ge
    | Expr.Gt -> Expr.Lt
    | Expr.Ge -> Expr.Le
    | (Expr.Eq | Expr.Ne) as op -> op
  in
  (* (conjunct, op, indexed column, bound) for [indexed column op bound] *)
  let sides =
    List.filter_map
      (fun c ->
        match c with
        | Expr.Cmp (op, Expr.Col i, e) when i >= split && usable e ->
            Some (c, op, i - split, e)
        | Expr.Cmp (op, e, Expr.Col i) when i >= split && usable e ->
            Some (c, flip op, i - split, e)
        | _ -> None)
      conjuncts
  in
  let find col ops =
    List.find_opt (fun (_, op, i, _) -> i = col && List.mem op ops) sides
  in
  let key = idx.Table.key_cols in
  let rec eat i acc =
    match if i < Array.length key then find key.(i) [ Expr.Eq ] else None with
    | Some s -> eat (i + 1) (s :: acc)
    | None -> List.rev acc
  in
  let eqs = eat 0 [] in
  let neq = List.length eqs in
  let lo, hi =
    if neq >= Array.length key then (None, None)
    else
      (find key.(neq) [ Expr.Gt; Expr.Ge ], find key.(neq) [ Expr.Lt; Expr.Le ])
  in
  let bound =
    Option.map (fun (_, op, _, e) ->
        { Plan.bound = e; strict = op = Expr.Gt || op = Expr.Lt })
  in
  let whole_key_or_range = lo <> None || hi <> None || neq = Array.length key in
  ( Array.of_list (List.map (fun (_, _, _, e) -> e) eqs),
    bound lo,
    bound hi,
    List.map
      (fun (c, _, _, _) -> c)
      (eqs @ Option.to_list lo @ Option.to_list hi),
    (2 * neq) + if whole_key_or_range then 1 else 0 )

let scan_bound = function
  | Expr.Const v -> not (Value.is_null v)
  | Expr.Param _ -> true
  | _ -> false

(* Choose the best access path for [table] given local conjuncts. Returns the
   plan for the scan, the residual conjuncts (already-consumed conjuncts are
   exact and dropped) and the match score of the index used (0: none). *)
let choose_access table conjuncts =
  let best = ref None in
  List.iter
    (fun idx ->
      let ((_, _, _, _, score) as m) =
        match_index ~split:0 ~usable:scan_bound idx conjuncts
      in
      if score > 0 then
        match !best with
        | Some (_, (_, _, _, _, s)) when s >= score -> ()
        | _ -> best := Some (idx, m))
    (Table.indexes table);
  match !best with
  | None -> (Plan.Seq_scan table, conjuncts, 0)
  | Some (index, (key, lo, hi, consumed, score)) ->
      ( Plan.Index_scan
          { table; index; range = Plan.Probe { key; lo; hi }; reverse = false },
        List.filter (fun c -> not (List.memq c consumed)) conjuncts,
        score )

let with_filter plan = function
  | [] -> plan
  | conjuncts -> (
      match Expr.conjoin conjuncts with
      | None -> plan
      | Some pred -> Plan.Filter (pred, plan))

(* ------------------------------------------------------------------ *)
(* Join ordering                                                       *)
(* ------------------------------------------------------------------ *)

let cols_of_tables e = List.map vcol_table (Expr.columns e) |> List.sort_uniq compare

let plan_joins env table_plans vconjuncts =
  (* table_plans: tbl_idx -> (access plan, its residual local conjuncts, its
     index match score, all local conjuncts) *)
  let n = List.length env in
  let placed = Array.make n (-1) in
  (* physical offset per table once placed *)
  let arity i = Schema.arity (List.nth env i).schema in
  let remaining = ref (List.init n (fun i -> i)) in
  let used = ref [] in
  let conj_remaining = ref vconjuncts in
  (* virtual -> physical, once all referenced tables are placed *)
  let to_physical e =
    Expr.map_columns (fun v -> placed.(vcol_table v) + vcol_local v) e
  in
  let all_placed e =
    List.for_all (fun t -> placed.(t) >= 0) (cols_of_tables e)
  in
  (* pick the first table: a scratch relation or a derived table (a context
     set drives the join, and a cached plan must not depend on how many rows
     it held when planned), else prefer an indexed access path, then the
     fewest estimated rows (a crude cardinality model: each pushed conjunct
     is assumed to keep a third of the rows) *)
  let estimate i =
    let plan, residual, _, _ = List.nth table_plans i in
    let base =
      match plan with
      | Plan.Seq_scan t | Plan.Index_scan { table = t; _ } ->
          float_of_int (Table.row_count t)
      | _ -> 1e9
    in
    let indexed = match plan with Plan.Index_scan _ -> 0.05 | _ -> 1.0 in
    base *. indexed /. (3.0 ** float_of_int (List.length residual))
  in
  let first =
    match List.find_opt (fun e -> e.first) env with
    | Some e -> e.tbl_idx
    | None ->
        List.fold_left
          (fun best i -> if estimate i < estimate best then i else best)
          (List.hd !remaining) !remaining
  in
  let base_plan, base_resid, _, _ = List.nth table_plans first in
  placed.(first) <- 0;
  used := [ first ];
  remaining := List.filter (fun i -> i <> first) !remaining;
  let current = ref (with_filter base_plan base_resid) in
  let current_arity = ref (arity first) in
  while !remaining <> [] do
    (* find a remaining table connected by an equi-join conjunct *)
    let connects j =
      List.exists
        (fun c ->
          match c with
          | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b) ->
              let ta = vcol_table a and tb = vcol_table b in
              (ta = j && List.mem tb !used) || (tb = j && List.mem ta !used)
          | _ -> false)
        !conj_remaining
    in
    let j =
      match List.find_opt connects !remaining with
      | Some j -> j
      | None ->
          (* no equi-connected table left: prefer one tied to the placed set
             by any predicate (the translator's descendant/sibling joins are
             range joins), so the nested loop at least filters instead of
             producing a cartesian product *)
          let theta_connects j =
            List.exists
              (fun c ->
                let ts = cols_of_tables c in
                List.mem j ts
                && ts <> [ j ]
                && List.for_all (fun t -> t = j || List.mem t !used) ts)
              !conj_remaining
          in
          (match List.find_opt theta_connects !remaining with
          | Some j -> j
          | None -> List.hd !remaining)
    in
    let jplan, jresid, jscore, jlocal = List.nth table_plans j in
    (* a derived table has no index to probe *)
    let jindexes =
      match (List.nth env j).source with
      | Base t -> List.map (fun index -> (t, index)) (Table.indexes t)
      | Derived _ -> []
    in
    let right_plan = with_filter jplan jresid in
    let split = !current_arity in
    (* equi pairs between used-set and j *)
    (* equalities of a column of j with a placed one, each with its columns *)
    let eq_pairs, rest =
      List.partition_map
        (fun c ->
          match c with
          | Expr.Cmp (Expr.Eq, Expr.Col a, Expr.Col b)
            when let ta = vcol_table a and tb = vcol_table b in
                 (ta = j && List.mem tb !used) || (tb = j && List.mem ta !used) ->
              Either.Left (c, (a, b))
          | c -> Either.Right c)
        !conj_remaining
    in
    placed.(j) <- split;
    used := j :: !used;
    (* conjuncts that become evaluable now that j is placed *)
    let now, later = List.partition all_placed rest in
    conj_remaining := later;
    let now = List.map to_physical now in
    (* Index nested-loop join: probe one of j's indexes per outer row when
       the probe key equates a column to the placed side, or when a range
       bound reads the placed side and the probe matches more of the index
       key than j's own access path does (a full scan matches none). Among
       probes, one with such an equality beats one without, then the higher
       score wins, then the first index. *)
    let probe_conjs =
      List.map (fun (c, _) -> to_physical c) eq_pairs
      @ now
      @ List.map (Expr.map_columns (fun c -> c + split)) jlocal
    in
    let outer_only e = List.for_all (fun c -> c < split) (Expr.columns e) in
    let reads_outer e = Expr.columns e <> [] in
    let probe, _ =
      List.fold_left
        (fun ((_, best) as acc) (jtable, index) ->
          let key, lo, hi, consumed, score =
            match_index ~split ~usable:outer_only index probe_conjs
          in
          let joined = Array.exists reads_outer key in
          let ranged =
            List.exists
              (fun b -> reads_outer b.Plan.bound)
              (Option.to_list lo @ Option.to_list hi)
          in
          let rank = (joined, score) in
          if (joined || (ranged && score > jscore)) && rank > best then
            (Some (jtable, index, key, lo, hi, consumed), rank)
          else acc)
        (None, (false, 0))
        jindexes
    in
    (match probe with
    | Some (jtable, index, key, lo, hi, consumed) ->
        let residual =
          Expr.conjoin
            (List.filter (fun c -> not (List.memq c consumed)) probe_conjs)
        in
        current :=
          Plan.Index_nl_join
            {
              outer = !current;
              table = jtable;
              index;
              key;
              lo;
              hi;
              residual;
              cap = None;
              reverse = false;
            }
    | None when eq_pairs = [] ->
        (* cross/theta join *)
        current :=
          Plan.Nl_join
            { outer = !current; inner = right_plan; pred = Expr.conjoin now }
    | None ->
        let left_keys, right_keys =
          List.split
            (List.map
               (fun (_, (a, b)) ->
                 let ta = vcol_table a in
                 if ta = j then (placed.(vcol_table b) + vcol_local b, vcol_local a)
                 else (placed.(ta) + vcol_local a, vcol_local b))
               eq_pairs)
        in
        current :=
          Plan.Hash_join
            {
              left = !current;
              right = right_plan;
              left_key = Array.of_list left_keys;
              right_key = Array.of_list right_keys;
              residual = Expr.conjoin now;
            });
    current_arity := split + arity j;
    remaining := List.filter (fun i -> i <> j) !remaining
  done;
  if !conj_remaining <> [] then
    fail "internal: unplaced conjuncts after join ordering";
  (!current, placed)

(* ------------------------------------------------------------------ *)
(* Order property                                                      *)
(* ------------------------------------------------------------------ *)

(* The order a plan delivers (Simmen, Shekita and Malkemus, "Fundamental
   Techniques for Order Optimization", SIGMOD 1996): its rows come sorted
   by [order]'s columns, and with [key] no two of them agree on all those
   columns, so [order = []] with [key] is at most one row. [fixed] columns
   hold one value in every row (an [=] with a constant side, or IS NULL):
   they are left out of [order], and an ORDER BY key over one is met. *)
type delivered = { order : (int * Plan.order) list; key : bool; fixed : int list }

let unordered = { order = []; key = false; fixed = [] }

let fixed_by pred =
  let const e = Expr.columns e = [] in
  List.filter_map
    (function
      | Expr.Cmp (Expr.Eq, Expr.Col c, e) when const e -> Some c
      | Expr.Cmp (Expr.Eq, e, Expr.Col c) when const e -> Some c
      | Expr.Is_null (Expr.Col c) -> Some c
      | _ -> None)
    (Option.fold ~none:[] ~some:Expr.conjuncts pred)

let fix cols d =
  let fixed = cols @ d.fixed in
  { d with order = List.filter (fun (c, _) -> not (List.mem c fixed)) d.order; fixed }

(* [index]'s key columns from the [from]th on, at offset [split] *)
let key_order (index : Table.index) ~from ~split ~reverse =
  let dir = if reverse then Plan.Desc else Plan.Asc in
  let cols = List.filteri (fun i _ -> i >= from) (Array.to_list index.Table.key_cols) in
  { order = List.map (fun c -> (split + c, dir)) cols; key = index.Table.unique; fixed = [] }

(* a join's rows: each outer row's inner rows in turn, so the inner order
   follows the outer one only where the outer order is a key *)
let nested outer inner =
  let fixed = outer.fixed @ inner.fixed in
  if outer.key then { order = outer.order @ inner.order; key = inner.key; fixed }
  else { outer with key = false; fixed }

let rec delivered (p : Plan.t) =
  match p with
  | Plan.Index_scan { index; range; reverse; _ } ->
      let neq = match range with Plan.Probe { key; _ } -> Array.length key | Plan.Non_null -> 0 in
      fix
        (List.filteri (fun i _ -> i < neq) (Array.to_list index.Table.key_cols))
        (key_order index ~from:0 ~split:0 ~reverse)
  | Plan.Filter (e, p) -> fix (fixed_by (Some e)) (delivered p)
  | Plan.Index_nl_join { outer; index; key; residual; reverse; _ } ->
      (* key columns probed with a constant are fixed *)
      let split = Schema.arity (Plan.schema_of outer) and neq = Array.length key in
      let consts = List.filteri (fun i _ -> i < neq && Expr.columns key.(i) = []) (Array.to_list index.Table.key_cols) in
      fix
        (List.map (( + ) split) consts @ fixed_by residual)
        (nested (delivered outer) (key_order index ~from:neq ~split ~reverse))
  | Plan.Nl_join { outer; inner; pred } ->
      let split = Schema.arity (Plan.schema_of outer) and i = delivered inner in
      let i = { i with order = List.map (fun (c, d) -> (split + c, d)) i.order; fixed = List.map (( + ) split) i.fixed } in
      fix (fixed_by pred) (nested (delivered outer) i)
  | Plan.Project (cols, p) ->
      (* the order up to its first column the projection drops *)
      let d = delivered p in
      let out c = Array.find_index (fun (e, _) -> e = Expr.Col c) cols in
      let rec map = function
        | (c, dir) :: rest -> ( match out c with Some o -> (o, dir) :: map rest | None -> [])
        | [] -> []
      in
      let order = map d.order in
      let fixed i = match fst cols.(i) with Expr.Col c -> List.mem c d.fixed | e -> Expr.columns e = [] in
      let fixed = List.filter fixed (List.init (Array.length cols) Fun.id) in
      { order; key = d.key && List.compare_lengths order d.order = 0; fixed }
  | Plan.Limit { input; limit = Some (Expr.Const (Value.Int n)); by = [||]; _ } when n <= 1 ->
      { (delivered input) with order = []; key = true }
  | Plan.Limit { input = p; _ } | Plan.Ordered { input = p; _ } | Plan.Distinct p -> delivered p
  | Plan.Aggregate { group_by = [||]; _ } -> { unordered with key = true }
  | Plan.Seq_scan _ | Plan.Hash_join _ | Plan.Sort _ | Plan.Aggregate _ | Plan.Union_all _ -> unordered

(* whether rows delivered as [d] already come in the order of [keys] *)
let rec satisfies d keys =
  let fixed = function Expr.Col c -> List.mem c d.fixed | e -> Expr.columns e = [] in
  match (keys, d.order) with
  | [], _ -> true
  | (e, _) :: rest, _ when fixed e -> satisfies d rest
  | (Expr.Col c, dir) :: rest, (c', dir') :: order when c = c' && dir = dir' ->
      satisfies { d with order } rest
  | _, [] -> d.key
  | _ -> false

(* the plan with its driving index scan, under its filters and join outers,
   walked the other way *)
let rec reverse_lead_scan = function
  | Plan.Index_scan s -> Some (Plan.Index_scan { s with reverse = not s.reverse })
  | Plan.Filter (e, p) -> Option.map (fun p -> Plan.Filter (e, p)) (reverse_lead_scan p)
  | Plan.Index_nl_join j -> Option.map (fun outer -> Plan.Index_nl_join { j with outer }) (reverse_lead_scan j.outer)
  | Plan.Nl_join j -> Option.map (fun outer -> Plan.Nl_join { j with outer }) (reverse_lead_scan j.outer)
  | _ -> None

(* the plan with its driving sequential scan, under its filters and join
   outers, replaced by a walk of one whole index of its table, for each
   index in turn: a table no conjunct finds through an index *)
let rec index_lead_scans = function
  | Plan.Seq_scan table ->
      List.map
        (fun index ->
          Plan.Index_scan
            { table; index; range = Plan.Probe { key = [||]; lo = None; hi = None }; reverse = false })
        (Table.indexes table)
  | Plan.Filter (e, p) -> List.map (fun p -> Plan.Filter (e, p)) (index_lead_scans p)
  | Plan.Index_nl_join j -> List.map (fun outer -> Plan.Index_nl_join { j with outer }) (index_lead_scans j.outer)
  | Plan.Nl_join j -> List.map (fun outer -> Plan.Nl_join { j with outer }) (index_lead_scans j.outer)
  | _ -> []

(* [plan] in the order of [keys]: as it comes when it delivers that order,
   or with its driving scan reversed when that delivers it, or driven by a
   whole index instead of a sequential scan (either way) when that does,
   else sorted *)
let order_by plan keys =
  let ordered p = if satisfies (delivered p) keys then Some (Plan.Ordered { input = p; keys }) else None in
  let either p = p :: Option.to_list (reverse_lead_scan p) in
  if keys = [] then plan
  else
    match List.find_map ordered (either plan @ List.concat_map either (index_lead_scans plan)) with
    | Some p -> p
    | None -> Plan.Sort { input = plan; keys }

(* ------------------------------------------------------------------ *)
(* Per-probe caps for LIMIT BY                                         *)
(* ------------------------------------------------------------------ *)

(* [LIMIT n OFFSET m BY keys] over an index nested-loop join: when the BY
   keys read only the outer row, and the ORDER BY keys, less those over the
   outer row alone, are the index key columns
   after the probe's equality prefix, in one direction, then a probe's rows
   share their BY key and sort among themselves in index order. Only the
   first [m + n] of them, read from the end the direction names, can be
   kept, whatever the other probes of that key hold. *)
let cap_probes ~order_keys ~by ~cap = function
  | Plan.Index_nl_join ({ outer; index; key; _ } as j) as plan ->
      let split = Schema.arity (Plan.schema_of outer) in
      let outer_only e = List.for_all (fun c -> c < split) (Expr.columns e) in
      let inner = List.filter (fun (e, _) -> not (outer_only e)) order_keys in
      let neq = Array.length key in
      let suffix =
        Array.sub index.Table.key_cols neq (Array.length index.Table.key_cols - neq)
      in
      let dirs = List.sort_uniq compare (List.map snd inner) in
      if
        Array.for_all outer_only by
        && List.length dirs <= 1
        && List.map fst inner
           = Array.to_list (Array.map (fun c -> Expr.Col (split + c)) suffix)
      then Plan.Index_nl_join { j with cap = Some cap; reverse = dirs = [ Plan.Desc ] }
      else plan
  | p -> p

(* ------------------------------------------------------------------ *)
(* MIN / MAX from the index end                                        *)
(* ------------------------------------------------------------------ *)

(* [SELECT MIN(c) FROM t] / [SELECT MAX(c) FROM t] with nothing else to
   filter or group: the answer is the first non-NULL key of an index that
   leads with [c], read from the low end for MIN and the high end for MAX.
   The plan keeps the Aggregate on top, over at most one row, so an empty
   or all-NULL column still yields NULL. *)
let min_max_scan env (q : Sql_ast.select) =
  match (env, q.items) with
  | ( [ { source = Base table; _ } ],
      [
        Sql_ast.Item
          ( Sql_ast.E_func
              ((("MIN" | "MAX") as f), [ Sql_ast.E_col (qual, name) ]),
            _ );
      ] )
    when q.where = None && q.group_by = [] && q.having = None ->
      let col = vcol_local (resolve_col env qual name) in
      List.find_map
        (fun (index : Table.index) ->
          let key = index.Table.key_cols in
          if Array.length key > 0 && key.(0) = col then
            let scan =
              Plan.Index_scan
                {
                  table;
                  index;
                  range = Plan.Non_null;
                  reverse = f = "MAX";
                }
            in
            Some
              (Plan.Limit
                 { input = scan; limit = Some (Plan.count 1); offset = Plan.count 0; by = [||] })
          else None)
        (Table.indexes table)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* SELECT planning                                                     *)
(* ------------------------------------------------------------------ *)

let item_name i (item : Sql_ast.select_item) =
  match item with
  | Sql_ast.Item (_, Some alias) -> alias
  | Sql_ast.Item (Sql_ast.E_col (_, n), None) -> n
  | Sql_ast.Item (Sql_ast.E_func (f, _), None) -> String.lowercase_ascii f
  | Sql_ast.Item _ -> Printf.sprintf "col%d" i
  | Sql_ast.Star -> "*"

let expand_star env placed =
  (* all columns of all tables, in FROM order whatever the join order *)
  List.concat_map
    (fun e ->
      List.mapi
        (fun c (col : Schema.column) ->
          (Expr.Col (placed.(e.tbl_idx) + c), col.Schema.col_name))
        (Array.to_list e.schema))
    env

let extract_agg env (e : Sql_ast.sexpr) : Plan.agg =
  match e with
  | Sql_ast.E_func ("COUNT", [ Sql_ast.E_star ]) -> Plan.Count_star
  | Sql_ast.E_func ("COUNT", [ a ]) -> Plan.Count (resolve env a)
  | Sql_ast.E_func ("SUM", [ a ]) -> Plan.Sum (resolve env a)
  | Sql_ast.E_func ("MIN", [ a ]) -> Plan.Min (resolve env a)
  | Sql_ast.E_func ("MAX", [ a ]) -> Plan.Max (resolve env a)
  | Sql_ast.E_func ("AVG", [ a ]) -> Plan.Avg (resolve env a)
  | Sql_ast.E_func (f, _) when List.mem f agg_funcs ->
      fail "%s takes exactly one argument" f
  | _ -> fail "only plain aggregate calls are supported in SELECT"

let rec plan_select catalog (q : Sql_ast.select) =
  if q.from = [] then fail "FROM clause is required";
  let env = make_env ~plan:plan_select catalog q.from in
  (* duplicate alias check *)
  let aliases = List.map (fun e -> e.alias) env in
  if List.length (List.sort_uniq compare aliases) <> List.length aliases then
    fail "duplicate table alias in FROM";
  let vconjuncts =
    match q.where with
    | None -> []
    | Some w ->
        if contains_agg w then fail "aggregates are not allowed in WHERE";
        Expr.conjuncts (resolve env w)
  in
  (* pre-planning simplification: fold constants into index-matchable form,
     drop implied bounds, and detect unsatisfiable conjunctions — those
     short-circuit below into a plan that never touches a table *)
  let vconjuncts, contradiction =
    match Simplify.simplify_conjuncts vconjuncts with
    | Simplify.Contradiction -> ([], true)
    | Simplify.Conjuncts cs -> (cs, false)
  in
  (* split single-table conjuncts *)
  let single, multi =
    List.partition (fun c -> List.length (cols_of_tables c) <= 1) vconjuncts
  in
  let table_plans =
    List.map
      (fun e ->
        let mine =
          List.filter
            (fun c ->
              (* constant predicates are handled below *)
              cols_of_tables c = [ e.tbl_idx ])
            single
        in
        let local =
          List.map (Expr.map_columns (fun v -> vcol_local v)) mine
        in
        let scan, residual, score =
          match e.source with
          | Base table -> choose_access table local
          | Derived p -> (p, local, 0)
        in
        (scan, residual, score, local))
      env
  in
  let const_preds =
    List.filter (fun c -> cols_of_tables c = []) single
  in
  let joined, placed = plan_joins env table_plans multi in
  let joined = with_filter joined const_preds in
  (* An unsatisfiable WHERE clause produces zero input rows without touching
     any table: LIMIT 0 never forces its input. Wrapping below the aggregate
     keeps [SELECT COUNT(+) ... WHERE 1=0] returning its single row. *)
  let joined =
    if contradiction then
      Plan.Limit
        { input = joined; limit = Some (Plan.count 0); offset = Plan.count 0; by = [||] }
    else joined
  in
  (* aggregation? *)
  let has_agg =
    q.group_by <> [] || q.having <> None
    || List.exists
         (function Sql_ast.Item (e, _) -> contains_agg e | Sql_ast.Star -> false)
         q.items
  in
  if (not has_agg) && q.having <> None then fail "HAVING requires aggregation";
  let to_physical e =
    Expr.map_columns (fun v -> placed.(vcol_table v) + vcol_local v) e
  in
  let resolve_phys e = to_physical (resolve env e) in
  let limit = Option.map (resolve env) q.limit in
  let offset = Option.fold ~none:(Plan.count 0) ~some:(resolve env) q.offset in
  if not has_agg then begin
    (* items *)
    let projections =
      List.concat
        (List.mapi
           (fun i item ->
             match item with
             | Sql_ast.Star -> expand_star env placed
             | Sql_ast.Item (e, _) -> [ (resolve_phys e, item_name i item) ])
           q.items)
    in
    let order_keys =
      List.map
        (fun (e, dir) ->
          (resolve_phys e, match dir with Sql_ast.Asc -> Plan.Asc | Sql_ast.Desc -> Plan.Desc))
        q.order_by
    in
    let sorted =
      match q.limit_by with
      | [] -> order_by joined order_keys
      | _ when q.distinct -> fail "LIMIT BY cannot be combined with DISTINCT"
      | by ->
          let by = Array.of_list (List.map resolve_phys by) in
          (* the cap is offset + limit: folded when both are constants (no
             cap past max_int), else added when the join opens *)
          let cap =
            match (offset, limit) with
            | _, None -> None
            | Expr.Const (Value.Int m), Some (Expr.Const (Value.Int n)) ->
                if n <= max_int - m then Some (Plan.count (m + n)) else None
            | Expr.Const (Value.Int 0), n -> n
            | m, Some n -> Some (Expr.Arith (Expr.Add, m, n))
          in
          let joined =
            match cap with
            | Some cap -> cap_probes ~order_keys ~by ~cap joined
            | None -> joined
          in
          Plan.Limit { input = order_by joined order_keys; limit; offset; by }
    in
    let projected = Plan.Project (Array.of_list projections, sorted) in
    let distinct = if q.distinct then Plan.Distinct projected else projected in
    match (q.limit, q.offset) with
    | None, None -> distinct
    | _ when q.limit_by <> [] -> distinct
    | _ -> Plan.Limit { input = distinct; limit; offset; by = [||] }
  end
  else begin
    (* aggregate path *)
    if q.limit_by <> [] then fail "LIMIT BY cannot be combined with aggregation";
    let group_exprs =
      List.map (fun e -> (resolve_phys e, Format.asprintf "%a" Expr.pp (resolve_phys e))) q.group_by
    in
    let n_groups = List.length group_exprs in
    let aggs = ref [] in
    (* map each select item onto the aggregate output *)
    let item_exprs =
      List.mapi
        (fun i item ->
          match item with
          | Sql_ast.Star -> fail "SELECT * cannot be combined with aggregation"
          | Sql_ast.Item (e, _) ->
              let name = item_name i item in
              if contains_agg e then begin
                match e with
                | Sql_ast.E_func (_, _) ->
                    let agg = Plan.map_agg to_physical (extract_agg env e) in
                    let pos = n_groups + List.length !aggs in
                    aggs := !aggs @ [ (agg, name) ];
                    (Expr.Col pos, name)
                | _ -> fail "aggregates must appear as top-level SELECT items"
              end
              else begin
                let phys = resolve_phys e in
                match
                  List.find_index
                    (fun (g, _) -> g = phys)
                    group_exprs
                with
                | Some gi -> (Expr.Col gi, name)
                | None -> (
                    match phys with
                    | Expr.Const _ -> (phys, name)
                    | _ ->
                        fail
                          "non-aggregated SELECT item must appear in GROUP BY")
              end)
        q.items
    in
    (* resolve an expression against the aggregate output: aggregate calls
       map to their output column (appending new ones as needed), any
       aggregate-free subexpression must match a GROUP BY expression *)
    let agg_output_col agg name =
      match List.find_index (fun (a, _) -> a = agg) !aggs with
      | Some ai -> n_groups + ai
      | None ->
          let pos = n_groups + List.length !aggs in
          aggs := !aggs @ [ (agg, name) ];
          pos
    in
    (* HAVING over the aggregate output: aggregate calls map to their output
       column, and any aggregate-free subexpression matching a GROUP BY
       expression to its group column *)
    let over_agg (e : Sql_ast.sexpr) =
      match e with
      | Sql_ast.E_const _ -> None
      | Sql_ast.E_func (name, _) when List.mem name agg_funcs ->
          Some (Expr.Col (agg_output_col (Plan.map_agg to_physical (extract_agg env e)) (String.lowercase_ascii name)))
      | _ when contains_agg e -> None
      | _ -> (
          match (List.find_index (fun (g, _) -> g = resolve_phys e) group_exprs, e) with
          | Some gi, _ -> Some (Expr.Col gi)
          | None, (Sql_ast.E_col _ | Sql_ast.E_star) -> fail "HAVING must use aggregates or GROUP BY expressions"
          | None, _ -> None)
    in
    let having_pred = Option.map (lower ~leaf:over_agg) q.having in
    let joined = Option.value (min_max_scan env q) ~default:joined in
    let agg_plan =
      Plan.Aggregate
        {
          input = joined;
          group_by = Array.of_list group_exprs;
          aggs = Array.of_list !aggs;
        }
    in
    let agg_plan =
      match having_pred with
      | None -> agg_plan
      | Some pred -> Plan.Filter (pred, agg_plan)
    in
    (* ORDER BY over aggregate output: match group exprs or aggregate items *)
    let order_keys =
      List.map
        (fun (e, dir) ->
          let dir = match dir with Sql_ast.Asc -> Plan.Asc | Sql_ast.Desc -> Plan.Desc in
          if contains_agg e then begin
            let agg = Plan.map_agg to_physical (extract_agg env e) in
            match List.find_index (fun (a, _) -> a = agg) !aggs with
            | Some ai -> (Expr.Col (n_groups + ai), dir)
            | None -> fail "ORDER BY aggregate must also be selected"
          end
          else
            let phys = resolve_phys e in
            match List.find_index (fun (g, _) -> g = phys) group_exprs with
            | Some gi -> (Expr.Col gi, dir)
            | None -> fail "ORDER BY must reference GROUP BY expressions"
        )
        q.order_by
    in
    let projected = Plan.Project (Array.of_list item_exprs, order_by agg_plan order_keys) in
    let distinct = if q.distinct then Plan.Distinct projected else projected in
    match (q.limit, q.offset) with
    | None, None -> distinct
    | _ -> Plan.Limit { input = distinct; limit; offset; by = [||] }
  end

(* ------------------------------------------------------------------ *)
(* Single-table helpers for UPDATE/DELETE                              *)
(* ------------------------------------------------------------------ *)

let resolve_expr_for_table table e =
  let alias = norm (Table.name table) in
  resolve [ base_entry alias table 0 ~first:false ] e

(* The access path of an UPDATE or DELETE: the simplification and index
   matching of a single-table SELECT, the residual conjuncts as a Filter
   over the scan, and LIMIT 0 over a scan for a contradiction. *)
let table_access table pred =
  let conjuncts = match pred with None -> [] | Some p -> Expr.conjuncts p in
  match Simplify.simplify_conjuncts conjuncts with
  | Simplify.Contradiction ->
      Plan.Limit
        {
          input = Plan.Seq_scan table;
          limit = Some (Plan.count 0);
          offset = Plan.count 0;
          by = [||];
        }
  | Simplify.Conjuncts cs ->
      let scan, residual, _ = choose_access table cs in
      with_filter scan residual

let table_candidates table pred = List.to_seq (Exec.rows_with_ids (table_access table pred) [||])

let access_path_description table pred =
  let scan = function
    | Plan.Index_scan { index; _ } -> Printf.sprintf "IndexScan(%s)" index.Table.idx_name
    | _ -> Printf.sprintf "SeqScan(%s)" (Table.name table)
  in
  match table_access table pred with
  | Plan.Limit _ -> Printf.sprintf "Empty(%s)" (Table.name table)
  | Plan.Filter (_, p) -> scan p ^ "+filter"
  | p -> scan p
