exception Exec_error of string

(* evaluate sort keys once per tuple, then compare decorated pairs *)
let sort_tuples keys tuples =
  let exprs = Array.of_list (List.map fst keys) in
  let desc = Array.of_list (List.map (fun (_, dir) -> dir = Plan.Desc) keys) in
  let decorated = List.map (fun t -> (Array.map (fun e -> Expr.eval e t) exprs, t)) tuples in
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
  {
    count = 0;
    sum_i = 0;
    sum_f = 0.0;
    saw_float = false;
    minv = Value.Null;
    maxv = Value.Null;
  }

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

(* The value [tbl] holds for the tuple [k] (compared with [Tuple.equal]),
   added by [make] on first sight. *)
let group tbl k make =
  let h = Tuple.hash_key k in
  match List.find_opt (fun (k', _) -> Tuple.equal k k') (Hashtbl.find_all tbl h) with
  | Some (_, v) -> v
  | None ->
      let v = make () in
      Hashtbl.add tbl h (k, v);
      v

(* The index entries within [range], walked from its high end when
   [reverse]; none for [None], a range with a NULL value. *)
let entries index ~reverse = function
  | None -> Seq.empty
  | Some (lo, hi) ->
      if reverse then Btree.range_desc index.Table.tree ~lo ~hi
      else Btree.range index.Table.tree ~lo ~hi

(* A LIMIT or OFFSET count: its constant or bound value, which must be a
   non-negative integer. *)
let count what e =
  match Expr.eval e [||] with
  | Value.Int n when n >= 0 -> n
  | v ->
      raise
        (Exec_error
           (Printf.sprintf "%s must be a non-negative integer, got %s" what
              (Value.to_sql_literal v)))

(* The evaluator is parametric in a per-node wrapper so the same operator
   implementations serve both the plain path (identity wrapper) and EXPLAIN
   ANALYZE (a row-counting, pull-timing wrapper around every operator). *)
let rec eval ~wrap (p : Plan.t) : Tuple.t Seq.t =
  let run c = wrap c (eval ~wrap c) in
  match p with
  | Plan.Seq_scan t -> Seq.map snd (Table.scan t)
  | Plan.Index_scan { table; index; range; reverse } ->
      Seq.filter_map
        (fun (_, rowid) -> Table.get table rowid)
        (entries index ~reverse (Plan.range_bounds range))
  | Plan.Filter (pred, input) ->
      Seq.filter (fun t -> Expr.eval_bool pred t) (run input)
  | Plan.Project (cols, input) ->
      Seq.map
        (fun t -> Array.map (fun (e, _) -> Expr.eval e t) cols)
        (run input)
  | Plan.Nl_join { outer; inner; pred } ->
      (* materialize inner once; re-scan per outer row *)
      let inner_rows = List.of_seq (run inner) in
      Seq.concat_map
        (fun ot ->
          List.to_seq
            (List.filter_map
               (fun it ->
                 let joined = Tuple.concat ot it in
                 match pred with
                 | None -> Some joined
                 | Some e -> if Expr.eval_bool e joined then Some joined else None)
               inner_rows))
        (run outer)
  | Plan.Index_nl_join
      { outer; table; index; key; lo; hi; residual; cap; reverse } ->
      (* offset + limit past max_int wraps below 0: no cap *)
      let cap =
        Option.bind cap (fun e ->
            match Expr.eval e [||] with Value.Int n when n >= 0 -> Some n | _ -> None)
      in
      let probe ot =
        let rows =
          Seq.filter_map
            (fun (_, rowid) ->
              match Table.get table rowid with
              | None -> None
              | Some it -> (
                  let joined = Tuple.concat ot it in
                  match residual with
                  | None -> Some joined
                  | Some e -> if Expr.eval_bool e joined then Some joined else None))
            (entries index ~reverse (Plan.probe_range key ~lo ~hi ot))
        in
        (* lazy: the probe reads no index entry past the cap-th row *)
        match cap with None -> rows | Some n -> Seq.take n rows
      in
      Seq.concat_map probe (run outer)
  | Plan.Hash_join { left; right; left_key; right_key; residual } ->
      let table = Hashtbl.create 1024 in
      Seq.iter
        (fun lt ->
          let k = Tuple.key left_key lt in
          if not (Array.exists Value.is_null k) then
            Hashtbl.add table (Tuple.hash_key k) (k, lt))
        (run left);
      Seq.concat_map
        (fun rt ->
          let k = Tuple.key right_key rt in
          if Array.exists Value.is_null k then Seq.empty
          else
            let candidates = Hashtbl.find_all table (Tuple.hash_key k) in
            List.to_seq
              (List.rev
                 (List.filter_map
                    (fun (lk, lt) ->
                      if Tuple.equal lk k then begin
                        let joined = Tuple.concat lt rt in
                        match residual with
                        | None -> Some joined
                        | Some e ->
                            if Expr.eval_bool e joined then Some joined else None
                      end
                      else None)
                    candidates)))
        (run right)
  | Plan.Sort { input; keys } ->
      let rows = List.of_seq (run input) in
      List.to_seq (sort_tuples keys rows)
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
          let gkey = Array.map (fun (e, _) -> Expr.eval e t) group_by in
          let _, star, states =
            group groups gkey (fun () ->
                let e =
                  (gkey, ref 0, Array.init (Array.length aggs) (fun _ -> new_agg_state ()))
                in
                order := e :: !order;
                e)
          in
          incr star;
          Array.iteri
            (fun i (agg, _) ->
              match agg_expr agg with
              | None -> ()
              | Some e -> agg_feed states.(i) (Expr.eval e t))
            aggs)
        (run input);
      let finalize (gkey, star, states) =
        let aggvals =
          Array.mapi (fun i (agg, _) -> agg_result agg !star states.(i)) aggs
        in
        Tuple.concat gkey aggvals
      in
      let entries = List.rev !order in
      let entries =
        (* global aggregate over an empty input still yields one row *)
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
        (* rows seen so far per BY key *)
        let seen = Hashtbl.create 64 in
        let keep t =
          let n = group seen (Array.map (fun e -> Expr.eval e t) by) (fun () -> ref 0) in
          incr n;
          !n > offset && match limit with None -> true | Some k -> !n - offset <= k
        in
        Seq.filter keep (run input)
      end
  | Plan.Union_all branches ->
      Seq.concat_map run (List.to_seq branches)

let rec rows_with_ids (p : Plan.t) =
  match p with
  | Plan.Seq_scan t -> Table.scan t
  | Plan.Index_scan { table; index; range; reverse } ->
      Seq.filter_map
        (fun (_, rowid) -> Option.map (fun tu -> (rowid, tu)) (Table.get table rowid))
        (entries index ~reverse (Plan.range_bounds range))
  | Plan.Filter (pred, input) ->
      Seq.filter (fun (_, tu) -> Expr.eval_bool pred tu) (rows_with_ids input)
  | Plan.Limit { limit = Some (Expr.Const (Value.Int 0)); _ } -> Seq.empty
  | p -> raise (Exec_error ("not a single-table access path: " ^ Plan.label p))

let id_wrap _ s = s
let run p = eval ~wrap:id_wrap p
let run_list p = List.of_seq (run p)

let row_count p = Seq.fold_left (fun acc _ -> acc + 1) 0 (run p)

(* ---- instrumented execution (EXPLAIN ANALYZE) ---------------------- *)

type prof = {
  prof_label : string;
  prof_children : prof list;
  mutable prof_rows : int;
  mutable prof_loops : int;
  mutable prof_ns : int64;
}

(* Time every pull through the operator and count the rows it produces.
   Pulls cascade into children, so recorded times are inclusive of the
   subtree below the operator — the convention EXPLAIN ANALYZE uses. *)
let instrument st (s : Tuple.t Seq.t) : Tuple.t Seq.t =
  let rec go s () =
    let t0 = Obs.Clock.now_ns () in
    let node = s () in
    st.prof_ns <- Int64.add st.prof_ns (Int64.sub (Obs.Clock.now_ns ()) t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (x, rest) ->
        st.prof_rows <- st.prof_rows + 1;
        Seq.Cons (x, go rest)
  in
  fun () ->
    st.prof_loops <- st.prof_loops + 1;
    go s ()

let run_profiled (p : Plan.t) : Tuple.t list * prof =
  (* stats are keyed by the plan node's physical identity: structurally
     equal nodes (a self-join's two scans) must keep separate counters *)
  let assoc = ref [] in
  let rec build p =
    let children = List.map build (Plan.children p) in
    let node =
      {
        prof_label = Plan.label p;
        prof_children = children;
        prof_rows = 0;
        prof_loops = 0;
        prof_ns = 0L;
      }
    in
    assoc := (Obj.repr p, node) :: !assoc;
    node
  in
  let root = build p in
  let wrap p s =
    match List.assq_opt (Obj.repr p) !assoc with
    | None -> s
    | Some st -> instrument st s
  in
  let tuples = List.of_seq (wrap p (eval ~wrap p)) in
  (tuples, root)

let rec pp_prof_indent ppf (level, pr) =
  Format.fprintf ppf "%s%s (actual rows=%d loops=%d time=%.3f ms)@."
    (String.make (level * 2) ' ')
    pr.prof_label pr.prof_rows pr.prof_loops
    (Int64.to_float pr.prof_ns /. 1e6);
  List.iter (fun c -> pp_prof_indent ppf (level + 1, c)) pr.prof_children

let pp_prof ppf pr = pp_prof_indent ppf (0, pr)
