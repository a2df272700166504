exception Exec_error of string

type prof = {
  prof_label : string;
  prof_children : prof list;
  mutable prof_rows : int;
  mutable prof_loops : int;
  mutable prof_ns : int64;
}

(* tables keyed by rows (DISTINCT, GROUP BY, LIMIT BY, hash-join keys) and
   by single values (a one-column LIMIT BY key, without a key array) *)
module Rows = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash_key
end)

module Vals = Hashtbl.Make (Value)

(* rows by their hash, computed once per row (DISTINCT) *)
module Hashes = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash h = h land max_int
end)

type frame = Expr.frame

(* Where an operator's output columns live: column [i] is
   [frame.(slot.(i)).(off.(i))]. Slot 0 holds the bound values. *)
type layout = { slot : int array; off : int array }

let arity l = Array.length l.slot
let whole s n = { slot = Array.make n s; off = Array.init n Fun.id }
let join a b = { slot = Array.append a.slot b.slot; off = Array.append a.off b.off }
let pick l cols =
  { slot = Array.map (Array.get l.slot) cols; off = Array.map (Array.get l.off) cols }
let no_cols = whole 0 0
let col l i = (l.slot.(i), l.off.(i))
let expr l = Expr.compile ~arity:(arity l) ~col:(col l)

let pred l =
  Option.fold ~none:(fun _ -> true) ~some:(Expr.compile_pred ~arity:(arity l) ~col:(col l))

(* [Some (s, o)] when the columns of [l] are [f.(s).(o)], [f.(s).(o + 1)],
   ... *)
let run_of l =
  let n = arity l in
  if n > 0 && Array.for_all (( = ) l.slot.(0)) l.slot && l.off = Array.init n (( + ) l.off.(0))
  then Some (l.slot.(0), l.off.(0))
  else None

(* the columns of [l] as a fresh tuple *)
let copy l =
  match run_of l with
  | Some (s, o) -> fun (f : frame) -> Array.sub f.(s) o (arity l)
  | None ->
      fun f ->
        let t = Array.make (arity l) Value.Null in
        for i = 0 to arity l - 1 do
          t.(i) <- f.(l.slot.(i)).(l.off.(i))
        done;
        t

(* the row [l] describes as one tuple, for an operator that keeps it: the
   slot's own tuple when it is exactly that row *)
let flatten l =
  let copy = copy l in
  match run_of l with
  | Some (s, 0) -> fun (f : frame) -> if Array.length f.(s) = arity l then f.(s) else copy f
  | _ -> copy

(* A compiled operator. [op f stop k] opens it for one execution: each of
   its rows is written into the frame [f], then [k] is called. It reads no
   further row once [!stop] holds; only an eager part (Sort, Aggregate, a
   hash-join build, a nested-loop join's inner side) ignores [stop]. *)
type op = frame -> bool ref -> (unit -> unit) -> unit

type cx = {
  mutable slots : int;  (* frame slots handed out so far *)
  mutable rowid : int;  (* row id of the last row a scan read *)
  profile : bool;
}

let new_slot cx =
  cx.slots <- cx.slots + 1;
  cx.slots - 1

(* A LIMIT or OFFSET count: its constant or bound value, which must be a
   non-negative integer. *)
let count what e =
  let e = expr no_cols e in
  fun f ->
    match e f with
    | Value.Int n when n >= 0 -> n
    | v ->
        let v = Value.to_sql_literal v in
        raise (Exec_error (Printf.sprintf "%s must be a non-negative integer, got %s" what v))

(* drain [op], eagerly and in full, into a list of [row f] *)
let collect op row f =
  let acc = ref [] in
  op f (ref false) (fun () -> acc := row f :: !acc);
  List.rev !acc

(* write each of [rows] into slot [s] and push it, until [stop] *)
let rec emit f stop k s = function
  | r :: rest when not !stop ->
      f.(s) <- r;
      k ();
      emit f stop k s rest
  | _ -> ()

(* read row [rowid] of [table] into slot [s] and push it *)
let read cx table s f k rowid =
  match Table.get table rowid with
  | None -> ()
  | Some tu ->
      cx.rowid <- rowid;
      f.(s) <- tu;
      k ()

(* kept rows [a] and [b] by the sort keys: (tuple, offset), descending *)
let rec compare_keys keys (a : Tuple.t array) b i =
  if i = Array.length keys then 0
  else
    let (j, o), desc = keys.(i) in
    let c = Value.compare a.(j).(o) b.(j).(o) in
    if c = 0 then compare_keys keys a b (i + 1) else if desc then -c else c

(* A Sort over layout [l] keeps each row as the slots [lo, hi) that hold
   [l]'s columns, plus one tuple of the key values that are not plain
   columns, and writes it back into the same slots. Keys are compared in
   place; input that arrives in order is not sorted again. *)
let sort_op l keys (iop : op) : op =
  let lo = Array.fold_left min (if arity l = 0 then 0 else max_int) l.slot in
  let nused = Array.fold_left max (lo - 1) l.slot + 1 - lo and computed = ref [] in
  let place (e, dir) =
    let at =
      match e with
      | Expr.Col i when i >= 0 && i < arity l -> (l.slot.(i) - lo, l.off.(i))
      | e ->
          computed := !computed @ [ expr l e ];
          (nused, List.length !computed - 1)
    in
    (at, dir = Plan.Desc)
  in
  let keys = Array.of_list (List.map place keys) in
  let computed = Array.of_list !computed in
  let capture f =
    if Array.length computed = 0 then Array.sub f lo nused
    else Array.append (Array.sub f lo nused) [| Array.map (fun e -> e f) computed |]
  in
  let cmp a b = compare_keys keys a b 0 in
  fun f stop k ->
    let acc = ref [] and ordered = ref true in
    iop f (ref false) (fun () ->
        let r = capture f in
        (match !acc with p :: _ when !ordered && cmp p r > 0 -> ordered := false | _ -> ());
        acc := r :: !acc);
    let rec emit = function
      | r :: rest when not !stop ->
          Array.blit r 0 f lo nused;
          k ();
          emit rest
      | _ -> ()
    in
    let rows = List.rev !acc in
    emit (if !ordered then rows else List.stable_sort cmp rows)

(* a fresh table per execution, and the value it holds for the key [key f],
   added by [make] on first sight; a run of equal keys skips the lookup *)
let keyed (type k) (module H : Hashtbl.S with type key = k) equal (key : frame -> k) make () =
  let tbl = H.create 16 and last = ref None in
  fun f ->
    let k = key f in
    match !last with
    | Some (k', v) when equal k k' -> v
    | _ ->
        let v =
          match H.find_opt tbl k with
          | Some v -> v
          | None ->
              let v = make k in
              H.add tbl k v;
              v
        in
        last := Some (k, v);
        v

type agg_state = {
  mutable count : int;
  mutable sum_i : int;
  mutable sum_f : float;
  mutable saw_float : bool;
  mutable minv : Value.t;
  mutable maxv : Value.t;
}

let new_agg_state _ =
  { count = 0; sum_i = 0; sum_f = 0.0; saw_float = false; minv = Value.Null; maxv = Value.Null }

let agg_feed st (v : Value.t) =
  if not (Value.is_null v) then begin
    st.count <- st.count + 1;
    (match v with
    | Value.Int i -> st.sum_i <- st.sum_i + i
    | Value.Float f -> (st.saw_float <- true; st.sum_f <- st.sum_f +. f)
    | Value.Str _ | Value.Bytes _ | Value.Null -> ());
    if Value.is_null st.minv || Value.compare v st.minv < 0 then st.minv <- v;
    if Value.is_null st.maxv || Value.compare v st.maxv > 0 then st.maxv <- v
  end

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

(* an index range from compiled key and bound expressions, encoded in
   scratch of the probe's own, its constant key parts encoded once *)
let probe_range l key lo hi =
  let bound = Option.map (fun (p : Plan.probe_bound) -> { p with Plan.bound = expr l p.bound }) in
  let fixed = function
    | Expr.Const v when not (Value.is_null v) -> Some (Key.encode [| v |])
    | _ -> None
  in
  Plan.probe_range ( @@ ) (Plan.probe_scratch (Array.map fixed key)) (Array.map (expr l) key)
    ~lo:(bound lo) ~hi:(bound hi)

(* Row, loop and time counters around [op]: time is spent inside the
   operator and below it, without the time its consumer takes. *)
let profiled pr (op : op) : op =
 fun f stop k ->
  pr.prof_loops <- pr.prof_loops + 1;
  let t0 = Obs.Clock.now_ns () and above = ref 0L in
  op f stop (fun () ->
      pr.prof_rows <- pr.prof_rows + 1;
      let t1 = Obs.Clock.now_ns () in
      k ();
      above := Int64.add !above (Int64.sub (Obs.Clock.now_ns ()) t1));
  pr.prof_ns <- Int64.add pr.prof_ns (Int64.sub (Int64.sub (Obs.Clock.now_ns ()) t0) !above)

let rec compile cx (p : Plan.t) : layout * op * prof =
  let l, op, children = compile_op cx p in
  let label = if cx.profile then Plan.label p else "" in
  let pr =
    { prof_label = label; prof_children = children; prof_rows = 0; prof_loops = 0; prof_ns = 0L }
  in
  (l, (if cx.profile then profiled pr op else op), pr)

and compile_op cx p =
  match p with
  | Plan.Seq_scan t ->
      let s = new_slot cx in
      let op f stop k =
        Table.iter t ~stop (fun rowid tu ->
            cx.rowid <- rowid;
            f.(s) <- tu;
            k ())
      in
      (whole s (Schema.arity (Table.schema t)), op, [])
  | Plan.Index_scan { table; index; range; reverse } ->
      let s = new_slot cx in
      let range =
        match range with
        | Plan.Non_null -> fun _ -> Some Plan.non_null
        | Plan.Probe { key; lo; hi } -> probe_range no_cols key lo hi
      in
      let hint = Btree.hint () in
      let op f stop k =
        Option.iter
          (fun (lo, hi) ->
            Btree.iter ~hint index.Table.tree ~lo ~hi ~reverse (fun _ rowid ->
                (not !stop) && (read cx table s f k rowid; true)))
          (range f)
      in
      (whole s (Schema.arity (Table.schema table)), op, [])
  | Plan.Filter (e, input) ->
      let l, iop, ipr = compile cx input in
      let keep = pred l (Some e) in
      (l, (fun f stop k -> iop f stop (fun () -> if keep f then k ())), [ ipr ])
  | Plan.Project (cols, input) ->
      let l, iop, ipr = compile cx input in
      let s = new_slot cx in
      let col = function Expr.Col i, _ when i >= 0 && i < arity l -> Some i | _ -> None in
      let build =
        match Array.map col cols with
        (* a projection of plain columns is an index copy *)
        | plain when Array.for_all Option.is_some plain ->
            copy (pick l (Array.map Option.get plain))
        | _ ->
            let es = Array.map (fun (e, _) -> expr l e) cols in
            fun f -> Array.map (fun e -> e f) es
      in
      let op f stop k =
        iop f stop (fun () ->
            f.(s) <- build f;
            k ())
      in
      (whole s (Array.length cols), op, [ ipr ])
  | Plan.Nl_join { outer; inner; pred = on } ->
      let ol, oop, opr = compile cx outer in
      let il, iop, ipr = compile cx inner in
      let si = new_slot cx in
      let l = join ol (whole si (arity il)) in
      let keep = pred l on and row = flatten il in
      let op f stop k =
        (* the inner side is read once, before the outer side opens *)
        let rows = collect iop row f and k () = if keep f then k () in
        oop f stop (fun () -> emit f stop k si rows)
      in
      (l, op, [ opr; ipr ])
  | Plan.Index_nl_join { outer; table; index; key; lo; hi; residual; cap; reverse } ->
      let ol, oop, opr = compile cx outer in
      let si = new_slot cx in
      let l = join ol (whole si (Schema.arity (Table.schema table))) in
      let range = probe_range ol key lo hi in
      let keep = pred l residual and cap = Option.map (expr no_cols) cap in
      let hint = Btree.hint () in
      let op f stop k =
        (* offset + limit past max_int wraps below 0: no cap *)
        let cap =
          match Option.map (fun c -> c f) cap with
          | Some (Value.Int n) when n >= 0 -> n
          | _ -> max_int
        in
        let passed = ref 0 in
        let k () =
          if keep f then begin
            incr passed;
            k ()
          end
        in
        (* a probe reads no index entry past its cap-th row *)
        let visit _ rowid = !passed < cap && (not !stop) && (read cx table si f k rowid; true) in
        oop f stop (fun () ->
            match range f with
            | None -> ()
            | Some (lo, hi) ->
                passed := 0;
                Btree.iter ~hint index.Table.tree ~lo ~hi ~reverse visit)
      in
      (l, op, [ opr ])
  | Plan.Hash_join { left; right; left_key; right_key; residual } ->
      let ll, lop, lpr = compile cx left in
      let rl, rop, rpr = compile cx right in
      let sl = new_slot cx in
      let l = join (whole sl (arity ll)) rl in
      let keep = pred l residual and row = flatten ll in
      let lkey = copy (pick ll left_key) and rkey = copy (pick rl right_key) in
      let op f stop k =
        let table = Rows.create 64 and k () = if keep f then k () in
        lop f (ref false) (fun () ->
            let key = lkey f in
            if not (Array.exists Value.is_null key) then Rows.add table key (row f));
        rop f stop (fun () ->
            let key = rkey f in
            (* the build rows in build order *)
            if not (Array.exists Value.is_null key) then
              emit f stop k sl (List.rev (Rows.find_all table key)))
      in
      (l, op, [ lpr; rpr ])
  | Plan.Sort { input; keys } ->
      let il, iop, ipr = compile cx input in
      (il, sort_op il keys iop, [ ipr ])
  | Plan.Ordered { input; _ } ->
      let il, iop, ipr = compile cx input in
      (il, iop, [ ipr ])
  | Plan.Distinct input ->
      let il, iop, ipr = compile cx input in
      let row = flatten il in
      let op f stop k =
        (* a row equal to the one before it needs no lookup *)
        let seen = Hashes.create 64 and last = ref [||] in
        iop f stop (fun () ->
            let r = row f in
            if not (Tuple.equal r !last) then begin
              last := r;
              let h = Tuple.hash_key r in
              if not (List.exists (Tuple.equal r) (Hashes.find_all seen h)) then begin
                Hashes.add seen h r;
                k ()
              end
            end)
      in
      (il, op, [ ipr ])
  | Plan.Aggregate { input; group_by; aggs } ->
      let il, iop, ipr = compile cx input in
      let s = new_slot cx in
      let gkey = Array.map (fun (e, _) -> expr il e) group_by in
      let args = Array.map (fun (a, _) -> Option.map (expr il) (agg_expr a)) aggs in
      let fresh key = (key, ref 0, Array.map new_agg_state aggs) in
      let finalize (key, star, states) =
        Array.append key (Array.mapi (fun i (agg, _) -> agg_result agg !star states.(i)) aggs)
      in
      let op f stop k =
        let order = ref [] in
        let group =
          keyed (module Rows) Tuple.equal (fun f -> Array.map (fun e -> e f) gkey) (fun key ->
              let g = fresh key in
              order := g :: !order;
              g) ()
        in
        iop f (ref false) (fun () ->
            let _, star, states = group f in
            incr star;
            Array.iteri (fun i e -> Option.iter (fun e -> agg_feed states.(i) (e f)) e) args);
        let groups =
          match List.rev !order with
          (* global aggregate over an empty input still yields one row *)
          | [] when group_by = [||] -> [ fresh [||] ]
          | groups -> groups
        in
        emit f stop k s (List.map finalize groups)
      in
      (whole s (Array.length group_by + Array.length aggs), op, [ ipr ])
  | Plan.Limit { input; limit; offset; by } ->
      let il, iop, ipr = compile cx input in
      let offset = count "OFFSET" offset and limit = Option.map (count "LIMIT") limit in
      let limit f = match limit with None -> max_int | Some n -> n f in
      let op =
        if by = [||] then fun f stop k ->
          let offset = offset f and limit = limit f in
          (* the input's own stop: set after the last row, or once the
             consumer stops *)
          let finished = ref (!stop || limit = 0) and seen = ref 0 in
          iop f finished (fun () ->
              incr seen;
              if !seen > offset then begin
                k ();
                if !stop || !seen - offset >= limit then finished := true
              end)
        else
          (* rows seen so far per BY key *)
          let counter =
            match Array.map (expr il) by with
            | [| e |] -> keyed (module Vals) Value.equal e (fun _ -> ref 0)
            | es ->
                keyed (module Rows) Tuple.equal (fun f -> Array.map (fun e -> e f) es) (fun _ -> ref 0)
          in
          fun f stop k ->
            let offset = offset f and limit = limit f and seen = counter () in
            iop f stop (fun () ->
                let n = seen f in
                incr n;
                if !n > offset && !n - offset <= limit then k ())
      in
      (il, op, [ ipr ])
  | Plan.Union_all branches ->
      let branches = List.map (compile cx) branches in
      let s = new_slot cx in
      let n = match branches with [] -> 0 | (l, _, _) :: _ -> arity l in
      let pushes = List.map (fun (l, op, _) -> (op, flatten l)) branches in
      let op f stop k =
        List.iter
          (fun (op, row) ->
            (* a branch opens only while rows are still wanted *)
            if not !stop then
              op f stop (fun () ->
                  f.(s) <- row f;
                  k ()))
          pushes
      in
      (whole s n, op, List.map (fun (_, _, pr) -> pr) branches)

type t = { cx : cx; root : op; row : frame -> Tuple.t; prof : prof }

let compile_with ~profile p =
  let cx = { slots = 1; rowid = -1; profile } in
  let l, root, prof = compile cx p in
  { cx; root; row = flatten l; prof }

let compile p = compile_with ~profile:false p

(* one execution: a fresh frame with the bound values in slot 0 *)
let execute t params out =
  let f = Array.make t.cx.slots [||] in
  f.(0) <- params;
  collect t.root out f

let run t params = execute t params t.row
let run_list p = run (compile p) [||]
let row_count p = List.length (run_list p)

let rec access_path = function
  | Plan.Seq_scan _ | Plan.Index_scan _ -> true
  | Plan.Filter (_, p) | Plan.Limit { input = p; limit = Some (Expr.Const (Value.Int 0)); _ } ->
      access_path p
  | _ -> false

let rows_with_ids p =
  if not (access_path p) then
    raise (Exec_error ("not a single-table access path: " ^ Plan.label p));
  let t = compile p in
  fun params -> execute t params (fun f -> (t.cx.rowid, t.row f))

let run_profiled p params =
  let t = compile_with ~profile:true p in
  (run t params, t.prof)

let rec pp_prof_indent ppf (level, pr) =
  Format.fprintf ppf "%s%s (actual rows=%d loops=%d time=%.3f ms)@."
    (String.make (level * 2) ' ')
    pr.prof_label pr.prof_rows pr.prof_loops
    (Int64.to_float pr.prof_ns /. 1e6);
  List.iter (fun c -> pp_prof_indent ppf (level + 1, c)) pr.prof_children

let pp_prof ppf pr = pp_prof_indent ppf (0, pr)
