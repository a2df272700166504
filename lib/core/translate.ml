module A = Xpath_ast
module V = Reldb.Value

let log_src = Logs.Src.create "ordered_xml.translate" ~doc:"XPath-to-SQL translation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  rows : Node_row.t list;
  statements : int;
  sql_log : string list;
}

exception Unsupported of string

(* LOCAL's parent-chain cache, one per evaluation call: every edge row the
   call has fetched, and the root-path keys computed from them. *)
type chains = {
  rows : (int, Node_row.t) Hashtbl.t;
  keys : (int, int list) Hashtbl.t;
}

type state = {
  db : Reldb.Db.t;
  enc : Encoding.t;
  tname : string;
  chains : chains option;  (* LOCAL only *)
  mutable nstmt : int;
  mutable log : string list;  (* reversed *)
}

let new_state db ~doc enc =
  let chains =
    match enc with
    | Encoding.Local ->
        Some { rows = Hashtbl.create 64; keys = Hashtbl.create 64 }
    | _ -> None
  in
  { db; enc; tname = Encoding.table_name ~doc enc; chains; nstmt = 0; log = [] }

let run_sql st sql =
  st.nstmt <- st.nstmt + 1;
  st.log <- sql :: st.log;
  Log.debug (fun m -> m "%s" sql);
  Reldb.Db.query st.db sql

let remember st (r : Node_row.t) =
  match st.chains with
  | Some c -> Hashtbl.replace c.rows r.Node_row.id r
  | None -> ()

let decode st tu =
  let r = Node_row.of_tuple st.enc tu in
  remember st r;
  r

(* Queries return (edge row, ctx id): the context id comes last, after the
   columns Node_row.of_tuple reads. *)
let tagged_rows st sql =
  List.map
    (fun tu ->
      let ctx =
        match tu.(Array.length tu - 1) with
        | V.Int i -> i
        | v -> invalid_arg ("Translate: bad ctx id " ^ V.to_string v)
      in
      (ctx, decode st tu))
    (run_sql st sql)

let plain_rows st sql = List.map (decode st) (run_sql st sql)

(* ------------------------------------------------------------------ *)
(* SQL fragments                                                       *)
(* ------------------------------------------------------------------ *)

let test_cond alias axis (test : A.node_test) =
  let kind op k = Printf.sprintf "%s.kind %s %d" alias op k in
  let tagged k n =
    Printf.sprintf "%s AND %s.tag = %s" (kind "=" k) alias
      (V.to_sql_literal (V.Str n))
  in
  match (axis, test) with
  | A.Attribute, A.Name n -> tagged 2 n
  | A.Attribute, (A.Any_name | A.Node_test) -> kind "=" 2
  | A.Attribute, (A.Text_test | A.Comment_test) -> kind "=" 9 (* empty *)
  | _, A.Name n -> tagged 0 n
  | _, A.Any_name -> kind "=" 0
  | _, A.Text_test -> kind "=" 1
  | _, A.Comment_test -> kind "=" 3
  | _, A.Node_test -> kind "<>" 2

(* WHERE fragment implementing the axis from the context row [c] (see
   Node_row.ctx_relation); [None] when the axis is not SQL-expressible under
   the encoding and must be handled by the middle tier (LOCAL document-order
   axes). *)
let axis_cond enc (axis : A.axis) =
  match (enc, axis) with
  | _, A.Child -> Some "e.parent = c.id AND e.kind <> 2"
  | _, A.Attribute -> Some "e.parent = c.id"
  | _, A.Parent -> Some "e.id = c.parent"
  | (Encoding.Global | Encoding.Global_gap), A.Descendant ->
      Some "e.g_order > c.g_order AND e.g_order < c.g_end AND e.kind <> 2"
  | (Encoding.Global | Encoding.Global_gap), A.Following_sibling ->
      Some "e.parent = c.parent AND e.g_order > c.g_order AND e.kind <> 2"
  | (Encoding.Global | Encoding.Global_gap), A.Preceding_sibling ->
      Some "e.parent = c.parent AND e.g_order < c.g_order AND e.kind <> 2"
  | (Encoding.Global | Encoding.Global_gap), A.Following ->
      Some "e.g_order > c.g_end AND e.kind <> 2"
  | (Encoding.Global | Encoding.Global_gap), A.Preceding ->
      Some "e.g_end < c.g_order AND e.kind <> 2"
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), A.Descendant ->
      Some "e.path > c.path AND e.path < c.path_ub AND e.kind <> 2"
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), A.Following_sibling ->
      Some "e.parent = c.parent AND e.path > c.path AND e.kind <> 2"
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), A.Preceding_sibling ->
      Some "e.parent = c.parent AND e.path < c.path AND e.kind <> 2"
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), A.Following ->
      Some "e.path >= c.path_ub AND e.kind <> 2"
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), A.Preceding ->
      (* ancestors (path prefixes) are filtered in the middle tier *)
      Some "e.path < c.path AND e.kind <> 2"
  | Encoding.Local, A.Following_sibling ->
      Some "e.parent = c.parent AND e.l_order > c.l_order AND e.l_order > 0"
  | Encoding.Local, A.Preceding_sibling ->
      Some "e.parent = c.parent AND e.l_order < c.l_order AND e.l_order > 0"
  | (Encoding.Global | Encoding.Global_gap), A.Ancestor ->
      (* strict interval containment *)
      Some "e.g_order < c.g_order AND e.g_end > c.g_end"
  | Encoding.Local, (A.Descendant | A.Following | A.Preceding) -> None
  | (Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret), A.Ancestor -> None
  | _, (A.Self | A.Descendant_or_self | A.Ancestor_or_self) -> None

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(* One statement joining the edge table [e] with the context relation [c]
   filled with [ctx] for its duration; rows come back tagged with c.id. *)
let ctx_join st rel ctx where =
  Node_row.with_relation st.db rel ctx (fun () ->
      tagged_rows st
        (Printf.sprintf "SELECT %s, c.id FROM %s e, %s c WHERE %s"
           (Node_row.select_list st.enc "e")
           st.tname rel.Node_row.rel_name where))

let is_reverse_axis = function
  | A.Preceding | A.Preceding_sibling | A.Ancestor | A.Ancestor_or_self -> true
  | _ -> false

(* A name-tested child or sibling step whose first predicate is [1] (or
   [position() = 1]) or [last()] wants one row per context: the first or
   last of its (parent, tag, order) probe. [Some desc] says which end, in
   document order; the statement then keeps that row alone and the
   predicate leaves middle-tier ranking. Other positions stay in the middle
   tier, so that no statement text carries a position but 1. *)
let probe_end (step : A.step) =
  match (step.A.axis, step.A.test, step.A.preds) with
  | ( (A.Child | A.Following_sibling | A.Preceding_sibling),
      A.Name _,
      ((A.P_pos (A.Eq, 1) | A.P_last) as p) :: _ ) ->
      Some ((p = A.P_last) <> is_reverse_axis step.A.axis)
  | _ -> None

(* Run the axis+test SQL for the context rows, tagging results with the
   producing context id. *)
let sql_candidates st ctx_rows (step : A.step) =
  let axis = step.A.axis in
  match axis_cond st.enc axis with
  | None -> raise (Unsupported "axis has no SQL form under this encoding")
  | Some cond ->
      let one_row =
        match probe_end step with
        | None -> ""
        | Some desc ->
            Printf.sprintf " ORDER BY e.%s%s LIMIT 1 BY c.id"
              (Encoding.order_col st.enc)
              (if desc then " DESC" else "")
      in
      ctx_join st (Node_row.ctx_relation st.enc)
        (List.map Node_row.ctx_tuple ctx_rows)
        (cond ^ " AND " ^ test_cond "e" axis step.A.test ^ one_row)

let test_passes axis (test : A.node_test) (r : Node_row.t) =
  let k = r.Node_row.kind in
  match (axis, test) with
  | A.Attribute, A.Name n -> k = Doc_index.Attr && r.Node_row.tag = n
  | A.Attribute, (A.Any_name | A.Node_test) -> k = Doc_index.Attr
  | A.Attribute, (A.Text_test | A.Comment_test) -> false
  | _, A.Name n -> k = Doc_index.Elem && r.Node_row.tag = n
  | _, A.Any_name -> k = Doc_index.Elem
  | _, A.Text_test -> k = Doc_index.Text_node
  | _, A.Comment_test -> k = Doc_index.Comment_node
  | _, A.Node_test -> k <> Doc_index.Attr

(* ---- LOCAL middle-tier machinery --------------------------------- *)

let id_tuples ids = List.map (fun i -> [| V.Int i |]) ids

(* Fetch rows by id: one join with the id relation, probing the id index. *)
let fetch_by_ids st ids =
  match List.sort_uniq compare ids with
  | [] -> []
  | ids ->
      List.map snd
        (ctx_join st Node_row.ids_relation (id_tuples ids) "e.id = c.id")

(* A LOCAL row's document-order key is its root path: the l_order values
   from the root down. Attributes have l_order <= 0, so they sort after
   their owner element and before its children. A key's proper prefixes are
   exactly the keys of the row's ancestors. *)
let rec compare_key a b =
  match (a, b) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: a, y :: b ->
      let c = Int.compare x y in
      if c <> 0 then c else compare_key a b

let rec is_prefix p k =
  match (p, k) with
  | [], _ -> true
  | _, [] -> false
  | x :: p, y :: k -> x = y && is_prefix p k

let chains st =
  match st.chains with
  | Some c -> c
  | None -> invalid_arg "Translate: parent chains are LOCAL-only"

(* Make the parent chains of [rows] complete in the query's cache: only
   ancestors no statement has fetched yet are fetched, one join per level.
   Returns the key function, which reads the cache and memoizes. *)
let local_order_keys st (rows : Node_row.t list) =
  let c = chains st in
  List.iter (remember st) rows;
  let seen = Hashtbl.create 64 in
  (* parent ids missing from the cache on r's chain *)
  let rec climb missing (r : Node_row.t) =
    if Hashtbl.mem c.keys r.Node_row.id || Hashtbl.mem seen r.Node_row.id then
      missing
    else begin
      Hashtbl.add seen r.Node_row.id ();
      match r.Node_row.parent with
      | None -> missing
      | Some p -> (
          match Hashtbl.find_opt c.rows p with
          | Some pr -> climb missing pr
          | None -> p :: missing)
    end
  in
  let rec fill level =
    match List.fold_left climb [] level with
    | [] -> ()
    | missing -> fill (fetch_by_ids st missing)
  in
  fill rows;
  let rec key id =
    match Hashtbl.find_opt c.keys id with
    | Some k -> k
    | None ->
        let k =
          match Hashtbl.find_opt c.rows id with
          | None -> []
          | Some r -> (
              let o = match r.Node_row.ord with Node_row.Ol o -> o | _ -> 0 in
              match r.Node_row.parent with
              | None -> [ o ]
              | Some p -> key p @ [ o ])
        in
        Hashtbl.replace c.keys id k;
        k
  in
  fun (r : Node_row.t) -> key r.Node_row.id

(* LOCAL descendants, breadth-first: one join per level over the frontier's
   distinct ids. Returns (ctx id, row) pairs. *)
let local_descendants st ctx_rows =
  let rec go acc frontier =
    if frontier = [] then acc
    else begin
      let ids =
        List.sort_uniq compare
          (List.map (fun (_, (r : Node_row.t)) -> r.Node_row.id) frontier)
      in
      let by_parent = Hashtbl.create 64 in
      List.iter
        (fun (p, row) -> Hashtbl.add by_parent p row)
        (ctx_join st Node_row.ids_relation (id_tuples ids)
           "e.parent = c.id AND e.kind <> 2");
      let next =
        List.concat_map
          (fun (origin, (r : Node_row.t)) ->
            List.map
              (fun kid -> (origin, kid))
              (Hashtbl.find_all by_parent r.Node_row.id))
          frontier
      in
      go (List.rev_append next acc) next
    end
  in
  go [] (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) ctx_rows)

(* LOCAL following/preceding: fetch the rows passing the node test, key
   them and their ancestors, and sort them once. following(c) is the run
   after c's subtree; preceding(c) is the run before c minus c's ancestors
   (the prefixes of its key, the owner of an attribute included). *)
let local_doc_order st ctx_rows (step : A.step) =
  let cands =
    plain_rows st
      (Printf.sprintf "SELECT %s FROM %s e WHERE %s"
         (Node_row.select_list st.enc "e")
         st.tname
         (test_cond "e" step.A.axis step.A.test))
  in
  let key = local_order_keys st (ctx_rows @ cands) in
  let sorted = Array.of_list (List.map (fun r -> (key r, r)) cands) in
  Array.stable_sort (fun (a, _) (b, _) -> compare_key a b) sorted;
  let n = Array.length sorted in
  (* first index whose key satisfies [p], monotone over the sorted keys *)
  let first p =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if p (fst sorted.(mid)) then go lo mid else go (mid + 1) hi
    in
    go 0 n
  in
  let pairs =
    List.concat_map
      (fun (c : Node_row.t) ->
        let kc = key c in
        let pair (_, r) = (c.Node_row.id, r) in
        match step.A.axis with
        | A.Following ->
            let i =
              first (fun k -> compare_key k kc > 0 && not (is_prefix kc k))
            in
            List.init (n - i) (fun j -> pair sorted.(i + j))
        | _ ->
            let i = first (fun k -> compare_key k kc >= 0) in
            List.filter_map
              (fun (k, _ as e) -> if is_prefix k kc then None else Some (pair e))
              (Array.to_list (Array.sub sorted 0 i)))
      ctx_rows
  in
  (pairs, Some key)

(* ------------------------------------------------------------------ *)
(* Step evaluation                                                     *)
(* ------------------------------------------------------------------ *)

module IdSet = Set.Make (Int)

let dedup_rows rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (r : Node_row.t) ->
      if Hashtbl.mem seen r.Node_row.id then false
      else begin
        Hashtbl.add seen r.Node_row.id ();
        true
      end)
    rows

let dedup_pairs pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (o, (r : Node_row.t)) ->
      if Hashtbl.mem seen (o, r.Node_row.id) then false
      else begin
        Hashtbl.add seen (o, r.Node_row.id) ();
        true
      end)
    pairs

(* Candidates for one step from a deduplicated context row list. Returns
   (ctx id, row) pairs plus an optional doc-order key function used to sort
   groups when the row's own ord is not a document order (LOCAL descendants). *)
let rec step_candidates st ctx_rows (step : A.step) :
    (int * Node_row.t) list * (Node_row.t -> int list) option =
  let self_pairs () =
    List.filter_map
      (fun (r : Node_row.t) ->
        if test_passes step.A.axis step.A.test r then Some (r.Node_row.id, r)
        else None)
      ctx_rows
  in
  match step.A.axis with
  | A.Self -> (self_pairs (), None)
  | A.Ancestor_or_self ->
      let self =
        List.filter_map
          (fun (r : Node_row.t) ->
            if test_passes A.Child step.A.test r then Some (r.Node_row.id, r)
            else None)
          ctx_rows
      in
      let anc, keys =
        step_candidates st ctx_rows { step with A.axis = A.Ancestor }
      in
      (* reverse-axis sorting puts self before its ancestors; LOCAL's key
         function covers the self rows, whose chains it completed *)
      (self @ anc, keys)
  | A.Ancestor when st.enc = Encoding.Dewey_enc || st.enc = Encoding.Dewey_caret ->
      (* every ancestor's path is a proper prefix of the context's path:
         one join of the path index with (ctx id, prefix) rows (prefixes
         that are no node — carets — simply match nothing) *)
      let prefixes =
        List.concat_map
          (fun (c : Node_row.t) ->
            let path = Node_row.dewey c in
            List.init
              (max 0 (Array.length path - 1))
              (fun i ->
                [|
                  V.Int c.Node_row.id; V.Null;
                  V.Bytes (Dewey.encode (Array.sub path 0 (i + 1))); V.Null;
                |]))
          ctx_rows
      in
      let pairs =
        if prefixes = [] then []
        else
          ctx_join st (Node_row.ctx_relation st.enc) prefixes
            ("e.path = c.path AND " ^ test_cond "e" step.A.axis step.A.test)
      in
      (pairs, None)
  | A.Ancestor when st.enc = Encoding.Local ->
      (* complete the context rows' chains, then walk them in the cache *)
      let key = local_order_keys st ctx_rows in
      let c = chains st in
      let rec up ctx acc = function
        | None -> acc
        | Some p -> (
            match Hashtbl.find_opt c.rows p with
            | None -> acc
            | Some row ->
                let acc =
                  if test_passes step.A.axis step.A.test row then
                    (ctx, row) :: acc
                  else acc
                in
                up ctx acc row.Node_row.parent)
      in
      ( List.concat_map
          (fun (r : Node_row.t) -> up r.Node_row.id [] r.Node_row.parent)
          ctx_rows,
        Some key )
  | A.Descendant_or_self ->
      let self =
        List.filter_map
          (fun (r : Node_row.t) ->
            if test_passes A.Child step.A.test r then Some (r.Node_row.id, r)
            else None)
          ctx_rows
      in
      let desc, keys =
        step_candidates st ctx_rows { step with A.axis = A.Descendant }
      in
      (* self sorts before its descendants under both ord and key sorting *)
      (self @ desc, keys)
  | A.Descendant when st.enc = Encoding.Local ->
      let pairs =
        List.filter
          (fun (_, row) -> test_passes step.A.axis step.A.test row)
          (local_descendants st ctx_rows)
      in
      (* positional predicates need each group in document order; every
         descendant's chain runs through a context row, so completing the
         context rows' chains keys them all *)
      (pairs, Some (local_order_keys st ctx_rows))
  | (A.Following | A.Preceding) when st.enc = Encoding.Local ->
      if ctx_rows = [] then ([], None) else local_doc_order st ctx_rows step
  | axis ->
      (* SQL-expressible axes *)
      let ctx_rows =
        (* sibling and document-order axes are empty from attribute nodes,
           except following/preceding which are well-defined *)
        match axis with
        | A.Following_sibling | A.Preceding_sibling ->
            List.filter
              (fun (r : Node_row.t) -> r.Node_row.kind <> Doc_index.Attr)
              ctx_rows
        | _ -> ctx_rows
      in
      if ctx_rows = [] then ([], None)
      else begin
        let pairs = sql_candidates st ctx_rows step in
        (* DEWEY preceding fetched ancestors too: drop path prefixes of ctx *)
        let pairs =
          if (st.enc = Encoding.Dewey_enc || st.enc = Encoding.Dewey_caret)
             && axis = A.Preceding
          then begin
            let ctx_path =
              List.fold_left
                (fun m (r : Node_row.t) ->
                  match r.Node_row.ord with
                  | Node_row.Od p -> (r.Node_row.id, p) :: m
                  | _ -> m)
                [] ctx_rows
            in
            List.filter
              (fun (ctx, (r : Node_row.t)) ->
                match (List.assoc_opt ctx ctx_path, r.Node_row.ord) with
                | Some cp, Node_row.Od rp ->
                    not
                      (String.length rp < String.length cp
                      && String.sub cp 0 (String.length rp) = rp)
                | _ -> true)
              pairs
          end
          else pairs
        in
        (pairs, None)
      end

(* ---- predicates --------------------------------------------------- *)

let number_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> Float.nan

let cmp_op (op : A.cmp) c =
  match op with
  | A.Eq -> c = 0
  | A.Ne -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0

let num_cmp op a b =
  if Float.is_nan a || Float.is_nan b then false
  else cmp_op op (Stdlib.compare a b)

let value_matches (op : A.cmp) (lit : A.literal) sv =
  match lit with
  | A.L_num f -> num_cmp op (number_of_string sv) f
  | A.L_str s -> begin
      match op with
      | A.Eq | A.Ne -> cmp_op op (String.compare sv s)
      | A.Lt | A.Le | A.Gt | A.Ge ->
          num_cmp op (number_of_string sv) (number_of_string s)
    end

(* Evaluate a relative path from origin rows; returns (origin id, row). *)
let rec eval_rel st (origins : Node_row.t list) (steps : A.step list) :
    (int * Node_row.t) list =
  let start = List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) origins in
  List.fold_left (fun pairs step -> eval_one_step st pairs step) start steps

(* One step over (origin, ctx row) pairs: dedupe contexts, fetch candidates,
   order per group, apply predicates, rebind to origins. *)
and eval_one_step st pairs (step : A.step) =
  let ctx_rows = dedup_rows (List.map snd pairs) in
  (* ctx id -> origins *)
  let origins_of : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (o, (r : Node_row.t)) ->
      let cur = try Hashtbl.find origins_of r.Node_row.id with Not_found -> [] in
      if not (List.mem o cur) then Hashtbl.replace origins_of r.Node_row.id (o :: cur))
    pairs;
  let cands, keyfn = step_candidates st ctx_rows step in
  (* group by ctx id, preserving candidate order *)
  let group_order = ref [] in
  let groups : (int, (int * Node_row.t) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ctx, row) ->
      match Hashtbl.find_opt groups ctx with
      | Some cell -> cell := (ctx, row) :: !cell
      | None ->
          group_order := ctx :: !group_order;
          Hashtbl.add groups ctx (ref [ (ctx, row) ]))
    cands;
  let reverse = is_reverse_axis step.A.axis in
  let sort_group rows =
    let cmp (_, a) (_, b) =
      match keyfn with
      | Some key -> compare_key (key a) (key b)
      | None -> Node_row.compare_ord a b
    in
    let sorted = List.stable_sort cmp rows in
    if reverse then List.rev sorted else sorted
  in
  (* a position the statement applied is not ranked again *)
  let preds =
    if probe_end step = None then step.A.preds else List.tl step.A.preds
  in
  (* batched evaluation of path sub-predicates over all candidates *)
  let all_cand_rows = dedup_rows (List.map snd cands) in
  let path_sets = eval_path_preds st all_cand_rows preds in
  let out = ref [] in
  List.iter
    (fun ctx ->
      let rows = sort_group (List.rev !(Hashtbl.find groups ctx)) in
      let rows = List.map snd rows in
      let filtered =
        List.fold_left (fun rows p -> apply_pred st path_sets rows p) rows preds
      in
      let origins = try Hashtbl.find origins_of ctx with Not_found -> [] in
      List.iter
        (fun (r : Node_row.t) ->
          List.iter (fun o -> out := (o, r) :: !out) origins)
        filtered)
    (List.rev !group_order);
  dedup_pairs (List.rev !out)

(* Evaluate all P_exists / P_cmp subterms of the predicates, batched over
   every candidate row; returns an assoc list keyed by physical identity. *)
and eval_path_preds st cand_rows preds =
  let sets = ref [] in
  let rec walk (p : A.predicate) =
    match p with
    | A.P_exists path ->
        let sat = eval_exists st cand_rows path in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_cmp (path, op, lit) ->
        let sat = eval_cmp st cand_rows path op lit in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_count (path, op, k) ->
        let sat = eval_count st cand_rows path op k in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_and (a, b) | A.P_or (a, b) ->
        walk a;
        walk b
    | A.P_not a -> walk a
    | A.P_pos _ | A.P_last -> ()
  in
  List.iter walk preds;
  !sets

and eval_exists st origins (path : A.path) =
  let pairs = eval_rel st origins path.A.steps in
  List.fold_left (fun s (o, _) -> IdSet.add o s) IdSet.empty pairs

and eval_count st origins (path : A.path) op k =
  let pairs = eval_rel st origins path.A.steps in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun ((o, _) : int * Node_row.t) ->
      Hashtbl.replace counts o (1 + Option.value (Hashtbl.find_opt counts o) ~default:0))
    pairs;
  List.fold_left
    (fun s (r : Node_row.t) ->
      let n = Option.value (Hashtbl.find_opt counts r.Node_row.id) ~default:0 in
      if cmp_op op (Stdlib.compare n k) then IdSet.add r.Node_row.id s else s)
    IdSet.empty origins

and eval_cmp st origins (path : A.path) op lit =
  let pairs = eval_rel st origins path.A.steps in
  (* element results compare via their text children (data-centric
     string-value; see interface documentation) *)
  let elems, direct =
    List.partition
      (fun ((_, r) : int * Node_row.t) -> r.Node_row.kind = Doc_index.Elem)
      pairs
  in
  let sat = ref IdSet.empty in
  List.iter
    (fun ((o, r) : int * Node_row.t) ->
      if value_matches op lit r.Node_row.value then sat := IdSet.add o !sat)
    direct;
  if elems <> [] then begin
    let elem_rows = dedup_rows (List.map snd elems) in
    let text_step = { A.axis = A.Child; test = A.Text_test; preds = [] } in
    let texts = eval_one_step st (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) elem_rows) text_step in
    (* element id -> passes? *)
    let elem_pass = Hashtbl.create 16 in
    List.iter
      (fun ((eid, (t : Node_row.t)) : int * Node_row.t) ->
        if value_matches op lit t.Node_row.value then
          Hashtbl.replace elem_pass eid ())
      texts;
    List.iter
      (fun ((o, r) : int * Node_row.t) ->
        if Hashtbl.mem elem_pass r.Node_row.id then sat := IdSet.add o !sat)
      elems
  end;
  !sat

and apply_pred st path_sets rows (p : A.predicate) =
  let last = List.length rows in
  let rec holds pos (r : Node_row.t) (p : A.predicate) =
    match p with
    | A.P_pos (op, k) -> cmp_op op (Stdlib.compare pos k)
    | A.P_last -> pos = last
    | A.P_exists _ | A.P_cmp _ | A.P_count _ -> begin
        match List.assq_opt (Obj.repr p) path_sets with
        | Some set -> IdSet.mem r.Node_row.id set
        | None -> false
      end
    | A.P_and (a, b) -> holds pos r a && holds pos r b
    | A.P_or (a, b) -> holds pos r a || holds pos r b
    | A.P_not a -> not (holds pos r a)
  in
  ignore st;
  List.filteri (fun i r -> holds (i + 1) r p) rows

(* ---- first step from the document root ---------------------------- *)

let initial_candidates st (step : A.step) =
  let tc = test_cond "e" step.A.axis step.A.test in
  match step.A.axis with
  | A.Child ->
      plain_rows st
        (Printf.sprintf
           "SELECT %s FROM %s e WHERE e.parent IS NULL AND %s"
           (Node_row.select_list st.enc "e") st.tname tc)
  | A.Descendant | A.Descendant_or_self ->
      plain_rows st
        (Printf.sprintf "SELECT %s FROM %s e WHERE e.kind <> 2 AND %s"
           (Node_row.select_list st.enc "e") st.tname tc)
  | _ -> []

(* sort candidates into document order for positional predicates *)
let doc_sort st rows =
  match st.enc with
  | Encoding.Local ->
      let key = local_order_keys st rows in
      List.stable_sort (fun a b -> compare_key (key a) (key b)) rows
  | _ -> List.stable_sort Node_row.compare_ord rows

let eval_path st (path : A.path) =
  match path.A.steps with
  | [] -> []
  | first :: rest ->
      let cands = doc_sort st (initial_candidates st first) in
      let path_sets = eval_path_preds st cands first.A.preds in
      let filtered =
        List.fold_left
          (fun rows p -> apply_pred st path_sets rows p)
          cands first.A.preds
      in
      let pairs = List.map (fun (r : Node_row.t) -> (0, r)) filtered in
      let pairs =
        List.fold_left (fun ps step -> eval_one_step st ps step) pairs rest
      in
      doc_sort st (dedup_rows (List.map snd pairs))

let eval db ~doc enc path =
  let st = new_state db ~doc enc in
  let rows = eval_path st path in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval_ids db ~doc enc path =
  List.map (fun (r : Node_row.t) -> r.Node_row.id) (eval db ~doc enc path).rows

let eval_union db ~doc enc (u : A.union) =
  let st = new_state db ~doc enc in
  let rows = List.concat_map (fun p -> eval_path st p) u in
  let rows = doc_sort st (dedup_rows rows) in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval_from_ids db ~doc enc ~ids path =
  let st = new_state db ~doc enc in
  let rows =
    if path.A.absolute then eval_path st path
    else begin
      let ctx = fetch_by_ids st ids in
      let pairs = eval_rel st ctx path.A.steps in
      doc_sort st (dedup_rows (List.map snd pairs))
    end
  in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let sort_document_order db ~doc enc rows =
  let st = new_state db ~doc enc in
  let sorted = doc_sort st (dedup_rows rows) in
  (sorted, st.nstmt)

let eval_string db ~doc enc s =
  match Xpath_parser.parse_union s with
  | [ p ] -> eval db ~doc enc p
  | u -> eval_union db ~doc enc u
