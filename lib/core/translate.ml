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

type state = {
  db : Reldb.Db.t;
  enc : Encoding.t;
  tname : string;
  mutable nstmt : int;
  mutable log : string list;  (* reversed *)
}

let run_sql st sql =
  st.nstmt <- st.nstmt + 1;
  st.log <- sql :: st.log;
  Log.debug (fun m -> m "%s" sql);
  Reldb.Db.query st.db sql

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
      (ctx, Node_row.of_tuple st.enc tu))
    (run_sql st sql)

let plain_rows st sql = List.map (Node_row.of_tuple st.enc) (run_sql st sql)

(* ------------------------------------------------------------------ *)
(* SQL fragments                                                       *)
(* ------------------------------------------------------------------ *)

let test_cond axis (test : A.node_test) =
  match (axis, test) with
  | A.Attribute, A.Name n ->
      Printf.sprintf "e.kind = 2 AND e.tag = %s" (V.to_sql_literal (V.Str n))
  | A.Attribute, (A.Any_name | A.Node_test) -> "e.kind = 2"
  | A.Attribute, (A.Text_test | A.Comment_test) -> "e.kind = 9" (* empty *)
  | _, A.Name n ->
      Printf.sprintf "e.kind = 0 AND e.tag = %s" (V.to_sql_literal (V.Str n))
  | _, A.Any_name -> "e.kind = 0"
  | _, A.Text_test -> "e.kind = 1"
  | _, A.Comment_test -> "e.kind = 3"
  | _, A.Node_test -> "e.kind <> 2"

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

(* Run the axis+test SQL for the context rows, tagging results with the
   producing context id. *)
let sql_candidates st ctx_rows axis test =
  match axis_cond st.enc axis with
  | None -> raise (Unsupported "axis has no SQL form under this encoding")
  | Some cond ->
      ctx_join st (Node_row.ctx_relation st.enc)
        (List.map Node_row.ctx_tuple ctx_rows)
        (cond ^ " AND " ^ test_cond axis test)

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

(* Fetch the whole edge table and compute document order: the operation the
   LOCAL encoding cannot push into SQL. Returns (rank, subtree_end_rank,
   ancestors) per id, plus rows in document order. *)
type local_world = {
  w_rows : Node_row.t array;  (* document order, attrs included *)
  w_rank : (int, int) Hashtbl.t;  (* id -> doc-order rank *)
  w_end : (int, int) Hashtbl.t;  (* id -> rank of last record in subtree *)
  w_anc : (int, int list) Hashtbl.t;  (* id -> strict ancestors *)
}

let local_world st =
  let all =
    plain_rows st
      (Printf.sprintf "SELECT %s FROM %s e" (Node_row.select_list st.enc "e")
         st.tname)
  in
  let kids : (int, Node_row.t list ref) Hashtbl.t = Hashtbl.create 256 in
  let root = ref None in
  List.iter
    (fun (r : Node_row.t) ->
      match r.Node_row.parent with
      | None -> root := Some r
      | Some p -> (
          match Hashtbl.find_opt kids p with
          | Some cell -> cell := r :: !cell
          | None -> Hashtbl.add kids p (ref [ r ])))
    all;
  let n = List.length all in
  let w_rows = Array.make n (List.hd all) in
  let w_rank = Hashtbl.create n
  and w_end = Hashtbl.create n
  and w_anc = Hashtbl.create n in
  let counter = ref 0 in
  let rec go ancs (r : Node_row.t) =
    let rank = !counter in
    incr counter;
    w_rows.(rank) <- r;
    Hashtbl.replace w_rank r.Node_row.id rank;
    Hashtbl.replace w_anc r.Node_row.id ancs;
    let children =
      match Hashtbl.find_opt kids r.Node_row.id with
      | None -> []
      | Some cell -> List.sort Node_row.compare_ord !cell
    in
    List.iter (go (r.Node_row.id :: ancs)) children;
    Hashtbl.replace w_end r.Node_row.id (!counter - 1)
  in
  (match !root with
  | Some r -> go [] r
  | None -> raise (Unsupported "document has no root row"));
  { w_rows; w_rank; w_end; w_anc }

let id_tuples ids = List.map (fun i -> [| V.Int i |]) ids

(* Fetch rows by id: one join with the id relation, probing the id index. *)
let fetch_by_ids st ids =
  match List.sort_uniq compare ids with
  | [] -> []
  | ids ->
      List.map snd
        (ctx_join st Node_row.ids_relation (id_tuples ids) "e.id = c.id")

(* Document-order sort keys for LOCAL rows: walk parent chains, batched one
   join per level. The key is the root path
   of sibling positions. *)
let local_order_keys st (rows : Node_row.t list) =
  let info : (int, int option * int) Hashtbl.t = Hashtbl.create 64 in
  let record (r : Node_row.t) =
    let o = match r.Node_row.ord with Node_row.Ol o -> o | _ -> 0 in
    Hashtbl.replace info r.Node_row.id (r.Node_row.parent, o)
  in
  List.iter record rows;
  let missing () =
    Hashtbl.fold
      (fun _ (parent, _) acc ->
        match parent with
        | Some p when not (Hashtbl.mem info p) -> p :: acc
        | _ -> acc)
      info []
    |> List.sort_uniq compare
  in
  let rec fill () =
    match missing () with
    | [] -> ()
    | ids ->
        List.iter record (fetch_by_ids st ids);
        fill ()
  in
  fill ();
  let memo : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let rec key id =
    match Hashtbl.find_opt memo id with
    | Some k -> k
    | None ->
        let k =
          match Hashtbl.find_opt info id with
          | None -> []
          | Some (None, o) -> [ o ]
          | Some (Some p, o) -> key p @ [ o ]
        in
        Hashtbl.replace memo id k;
        k
  in
  fun (r : Node_row.t) -> key r.Node_row.id

(* LOCAL descendants via BFS, threading sibling-position keys for ordering.
   Returns (ctx id, row, key-relative-to-ctx). *)
let local_descendants st ctx_rows =
  let result = ref [] in
  (* frontier: (origin ctx id, row, key) *)
  let frontier =
    ref (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r, [])) ctx_rows)
  in
  while !frontier <> [] do
    (* fetch children of all frontier rows in one statement *)
    let distinct =
      List.sort_uniq compare
        (List.map (fun (_, r, _) -> r.Node_row.id) !frontier)
    in
    let children =
      ctx_join st Node_row.ids_relation (id_tuples distinct)
        "e.parent = c.id AND e.kind <> 2"
    in
    let by_parent : (int, (int * Node_row.t) list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (p, row) ->
        Hashtbl.replace by_parent p
          ((p, row) :: (try Hashtbl.find by_parent p with Not_found -> [])))
      children;
    let next = ref [] in
    List.iter
      (fun (origin, (r : Node_row.t), key) ->
        match Hashtbl.find_opt by_parent r.Node_row.id with
        | None -> ()
        | Some kids ->
            List.iter
              (fun (_, (kid : Node_row.t)) ->
                let o =
                  match kid.Node_row.ord with Node_row.Ol o -> o | _ -> 0
                in
                let entry = (origin, kid, key @ [ o ]) in
                result := entry :: !result;
                next := entry :: !next)
              kids)
      !frontier;
    frontier := !next
  done;
  !result

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

let is_reverse_axis = function
  | A.Preceding | A.Preceding_sibling | A.Ancestor | A.Ancestor_or_self -> true
  | _ -> false

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
      (* reverse-axis sorting puts self before its ancestors; LOCAL needs
         the key function to cover the self rows too *)
      let keys =
        match st.enc with
        | Encoding.Local ->
            Some (local_order_keys st (List.map snd (self @ anc)))
        | _ -> keys
      in
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
            ("e.path = c.path AND " ^ test_cond step.A.axis step.A.test)
      in
      (pairs, None)
  | A.Ancestor when st.enc = Encoding.Local ->
      (* walk parent chains, one batched join per level *)
      let cache : (int, Node_row.t) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun (r : Node_row.t) -> Hashtbl.replace cache r.Node_row.id r)
        ctx_rows;
      let rec chains frontier acc =
        (* frontier: (ctx id, parent id to resolve) *)
        let missing =
          List.filter_map
            (fun (_, pid) ->
              if Hashtbl.mem cache pid then None else Some pid)
            frontier
          |> List.sort_uniq compare
        in
        List.iter
          (fun (r : Node_row.t) -> Hashtbl.replace cache r.Node_row.id r)
          (if missing = [] then [] else fetch_by_ids st missing);
        let acc, next =
          List.fold_left
            (fun (acc, next) (ctx, pid) ->
              match Hashtbl.find_opt cache pid with
              | None -> (acc, next)
              | Some row ->
                  let next =
                    match row.Node_row.parent with
                    | Some gp -> (ctx, gp) :: next
                    | None -> next
                  in
                  ((ctx, row) :: acc, next))
            (acc, []) frontier
        in
        if next = [] then acc else chains next acc
      in
      let frontier =
        List.filter_map
          (fun (c : Node_row.t) ->
            Option.map (fun p -> (c.Node_row.id, p)) c.Node_row.parent)
          ctx_rows
      in
      let all = chains frontier [] in
      let pairs =
        List.filter (fun (_, row) -> test_passes step.A.axis step.A.test row) all
      in
      let keyfn = local_order_keys st (List.map snd pairs) in
      (pairs, Some keyfn)
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
      let entries = local_descendants st ctx_rows in
      let pairs =
        List.filter_map
          (fun (origin, row, _key) ->
            if test_passes step.A.axis step.A.test row then Some (origin, row)
            else None)
          entries
      in
      (* positional predicates need each group in document order; relative
         BFS keys are ambiguous when a row descends from several context
         nodes, so compute absolute root-path keys (more parent-chain SQL —
         the honest LOCAL cost) *)
      let keyfn = local_order_keys st (dedup_rows (List.map snd pairs)) in
      (pairs, Some keyfn)
  | (A.Following | A.Preceding) when st.enc = Encoding.Local ->
      let w = local_world st in
      let pairs =
        List.concat_map
          (fun (c : Node_row.t) ->
            match Hashtbl.find_opt w.w_rank c.Node_row.id with
            | None -> []
            | Some rank ->
                let stop = Hashtbl.find w.w_end c.Node_row.id in
                let ancs =
                  match Hashtbl.find_opt w.w_anc c.Node_row.id with
                  | Some a -> a
                  | None -> []
                in
                let out = ref [] in
                (match step.A.axis with
                | A.Following ->
                    for j = Array.length w.w_rows - 1 downto stop + 1 do
                      let r = w.w_rows.(j) in
                      if
                        r.Node_row.kind <> Doc_index.Attr
                        && test_passes step.A.axis step.A.test r
                      then out := (c.Node_row.id, r) :: !out
                    done
                | _ ->
                    (* preceding: before in doc order, not an ancestor *)
                    for j = 0 to rank - 1 do
                      let r = w.w_rows.(j) in
                      if
                        r.Node_row.kind <> Doc_index.Attr
                        && (not (List.mem r.Node_row.id ancs))
                        && test_passes step.A.axis step.A.test r
                      then out := (c.Node_row.id, r) :: !out
                    done;
                    out := List.rev !out);
                !out)
          ctx_rows
      in
      let keyfn (r : Node_row.t) =
        match Hashtbl.find_opt w.w_rank r.Node_row.id with
        | Some rank -> [ rank ]
        | None -> []
      in
      (pairs, Some keyfn)
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
        let pairs = sql_candidates st ctx_rows axis step.A.test in
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
      | Some key -> Stdlib.compare (key a) (key b)
      | None -> Node_row.compare_ord a b
    in
    let sorted = List.stable_sort cmp rows in
    if reverse then List.rev sorted else sorted
  in
  (* batched evaluation of path sub-predicates over all candidates *)
  let all_cand_rows = dedup_rows (List.map snd cands) in
  let path_sets = eval_path_preds st all_cand_rows step.A.preds in
  let out = ref [] in
  List.iter
    (fun ctx ->
      let rows = sort_group (List.rev !(Hashtbl.find groups ctx)) in
      let rows = List.map snd rows in
      let filtered =
        List.fold_left
          (fun rows p -> apply_pred st path_sets rows p)
          rows step.A.preds
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
  let tc = test_cond step.A.axis step.A.test in
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
      List.stable_sort (fun a b -> Stdlib.compare (key a) (key b)) rows
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
  let st =
    { db; enc; tname = Encoding.table_name ~doc enc; nstmt = 0; log = [] }
  in
  let rows = eval_path st path in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval_ids db ~doc enc path =
  List.map (fun (r : Node_row.t) -> r.Node_row.id) (eval db ~doc enc path).rows

let eval_union db ~doc enc (u : A.union) =
  let st =
    { db; enc; tname = Encoding.table_name ~doc enc; nstmt = 0; log = [] }
  in
  let rows = List.concat_map (fun p -> eval_path st p) u in
  let rows = doc_sort st (dedup_rows rows) in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval_from_ids db ~doc enc ~ids path =
  let st =
    { db; enc; tname = Encoding.table_name ~doc enc; nstmt = 0; log = [] }
  in
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
  let st =
    { db; enc; tname = Encoding.table_name ~doc enc; nstmt = 0; log = [] }
  in
  let sorted = doc_sort st (dedup_rows rows) in
  (sorted, st.nstmt)

let eval_string db ~doc enc s =
  match Xpath_parser.parse_union s with
  | [ p ] -> eval db ~doc enc p
  | u -> eval_union db ~doc enc u
