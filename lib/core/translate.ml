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

let run_sql st ?(params = [||]) sql =
  st.nstmt <- st.nstmt + 1;
  st.log <- sql :: st.log;
  Log.debug (fun m -> m "%s" sql);
  Reldb.Db.query_params st.db sql params

let remember st (r : Node_row.t) =
  match st.chains with
  | Some c -> Hashtbl.replace c.rows r.Node_row.id r
  | None -> ()

let decode st tu =
  let r = Node_row.of_tuple st.enc tu in
  remember st r;
  r

(* Statements over a context relation select c.id last, after the columns
   Node_row.of_tuple reads: the rows of [sql] over [rel] filled with [ctx],
   each tagged with its context id. *)
let tagged st rel ctx ?params sql =
  let ctx_id tu =
    match tu.(Array.length tu - 1) with
    | V.Int i -> i
    | v -> invalid_arg ("Translate: bad ctx id " ^ V.to_string v)
  in
  Node_row.with_relation st.db rel ctx (fun () ->
      List.map (fun tu -> (ctx_id tu, decode st tu)) (run_sql st ?params sql))

let ctx_join st rel ctx where =
  tagged st rel ctx
    (Printf.sprintf "SELECT %s, c.id FROM %s e, %s c WHERE %s"
       (Node_row.select_list st.enc "e")
       st.tname rel.Node_row.rel_name where)

(* ------------------------------------------------------------------ *)
(* The join table                                                      *)
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

let is_global = function
  | Encoding.Global | Encoding.Global_gap -> true
  | Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret -> false

(* The condition putting the rows of alias [a] on [axis] from the row [p]:
   an edge-table alias or the context relation (Node_row.ctx_relation).
   [None] where the encoding has no join for the axis (self is a test on
   [p]). The DEWEY descendant and document-order axes read the subtree's
   upper bound [path_ub], which only a context relation carries. *)
let axis_join enc (axis : A.axis) ~p a =
  (* [a.x op p.y AND ...] from (x, op, y) triples, then [a] not an
     attribute unless the axis reaches attributes *)
  let conds ?(elem = true) cmps =
    Some
      (String.concat " AND "
         (List.map (fun (x, op, y) -> String.concat "" [ a; "."; x; " "; op; " "; p; "."; y ]) cmps
         @ if elem then [ a ^ ".kind <> 2" ] else []))
  in
  let o = Encoding.order_col enc in
  match axis with
  | A.Child -> conds [ ("parent", "=", "id") ]
  | A.Attribute -> conds ~elem:false [ ("parent", "=", "id") ]
  | A.Parent -> conds ~elem:false [ ("id", "=", "parent") ]
  | A.Following_sibling | A.Preceding_sibling ->
      (* attribute nodes have no siblings *)
      Option.map
        (fun c -> c ^ " AND " ^ p ^ ".kind <> 2")
        (conds [ ("parent", "=", "parent"); (o, (if axis = A.Following_sibling then ">" else "<"), o) ])
  | A.Self -> None
  | _ when enc = Encoding.Local -> None
  | A.Descendant when is_global enc -> conds [ ("g_order", ">", "g_order"); ("g_order", "<", "g_end") ]
  | A.Descendant_or_self when is_global enc ->
      conds [ ("g_order", ">=", "g_order"); ("g_order", "<", "g_end") ]
  | A.Following when is_global enc -> conds [ ("g_order", ">", "g_end") ]
  | A.Preceding when is_global enc -> conds [ ("g_end", "<", "g_order") ]
  | A.Ancestor when is_global enc ->
      (* strict interval containment *)
      conds ~elem:false [ ("g_order", "<", "g_order"); ("g_end", ">", "g_end") ]
  | A.Ancestor_or_self when is_global enc ->
      conds ~elem:false [ ("g_order", "<=", "g_order"); ("g_end", ">=", "g_end") ]
  | A.Descendant -> conds [ ("path", ">", "path"); ("path", "<", "path_ub") ]
  | A.Following -> conds [ ("path", ">=", "path_ub") ]
  | A.Preceding ->
      (* less the ancestors: the nodes whose path is a prefix of [p]'s *)
      Option.map
        (fun c -> String.concat "" [ c; " AND SUBSTR("; p; ".path, 1, LENGTH("; a; ".path)) <> "; a; ".path" ])
        (conds [ ("path", "<", "path") ])
  | A.Descendant_or_self | A.Ancestor | A.Ancestor_or_self -> None

let axis_supported enc (axis : A.axis) =
  match axis with
  | A.Child | A.Attribute | A.Parent | A.Self | A.Following_sibling
  | A.Preceding_sibling ->
      true
  | A.Descendant | A.Descendant_or_self | A.Following | A.Preceding
  | A.Ancestor | A.Ancestor_or_self ->
      is_global enc

let is_reverse_axis = function
  | A.Preceding | A.Preceding_sibling | A.Ancestor | A.Ancestor_or_self -> true
  | _ -> false

(* Elements compare through their text children (the data-centric string
   value, see DESIGN.md), other nodes by their value; [None] for a test
   that selects both, which stays in the middle tier. *)
let compares_elements (path : A.path) =
  match List.rev path.A.steps with
  | { A.axis = A.Attribute; _ } :: _ -> Some false
  | { A.test = A.Name _ | A.Any_name; _ } :: _ -> Some true
  | { A.test = A.Text_test | A.Comment_test; _ } :: _ -> Some false
  | _ -> None

let rec pred_lowers enc (p : A.predicate) =
  match p with
  | A.P_and (a, b) -> pred_lowers enc a && pred_lowers enc b
  | A.P_exists path -> List.for_all (step_lowers enc ~lead:false) path.A.steps
  | A.P_cmp (path, _, _) ->
      compares_elements path <> None
      && List.for_all (step_lowers enc ~lead:false) path.A.steps
  | A.P_pos _ | A.P_last | A.P_or _ | A.P_not _ | A.P_count _ -> false

and step_lowers enc ~lead (s : A.step) =
  (match s.A.axis with
  | A.Child | A.Descendant | A.Descendant_or_self when lead -> true
  | axis -> (not lead) && axis_supported enc axis)
  && List.for_all (pred_lowers enc) s.A.preds

(* Whether a predicate's joins can reach one row of its step twice: all
   but a single named attribute can. *)
let rec pred_fans (p : A.predicate) =
  match p with
  | A.P_and (a, b) -> pred_fans a || pred_fans b
  | A.P_exists { A.steps = [ { A.axis = A.Attribute; test = A.Name _; preds = [] } ]; _ }
  | A.P_cmp ({ A.steps = [ { A.axis = A.Attribute; test = A.Name _; preds = [] } ]; _ }, _, _)
  | A.P_pos _ | A.P_last ->
      false
  | A.P_exists _ | A.P_cmp _ | A.P_or _ | A.P_not _ | A.P_count _ -> true

(* Whether a step can reach one of its rows twice; the first step of a
   statement cannot (from the root, or with its context id selected). *)
let step_fans ~lead (s : A.step) =
  ((not lead) && not (List.mem s.A.axis [ A.Child; A.Attribute; A.Self ]))
  || List.exists pred_fans s.A.preds

(* A positional predicate as [(desc, offset, limit)]: rows [offset + 1 ..
   offset + limit] of each context's candidates in axis order, which is
   descending document order when [desc]. *)
let position axis (p : A.predicate) =
  let rec range (p : A.predicate) =
    match p with
    | A.P_pos (A.Eq, k) -> Some (k, k)
    | A.P_pos (A.Le, k) -> Some (1, k)
    | A.P_pos (A.Lt, k) -> Some (1, if k <= 1 then 0 else k - 1)
    | A.P_pos (A.Ge, k) -> Some (k, max_int)
    | A.P_pos (A.Gt, k) -> Some (if k = max_int then (1, 0) else (k + 1, max_int))
    | A.P_and (a, b) -> (
        match (range a, range b) with
        | Some (l, h), Some (l', h') -> Some (max l l', min h h')
        | _ -> None)
    | _ -> None
  in
  let reverse = is_reverse_axis axis in
  match p with
  | A.P_last -> Some (not reverse, 0, 1)
  | p ->
      Option.map
        (fun (lo, hi) ->
          let lo = max lo 1 in
          (reverse, lo - 1, if hi < lo then 0 else hi - lo + 1))
        (range p)

(* How many leading steps one statement holds, from the root or from a
   context relation: steps [step_lowers] accepts while no join fans out,
   the last of them possibly with one positional predicate. LOCAL orders
   such a statement only along a child chain from the root (its sibling
   orders, from the root down); any other LOCAL statement holds one step, so
   that each step's rows stay in the parent-chain cache for the final
   sort. *)
let run_length enc ~from_root (steps : A.step list) =
  let chain = from_root && (List.hd steps).A.axis = A.Child in
  let rec go i fans = function
    | [] -> i
    | (s : A.step) :: rest -> (
        let lead = i = 0 in
        let ok =
          (enc <> Encoding.Local || lead || (chain && List.mem s.A.axis [ A.Child; A.Attribute ]))
          && not (lead && s.A.axis = A.Self)
        in
        let lowers = step_lowers enc ~lead:(lead && from_root) in
        match s.A.preds with
        | [ p ] when position s.A.axis p <> None ->
            if
              ok && (not fans) && s.A.axis <> A.Self
              && lowers { s with A.preds = [] }
              && not (enc = Encoding.Local && lead && from_root && s.A.axis <> A.Child)
            then i + 1
            else i
        | _ -> if ok && lowers s then go (i + 1) (fans || step_fans ~lead s) rest else i)
  in
  go 0 false steps

(* ------------------------------------------------------------------ *)
(* Lowering a run to one statement                                     *)
(* ------------------------------------------------------------------ *)

type gen = {
  g_enc : Encoding.t;
  g_table : string;
  inline : bool;  (* values as SQL literals, not ? slots *)
  mutable from : string list;  (* reversed *)
  mutable conds : string list;  (* reversed *)
  mutable params : V.t list;  (* reversed *)
  mutable count : int;
}

let add g cond = g.conds <- cond :: g.conds

let value g v =
  if g.inline then V.to_sql_literal v
  else begin
    g.params <- v :: g.params;
    "?"
  end

let new_alias g =
  let a = "s" ^ string_of_int g.count in
  g.count <- g.count + 1;
  g.from <- (g.g_table ^ " " ^ a) :: g.from;
  a

(* one step from [prev]: the alias holding its rows *)
let rec lower_step g ~prev (step : A.step) =
  let alias =
    if step.A.axis = A.Self then begin
      add g (test_cond prev A.Child step.A.test);
      prev
    end
    else begin
      let a = new_alias g in
      (match axis_join g.g_enc step.A.axis ~p:prev a with
      | Some cond -> add g cond
      | None -> raise (Unsupported "axis has no join under this encoding"));
      add g (test_cond a step.A.axis step.A.test);
      a
    end
  in
  List.iter (lower_pred g ~ctx:alias) step.A.preds;
  alias

and lower_pred g ~ctx (p : A.predicate) =
  match p with
  | A.P_and (a, b) ->
      lower_pred g ~ctx a;
      lower_pred g ~ctx b
  | A.P_exists path -> ignore (lower_rel g ~ctx path)
  | A.P_cmp (path, op, lit) -> (
      let target = lower_rel g ~ctx path in
      let v =
        if compares_elements path = Some true then
          lower_step g ~prev:target { A.axis = A.Child; test = A.Text_test; preds = [] }
        else target
      in
      let nval f =
        String.concat " " [ v ^ ".nval"; A.cmp_name op; value g (V.Float f) ]
      in
      match (lit, op) with
      | A.L_str s, (A.Eq | A.Ne) ->
          add g (String.concat " " [ v ^ ".value"; A.cmp_name op; value g (V.Str s) ])
      | A.L_str s, _ ->
          let f = Encoding.number_of_string s in
          add g (if Float.is_nan f then "1 = 0" else nval f)
      | A.L_num f, _ -> add g (nval f))
  | A.P_pos _ | A.P_last | A.P_or _ | A.P_not _ | A.P_count _ ->
      raise (Unsupported "predicate has no join")

and lower_rel g ~ctx (path : A.path) =
  List.fold_left (fun prev step -> lower_step g ~prev step) ctx path.A.steps

type lowered = {
  sql : string;
  params : V.t array;
  result : string;
  aliases : string list;
  chain : string list;
  ordered : bool;
}

(* [steps] (a run, see run_length) as one statement over the edge table:
   from the root, or from the context relation [ctx] (alias c, whose id is
   selected last). Rows are unique and come in document order, by an ORDER
   BY when [sort], from the root along a child chain, or under GLOBAL and
   DEWEY by the result's order column behind a DISTINCT. A positional
   predicate on the last step sorts by the chain's order columns and keeps
   LIMIT ? OFFSET ? rows per context. [keep_chain]: the rows of the chain's
   earlier steps follow the result's columns. *)
let lower ?(inline = false) ?(unique = false) ?ctx ~sort ~keep_chain enc ~table steps =
  let g =
    { g_enc = enc; g_table = table; inline; from = []; conds = []; params = []; count = 0 }
  in
  let prev = Option.map (fun rel -> rel.Node_row.rel_name ^ " c") ctx in
  g.from <- Option.to_list prev;
  let pos =
    match List.rev steps with
    | { A.axis; preds = [ p ]; _ } :: _ -> position axis p
    | _ -> None
  in
  let n = List.length steps in
  let chain =
    List.fold_left
      (fun (prev, chain, i) (s : A.step) ->
        let s = if i = n - 1 && pos <> None then { s with A.preds = [] } else s in
        match prev with
        | Some p ->
            let a = lower_step g ~prev:p s in
            (Some a, (if a = p then chain else a :: chain), i + 1)
        | None ->
            let a = new_alias g in
            add g (a ^ if s.A.axis = A.Child then ".parent IS NULL" else ".kind <> 2");
            add g (test_cond a A.Child s.A.test);
            List.iter (lower_pred g ~ctx:a) s.A.preds;
            (Some a, [ a ], i + 1))
      (Option.map (fun _ -> "c") ctx, [], 0)
      steps
    |> fun (_, chain, _) -> List.rev chain
  in
  let result = List.nth chain (List.length chain - 1) in
  let ordered =
    ctx = None
    && (List.for_all (fun (s : A.step) -> List.mem s.A.axis [ A.Child; A.Attribute; A.Self ]) steps
       || (enc <> Encoding.Local && pos = None))
  in
  let col a = a ^ "." ^ Encoding.order_col enc in
  (* LOCAL's sibling orders from the root down; a global order needs only
     the previous alias's *)
  let by_chain =
    String.concat ", "
      (List.map col
         (match List.rev chain with
         | e :: p :: _ when enc <> Encoding.Local -> [ p; e ]
         | _ -> chain))
  in
  let tail =
    match pos with
    | Some (desc, offset, limit) ->
        (* per context row: a run from a context relation can reach one
           row of [p] from several *)
        let by =
          List.map (fun a -> a ^ ".id")
            ((if ctx = None then [] else [ "c" ])
            @ match List.rev chain with _ :: p :: _ -> [ p ] | _ -> [])
        in
        let limit = value g (V.Int limit) in
        let offset = value g (V.Int offset) in
        String.concat ""
          [ " ORDER BY "; by_chain; (if desc then " DESC" else ""); " LIMIT "; limit;
            " OFFSET "; offset; (if by = [] then "" else " BY " ^ String.concat ", " by) ]
    | None when ordered && sort ->
        " ORDER BY " ^ if enc = Encoding.Local then by_chain else col result
    | None -> ""
  in
  let distinct =
    pos = None && (not unique)
    && List.exists Fun.id (List.mapi (fun i s -> step_fans ~lead:(i = 0) s) steps)
  in
  let cols =
    List.map (Node_row.select_list enc)
      (result :: (if keep_chain then List.tl (List.rev chain) else []))
    @ if ctx = None then [] else [ "c.id" ]
  in
  {
    sql =
      String.concat ""
        [ "SELECT "; (if distinct then "DISTINCT " else ""); String.concat ", " cols;
          " FROM "; String.concat ", " (List.rev g.from);
          " WHERE "; String.concat " AND " (List.rev g.conds); tail ];
    params = Array.of_list (List.rev g.params);
    result;
    aliases = List.init g.count (fun i -> "s" ^ string_of_int i);
    chain;
    ordered = ordered && tail <> "";
  }

let lower_path ~unique ~sort enc ~table steps =
  lower ~inline:true ~unique ~sort ~keep_chain:false enc ~table steps

(* ------------------------------------------------------------------ *)
(* Running statements                                                  *)
(* ------------------------------------------------------------------ *)

module IdSet = Set.Make (Int)

(* the first element of [l] with each key *)
let dedup key l =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      (not (Hashtbl.mem seen k)) && (Hashtbl.add seen k (); true))
    l

let dedup_rows = dedup (fun (r : Node_row.t) -> r.Node_row.id)
let dedup_pairs pairs = dedup (fun (o, (r : Node_row.t)) -> (o, r.Node_row.id)) pairs

(* (context id, row) pairs as (origin, row) pairs, through the origins
   [pairs] bind to each context row (a statement returns a context's rows
   together) *)
let rebind pairs tagged =
  let origins = Hashtbl.create 64 and last = ref (min_int, []) in
  List.iter (fun (o, (r : Node_row.t)) -> Hashtbl.add origins r.Node_row.id o) pairs;
  let origins_of c =
    if fst !last <> c then last := (c, Hashtbl.find_all origins c);
    snd !last
  in
  dedup_pairs (List.concat_map (fun (c, r) -> List.map (fun o -> (o, r)) (origins_of c)) tagged)

(* A run from the context rows: (context id, row) pairs. *)
let ctx_run st ctx_rows steps =
  if ctx_rows = [] then []
  else
    let rel = Node_row.ctx_relation st.enc in
    let l = lower ~ctx:rel ~sort:false ~keep_chain:false st.enc ~table:st.tname steps in
    tagged st rel (List.map Node_row.ctx_tuple ctx_rows) ~params:l.params l.sql

(* A run from the root: its rows, and whether they are unique and in
   document order. Unless [final], LOCAL keeps the rows of the chain's
   earlier steps in the parent-chain cache. *)
let root_run st ~final steps =
  let keep_chain = st.enc = Encoding.Local && not final in
  let l = lower ~sort:final ~keep_chain st.enc ~table:st.tname steps in
  let n = List.length l.chain in
  let remember_chain tu =
    match st.chains with
    | Some c when keep_chain ->
        let width = Array.length tu / n in
        for i = 1 to n - 1 do
          match tu.((i * width) + Encoding.col_id) with
          | V.Int id when Hashtbl.mem c.rows id -> ()
          | _ -> remember st (Node_row.of_tuple st.enc (Array.sub tu (i * width) width))
        done
    | _ -> ()
  in
  let tuples = run_sql st ~params:l.params l.sql in
  (* a final run's rows need no parent chains *)
  let decode tu = if final then Node_row.of_tuple st.enc tu else (remember_chain tu; decode st tu) in
  (List.map decode tuples, l.ordered)

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

(* [l] stably sorted by [key], computed once per element *)
let sort_by_key key l =
  List.map snd
    (List.stable_sort (fun (a, _) (b, _) -> compare_key a b) (List.map (fun x -> (key x, x)) l))

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
    fst (root_run st ~final:false [ { step with A.axis = A.Descendant; preds = [] } ])
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

(* Candidates for one step from a deduplicated context row list, in the
   middle tier. Returns (ctx id, row) pairs plus an optional doc-order key
   function used to sort groups when the row's own ord is not a document
   order (LOCAL descendants). *)
let rec step_candidates st ctx_rows (step : A.step) :
    (int * Node_row.t) list * (Node_row.t -> int list) option =
  let self axis =
    List.filter_map
      (fun (r : Node_row.t) ->
        if test_passes axis step.A.test r then Some (r.Node_row.id, r) else None)
      ctx_rows
  in
  let with_self axis =
    (* reverse-axis sorting puts self before its ancestors, and self sorts
       before its descendants; LOCAL's key function covers the self rows,
       whose chains it completed *)
    let more, keys = step_candidates st ctx_rows { step with A.axis } in
    (self A.Child @ more, keys)
  in
  match (step.A.axis, st.enc) with
  | A.Self, _ -> (self step.A.axis, None)
  | A.Ancestor_or_self, (Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret) ->
      with_self A.Ancestor
  | A.Descendant_or_self, (Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret) ->
      with_self A.Descendant
  | A.Ancestor, (Encoding.Dewey_enc | Encoding.Dewey_caret) ->
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
                  V.Int c.Node_row.id; V.Null; V.Null;
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
  | A.Ancestor, Encoding.Local ->
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
  | A.Descendant, Encoding.Local ->
      let pairs =
        List.filter
          (fun (_, row) -> test_passes step.A.axis step.A.test row)
          (local_descendants st ctx_rows)
      in
      (* positional predicates need each group in document order; every
         descendant's chain runs through a context row, so completing the
         context rows' chains keys them all *)
      (pairs, Some (local_order_keys st ctx_rows))
  | (A.Following | A.Preceding), Encoding.Local ->
      if ctx_rows = [] then ([], None) else local_doc_order st ctx_rows step
  | _ -> (ctx_run st ctx_rows [ { step with A.preds = [] } ], None)

(* ---- predicates --------------------------------------------------- *)

(* Evaluate a relative path from origin rows; returns (origin id, row):
   each run of steps one statement can hold is one statement, every other
   step one middle-tier step. *)
let rec eval_rel st (origins : Node_row.t list) (steps : A.step list) =
  eval_steps st (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) origins) steps

and eval_steps st pairs steps =
  match steps with
  | [] -> pairs
  | step :: rest -> (
      match run_length st.enc ~from_root:false steps with
      | 0 -> eval_steps st (eval_one_step st pairs step) rest
      | n ->
          let run = List.filteri (fun i _ -> i < n) steps in
          let tagged = ctx_run st (dedup_rows (List.map snd pairs)) run in
          eval_steps st (rebind pairs tagged) (List.filteri (fun i _ -> i >= n) steps))

(* One step over (origin, ctx row) pairs in the middle tier: dedupe
   contexts, fetch candidates, order per group, apply predicates, rebind to
   origins. *)
and eval_one_step st pairs (step : A.step) =
  let ctx_rows = dedup_rows (List.map snd pairs) in
  let cands, keyfn = step_candidates st ctx_rows step in
  if step.A.preds = [] then rebind pairs cands
  else begin
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
    let sort_group rows =
      let sorted =
        match keyfn with
        | Some key -> sort_by_key (fun (_, r) -> key r) rows
        | None -> List.stable_sort (fun (_, a) (_, b) -> Node_row.compare_ord a b) rows
      in
      if is_reverse_axis step.A.axis then List.rev sorted else sorted
    in
    (* batched evaluation of path sub-predicates over all candidates *)
    let path_sets = eval_path_preds st (dedup_rows (List.map snd cands)) step.A.preds in
    rebind pairs
      (List.concat_map
         (fun ctx ->
           let rows = List.map snd (sort_group (List.rev !(Hashtbl.find groups ctx))) in
           List.map
             (fun r -> (ctx, r))
             (List.fold_left (apply_pred path_sets) rows step.A.preds))
         (List.rev !group_order))
  end

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
      if Encoding.cmp_holds op (Stdlib.compare n k) then IdSet.add r.Node_row.id s
      else s)
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
      if Encoding.value_matches op lit r.Node_row.value then sat := IdSet.add o !sat)
    direct;
  if elems <> [] then begin
    let elem_rows = dedup_rows (List.map snd elems) in
    let text_step = { A.axis = A.Child; test = A.Text_test; preds = [] } in
    let texts = eval_rel st elem_rows [ text_step ] in
    (* element id -> passes? *)
    let elem_pass = Hashtbl.create 16 in
    List.iter
      (fun ((eid, (t : Node_row.t)) : int * Node_row.t) ->
        if Encoding.value_matches op lit t.Node_row.value then
          Hashtbl.replace elem_pass eid ())
      texts;
    List.iter
      (fun ((o, r) : int * Node_row.t) ->
        if Hashtbl.mem elem_pass r.Node_row.id then sat := IdSet.add o !sat)
      elems
  end;
  !sat

and apply_pred path_sets rows (p : A.predicate) =
  let last = List.length rows in
  let rec holds pos (r : Node_row.t) (p : A.predicate) =
    match p with
    | A.P_pos (op, k) -> Encoding.cmp_holds op (Stdlib.compare pos k)
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
  List.filteri (fun i r -> holds (i + 1) r p) rows

(* ---- whole paths --------------------------------------------------- *)

(* sort candidates into document order *)
let doc_sort st rows =
  match st.enc with
  | Encoding.Local -> sort_by_key (local_order_keys st rows) rows
  | _ -> List.stable_sort Node_row.compare_ord rows

(* [~final:false]: a union sorts the rows again, from LOCAL's chain cache *)
let eval_path ?(final = true) st (path : A.path) =
  match path.A.steps with
  | [] -> []
  | first :: _ when not (step_lowers st.enc ~lead:true { first with A.preds = [] }) ->
      (* an absolute path starts with child or descendant *)
      []
  | first :: _ as steps ->
      let n = run_length st.enc ~from_root:true steps in
      let rows, ordered =
        if n > 0 then
          root_run st ~final:(final && n = List.length steps) (List.filteri (fun i _ -> i < n) steps)
        else begin
          (* predicates the statement cannot hold rank or test the first
             step's candidates in document order, in the middle tier *)
          let rows, _ = root_run st ~final:false [ { first with A.preds = [] } ] in
          let rows = doc_sort st rows in
          let path_sets = eval_path_preds st rows first.A.preds in
          (List.fold_left (apply_pred path_sets) rows first.A.preds, true)
        end
      in
      match List.filteri (fun i _ -> i >= max n 1) steps with
      | [] when ordered -> rows
      | rest ->
          let pairs = eval_steps st (List.map (fun r -> (0, r)) rows) rest in
          doc_sort st (dedup_rows (List.map snd pairs))

let eval db ~doc enc path =
  let st = new_state db ~doc enc in
  let rows = eval_path st path in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval_ids db ~doc enc path =
  List.map (fun (r : Node_row.t) -> r.Node_row.id) (eval db ~doc enc path).rows

let eval_union db ~doc enc (u : A.union) =
  let st = new_state db ~doc enc in
  let rows = List.concat_map (eval_path ~final:false st) u in
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
