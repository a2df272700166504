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

module Itbl = Node_row.Tbl

(* LOCAL's parent-chain cache, one per evaluation call: every edge row the
   call has fetched, each with its root-path key once computed ([||]
   before, [climbed] once its parent chain is known to be cached). *)
type link = { row : Node_row.t; mutable key : int array }

let climbed = [| min_int |]

type state = {
  db : Reldb.Db.t;
  enc : Encoding.t;
  tname : string;
  chains : link Itbl.t;  (* filled under LOCAL only *)
  mutable log : string list;  (* the statements run, reversed *)
}

let new_state db ~doc enc =
  let chains = Itbl.create (if enc = Encoding.Local then 64 else 1) in
  { db; enc; tname = Encoding.table_name ~doc enc; chains; log = [] }

let run_sql st ?(params = [||]) sql =
  st.log <- sql :: st.log;
  Log.debug (fun m -> m "%s" sql);
  Reldb.Db.query_params st.db sql params

(* [r]'s link in the cache, added unless some statement fetched it before *)
let link st (r : Node_row.t) =
  match Itbl.find_opt st.chains r.Node_row.id with
  | Some l -> l
  | None ->
      let l = { row = r; key = [||] } in
      Itbl.add st.chains r.Node_row.id l;
      l

let remember st r = if st.enc = Encoding.Local then ignore (link st r)

let decode st tu =
  let r = Node_row.of_tuple st.enc tu in
  remember st r;
  r

(* Statements over a context relation select c.id last, after the columns
   Node_row.of_tuple reads: the rows of [sql] over [rel] filled with [ctx],
   each tagged with its context id; no statement runs without contexts. *)
let tagged st rel ctx ?params sql =
  if ctx = [] then []
  else
    Node_row.with_relation st.db rel ctx (fun () ->
        List.map (fun tu -> (Node_row.ctx_id tu, decode st tu)) (run_sql st ?params sql))

let ctx_sql enc ~table rel where =
  Printf.sprintf "SELECT %s, c.id FROM %s e, %s c WHERE %s" (Node_row.select_list enc "e") table
    rel.Node_row.rel_name where

let ctx_join st rel ctx where = tagged st rel ctx (ctx_sql st.enc ~table:st.tname rel where)

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

(* The bound [p]'s subtree ends below: its [g_end], or its path followed by
   the byte ff (see Node_row.subtree_range). *)
let subtree_end enc p = if is_global enc then p ^ ".g_end" else "(" ^ p ^ ".path || X'FF')"

(* The condition putting the rows of alias [a] on [axis] from the row [p]:
   an edge-table alias, the context relation (Node_row.ctx_relation) or,
   when [ends], a staircase row, whose order column holds its bound (see
   [block]). [None] where the encoding has no join for the axis (self is a
   test on [p]). *)
let axis_join enc ?(ends = false) (axis : A.axis) ~p a =
  (* [a.x op y AND ...] from (x, op, y) triples, then [a] not an attribute
     unless the axis reaches attributes *)
  let conds ?(elem = true) cmps =
    Some
      (String.concat " AND "
         (List.map (fun (x, op, y) -> String.concat "" [ a; "."; x; " "; op; " "; y ]) cmps
         @ if elem then [ a ^ ".kind <> 2" ] else []))
  in
  let pc c = p ^ "." ^ c in
  let o = Encoding.order_col enc in
  let p_end = if ends then pc o else subtree_end enc p in
  match axis with
  | A.Child -> conds [ ("parent", "=", pc "id") ]
  | A.Attribute -> conds ~elem:false [ ("parent", "=", pc "id") ]
  | A.Parent -> conds ~elem:false [ ("id", "=", pc "parent") ]
  | A.Following_sibling | A.Preceding_sibling ->
      (* attribute nodes have no siblings *)
      Option.map
        (fun c -> c ^ " AND " ^ p ^ ".kind <> 2")
        (conds [ ("parent", "=", pc "parent"); (o, (if axis = A.Following_sibling then ">" else "<"), pc o) ])
  | A.Self -> None
  | _ when enc = Encoding.Local -> None
  | A.Descendant -> conds [ (o, ">", pc o); (o, "<", p_end) ]
  | A.Descendant_or_self -> conds [ (o, ">=", pc o); (o, "<", p_end) ]
  | A.Following -> conds [ (o, ">", p_end) ]
  | A.Preceding when is_global enc -> conds [ ("g_end", "<", pc o) ]
  | A.Ancestor when is_global enc ->
      (* strict interval containment *)
      conds ~elem:false [ ("g_order", "<", pc "g_order"); ("g_end", ">", pc "g_end") ]
  | A.Ancestor_or_self when is_global enc ->
      conds ~elem:false [ ("g_order", "<=", pc "g_order"); ("g_end", ">=", pc "g_end") ]
  | A.Preceding ->
      (* less the ancestors, whose subtrees hold [p] *)
      Option.map (fun c -> String.concat " " [ c; "AND"; subtree_end enc a; "<"; pc o ]) (conds [ (o, "<", pc o) ])
  | A.Ancestor | A.Ancestor_or_self -> None

let axis_supported enc (axis : A.axis) =
  match axis with
  | A.Child | A.Attribute | A.Parent | A.Self | A.Following_sibling
  | A.Preceding_sibling ->
      true
  | A.Descendant | A.Descendant_or_self | A.Following -> enc <> Encoding.Local
  | A.Preceding | A.Ancestor | A.Ancestor_or_self -> is_global enc

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

let is_sibling = function A.Following_sibling | A.Preceding_sibling -> true | _ -> false

(* A run as the statements it nests: every block but the last is the
   derived table the next one reads. [b_tail]: the positional predicate of
   the block's last step (see [position]), lowered as ORDER BY ... LIMIT ?
   OFFSET ? BY; [b_distinct]: the block's rows are made unique; [b_stair]:
   the block is the one row a [following] ([preceding]) step joins: in its
   order column, the least subtree end (greatest order value) of its rows. *)
type block = {
  b_steps : A.step list;
  b_tail : (bool * int * int) option;
  b_distinct : bool;
  b_stair : A.axis option;
}

(* A run from the root whose steps are a child chain: its rows' document
   order is the order of their chain, root down. *)
let child_chain ~from_root (steps : A.step list) =
  from_root && List.for_all (fun (s : A.step) -> List.mem s.A.axis [ A.Child; A.Attribute; A.Self ]) steps

(* The leading steps one statement holds, from the root or from a context
   relation, as the blocks of derived tables and the last block: steps
   [step_lowers] accepts, each with at most one
   positional predicate. A positional step followed by more steps ends a
   block; one after a join that can reach a row twice first ends a
   DISTINCT block, so that a position counts unique rows. Without [nest]
   the statement is one block: a positional step ends it, and one after
   such a join is left to the next segment. LOCAL orders a statement only
   along a child chain from the root (its sibling orders, from the root
   down), which with [nest] a sibling step may close as the path's last
   step; any other LOCAL statement holds one step, so that each step's
   rows stay in the parent-chain cache for the final sort. *)
let blocks enc ~nest ~from_root (steps : A.step list) =
  let chain = from_root && (List.hd steps).A.axis = A.Child in
  let close cur ~tail ~distinct = { b_steps = List.rev cur; b_tail = tail; b_distinct = distinct; b_stair = None } in
  (* [cur]: the open block, reversed; [pending]: the position on its last
     step, and whether the block's rows can repeat; [single]: the last step
     kept at most one child per context, so its rows have distinct parents
     and a sibling step reaches each row once *)
  let rec go i acc cur fans pending single steps =
    let stop () = (List.rev acc, close cur ~tail:(Option.map fst pending) ~distinct:(pending = None && fans)) in
    match steps with
    | [] -> stop ()
    | (s : A.step) :: rest -> (
        let lead = i = 0 in
        let ok =
          (enc <> Encoding.Local || lead
          || (chain && (List.mem s.A.axis [ A.Child; A.Attribute ] || (nest && is_sibling s.A.axis && rest = []))))
          && (not (lead && s.A.axis = A.Self))
          && (nest || pending = None)
        in
        let lowers = step_lowers enc ~lead:(lead && from_root) in
        let fans = Option.fold pending ~none:fans ~some:snd in
        let fan = if single && is_sibling s.A.axis then List.exists pred_fans s.A.preds else step_fans ~lead s in
        (* a following (preceding) step from the root: the union of its
           contexts' rows is the rows of the context that ends first
           (starts last), the staircase join *)
        let stair = from_root && nest && (not lead) && enc <> Encoding.Local && List.mem s.A.axis [ A.Following; A.Preceding ] in
        let cut acc cur =
          match pending with
          | Some (tail, _) -> (close cur ~tail:(Some tail) ~distinct:false :: acc, [])
          | None -> (acc, cur)
        in
        match List.map (position s.A.axis) s.A.preds with
        | [ Some pos ] ->
            if
              ok && (nest || not fans) && s.A.axis <> A.Self
              && lowers { s with A.preds = [] }
              && not (enc = Encoding.Local && lead && from_root && s.A.axis <> A.Child)
            then
              let acc, cur = cut acc cur in
              let acc, cur = if fans then (close cur ~tail:None ~distinct:true :: acc, []) else (acc, cur) in
              let one = match s.A.preds with [ A.P_pos (A.Eq, _) | A.P_last ] -> true | _ -> false in
              go (i + 1) acc (s :: cur) false (Some (pos, fan)) (one && s.A.axis = A.Child) rest
            else stop ()
        | _ when not (ok && if stair then List.for_all (pred_lowers enc) s.A.preds else lowers s) -> stop ()
        | _ when stair ->
            (* the steps before close into one aggregate row; the step's own
               rows are unique unless a predicate join repeats them *)
            let acc, cur = cut acc cur in
            let one = { (close cur ~tail:None ~distinct:false) with b_stair = Some s.A.axis } in
            go (i + 1) (one :: acc) [ s ] (List.exists pred_fans s.A.preds) None false rest
        | _ ->
            let acc, cur = cut acc cur in
            go (i + 1) acc (s :: cur) (fans || fan) None false rest)
  in
  go 0 [] [] false None false steps

let block_steps (derived, last) = List.concat_map (fun b -> b.b_steps) derived @ last.b_steps

(* ------------------------------------------------------------------ *)
(* Lowering a run to one statement                                     *)
(* ------------------------------------------------------------------ *)

type gen = {
  g_enc : Encoding.t;
  g_table : string;
  mutable from : string list;  (* reversed *)
  mutable conds : string list;  (* reversed *)
  mutable params : V.t list;  (* reversed *)
  mutable count : int;
  g_ends : string option;  (* a staircase row's alias, see [axis_join] *)
}

let add g cond = g.conds <- cond :: g.conds

let value g v =
  g.params <- v :: g.params;
  "?"

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
      (match axis_join g.g_enc ~ends:(g.g_ends = Some prev) step.A.axis ~p:prev a with
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

type run = {
  steps : A.step list;
  sql : string;
  params : V.t array;
  from_root : bool;
  chain : (string * string) list;
  tail : bool;
  sorted : bool;
  keeps_chain : bool;
  derived : run option;
}

type segment = Run of run | Step of step
and step = { step : A.step; fetch : fetch; preds : pred list }

and fetch =
  | Self_rows
  | Root of run
  | Context of run
  | Prefixes of string
  | Chain_walk
  | Levels
  | Doc_order of run
  | With_self of fetch

and pred =
  | Pos of A.cmp * int
  | Last
  | Exists of segment list
  | Cmp of segment list * A.cmp * A.literal * segment list
  | Count of segment list * A.cmp * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type query = segment list list

let init l = List.filteri (fun i _ -> i < List.length l - 1) l

(* [blocks] (a run, see above) as one statement over the edge table: from
   the root, or else from the context relation (alias c, whose id is
   selected last). Each block but the last is the derived table (alias b0,
   b1, ...) that the next block's steps join from: it selects its result's
   columns, under LOCAL the sibling orders of the result's ancestors (o0,
   o1, ..., from the root down), and the context id (cid). Rows are unique
   and come in document order, by an ORDER BY when [sort], from the root
   along a child chain (under LOCAL, also one a sibling step closes), or
   under GLOBAL and DEWEY by the result's order column behind a DISTINCT.
   A positional predicate on a block's last step sorts by the chain's order
   columns and keeps LIMIT ? OFFSET ? rows per context. [keep_chain]: the
   rows of the chain's earlier steps follow the result's columns. *)
let lower ~from_root ~sort ~keep_chain enc ~table blocks =
  Obs.incr "translate.lowered";
  let local = enc = Encoding.Local in
  let all = block_steps blocks in
  let col a = a ^ "." ^ Encoding.order_col enc and qual (a, c) = a ^ "." ^ c in
  let plain = child_chain ~from_root:true all in
  let closed = local && match List.rev all with s :: _ -> is_sibling s.A.axis | [] -> false in
  let count = ref 0 in
  (* one block over [prev], the run of the blocks before it, as derived table
     [b<k>]; [steps]: the path steps up to the block's last *)
  let block ~prev ~final ~steps (b : block) =
    let stair = Option.bind prev (fun (_, k, stair) -> if stair then Some ("b" ^ string_of_int k) else None) in
    let g = { g_enc = enc; g_table = table; from = []; conds = []; params = []; count = !count; g_ends = stair } in
    (* the alias the steps start from, the chain with its LOCAL levels (the
       sibling orders from the root down) and the context id *)
    let start, chain, levels, ctx_id =
      match prev with
      | Some (d, k, _) ->
          let a = "b" ^ string_of_int k in
          g.from <- [ "(" ^ d.sql ^ ") " ^ a ];
          g.params <- List.rev (Array.to_list d.params);
          let n = List.length d.chain in
          ( Some a, [ a ],
            List.init n (fun i -> (a, if i = n - 1 then "l_order" else "o" ^ string_of_int i)),
            if from_root then None else Some (a ^ ".cid") )
      | None when from_root -> (None, [], [], None)
      | None ->
          g.from <- [ (Node_row.ctx_relation enc).Node_row.rel_name ^ " c" ];
          (Some "c", [], [], Some "c.id")
    in
    let last = List.length b.b_steps - 1 in
    let _, chain, levels =
      List.fold_left
        (fun (prev, chain, levels) (i, (s : A.step)) ->
          let s = if i = last && b.b_tail <> None then { s with A.preds = [] } else s in
          let a =
            match prev with
            | Some p -> lower_step g ~prev:p s
            | None ->
                let a = new_alias g in
                add g (a ^ if s.A.axis = A.Child then ".parent IS NULL" else ".kind <> 2");
                add g (test_cond a A.Child s.A.test);
                List.iter (lower_pred g ~ctx:a) s.A.preds;
                a
          in
          if Some a = prev then (prev, chain, levels)
          else
            (* a sibling has its context's ancestors *)
            let up = if is_sibling s.A.axis then init levels else levels in
            (Some a, chain @ [ a ], up @ [ (a, "l_order") ]))
        (start, chain, levels)
        (List.mapi (fun i s -> (i, s)) b.b_steps)
    in
    count := g.count;
    let result = List.nth chain (List.length chain - 1) in
    let ordered = final && from_root && (plain || (b.b_tail = None && ((not local) || closed))) in
    (* the order columns a chain sorts by: LOCAL's levels, a child chain's
       aliases, else the result's *)
    let chained = child_chain ~from_root steps in
    let keys = function
      | _ when local -> List.map qual levels
      | _ when chained -> List.map col chain
      | aliases -> List.map col aliases
    in
    let order_by =
      match b.b_tail with
      | Some (desc, offset, limit) ->
          (* per context row: a run from a context relation can reach one
             row of [p] from several *)
          let by = Option.to_list ctx_id @ match List.rev chain with _ :: p :: _ -> [ p ^ ".id" ] | _ -> [] in
          let keys = keys (match List.rev chain with e :: p :: _ -> [ p; e ] | _ -> chain) in
          let limit = value g (V.Int limit) in
          let offset = value g (V.Int offset) in
          String.concat ""
            [ " ORDER BY "; String.concat ", " keys; (if desc then " DESC" else ""); " LIMIT "; limit;
              " OFFSET "; offset; (if by = [] then "" else " BY " ^ String.concat ", " by) ]
      | None when ordered && sort -> " ORDER BY " ^ String.concat ", " (keys [ result ])
      | None -> ""
    in
    let cols =
      match b.b_stair with
      | Some axis ->
          let agg, bound = if axis = A.Following then ("MIN", subtree_end enc result) else ("MAX", col result) in
          [ Printf.sprintf "%s(%s) AS %s" agg bound (Encoding.order_col enc) ]
      | None when final ->
          List.map (Node_row.select_list enc) (result :: (if keep_chain then List.tl (List.rev chain) else []))
          @ Option.to_list ctx_id
      | None ->
          (Node_row.select_list enc result
          :: (if local then List.mapi (fun i l -> Printf.sprintf "%s AS o%d" (qual l) i) (init levels) else []))
          @ List.map (fun c -> c ^ " AS cid") (Option.to_list ctx_id)
    in
    {
      steps;
      sql =
        String.concat ""
          [ "SELECT "; (if b.b_distinct then "DISTINCT " else ""); String.concat ", " cols;
            " FROM "; String.concat ", " (List.rev g.from);
            (if g.conds = [] then "" else " WHERE " ^ String.concat " AND " (List.rev g.conds)); order_by ];
      params = Array.of_list (List.rev g.params);
      from_root;
      chain = (if local then levels else List.map (fun a -> (a, Encoding.order_col enc)) chain);
      tail = b.b_tail <> None;
      sorted = ordered && order_by <> "";
      keeps_chain = final && keep_chain;
      derived = Option.map (fun (d, _, _) -> d) prev;
    }
  in
  let prev, steps =
    List.fold_left
      (fun (prev, steps) b ->
        let steps = steps @ b.b_steps and k = Option.fold prev ~none:0 ~some:(fun (_, k, _) -> k + 1) in
        (Some (block ~prev ~final:false ~steps b, k, b.b_stair <> None), steps))
      (None, []) (fst blocks)
  in
  block ~prev ~final:true ~steps:(steps @ (snd blocks).b_steps) (snd blocks)

(* One step without its predicates, as a run from the root or from the
   context relation; under LOCAL its rows enter the parent-chain cache. *)
let step_run enc ~table ~from_root (step : A.step) =
  lower ~from_root ~sort:false ~keep_chain:true enc ~table
    ([], { b_steps = [ { step with A.preds = [] } ]; b_tail = None; b_distinct = false; b_stair = None })

(* The one segmentation: each maximal run (see [blocks]) is one statement,
   every other step one middle-tier step, compiled with the statements that
   fetch its candidates and the segments of its predicates' paths. A run
   from the root that ends a [final] path sorts its rows when it can;
   otherwise LOCAL keeps its chain's rows, and so nests no derived table. An
   absolute path must start with a child or descendant step. *)
let rec segments enc ~table ~from_root ~final steps =
  let rec go ~from_root steps =
    match steps with
    | [] -> []
    | s :: rest -> (
        let whole bs = final && from_root && List.length (block_steps bs) = List.length steps in
        let bs = blocks enc ~nest:true ~from_root steps in
        let bs = if enc = Encoding.Local && not (whole bs) then blocks enc ~nest:false ~from_root steps else bs in
        match List.length (block_steps bs) with
        | 0 -> Step (middle_step enc ~table ~lead:from_root s) :: go ~from_root:false rest
        | n ->
            let last = whole bs in
            Run (lower ~from_root ~sort:last ~keep_chain:(from_root && enc = Encoding.Local && not last) enc ~table bs)
            :: go ~from_root:false (List.filteri (fun i _ -> i >= n) steps))
  in
  match steps with
  | first :: _ when from_root && not (step_lowers enc ~lead:true { first with A.preds = [] }) -> []
  | _ -> go ~from_root steps

(* How the middle tier reads a step's candidates: a step leading the path
   from the root, else per axis and encoding (see [candidates]). *)
and middle_step enc ~table ~lead (s : A.step) =
  let rec fetch (axis : A.axis) =
    let local = enc = Encoding.Local in
    match axis with
    | _ when lead -> Root (step_run enc ~table ~from_root:true s)
    | A.Self -> Self_rows
    | A.Ancestor_or_self when not (is_global enc) -> With_self (fetch A.Ancestor)
    | A.Descendant_or_self when local -> With_self (fetch A.Descendant)
    | A.Ancestor when local -> Chain_walk
    | A.Ancestor when not (is_global enc) ->
        Prefixes
          (ctx_sql enc ~table (Node_row.ctx_relation enc) ("e.path = c.path AND " ^ test_cond "e" axis s.A.test))
    | A.Descendant when local -> Levels
    | (A.Following | A.Preceding) when local ->
        Doc_order (step_run enc ~table ~from_root:true { s with A.axis = A.Descendant })
    | _ -> Context (step_run enc ~table ~from_root:false { s with A.axis })
  in
  { step = s; fetch = fetch s.A.axis; preds = List.map (compile_pred enc ~table) s.A.preds }

and compile_pred enc ~table (p : A.predicate) =
  let path steps = segments enc ~table ~from_root:false ~final:false steps in
  match p with
  | A.P_pos (op, k) -> Pos (op, k)
  | A.P_last -> Last
  | A.P_exists p -> Exists (path p.A.steps)
  | A.P_cmp (p, op, lit) -> Cmp (path p.A.steps, op, lit, path [ { A.axis = A.Child; test = A.Text_test; preds = [] } ])
  | A.P_count (p, op, k) -> Count (path p.A.steps, op, k)
  | A.P_and (a, b) -> And (compile_pred enc ~table a, compile_pred enc ~table b)
  | A.P_or (a, b) -> Or (compile_pred enc ~table a, compile_pred enc ~table b)
  | A.P_not a -> Not (compile_pred enc ~table a)

let compile ?(relative = false) ~doc enc (u : A.union) =
  let table = Encoding.table_name ~doc enc in
  let final = (not relative) && List.length u = 1 in
  List.map (fun (p : A.path) -> segments enc ~table ~from_root:(not relative) ~final p.A.steps) u

(* ------------------------------------------------------------------ *)
(* Running statements                                                  *)
(* ------------------------------------------------------------------ *)

(* the first row with each id: one lookup each, none for fewer than two *)
let dedup_rows = function
  | ([] | [ _ ]) as l -> l
  | l ->
      let seen = Itbl.create (List.length l) in
      List.filter
        (fun (r : Node_row.t) ->
          let n = Itbl.length seen in
          Itbl.replace seen r.Node_row.id ();
          Itbl.length seen > n)
        l

(* What the segments of a path pass on: each origin with its rows, each row
   once per origin, origins and rows in order of first sight (the nested
   vector of the DSH exemplar; Pathfinder's iter column). A path from the
   root is [[ (0, rows) ]]; [[]] is a path that has not started. *)
type flow = (int * Node_row.t list) list

(* a lone origin's rows are its list itself, not a copy *)
let rows_of = function [ (_, rows) ] -> rows | flow -> List.concat_map snd flow

(* [pairs] grouped by their first component, in order of first sight: the
   candidates of a step from the root share context 0, and need no table *)
let group = function
  | (c, _) :: rest as pairs when List.for_all (fun (c', _) -> c' = c) rest -> [ (c, List.map snd pairs) ]
  | pairs ->
      let order = ref [] and cells = Itbl.create 64 in
      List.iter
        (fun (c, r) ->
          match Itbl.find_opt cells c with
          | Some cell -> cell := r :: !cell
          | None ->
              let cell = ref [ r ] in
              Itbl.add cells c cell;
              order := (c, cell) :: !order)
        pairs;
      List.rev_map (fun (c, cell) -> (c, List.rev !cell)) !order

(* (context id, row) pairs rebound to the origins of their contexts. A path
   not started takes the pairs grouped by context; one origin takes each
   row once ([unique]: [pairs] holds each row once, as one context's rows
   do); many origins each take the rows of their contexts once, and an
   origin left with none is dropped, so a flow narrowed to one origin
   prunes as one (see [contexts]). *)
let rebind ?(unique = false) (flow : flow) pairs : flow =
  match flow with
  | [] -> group pairs
  | [ (o, _) ] -> [ (o, if unique then List.map snd pairs else dedup_rows (List.map snd pairs)) ]
  | flow ->
      let by_ctx = Itbl.create 64 in
      List.iter (fun (c, r) -> Itbl.add by_ctx c r) (List.rev pairs);
      List.filter_map
        (fun (o, ctxs) ->
          match dedup_rows (List.concat_map (fun (c : Node_row.t) -> Itbl.find_all by_ctx c.Node_row.id) ctxs) with
          | [] -> None
          | rows -> Some (o, rows))
        flow

(* Whether a predicate counts positions, anywhere under and, or and not. *)
let rec positional (p : A.predicate) =
  match p with
  | A.P_pos _ | A.P_last -> true
  | A.P_and (a, b) | A.P_or (a, b) -> positional a || positional b
  | A.P_not a -> positional a
  | A.P_exists _ | A.P_cmp _ | A.P_count _ -> false

(* A following (preceding) step without a positional predicate: its rows
   from several contexts are the rows of the context that ends first
   (starts last), the staircase join's pruning. *)
let prunes (s : A.step) = List.mem s.A.axis [ A.Following; A.Preceding ] && not (List.exists positional s.A.preds)

(* the first element of [l] that no other is [better] than *)
let best better = function [] -> [] | x :: l -> [ List.fold_left (fun b y -> if better y b then y else b) x l ]

(* Whether [s] prunes the contexts of [flow] (it has one origin), and
   the distinct context rows it reads: if it prunes, under GLOBAL and DEWEY,
   the one with the least subtree end ([g_end], the path followed by ff),
   else the greatest start. LOCAL prunes in [local_doc_order], by keys. *)
let contexts st (s : A.step) flow =
  let stair = (match flow with _ :: _ :: _ -> false | _ -> true) && prunes s in
  ( stair,
    if not stair || st.enc = Encoding.Local then dedup_rows (rows_of flow)
    else
      best
        (fun (a : Node_row.t) b ->
          match (a.Node_row.ord, b.Node_row.ord) with
          | Node_row.Og (_, ea), Node_row.Og (_, eb) when s.A.axis = A.Following -> ea < eb
          | Node_row.Od pa, Node_row.Od pb when s.A.axis = A.Following -> pa ^ "\xff" < pb ^ "\xff"
          | _ -> Node_row.compare_ord a b > 0)
        (rows_of flow) )

(* A run from the context rows: (context id, row) pairs. *)
let ctx_run st ctx_rows (r : run) =
  tagged st (Node_row.ctx_relation st.enc) (List.map Node_row.ctx_tuple ctx_rows) ~params:r.params r.sql

(* A run from the root: its rows (origin 0). LOCAL keeps the rows of the
   chain's earlier steps in the parent-chain cache when the run selects
   them. *)
let root_run st (r : run) =
  let n = List.length r.chain in
  let remember_chain tu =
    let width = Array.length tu / n in
    for i = 1 to n - 1 do
      match tu.((i * width) + Encoding.col_id) with
      | V.Int id when Itbl.mem st.chains id -> ()
      | _ -> remember st (Node_row.of_tuple st.enc (Array.sub tu (i * width) width))
    done
  in
  (* rows that end the path need no parent chains *)
  let decode tu = if r.keeps_chain then (remember_chain tu; decode st tu) else Node_row.of_tuple st.enc tu in
  List.map decode (run_sql st ~params:r.params r.sql)

(* ---- LOCAL middle-tier machinery --------------------------------- *)

let id_tuples ids = List.map (fun i -> [| V.Int i |]) ids

(* Fetch rows by id: one join with the id relation, probing the id index. *)
let fetch_by_ids st ids =
  List.map snd (ctx_join st Node_row.ids_relation (id_tuples (List.sort_uniq compare ids)) "e.id = c.id")

(* A LOCAL row's document-order key is its root path: the l_order values
   from the root down, compared as a Dewey path. Attributes have
   l_order <= 0, so they sort after their owner element and before its
   children. A key's proper prefixes are exactly the keys of the row's
   ancestors. [keyed key l] pairs [l] with [key], computed once per element,
   stably sorted by it; like Exec's Sort, it leaves input that arrives in
   order as it is. *)
let rec is_sorted cmp = function a :: (b :: _ as l) -> cmp a b <= 0 && is_sorted cmp l | _ -> true

let keyed key l =
  let kl = List.map (fun x -> (key x, x)) l and cmp (a, _) (b, _) = Dewey.compare a b in
  if is_sorted cmp kl then kl
  else
    let a = Array.of_list kl in
    Array.stable_sort cmp a;
    Array.to_list a

(* Make the parent chains of [links] complete in the query's cache: only
   ancestors no statement has fetched yet are fetched, one join per level.
   A row with a key, or climbed before, has its chain cached already.
   Returns the key of a link, which reads the cache and memoizes. *)
let chain_keys st links =
  let c = st.chains in
  (* parent ids missing from the cache on l's chain *)
  let rec climb missing l =
    if Array.length l.key > 0 then missing
    else begin
      l.key <- climbed;
      match l.row.Node_row.parent with
      | None -> missing
      | Some p -> ( match Itbl.find_opt c p with Some pl -> climb missing pl | None -> p :: missing)
    end
  in
  let rec fill level =
    match Seq.fold_left climb [] level with
    | [] -> ()
    | missing -> fill (Seq.map (link st) (List.to_seq (fetch_by_ids st missing)))
  in
  fill links;
  let rec key l =
    if Array.length l.key > 0 && l.key != climbed then l.key
    else
      let r = l.row in
      let o = match r.Node_row.ord with Node_row.Ol o -> o | _ -> 0 in
      let kp = match Option.bind r.Node_row.parent (Itbl.find_opt c) with Some pl -> key pl | None -> [||] in
      let n = Array.length kp in
      let k = Array.make (n + 1) o in
      Array.blit kp 0 k 0 n;
      l.key <- k;
      k
  in
  key

(* The one document-order sort: [doc_sort st groups] sorts any one of
   [groups], leaving rows that arrive in order as they are. Under LOCAL,
   rows that share one parent compare by l_order, and any other group by
   root path, the parent chains of all such groups completed at once (see
   [chain_keys]). *)
let doc_sort st groups =
  let by_ord rows = if is_sorted Node_row.compare_ord rows then rows else List.stable_sort Node_row.compare_ord rows in
  let siblings = function
    | [] -> true
    | (r : Node_row.t) :: rest ->
        List.for_all (fun (x : Node_row.t) -> Option.equal Int.equal x.Node_row.parent r.Node_row.parent) rest
  in
  if st.enc <> Encoding.Local then by_ord
  else
    let links g = Seq.map (link st) (List.to_seq g) in
    let key = chain_keys st (Seq.flat_map (fun g -> if siblings g then Seq.empty else links g) (List.to_seq groups)) in
    fun rows -> if siblings rows then by_ord rows else List.map (fun (_, l) -> l.row) (keyed key (List.of_seq (links rows)))

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
      let by_parent = Itbl.create 64 in
      List.iter
        (fun (p, row) -> Itbl.add by_parent p row)
        (ctx_join st Node_row.ids_relation (id_tuples ids)
           "e.parent = c.id AND e.kind <> 2");
      let next =
        List.concat_map
          (fun (origin, (r : Node_row.t)) ->
            List.map
              (fun kid -> (origin, kid))
              (Itbl.find_all by_parent r.Node_row.id))
          frontier
      in
      go (List.rev_append next acc) next
    end
  in
  go [] (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) ctx_rows)

(* LOCAL following/preceding from the root's descendants passing the node
   test ([cands_run]): link and key them and their ancestors, and sort them
   once. following(c) is the run after c's subtree; preceding(c) is the run
   before c minus c's ancestors (the prefixes of its key, the owner of an
   attribute included). With [stair], only the context whose following
   run starts first, or the last context for preceding, is paired: its
   rows, in document order, are all the contexts' rows. *)
let local_doc_order st ~stair ctx_rows axis (cands_run : run) =
  let cands = List.map (fun tu -> link st (Node_row.of_tuple st.enc tu)) (run_sql st ~params:cands_run.params cands_run.sql) in
  let ctx = List.map (link st) ctx_rows in
  let key = chain_keys st (List.to_seq (ctx @ cands)) in
  let sorted = Array.of_list (keyed key cands) in
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
  let after c = first (fun k -> Dewey.compare k (key c) > 0 && not (Dewey.is_strict_prefix (key c) k)) in
  let ctx =
    if not stair then ctx
    else best (fun d c -> if axis = A.Following then after d < after c else Dewey.compare (key d) (key c) > 0) ctx
  in
  List.concat_map
    (fun c ->
      let kc = key c and pair (_, l) = (c.row.Node_row.id, l.row) in
      match axis with
      | A.Following ->
          let i = after c in
          List.init (n - i) (fun j -> pair sorted.(i + j))
      | _ ->
          let i = first (fun k -> Dewey.compare k kc >= 0) in
          List.filter_map
            (fun (k, _ as e) -> if Dewey.is_strict_prefix k kc then None else Some (pair e))
            (Array.to_list (Array.sub sorted 0 i)))
    ctx

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
   middle tier, through the step's compiled [fetch]: (ctx id, row) pairs. *)
let rec candidates st ?(stair = false) ctx_rows (s : step) fetch =
  let { A.axis; test; _ } = s.step in
  let self () =
    List.filter_map (fun (r : Node_row.t) -> if test_passes A.Child test r then Some (r.Node_row.id, r) else None) ctx_rows
  in
  match fetch with
  | Self_rows -> self ()
  | With_self f -> self () @ candidates st ctx_rows s f
  | Root r -> List.map (fun r -> (0, r)) (root_run st r)
  | Context r -> ctx_run st ctx_rows r
  | Prefixes sql ->
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
                [| V.Int c.Node_row.id; V.Null; V.Null; V.Bytes (Dewey.encode (Array.sub path 0 (i + 1))) |]))
          ctx_rows
      in
      tagged st (Node_row.ctx_relation st.enc) prefixes sql
  | Chain_walk ->
      (* complete the context rows' chains, then walk them in the cache *)
      let (_ : link -> int array) = chain_keys st (Seq.map (link st) (List.to_seq ctx_rows)) in
      let c = st.chains in
      let rec up ctx acc = function
        | None -> acc
        | Some p -> (
            match Itbl.find_opt c p with
            | None -> acc
            | Some { row; _ } ->
                let acc = if test_passes axis test row then (ctx, row) :: acc else acc in
                up ctx acc row.Node_row.parent)
      in
      List.concat_map (fun (r : Node_row.t) -> up r.Node_row.id [] r.Node_row.parent) ctx_rows
  | Levels -> List.filter (fun (_, row) -> test_passes axis test row) (local_descendants st ctx_rows)
  | Doc_order r -> if ctx_rows = [] then [] else local_doc_order st ~stair ctx_rows axis r

(* ---- paths and predicates ----------------------------------------- *)

(* The rows that pass [p], counting positions in the order of [rows];
   [tallies]: each path predicate's counts per candidate id (see
   [eval_path_preds]), keyed by physical identity. *)
let apply_pred tallies rows p =
  let last = List.length rows in
  let rec holds pos (r : Node_row.t) p =
    match p with
    | Pos (op, k) -> Encoding.cmp_holds op (Stdlib.compare pos k)
    | Last -> pos = last
    | Exists _ | Cmp _ | Count _ -> (
        let n = Option.value (Option.bind (List.assq_opt p tallies) (fun t -> Itbl.find_opt t r.Node_row.id)) ~default:0 in
        match p with Count (_, op, k) -> Encoding.cmp_holds op (Stdlib.compare n k) | _ -> n > 0)
    | And (a, b) -> holds pos r a && holds pos r b
    | Or (a, b) -> holds pos r a || holds pos r b
    | Not a -> not (holds pos r a)
  in
  List.filteri (fun i r -> holds (i + 1) r p) rows

(* a flow in which each row is its own origin *)
let own rows : flow = List.map (fun (r : Node_row.t) -> (r.Node_row.id, [ r ])) rows

(* The one evaluator: a path's segments over a flow, giving a flow. A path
   not started starts from the root, its rows with origin 0. *)
let rec exec_segments st flow = function
  | [] -> flow
  | Run r :: rest when r.from_root -> exec_segments st [ (0, root_run st r) ] rest
  | Run r :: rest ->
      exec_segments st (rebind flow (ctx_run st (snd (contexts st (List.hd r.steps) flow)) r)) rest
  | Step s :: rest -> exec_segments st (eval_one_step st flow s) rest

(* One step of a flow in the middle tier: dedupe (or prune) contexts, fetch
   candidates, and rebind them to origins; with predicates, group them by
   context first, each group ordered when a predicate counts positions and
   filtered by the predicates. *)
and eval_one_step st flow (s : step) =
  let stair, ctx_rows = contexts st s.step flow in
  let cands = candidates st ~stair ctx_rows s s.fetch in
  Obs.add "translate.pairs" (List.length cands);
  if s.preds = [] then rebind ~unique:stair flow cands
  else begin
    let groups = group cands in
    let sort =
      if not (List.exists positional s.step.A.preds) then Fun.id
      else
        let sort = doc_sort st (List.map snd groups) in
        if is_reverse_axis s.step.A.axis then fun rows -> List.rev (sort rows) else sort
    in
    (* batched evaluation of path sub-predicates over all candidates *)
    let tallies = eval_path_preds st (dedup_rows (List.map snd cands)) s.preds in
    rebind ~unique:stair flow
      (List.concat_map
         (fun (ctx, rows) -> List.map (fun r -> (ctx, r)) (List.fold_left (apply_pred tallies) (sort rows) s.preds))
         groups)
  end

(* Each Exists / Cmp / Count subterm of the predicates, its path run once
   from every candidate: per candidate id, how many rows the path reaches
   (for Cmp, how many match: an element through its text children, the
   data-centric string value of the interface documentation); an origin
   that reaches none has no entry. *)
and eval_path_preds st cand_rows preds =
  let tally ?(keep = fun _ -> true) flow =
    let t = Itbl.create 16 in
    List.iter
      (fun (o, rows) ->
        let n = List.fold_left (fun n r -> if keep r then n + 1 else n) 0 rows in
        if n > 0 then Itbl.replace t o n)
      flow;
    t
  in
  let origins = own cand_rows in
  let rec walk acc p =
    match p with
    | Exists segs | Count (segs, _, _) -> (p, tally (exec_segments st origins segs)) :: acc
    | Cmp (segs, op, lit, texts) ->
        let flow = exec_segments st origins segs in
        let matches (r : Node_row.t) = Encoding.value_matches op lit r.Node_row.value in
        let elem (r : Node_row.t) = r.Node_row.kind = Doc_index.Elem in
        let passed = tally ~keep:matches (exec_segments st (own (dedup_rows (List.filter elem (rows_of flow)))) texts) in
        (p, tally ~keep:(fun r -> if elem r then Itbl.mem passed r.Node_row.id else matches r) flow) :: acc
    | And (a, b) | Or (a, b) -> walk (walk acc a) b
    | Not a -> walk acc a
    | Pos _ | Last -> acc
  in
  List.fold_left walk [] preds

(* ---- whole paths --------------------------------------------------- *)

(* Every path runs through [exec_segments], from the empty flow (from the
   root) or from the [ids] rows, once per path of a union; the rows are then
   sorted once. One path from the root leaves each row once ([rebind] over
   origin 0) but for a lone run, which may have sorted them; a LOCAL
   following/preceding step that prunes its contexts to one returns that
   one's rows in order. *)
let exec ?ids db ~doc enc (q : query) =
  let st = new_state db ~doc enc in
  let seed = match ids with Some ids -> own (fetch_by_ids st ids) | None -> [] in
  let path segs = rows_of (exec_segments st seed segs) in
  let doc_sort rows = doc_sort st [ rows ] rows in
  let rows =
    match (ids, q) with
    | None, [ segs ] -> (
        let rows = path segs in
        let rec last = function _ :: (_ :: _ as l) -> last l | l -> l in
        match (segs, last segs) with
        | [ Run r ], _ when r.sorted -> rows
        | _, [ Step { step; fetch = Doc_order _; _ } ] when prunes step -> rows
        | [ Run _ ], _ -> doc_sort (dedup_rows rows)
        | _ -> doc_sort rows)
    | _ -> doc_sort (dedup_rows (List.concat_map path q))
  in
  { rows; statements = List.length st.log; sql_log = List.rev st.log }

let eval db ~doc enc path = exec db ~doc enc (compile ~doc enc [ path ])
