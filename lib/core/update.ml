module T = Xmllib.Types
module V = Reldb.Value

let log_src = Logs.Src.create "ordered_xml.update" ~doc:"order-preserving updates"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  rows_inserted : int;
  rows_deleted : int;
  rows_renumbered : int;
  statements : int;
}

exception Update_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Update_error s)) fmt

let zero = { rows_inserted = 0; rows_deleted = 0; rows_renumbered = 0; statements = 0 }

type state = {
  db : Reldb.Db.t;
  doc : string;
  enc : Encoding.t;
  tname : string;
  mutable st : stats;
}

let new_state db ~doc enc = { db; doc; enc; tname = Encoding.table_name ~doc enc; st = zero }

(* Every public update runs as one transaction: a logical XML update either
   lands completely or not at all. Compound operations (move, replace) call
   the primitives re-entrantly, so nesting joins the enclosing transaction. *)
let transactionally db f =
  if Reldb.Db.in_transaction db then f () else Reldb.Db.with_transaction db f

(* Every statement text is fixed per table and encoding; per-call values
   (ids, order values, paths, shift widths) are bound to its [?] slots, so
   each text is parsed and planned once and then served from the plan
   cache. *)
let exec state sql params =
  state.st <- { state.st with statements = state.st.statements + 1 };
  Log.debug (fun m -> m "%s" sql);
  match Reldb.Db.exec_params state.db sql params with
  | Reldb.Db.Affected n -> n
  | Reldb.Db.Rows _ -> 0

let query state sql params =
  state.st <- { state.st with statements = state.st.statements + 1 };
  Reldb.Db.query_params state.db sql params

(* order-maintenance statements run under a [renumber] span so update-path
   phase breakdowns separate renumbering cost from row insertion *)
let renumber state sql params =
  Obs.Span.with_ "renumber" (fun () -> exec state sql params)

let fetch_node state id =
  state.st <- { state.st with statements = state.st.statements + 1 };
  match Reconstruct.fetch_row state.db ~doc:state.doc state.enc ~id with
  | Some r -> r
  | None -> fail "no node with id %d" id

(* non-attribute children of a node, in document order *)
let fetch_children state id =
  let sql =
    Printf.sprintf
      "SELECT %s FROM %s e WHERE e.parent = ? AND e.kind <> 2 ORDER BY e.%s"
      (Node_row.select_list state.enc "e") state.tname
      (Encoding.order_col state.enc)
  in
  List.map (Node_row.of_tuple state.enc) (query state sql [| V.Int id |])

let max_id state =
  match query state (Printf.sprintf "SELECT MAX(id) FROM %s" state.tname) [||] with
  | [ [| V.Int m |] ] -> m
  | _ -> 0

(* --- shared row construction ----------------------------------------- *)

(* routed through the engine so durable databases WAL-log the row *)
let insert_row state tuple =
  (try ignore (Reldb.Db.insert_many state.db state.tname [ tuple ])
   with Reldb.Db.Sql_error m -> fail "%s" m);
  state.st <- { state.st with rows_inserted = state.st.rows_inserted + 1 }

(* one bulk-load call instead of a statement per row *)
let bulk_insert state rows =
  if rows <> [] then begin
    let n =
      try Reldb.Db.insert_many state.db state.tname rows
      with Reldb.Db.Sql_error m -> fail "%s" m
    in
    state.st <-
      {
        state.st with
        statements = state.st.statements + 1;
        rows_inserted = state.st.rows_inserted + n;
      }
  end

(* --- insertion boundary ---------------------------------------------- *)

type boundary = {
  parent_row : Node_row.t;
  siblings : Node_row.t list;  (* non-attr children, in order *)
  pos : int;
}

let locate state ~parent ~pos =
  let parent_row = fetch_node state parent in
  if parent_row.Node_row.kind <> Doc_index.Elem then
    fail "node %d is not an element" parent;
  let siblings = fetch_children state parent in
  let n = List.length siblings in
  if pos < 1 || pos > n + 1 then
    fail "position %d out of range (parent has %d children)" pos n;
  { parent_row; siblings; pos }

(* Run the row builder over [fragments], their top nodes under the
   boundary's parent and their ids from [first_id], and insert the rows in
   one call; returns the number of rows. *)
let insert_fragments state b ~first_id ?(endpoint = Fun.id) ?(pos = 1) ?(path = [||])
    ?(depth = 0) fragments =
  let rows = ref [] in
  let n =
    Shred.build_rows state.enc ~first_id ~endpoint ~parent:b.parent_row.Node_row.id ~pos
      ~path ~depth
      (fun f -> List.iter (Xmllib.Sax.iter_node f) fragments)
      (fun row -> rows := row :: !rows)
  in
  bulk_insert state (Shred.in_id_order ~first_id !rows);
  n

(* --- LOCAL ----------------------------------------------------------- *)

let local_insert state b ~first_id fragments =
  (* one sibling shift makes room for the whole forest *)
  let k = List.length fragments in
  let l0 =
    if b.pos <= List.length b.siblings then Node_row.local (List.nth b.siblings (b.pos - 1))
    else match List.rev b.siblings with [] -> 1 | last :: _ -> Node_row.local last + 1
  in
  (if b.pos <= List.length b.siblings then begin
     let shifted =
       renumber state
         (Printf.sprintf
            "UPDATE %s SET l_order = l_order + ? WHERE parent = ? AND l_order >= ?"
            state.tname)
         [| V.Int k; V.Int b.parent_row.Node_row.id; V.Int l0 |]
     in
     state.st <- { state.st with rows_renumbered = state.st.rows_renumbered + shifted }
   end);
  ignore (insert_fragments state b ~first_id ~pos:l0 fragments)

(* --- GLOBAL (dense and gapped) --------------------------------------- *)

(* Open [k] values at [hi]: one index-range statement moves every row at
   or after [hi], both endpoints at once; then the rows whose interval
   contains [hi] stretch their end. Those are [around] (the innermost
   element enclosing [hi]) and its ancestors, reached through the parent
   chain. *)
let global_shift state ~(around : Node_row.t) ~hi k =
  let moved =
    renumber state
      (Printf.sprintf
         "UPDATE %s SET g_order = g_order + ?, g_end = g_end + ? WHERE g_order >= ?"
         state.tname)
      [| V.Int k; V.Int k; V.Int hi |]
  in
  let stretch = Printf.sprintf "UPDATE %s SET g_end = g_end + ? WHERE id = ?" state.tname in
  let parent_of = Printf.sprintf "SELECT parent FROM %s WHERE id = ?" state.tname in
  let parent_id id =
    match query state parent_of [| V.Int id |] with
    | [ [| V.Int p |] ] -> Some p
    | _ -> None
  in
  let rec stretch_from id parent =
    let n = renumber state stretch [| V.Int k; V.Int id |] in
    n + match parent with None -> 0 | Some p -> stretch_from p (parent_id p)
  in
  let stretched = stretch_from around.Node_row.id around.Node_row.parent in
  state.st <-
    { state.st with rows_renumbered = state.st.rows_renumbered + moved + stretched }

let global_insert state b ~first_id fragments ~gapped =
  let total = List.fold_left (fun n f -> n + T.node_count f) 0 fragments in
  let need = 2 * total in
  (* free window (lo, hi): between the predecessor's last used value and the
     successor's first *)
  let lo =
    if b.pos = 1 then begin
      (* the parent's attribute records sit between the parent's start and
         its first child; the window must begin after them *)
      let attr_end =
        query state
          (Printf.sprintf "SELECT MAX(g_end) FROM %s WHERE parent = ? AND kind = 2"
             state.tname)
          [| V.Int b.parent_row.Node_row.id |]
      in
      match attr_end with
      | [ [| V.Int m |] ] -> m
      | _ -> fst (Node_row.global b.parent_row)
    end
    else snd (Node_row.global (List.nth b.siblings (b.pos - 2)))
  in
  let hi =
    if b.pos <= List.length b.siblings then fst (Node_row.global (List.nth b.siblings (b.pos - 1)))
    else snd (Node_row.global b.parent_row)
  in
  (* the value of the forest's [ordinal]-th interval endpoint *)
  let assign =
    if gapped && hi - lo > need then begin
      (* place endpoints inside the gap: ordinal i -> lo + (i+1)*(hi-lo)/(need+1) *)
      fun ordinal -> lo + ((ordinal + 1) * (hi - lo) / (need + 1))
    end
    else begin
      (* open a window of [need] values at [hi]; when gapped, shift by
         gap-sized strides to restore headroom *)
      let stride = if gapped then need * Encoding.default_gap else need in
      global_shift state ~around:b.parent_row ~hi stride;
      if gapped then
        let step = stride / (need + 1) in
        fun ordinal -> hi - 1 + ((ordinal + 1) * step)
      else fun ordinal -> hi + ordinal
    end
  in
  ignore (insert_fragments state b ~first_id ~endpoint:assign fragments)

(* --- DEWEY (plain and caret) ------------------------------------------ *)

(* Move a whole subtree to a new path prefix: every row under the old
   prefix gets the new prefix followed by the rest of its own path. *)
let rewrite_subtree_paths state ~old_path ~new_path =
  Obs.Span.with_ "renumber" ~attrs:[ ("op", "rewrite-paths") ] @@ fun () ->
  let old_enc = Dewey.encode old_path in
  let range, bounds = Option.get (Node_row.subtree_range (Node_row.Od old_enc)) in
  let n =
    exec state
      (Printf.sprintf "UPDATE %s SET path = ? || SUBSTR(path, ?) WHERE %s" state.tname range)
      (Array.append [| V.Bytes (Dewey.encode new_path); V.Int (String.length old_enc + 1) |] bounds)
  in
  state.st <- { state.st with rows_renumbered = state.st.rows_renumbered + n }

(* one bulk insert per fragment, in order; [target j] gives the j-th
   fragment's top node its stored path and logical depth *)
let graft state b ~first_id fragments target =
  ignore
    (List.fold_left
       (fun (j, first_id) fragment ->
         let path, depth = target j in
         (j + 1, first_id + insert_fragments state b ~first_id ~path ~depth [ fragment ]))
       (0, first_id) fragments)

let fetch_depth state id =
  match
    query state (Printf.sprintf "SELECT depth FROM %s WHERE id = ?" state.tname) [| V.Int id |]
  with
  | [ [| V.Int d |] ] -> d
  | _ -> fail "node %d has no depth" id

let dewey_insert state b ~first_id fragments =
  let k = List.length fragments in
  let parent_path = Node_row.dewey b.parent_row in
  let comp_of (r : Node_row.t) = Dewey.last (Node_row.dewey r) in
  let c0 =
    if b.pos <= List.length b.siblings then comp_of (List.nth b.siblings (b.pos - 1))
    else
      match List.rev b.siblings with
      | [] -> 1
      | last :: _ -> comp_of last + 1
  in
  (* shift following siblings by the forest width in one pass (component
     >= c0), last first so the unique path index never sees a collision;
     every row of each sibling subtree gets its path prefix rewritten *)
  let to_shift =
    List.filter (fun s -> comp_of s >= c0) b.siblings |> List.rev
  in
  List.iter
    (fun (s : Node_row.t) ->
      let old_path = Node_row.dewey s in
      rewrite_subtree_paths state ~old_path
        ~new_path:(Dewey.with_last old_path (Dewey.last old_path + k)))
    to_shift;
  graft state b ~first_id fragments (fun j ->
      let target = Dewey.child parent_path (c0 + j) in
      (target, Dewey.depth target))

(* --- ORDPATH-style caret allocation ------------------------------------ *)

(* Component vectors relative to the parent path. ORDPATH invariants:

   - real node labels always terminate in an ODD component (children are
     loaded at odd components); the attribute level is 0;
   - an insertion whose sibling gap holds no free integer claims the EVEN
     value between the neighbors and extends it ("caret"), e.g. between
     [3] and [5] the new label is [4; 5];
   - carets therefore extend only even-ended proper prefixes, never a full
     node label — so "path extends node X's path" still means "attribute or
     descendant of X", which is what the SQL prefix ranges rely on.

   Raises [No_slot] when a zone is exhausted towards the front (full
   ORDPATH escapes with negative components; the unsigned codec cannot, so
   the caller falls back to a renumbering that restores headroom). *)
exception No_slot

(* first label inside a freshly opened caret zone: odd, with room for
   ~32k further insertions on either side before the zone is exhausted *)
let caret_zone_start = 65537

(* [lo]: the lower neighbour's label, [] when there is none; [hi]: the
   upper neighbour's, [None] when there is none *)
let rec caret_between lo hi =
  match (lo, hi) with
  | _, Some [] -> raise No_slot
  | [], None ->
      (* empty parent: first child *)
      [ 3 ]
  | l0 :: _, None ->
      (* append: next odd above the last head *)
      [ (if l0 mod 2 = 0 then l0 + 1 else l0 + 2) ]
  | [], Some (h0 :: ht) ->
      (* prepend: the largest odd below h0, if any *)
      let c = if (h0 - 1) mod 2 = 1 then h0 - 1 else h0 - 2 in
      if c >= 1 then [ c ]
      else if h0 mod 2 = 0 && ht <> [] then
        (* hi is a caret zone: slot in below its tail *)
        h0 :: caret_between [] (Some ht)
      else raise No_slot
  | l0 :: lt, Some (h0 :: ht) ->
      if h0 - l0 >= 2 then begin
        (* room at this level: prefer an odd label, else open a caret with
           enough headroom that a hotspot amortizes *)
        let c = if (l0 + 1) mod 2 = 1 then l0 + 1 else l0 + 2 in
        if c < h0 then [ c ] else [ l0 + 1; caret_zone_start ]
      end
      else if h0 = l0 then begin
        (* shared head: only caret heads can be shared by two labels *)
        if l0 mod 2 = 1 || l0 = 0 then raise No_slot
        else l0 :: caret_between lt (Some ht)
      end
      else begin
        (* adjacent heads: extend whichever side is a caret zone *)
        if l0 mod 2 = 0 then
          l0 :: caret_between lt None
        else (* h0 = l0 + 1 is even *)
          h0 :: caret_between [] (Some ht)
      end

let suffix_of parent_len (r : Node_row.t) =
  let p = Node_row.dewey r in
  Array.to_list (Array.sub p parent_len (Array.length p - parent_len))

(* renumbering fallback: repack positions [pos..] with fresh odd heads and
   generous headroom below (so front insertions amortize), going through a
   temporary zone so the unique path index never collides *)
let caret_prepend_headroom = 64

let caret_renumber state b ~parent_path ~lo_head =
  let parent_len = Array.length parent_path in
  let moved = List.filteri (fun i _ -> i >= b.pos - 1) b.siblings in
  let heads = List.map (fun s -> List.hd (suffix_of parent_len s)) b.siblings in
  let max_head = List.fold_left max 0 heads in
  let target_head =
    let t = lo_head + caret_prepend_headroom in
    if t mod 2 = 0 then t + 1 else t
  in
  let final_heads = List.mapi (fun i _ -> target_head + (2 * (i + 1))) moved in
  let tmp_base =
    let top = max max_head (List.fold_left max target_head final_heads) in
    top + 2
  in
  let rewrite = rewrite_subtree_paths state in
  (* phase 1: everything up into the free zone above all heads, the last
     sibling first, so that none crosses a sibling still waiting and every
     index entry is rewritten in its slot *)
  List.iter
    (fun (i, (s : Node_row.t)) ->
      let old_path = Node_row.dewey s in
      rewrite ~old_path
        ~new_path:(Array.append parent_path [| tmp_base + (2 * i) |]))
    (List.rev (List.mapi (fun i s -> (i, s)) moved));
  (* phase 2: down to the final dense odd heads *)
  List.iteri
    (fun i final ->
      let tmp = Array.append parent_path [| tmp_base + (2 * i) |] in
      rewrite ~old_path:tmp ~new_path:(Array.append parent_path [| final |]))
    final_heads;
  target_head

let caret_insert state b ~first_id fragments =
  let parent_path = Node_row.dewey b.parent_row in
  let parent_len = Array.length parent_path in
  let lo0 = if b.pos = 1 then [] else suffix_of parent_len (List.nth b.siblings (b.pos - 2)) in
  let hi =
    if b.pos <= List.length b.siblings then
      Some (suffix_of parent_len (List.nth b.siblings (b.pos - 1)))
    else None
  in
  let target_depth = fetch_depth state b.parent_row.Node_row.id + 1 in
  (* allocate slots one after another, each bounded below by the previous
     allocation; careting never renumbers except on zone exhaustion *)
  let lo = ref lo0 in
  graft state b ~first_id fragments (fun _ ->
      let rel =
        try caret_between !lo hi
        with No_slot ->
          let lo_head = match !lo with l0 :: _ -> l0 | [] -> 0 in
          [ caret_renumber state b ~parent_path ~lo_head ]
      in
      lo := rel;
      (Array.append parent_path (Array.of_list rel), target_depth))

(* --- public API -------------------------------------------------------- *)

let insert_forest db ~doc enc ~parent ~pos fragments =
  if fragments = [] then fail "insert_forest: empty forest";
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let b = locate state ~parent ~pos in
  let first_id = max_id state + 1 in
  (match enc with
  | Encoding.Local -> local_insert state b ~first_id fragments
  | Encoding.Global -> global_insert state b ~first_id fragments ~gapped:false
  | Encoding.Global_gap -> global_insert state b ~first_id fragments ~gapped:true
  | Encoding.Dewey_enc -> dewey_insert state b ~first_id fragments
  | Encoding.Dewey_caret -> caret_insert state b ~first_id fragments);
  state.st

let insert_subtree db ~doc enc ~parent ~pos fragment =
  insert_forest db ~doc enc ~parent ~pos [ fragment ]

let append_child db ~doc enc ~parent fragment =
  let state = new_state db ~doc enc in
  let n = List.length (fetch_children state parent) in
  insert_subtree db ~doc enc ~parent ~pos:(n + 1) fragment

let delete_subtree db ~doc enc ~id =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  if row.Node_row.kind = Doc_index.Attr then fail "cannot delete an attribute subtree";
  let parent =
    match row.Node_row.parent with Some p -> p | None -> fail "cannot delete the document root"
  in
  let deleted =
    match Node_row.subtree_range row.Node_row.ord with
    | Some (range, bounds) -> exec state (Printf.sprintf "DELETE FROM %s WHERE %s" state.tname range) bounds
    | None ->
        (* LOCAL: collect the subtree breadth-first, delete, then close the
           sibling gap *)
        let rows = Reconstruct.fetch_subtree_rows db ~doc enc ~root:row in
        let del = Printf.sprintf "DELETE FROM %s WHERE id = ?" state.tname in
        let n =
          List.fold_left
            (fun acc (r : Node_row.t) -> acc + exec state del [| V.Int r.Node_row.id |])
            0 rows
        in
        let shifted =
          renumber state
            (Printf.sprintf
               "UPDATE %s SET l_order = l_order - 1 WHERE parent = ? AND l_order > ?"
               state.tname)
            [| V.Int parent; V.Int (Node_row.local row) |]
        in
        state.st <-
          { state.st with rows_renumbered = state.st.rows_renumbered + shifted };
        n
  in
  { state.st with rows_deleted = deleted }

let move_subtree db ~doc enc ~id ~parent ~pos =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  if row.Node_row.kind = Doc_index.Attr then fail "cannot move an attribute";
  if row.Node_row.parent = None then fail "cannot move the document root";
  (* the destination must not be inside the moved subtree *)
  let subtree_rows = Reconstruct.fetch_subtree_rows db ~doc enc ~root:row in
  if List.exists (fun (r : Node_row.t) -> r.Node_row.id = parent) subtree_rows
  then fail "cannot move node %d under its own descendant %d" id parent;
  let fragment = Reconstruct.subtree db ~doc enc ~id in
  let st1 = delete_subtree db ~doc enc ~id in
  let st2 = insert_subtree db ~doc enc ~parent ~pos fragment in
  {
    rows_inserted = st1.rows_inserted + st2.rows_inserted;
    rows_deleted = st1.rows_deleted + st2.rows_deleted;
    rows_renumbered = st1.rows_renumbered + st2.rows_renumbered;
    statements = st1.statements + st2.statements;
  }

(* attribute rows of an element, in attribute order *)
let fetch_attrs state id =
  let sql =
    Printf.sprintf
      "SELECT %s FROM %s e WHERE e.parent = ? AND e.kind = 2 ORDER BY e.%s"
      (Node_row.select_list state.enc "e") state.tname
      (Encoding.order_col state.enc)
  in
  List.map (Node_row.of_tuple state.enc) (query state sql [| V.Int id |])

(* overwrite a text/attribute payload in place, with its numeric shadow *)
let set_value state ~id ~kind value =
  exec state
    (Printf.sprintf "UPDATE %s SET value = ?, nval = ? WHERE id = ?" state.tname)
    [| V.Str value; Encoding.nval_of ~kind value; V.Int id |]

let set_attribute db ~doc enc ~id ~name ~value =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  if row.Node_row.kind <> Doc_index.Elem then fail "node %d is not an element" id;
  let attrs = fetch_attrs state id in
  match
    List.find_opt (fun (a : Node_row.t) -> a.Node_row.tag = name) attrs
  with
  | Some existing ->
      (* overwrite in place: order untouched *)
      let n = set_value state ~id:existing.Node_row.id ~kind:Doc_index.Attr value in
      { state.st with rows_renumbered = n }
  | None -> begin
      let new_id = max_id state + 1 in
      let insert order =
        insert_row state
          (Shred.edge_row ~id:new_id ~parent:id ~kind:Doc_index.Attr ~tag:name ~value order)
      in
      (match enc with
      | Encoding.Local ->
          (* keep ranks dense at -m..-1: shift the old ones down *)
          let shifted =
            renumber state
              (Printf.sprintf
                 "UPDATE %s SET l_order = l_order - 1 WHERE parent = ? AND kind = 2"
                 state.tname)
              [| V.Int id |]
          in
          state.st <-
            { state.st with rows_renumbered = state.st.rows_renumbered + shifted };
          insert (Shred.Sibling (-1))
      | Encoding.Global | Encoding.Global_gap ->
          (* open two interval values right after the last attribute *)
          let hi =
            (* first value after the attribute zone: first child start, or
               the parent's end *)
            match fetch_children state id with
            | first :: _ -> fst (Node_row.global first)
            | [] -> snd (Node_row.global row)
          in
          global_shift state ~around:row ~hi 2;
          insert (Shred.Interval (hi, hi + 1))
      | Encoding.Dewey_enc | Encoding.Dewey_caret ->
          let parent_path = Node_row.dewey row in
          let next_j =
            match List.rev attrs with
            | [] -> 1
            | last :: _ -> Dewey.last (Node_row.dewey last) + 1
          in
          let depth = fetch_depth state id + 2 in
          insert (Shred.Path (depth, Array.append parent_path [| 0; next_j |])));
      state.st
    end

let remove_attribute db ~doc enc ~id ~name =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  if row.Node_row.kind <> Doc_index.Elem then fail "node %d is not an element" id;
  match
    List.find_opt
      (fun (a : Node_row.t) -> a.Node_row.tag = name)
      (fetch_attrs state id)
  with
  | None -> state.st
  | Some victim ->
      let deleted =
        exec state
          (Printf.sprintf "DELETE FROM %s WHERE id = ?" state.tname)
          [| V.Int victim.Node_row.id |]
      in
      (* LOCAL keeps attribute ranks dense at -m..-1 *)
      (match (enc, victim.Node_row.ord) with
      | Encoding.Local, Node_row.Ol pos ->
          let shifted =
            renumber state
              (Printf.sprintf
                 "UPDATE %s SET l_order = l_order + 1 WHERE parent = ? AND kind = 2 \
                  AND l_order < ?"
                 state.tname)
              [| V.Int id; V.Int pos |]
          in
          state.st <-
            { state.st with rows_renumbered = state.st.rows_renumbered + shifted }
      | _ -> ());
      { state.st with rows_deleted = deleted }

let replace_subtree db ~doc enc ~id fragment =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  if row.Node_row.kind = Doc_index.Attr then fail "cannot replace an attribute";
  let parent =
    match row.Node_row.parent with
    | Some p -> p
    | None -> fail "cannot replace the document root"
  in
  (* position among the parent's non-attribute children *)
  let siblings = fetch_children state parent in
  let pos =
    match
      List.find_index (fun (s : Node_row.t) -> s.Node_row.id = id) siblings
    with
    | Some i -> i + 1
    | None -> fail "node %d not found among its parent's children" id
  in
  let st1 = delete_subtree db ~doc enc ~id in
  let st2 = insert_subtree db ~doc enc ~parent ~pos fragment in
  {
    rows_inserted = st1.rows_inserted + st2.rows_inserted;
    rows_deleted = st1.rows_deleted + st2.rows_deleted;
    rows_renumbered = st1.rows_renumbered + st2.rows_renumbered;
    statements = st1.statements + st2.statements;
  }

let set_text db ~doc enc ~id value =
  transactionally db @@ fun () ->
  let state = new_state db ~doc enc in
  let row = fetch_node state id in
  (match row.Node_row.kind with
  | Doc_index.Text_node | Doc_index.Attr | Doc_index.Comment_node
  | Doc_index.Pi_node ->
      ()
  | Doc_index.Elem -> fail "set_text on an element (id %d)" id);
  let n = set_value state ~id ~kind:row.Node_row.kind value in
  { state.st with rows_renumbered = n }
