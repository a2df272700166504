module T = Xmllib.Types
module V = Reldb.Value

exception No_subtree of int
exception No_document of string

(* The rows of edge table [e] joined with the relation [c] holding [ctx]. *)
let ctx_rows db ~doc enc rel ctx ~where =
  Node_row.with_relation db rel ctx (fun () ->
      List.map (Node_row.of_tuple enc)
        (Reldb.Db.query db
           (Printf.sprintf "SELECT %s FROM %s e, %s c WHERE %s"
              (Node_row.select_list enc "e")
              (Encoding.table_name ~doc enc)
              rel.Node_row.rel_name where)))

let root_id db ~doc enc =
  let tname = Encoding.table_name ~doc enc in
  let sql =
    Printf.sprintf "SELECT %s FROM %s e WHERE e.parent IS NULL"
      (Node_row.select_list enc "e") tname
  in
  match Reldb.Db.query_one db sql with
  | Some tu -> (Node_row.of_tuple enc tu).Node_row.id
  | None -> raise (No_document doc)

let fetch_subtree_rows db ~doc enc ~root =
  (* document order by the order value: sorting the decoded rows here is
     cheaper than an ORDER BY over the join's concatenated tuples *)
  let range where =
    List.stable_sort Node_row.compare_ord
      (ctx_rows db ~doc enc (Node_row.ctx_relation enc)
         [ Node_row.ctx_tuple root ] ~where)
  in
  match enc with
  | Encoding.Global | Encoding.Global_gap ->
      range "e.g_order >= c.g_order AND e.g_order <= c.g_end"
  | Encoding.Dewey_enc | Encoding.Dewey_caret ->
      range "e.path >= c.path AND e.path < c.path_ub"
  | Encoding.Local ->
      (* breadth-first: one SQL statement per level *)
      let acc = ref [ root ] in
      let frontier = ref [ root ] in
      while !frontier <> [] do
        let level =
          ctx_rows db ~doc enc Node_row.ids_relation
            (List.map (fun (r : Node_row.t) -> [| V.Int r.Node_row.id |]) !frontier)
            ~where:"e.parent = c.id"
        in
        acc := !acc @ level;
        frontier := level
      done;
      !acc

let assemble rows ~(root : Node_row.t) =
  (* children grouped by parent and sorted by the encoding's order value;
     attributes (kind 2) have negative LOCAL ranks / 0-level Dewey paths /
     early global intervals, so the same sort puts them first *)
  let by_parent : (int, Node_row.t list ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (r : Node_row.t) ->
      match r.Node_row.parent with
      | Some p when r.Node_row.id <> root.Node_row.id ->
          let cell =
            match Hashtbl.find_opt by_parent p with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add by_parent p c;
                c
          in
          cell := r :: !cell
      | _ -> ())
    rows;
  let children_of id =
    match Hashtbl.find_opt by_parent id with
    | None -> []
    | Some c -> List.sort Node_row.compare_ord !c
  in
  let rec build (r : Node_row.t) =
    match r.Node_row.kind with
    | Doc_index.Text_node -> T.Text r.Node_row.value
    | Doc_index.Comment_node -> T.Comment r.Node_row.value
    | Doc_index.Pi_node -> T.Pi { target = r.Node_row.tag; data = r.Node_row.value }
    | Doc_index.Attr ->
        (* unreachable: [subtree_root] refuses an attribute, and an
           element's attributes go to [attrs], never to [build] *)
        invalid_arg "Reconstruct: attribute outside element"
    | Doc_index.Elem ->
        let kids = children_of r.Node_row.id in
        let attrs, others =
          List.partition (fun (k : Node_row.t) -> k.Node_row.kind = Doc_index.Attr) kids
        in
        T.Element
          {
            T.tag = r.Node_row.tag;
            attrs =
              List.map
                (fun (a : Node_row.t) ->
                  { T.attr_name = a.Node_row.tag; attr_value = a.Node_row.value })
                attrs;
            children = List.map build others;
          }
  in
  build root

(* The row of a node that roots a subtree: an element, text, comment or PI. *)
let subtree_root db ~doc enc ~id =
  match
    ctx_rows db ~doc enc Node_row.ids_relation [ [| V.Int id |] ]
      ~where:"e.id = c.id"
  with
  | root :: _ when root.Node_row.kind <> Doc_index.Attr -> root
  | _ -> raise (No_subtree id)

let subtree db ~doc enc ~id =
  let root = subtree_root db ~doc enc ~id in
  assemble (fetch_subtree_rows db ~doc enc ~root) ~root

(* Single-pass serialization from document-ordered rows: a stack of open
   elements, closed when the next row's parent chain no longer includes
   them. Attribute rows arrive between their element and its first child,
   while the start tag is still open. *)
let serialize_rows buf rows =
  (* stack: (id, tag, still_open) where still_open = '>' not yet emitted *)
  let stack : (int * string * bool ref) list ref = ref [] in
  let close_tag () =
    match !stack with
    | (_, _, ({ contents = true } as pending)) :: _ ->
        Buffer.add_char buf '>';
        pending := false
    | _ -> ()
  in
  let pop () =
    match !stack with
    | (_, tag, pending) :: rest ->
        if !pending then Buffer.add_string buf "/>"
        else begin
          Buffer.add_string buf "</";
          Buffer.add_string buf tag;
          Buffer.add_char buf '>'
        end;
        stack := rest
    | [] -> ()
  in
  let rec unwind_to parent =
    match !stack with
    | (id, _, _) :: _ when Some id <> parent -> begin
        pop ();
        match !stack with [] -> () | _ -> unwind_to parent
      end
    | _ -> ()
  in
  List.iter
    (fun (r : Node_row.t) ->
      match r.Node_row.kind with
      | Doc_index.Attr ->
          (* belongs to the still-open element on top of the stack *)
          Buffer.add_char buf ' ';
          Buffer.add_string buf r.Node_row.tag;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (Xmllib.Printer.escape_attr r.Node_row.value);
          Buffer.add_char buf '"'
      | kind ->
          unwind_to r.Node_row.parent;
          close_tag ();
          (match kind with
          | Doc_index.Elem ->
              Buffer.add_char buf '<';
              Buffer.add_string buf r.Node_row.tag;
              stack := (r.Node_row.id, r.Node_row.tag, ref true) :: !stack
          | Doc_index.Text_node ->
              Buffer.add_string buf (Xmllib.Printer.escape_text r.Node_row.value)
          | Doc_index.Comment_node ->
              Xmllib.Printer.add_comment buf r.Node_row.value
          | Doc_index.Pi_node ->
              Xmllib.Printer.add_pi buf ~target:r.Node_row.tag
                ~data:r.Node_row.value
          | Doc_index.Attr -> assert false (* handled by the outer match *)))
    rows;
  while !stack <> [] do
    pop ()
  done

let serialize_subtree db ~doc enc ~id =
  let root = subtree_root db ~doc enc ~id in
  let rows = fetch_subtree_rows db ~doc enc ~root in
  let rows =
    match enc with
    | Encoding.Local -> fst (Translate.sort_document_order db ~doc enc rows)
    | _ -> rows
  in
  (* rebase: the subtree root must behave like a top-level node *)
  let buf = Buffer.create 1024 in
  serialize_rows buf rows;
  Buffer.contents buf

let document db ~doc enc =
  match subtree db ~doc enc ~id:(root_id db ~doc enc) with
  | T.Element root -> { T.decl = false; root }
  | T.Text _ | T.Comment _ | T.Pi _ | (exception No_subtree _) ->
      raise (No_document doc)
