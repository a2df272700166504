module T = Xmllib.Types
module V = Reldb.Value

exception No_subtree of int
exception No_document of string

(* The rows of edge table [e] that [where] selects. *)
let select ~doc enc ?(from = "") where =
  Printf.sprintf "SELECT %s FROM %s e%s WHERE %s" (Node_row.select_list enc "e")
    (Encoding.table_name ~doc enc) from where

let rows db enc ?(params = [||]) sql =
  List.map (Node_row.of_tuple enc) (Reldb.Db.query_params db sql params)

let fetch_row db ~doc enc ~id =
  match rows db enc (select ~doc enc "e.id = ?") ~params:[| V.Int id |] with
  | r :: _ -> Some r
  | [] -> None

let root_id db ~doc enc =
  match rows db enc (select ~doc enc "e.parent IS NULL") with
  | r :: _ -> r.Node_row.id
  | [] -> raise (No_document doc)

let fetch_subtree_rows db ~doc enc ~root =
  match Node_row.subtree_range root.Node_row.ord with
  | Some (range, bounds) ->
      (* the order index delivers the ORDER BY *)
      rows db enc (select ~doc enc range ^ " ORDER BY e." ^ Encoding.order_col enc) ~params:bounds
  | None ->
      (* LOCAL, breadth-first: one SQL statement per level; then document
         order in the middle tier, each node followed by its children in
         sibling rank (attributes' negative ranks first), depth first *)
      let ids = Node_row.ids_relation in
      let sql = select ~doc enc ~from:(", " ^ ids.Node_row.rel_name ^ " c") "e.parent = c.id" in
      let kids = Node_row.Tbl.create 256 in
      let frontier = ref [ root ] in
      while !frontier <> [] do
        let level =
          Node_row.with_relation db ids
            (List.map (fun (r : Node_row.t) -> [| V.Int r.Node_row.id |]) !frontier)
            (fun () -> rows db enc sql)
        in
        List.iter
          (fun (r : Node_row.t) ->
            Option.iter (fun p -> Node_row.Tbl.add kids p r) r.Node_row.parent)
          level;
        frontier := level
      done;
      let rec walk acc (r : Node_row.t) =
        List.fold_left walk (r :: acc)
          (List.sort Node_row.compare_ord (Node_row.Tbl.find_all kids r.Node_row.id))
      in
      List.rev (walk [] root)

(* The events of document-ordered rows: a stack of open elements, closed
   when a row's parent is not the innermost (-1 closes them all: no id is
   negative). An element's [Start_element] waits in [pending] for the
   attribute rows that follow it. *)
let iter_events rows emit =
  let stack = ref [] in
  let pending = ref None in
  let start () =
    Option.iter
      (fun ((e : Node_row.t), attrs) ->
        emit (Xmllib.Sax.Start_element { tag = e.Node_row.tag; attrs = List.rev attrs });
        stack := (e.Node_row.id, e.Node_row.tag) :: !stack;
        pending := None)
      !pending
  in
  let rec unwind parent =
    match !stack with
    | (id, tag) :: rest when id <> parent ->
        emit (Xmllib.Sax.End_element tag);
        stack := rest;
        unwind parent
    | _ -> ()
  in
  List.iter
    (fun (r : Node_row.t) ->
      match (r.Node_row.kind, !pending) with
      | Doc_index.Attr, Some (e, attrs) ->
          pending := Some (e, (r.Node_row.tag, r.Node_row.value) :: attrs)
      | Doc_index.Attr, None -> ()
      | kind, _ -> (
          start ();
          unwind (Option.value r.Node_row.parent ~default:(-1));
          match kind with
          | Doc_index.Elem -> pending := Some (r, [])
          | Doc_index.Text_node -> emit (Xmllib.Sax.Text r.Node_row.value)
          | Doc_index.Comment_node -> emit (Xmllib.Sax.Comment r.Node_row.value)
          | Doc_index.Pi_node ->
              emit (Xmllib.Sax.Pi { target = r.Node_row.tag; data = r.Node_row.value })
          | Doc_index.Attr -> ()))
    rows;
  start ();
  unwind (-1)

(* The row of a node that roots a subtree: an element, text, comment or PI. *)
let subtree_root db ~doc enc ~id =
  match fetch_row db ~doc enc ~id with
  | Some root when root.Node_row.kind <> Doc_index.Attr -> root
  | _ -> raise (No_subtree id)

let subtree db ~doc enc ~id =
  let root = subtree_root db ~doc enc ~id in
  match Xmllib.Sax.build (iter_events (fetch_subtree_rows db ~doc enc ~root)) with
  | node :: _ -> node
  | [] -> raise (No_subtree id)

let serialize_subtree db ~doc enc ~id =
  let root = subtree_root db ~doc enc ~id in
  let buf = Buffer.create 1024 in
  Xmllib.Printer.add_events buf (iter_events (fetch_subtree_rows db ~doc enc ~root));
  Buffer.contents buf

let string_value db ~doc enc (r : Node_row.t) =
  match r.Node_row.kind with
  | Doc_index.Elem ->
      let buf = Buffer.create 64 in
      iter_events (fetch_subtree_rows db ~doc enc ~root:r) (function
        | Xmllib.Sax.Text s -> Buffer.add_string buf s
        | _ -> ());
      Buffer.contents buf
  | _ -> r.Node_row.value

let document db ~doc enc =
  match subtree db ~doc enc ~id:(root_id db ~doc enc) with
  | T.Element root -> { T.decl = false; root }
  | T.Text _ | T.Comment _ | T.Pi _ | (exception No_subtree _) ->
      raise (No_document doc)
