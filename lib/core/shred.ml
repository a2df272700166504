module V = Reldb.Value

type order = Interval of int * int | Sibling of int | Path of int * Dewey.t

(* one boxed kind value per kind, shared by every row that has it *)
let kind_values = Array.init 5 (fun c -> V.Int c)

let edge_row ~id ~parent ~kind ~tag ~value order =
  Array.append
    [|
      V.Int id;
      (if parent < 0 then V.Null else V.Int parent);
      kind_values.(Doc_index.kind_code kind);
      (if tag = "" then V.Null else V.Str tag);
      (match kind with Doc_index.Elem -> V.Null | _ -> V.Str value);
      Encoding.nval_of ~kind value;
    |]
    (match order with
    | Interval (s, e) -> [| V.Int s; V.Int e |]
    | Sibling pos -> [| V.Int pos |]
    | Path (depth, path) -> [| V.Int depth; V.Bytes (Dewey.encode path) |])

(* ORDPATH-style load numbering: children at odd components (3, 5, 7, ...),
   leaving even components free as insertion carets and odd slot 1 free for
   one cheap prepend; the reserved attribute level 0 stays 0. *)
let component enc c =
  match enc with Encoding.Dewey_caret when c <> 0 -> (2 * c) + 1 | _ -> c

(* An open element, or (at the bottom of the stack) the parent of the
   top-level nodes. *)
type frame = {
  f_id : int;
  f_tag : string;
  f_pos : int;  (* LOCAL sibling position *)
  f_start : int;  (* GLOBAL interval start *)
  f_path : Dewey.t;  (* stored path *)
  f_depth : int;  (* logical depth *)
  mutable f_kids : int;  (* non-attribute children so far *)
}

let build_rows enc ~first_id ~endpoint ~parent ~pos ~path ~depth events emit =
  let next_id = ref first_id and ends = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let endpoint () =
    let v = endpoint !ends in
    incr ends;
    v
  in
  let paths = match enc with Encoding.Dewey_enc | Encoding.Dewey_caret -> true | _ -> false in
  let top = { f_id = parent; f_tag = ""; f_pos = 0; f_start = 0; f_path = [||]; f_depth = depth - 1; f_kids = pos - 1 } in
  (* the open elements, innermost first, above [top] *)
  let stack = ref [] in
  (* a new non-attribute node under the innermost frame: that frame, and
     the node's stored path *)
  let place () =
    let f = match !stack with f :: _ -> f | [] -> top in
    f.f_kids <- f.f_kids + 1;
    if not paths then (f, [||])
    else if f != top then (f, Dewey.child f.f_path (component enc f.f_kids))
    else if f.f_kids = pos then (f, path)
    else
      (* not reached: a document has one root, and Update inserts each
         DEWEY fragment with a path of its own *)
      invalid_arg "Shred.build_rows: a second top-level node needs its own path"
  in
  let row ~id ~parent ~kind ~tag ~value ~pos ~path ~depth start =
    emit
      (edge_row ~id ~parent ~kind ~tag ~value
         (match enc with
         | Encoding.Global | Encoding.Global_gap -> Interval (start, endpoint ())
         | Encoding.Local -> Sibling pos
         | Encoding.Dewey_enc | Encoding.Dewey_caret -> Path (depth, path)))
  in
  let leaf kind tag value =
    let id = fresh_id () in
    let f, path = place () in
    row ~id ~parent:f.f_id ~kind ~tag ~value ~pos:f.f_kids ~path ~depth:(f.f_depth + 1)
      (endpoint ())
  in
  events (function
    | Xmllib.Sax.Start_element { tag; attrs } ->
        let id = fresh_id () in
        let f, path = place () in
        let depth = f.f_depth + 1 in
        let start = endpoint () in
        let m = List.length attrs in
        List.iteri
          (fun j (name, value) ->
            let path =
              if paths then Array.append path [| 0; component enc (j + 1) |] else path
            in
            row ~id:(fresh_id ()) ~parent:id ~kind:Doc_index.Attr ~tag:name ~value
              ~pos:(j - m) ~path ~depth:(depth + 2) (endpoint ()))
          attrs;
        stack :=
          { f_id = id; f_tag = tag; f_pos = f.f_kids; f_start = start; f_path = path;
            f_depth = depth; f_kids = 0 }
          :: !stack
    | Xmllib.Sax.End_element _ -> (
        (* the row is complete only now, when its interval end is known *)
        match !stack with
        | e :: rest ->
            stack := rest;
            let f = match rest with f :: _ -> f | [] -> top in
            row ~id:e.f_id ~parent:f.f_id ~kind:Doc_index.Elem ~tag:e.f_tag ~value:""
              ~pos:e.f_pos ~path:e.f_path ~depth:e.f_depth e.f_start
        | [] ->
            (* not reached: Sax.iter refuses a stray end tag, and
               Sax.iter_node emits balanced events *)
            invalid_arg "Shred.build_rows: end tag without a start tag")
    | Xmllib.Sax.Text s -> leaf Doc_index.Text_node "" s
    | Xmllib.Sax.Comment s -> leaf Doc_index.Comment_node "" s
    | Xmllib.Sax.Pi { target; data } -> leaf Doc_index.Pi_node target data);
  !next_id - first_id

let in_id_order ~first_id rows =
  let out = Array.make (List.length rows) [||] in
  List.iter
    (fun row ->
      (* not reached: [edge_row] puts the id, an int, first *)
      match row.(0) with V.Int id -> out.(id - first_id) <- row | _ -> assert false)
    rows;
  Array.to_list out

(* A whole document: ids from 0, the root without a parent at sibling
   position 1 and path 1, interval endpoints [gap] apart. *)
let document_rows ?gap enc events emit =
  let gap =
    match enc with
    | Encoding.Global_gap -> Option.value gap ~default:Encoding.default_gap
    | _ -> 1
  in
  build_rows enc ~first_id:0
    ~endpoint:(fun i -> (i + 1) * gap)
    ~parent:(-1) ~pos:1
    ~path:(Array.map (component enc) Dewey.root)
    ~depth:(Dewey.depth Dewey.root) events emit

let shred ?gap db ~doc enc document =
  Obs.Span.with_ "shred"
    ~attrs:[ ("doc", doc); ("encoding", Encoding.name enc) ]
    (fun () ->
      Encoding.create_tables db ~doc enc;
      let rows = ref [] in
      let n =
        document_rows ?gap enc
          (fun f -> Xmllib.Sax.iter_node f (Xmllib.Types.Element document.Xmllib.Types.root))
          (fun row -> rows := row :: !rows)
      in
      (* bulk-load in one call: the engine's loader fast path *)
      ignore
        (Reldb.Db.insert_many db (Encoding.table_name ~doc enc)
           (in_id_order ~first_id:0 !rows));
      n)

(* rows are inserted as they complete: memory stays bounded by the depth *)
let shred_stream ?gap db ~doc enc src =
  Obs.Span.with_ "shred"
    ~attrs:[ ("doc", doc); ("encoding", Encoding.name enc); ("mode", "stream") ]
    (fun () ->
      Encoding.create_tables db ~doc enc;
      let tname = Encoding.table_name ~doc enc in
      document_rows ?gap enc (Xmllib.Sax.iter src) (fun row ->
          ignore (Reldb.Db.insert_many db tname [ row ])))
