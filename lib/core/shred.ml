module V = Reldb.Value

let interval_numbering idx ~gap =
  let n = Doc_index.length idx in
  let out = Array.make n (0, 0) in
  let counter = ref 0 in
  let next () =
    counter := !counter + gap;
    !counter
  in
  let rec go i =
    let start = next () in
    List.iter go (Doc_index.attributes idx i);
    List.iter go (Doc_index.children idx i);
    out.(i) <- (start, next ())
  in
  go 0;
  out

type order = Interval of int * int | Sibling of int | Path of int * Dewey.t

let edge_row ~id ~parent ~kind ~tag ~value order =
  Array.append
    [|
      V.Int id;
      (if parent < 0 then V.Null else V.Int parent);
      V.Int (Doc_index.kind_code kind);
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
let caretify path =
  Array.map (fun c -> if c = 0 then 0 else (2 * c) + 1) path

(* the order columns a loader gives a node: its GLOBAL interval, its
   sibling position, or its Dewey path *)
let load_order enc ~interval:(s, e) ~pos ~dewey =
  match enc with
  | Encoding.Global | Encoding.Global_gap -> Interval (s, e)
  | Encoding.Local -> Sibling pos
  | Encoding.Dewey_enc -> Path (Dewey.depth dewey, dewey)
  | Encoding.Dewey_caret -> Path (Dewey.depth dewey, caretify dewey)

let shred ?gap db ~doc enc document =
  Obs.Span.with_ "shred"
    ~attrs:[ ("doc", doc); ("encoding", Encoding.name enc) ]
    (fun () ->
      let idx = Doc_index.build document in
      Encoding.create_tables db ~doc enc;
      let gap_orders =
        match enc with
        | Encoding.Global -> Some (interval_numbering idx ~gap:1)
        | Encoding.Global_gap ->
            Some
              (interval_numbering idx
                 ~gap:(Option.value gap ~default:Encoding.default_gap))
        | Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret -> None
      in
      (* bulk-load in one call: build all rows first, then hand the batch to
         the engine's loader fast path *)
      let rows =
        Array.fold_right
          (fun (r : Doc_index.record) acc ->
            (* only GLOBAL encodings read the interval *)
            let interval =
              match gap_orders with Some o -> o.(r.Doc_index.id) | None -> (0, 0)
            in
            edge_row ~id:r.Doc_index.id ~parent:r.Doc_index.parent
              ~kind:r.Doc_index.kind ~tag:r.Doc_index.tag ~value:r.Doc_index.value
              (load_order enc ~interval ~pos:r.Doc_index.pos ~dewey:r.Doc_index.dewey)
            :: acc)
          (Doc_index.records idx) []
      in
      ignore (Reldb.Db.insert_many db (Encoding.table_name ~doc enc) rows);
      idx)

(* ------------------------------------------------------------------ *)
(* Streaming load                                                      *)
(* ------------------------------------------------------------------ *)

type frame = {
  f_id : int;
  f_tag : string;
  f_start : int;  (* GLOBAL interval start *)
  mutable f_children : int;  (* non-attribute children seen *)
  f_dewey : Dewey.t;  (* logical path *)
}

let shred_stream ?gap db ~doc enc src =
 Obs.Span.with_ "shred"
   ~attrs:[ ("doc", doc); ("encoding", Encoding.name enc); ("mode", "stream") ]
 @@ fun () ->
  Encoding.create_tables db ~doc enc;
  let tname = Encoding.table_name ~doc enc in
  let insert_tuple row = ignore (Reldb.Db.insert_many db tname [ row ]) in
  let gap =
    match enc with
    | Encoding.Global -> 1
    | Encoding.Global_gap -> Option.value gap ~default:Encoding.default_gap
    | Encoding.Local | Encoding.Dewey_enc | Encoding.Dewey_caret -> 1
  in
  let counter = ref 0 in
  let next () =
    counter := !counter + gap;
    !counter
  in
  let ids = ref 0 in
  let next_id () =
    let id = !ids in
    incr ids;
    id
  in
  let stack : frame list ref = ref [] in
  let add_row ~id ~parent ~kind ~tag ~value ~pos ~dewey ~interval =
    insert_tuple
      (edge_row ~id ~parent ~kind ~tag ~value (load_order enc ~interval ~pos ~dewey))
  in
  let leaf ~kind ~tag ~value =
    let id = next_id () in
    let parent, pos, dewey =
      match !stack with
      | [] -> invalid_arg "Shred.shred_stream: leaf outside root"
      | f :: _ ->
          f.f_children <- f.f_children + 1;
          (f.f_id, f.f_children, Dewey.child f.f_dewey f.f_children)
    in
    let s = next () in
    let e = next () in
    add_row ~id ~parent ~kind ~tag ~value ~pos ~dewey ~interval:(s, e)
  in
  Xmllib.Sax.iter src (fun ev ->
      match ev with
      | Xmllib.Sax.Start_element { tag; attrs } ->
          let id = next_id () in
          let parent, pos, dewey =
            match !stack with
            | [] -> (-1, 1, Dewey.root)
            | f :: _ ->
                f.f_children <- f.f_children + 1;
                (f.f_id, f.f_children, Dewey.child f.f_dewey f.f_children)
          in
          let f_start = next () in
          let m = List.length attrs in
          List.iteri
            (fun j (an, av) ->
              let aid = next_id () in
              let s = next () in
              let e = next () in
              add_row ~id:aid ~parent:id ~kind:Doc_index.Attr ~tag:an ~value:av
                ~pos:(j - m)
                ~dewey:(Dewey.child (Dewey.child dewey 0) (j + 1))
                ~interval:(s, e))
            attrs;
          stack :=
            { f_id = id; f_tag = tag; f_start; f_children = 0; f_dewey = dewey }
            :: !stack;
          (* the element row itself is written at End_element, when its
             interval end is known; other encodings do not mind *)
          ignore pos;
          ignore parent
      | Xmllib.Sax.End_element _ -> (
          match !stack with
          | [] -> assert false
          | f :: rest ->
              let g_end = next () in
              let parent, pos =
                match rest with
                | [] -> (-1, 1)
                | p :: _ -> (p.f_id, p.f_children)
              in
              add_row ~id:f.f_id ~parent ~kind:Doc_index.Elem ~tag:f.f_tag
                ~value:"" ~pos ~dewey:f.f_dewey ~interval:(f.f_start, g_end);
              stack := rest)
      | Xmllib.Sax.Text s -> leaf ~kind:Doc_index.Text_node ~tag:"" ~value:s
      | Xmllib.Sax.Comment s ->
          leaf ~kind:Doc_index.Comment_node ~tag:"" ~value:s
      | Xmllib.Sax.Pi { target; data } ->
          leaf ~kind:Doc_index.Pi_node ~tag:target ~value:data);
  !ids
