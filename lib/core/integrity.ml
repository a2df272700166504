module V = Reldb.Value

let fetch_rows db ~doc enc =
  let tname = Encoding.table_name ~doc enc in
  List.map (Node_row.of_tuple enc)
    (Reldb.Db.query db
       (Printf.sprintf "SELECT %s FROM %s e" (Node_row.select_list enc "e") tname))

let check db ~doc enc =
  let errors = ref [] in
  let seen = Hashtbl.create 16 in
  let report kind fmt =
    Printf.ksprintf
      (fun msg ->
        if not (Hashtbl.mem seen kind) then begin
          Hashtbl.add seen kind ();
          errors := msg :: !errors
        end)
      fmt
  in
  let rows = fetch_rows db ~doc enc in
  let by_id = Hashtbl.create 256 in
  List.iter (fun (r : Node_row.t) -> Hashtbl.replace by_id r.Node_row.id r) rows;
  (* --- shared invariants ------------------------------------------- *)
  let roots =
    List.filter (fun (r : Node_row.t) -> r.Node_row.parent = None) rows
  in
  (match roots with
  | [ r ] ->
      if r.Node_row.kind <> Doc_index.Elem then
        report "root-kind" "root row %d is not an element" r.Node_row.id
  | [] -> report "root" "no root row (NULL parent)"
  | _ -> report "root" "%d root rows" (List.length roots));
  List.iter
    (fun (r : Node_row.t) ->
      match r.Node_row.parent with
      | None -> ()
      | Some p -> (
          match Hashtbl.find_opt by_id p with
          | None -> report "orphan" "row %d has missing parent %d" r.Node_row.id p
          | Some parent ->
              if parent.Node_row.kind <> Doc_index.Elem then
                report "parent-kind" "row %d's parent %d is not an element"
                  r.Node_row.id p))
    rows;
  (* [nval] is the numeric shadow shredding derives from [value] *)
  List.iter
    (fun tu ->
      match tu with
      | [| V.Int id; V.Int kind; value; nval |] ->
          let value = match value with V.Str s -> s | _ -> "" in
          let kind = Doc_index.kind_of_code kind in
          if not (V.equal nval (Encoding.nval_of ~kind value)) then
            report "nval" "row %d has nval %s for value %S" id
              (V.to_string nval) value
      | _ -> report "nval" "unexpected payload row")
    (Reldb.Db.query db
       (Printf.sprintf "SELECT id, kind, value, nval FROM %s"
          (Encoding.table_name ~doc enc)));
  (* --- per encoding -------------------------------------------------- *)
  (match enc with
  | Encoding.Global | Encoding.Global_gap ->
      let interval (r : Node_row.t) =
        match r.Node_row.ord with Node_row.Og (o, e) -> (o, e) | _ -> (0, 0)
      in
      List.iter
        (fun (r : Node_row.t) ->
          let o, e = interval r in
          if o >= e then
            report "interval" "row %d has degenerate interval (%d, %d)"
              r.Node_row.id o e;
          match r.Node_row.parent with
          | None -> ()
          | Some p -> (
              match Hashtbl.find_opt by_id p with
              | None -> ()
              | Some parent ->
                  let po, pe = interval parent in
                  if not (po < o && e < pe) then
                    report "nesting"
                      "row %d interval (%d, %d) not inside parent's (%d, %d)"
                      r.Node_row.id o e po pe))
        rows;
      (* sibling disjointness follows from nesting + unique g_order, but
         check pairwise per parent for robustness *)
      let by_parent = Hashtbl.create 64 in
      List.iter
        (fun (r : Node_row.t) ->
          match r.Node_row.parent with
          | Some p ->
              Hashtbl.replace by_parent p
                (interval r :: Option.value (Hashtbl.find_opt by_parent p) ~default:[])
          | None -> ())
        rows;
      Hashtbl.iter
        (fun p ivs ->
          let sorted = List.sort compare ivs in
          let rec overlaps = function
            | (_, e1) :: ((o2, _) :: _ as rest) ->
                if e1 > o2 then report "overlap" "children of %d overlap" p
                else overlaps rest
            | _ -> ()
          in
          overlaps sorted)
        by_parent
  | Encoding.Local ->
      let kids = Hashtbl.create 64 and atts = Hashtbl.create 64 in
      List.iter
        (fun (r : Node_row.t) ->
          let ord = match r.Node_row.ord with Node_row.Ol o -> o | _ -> 0 in
          match r.Node_row.parent with
          | None -> ()
          | Some p ->
              let tbl = if r.Node_row.kind = Doc_index.Attr then atts else kids in
              Hashtbl.replace tbl p
                (ord :: Option.value (Hashtbl.find_opt tbl p) ~default:[]))
        rows;
      Hashtbl.iter
        (fun p ranks ->
          let sorted = List.sort compare ranks in
          if sorted <> List.init (List.length sorted) (fun i -> i + 1) then
            report "ranks" "children of %d are not densely ranked 1..n" p)
        kids;
      Hashtbl.iter
        (fun p ranks ->
          let m = List.length ranks in
          let sorted = List.sort compare ranks in
          if sorted <> List.init m (fun i -> i - m) then
            report "attr-ranks" "attributes of %d are not ranked -m..-1" p)
        atts
  | Encoding.Dewey_enc | Encoding.Dewey_caret ->
      let paths = Hashtbl.create 256 in
      List.iter
        (fun (r : Node_row.t) ->
          let p = match r.Node_row.ord with Node_row.Od p -> p | _ -> "" in
          if Hashtbl.mem paths p then
            report "path-dup" "duplicate path on row %d" r.Node_row.id;
          Hashtbl.replace paths p ())
        rows;
      List.iter
        (fun (r : Node_row.t) ->
          match r.Node_row.parent with
          | None -> ()
          | Some pid -> (
              match Hashtbl.find_opt by_id pid with
              | None -> ()
              | Some parent -> (
                  match (r.Node_row.ord, parent.Node_row.ord) with
                  | Node_row.Od c, Node_row.Od pp ->
                      if
                        not
                          (String.length pp < String.length c
                          && String.sub c 0 (String.length pp) = pp)
                      then
                        report "path-prefix"
                          "row %d's path does not extend its parent's"
                          r.Node_row.id
                  | _ -> ())))
        rows;
      (* depth column: parent depth + 1 for nodes; attributes live under the
         reserved 0 level, two path components below their element *)
      let tname = Encoding.table_name ~doc enc in
      let depth_rows =
        Reldb.Db.query db
          (Printf.sprintf
             "SELECT c.id FROM %s c, %s p WHERE c.parent = p.id AND \
              c.kind <> 2 AND c.depth <> p.depth + 1 \
              UNION ALL \
              SELECT c.id FROM %s c, %s p WHERE c.parent = p.id AND \
              c.kind = 2 AND c.depth <> p.depth + 2"
             tname tname tname tname)
      in
      (match depth_rows with
      | [] -> ()
      | [| V.Int id |] :: _ ->
          report "depth" "row %d has inconsistent depth" id
      | _ -> report "depth" "inconsistent depth rows"));
  match !errors with [] -> Ok () | msgs -> Error (List.rev msgs)
