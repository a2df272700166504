exception No_subtree = Reconstruct.No_subtree
exception No_document = Reconstruct.No_document

module Store = struct
  (* [cache]: XPath text -> compiled query, as many as the plan cache holds *)
  type t = { db : Reldb.Db.t; name : string; enc : Encoding.t; cache : (string, Translate.query) Reldb.Lru.t }

  let make db ~name enc = { db; name; enc; cache = Reldb.Lru.create 128 }

  let create ?gap db ~name enc doc =
    ignore (Shred.shred ?gap db ~doc:name enc doc);
    make db ~name enc

  let open_existing db ~name enc =
    (* probe the table so a missing store fails loudly *)
    ignore (Reldb.Db.table db (Encoding.table_name ~doc:name enc));
    make db ~name enc

  let drop t = Encoding.drop_tables t.db ~doc:t.name t.enc

  let db t = t.db
  let name t = t.name
  let encoding t = t.enc

  (* a span named after the API entry point, tagged with the encoding, so
     traces read as user operation -> phases -> engine statements *)
  let op_span t name f =
    Obs.Span.with_ name ~attrs:[ ("encoding", Encoding.name t.enc) ] f

  (* The cached query of [xpath], counted as a hit or a miss. *)
  let lookup t xpath =
    let q = Reldb.Lru.find t.cache xpath in
    Obs.incr (if Option.is_none q then "xpath_cache.miss" else "xpath_cache.hit");
    q

  let remember t xpath u =
    let q = Translate.compile ~doc:t.name t.enc u in
    Reldb.Lru.add t.cache xpath q;
    q

  let compile t xpath =
    match lookup t xpath with Some q -> q | None -> remember t xpath (Xpath_parser.parse_union xpath)

  let cached t = Reldb.Lru.length t.cache

  let query t xpath =
    let hit = lookup t xpath in
    let attrs = [ ("xpath", xpath); ("encoding", Encoding.name t.enc); ("cached", string_of_bool (hit <> None)) ] in
    Obs.Span.with_ "query" ~attrs @@ fun () ->
    let q =
      match hit with
      | Some q -> q
      | None ->
          let u = Obs.Span.with_ "xpath-parse" (fun () -> Xpath_parser.parse_union xpath) in
          Obs.Span.with_ "translate" (fun () -> remember t xpath u)
    in
    (* the compiled statements run, and engine spans (sql-parse / plan /
       exec) nest, under [translate] *)
    Obs.Span.with_ "translate" (fun () -> Translate.exec t.db ~doc:t.name t.enc q)

  let query_ids t xpath =
    List.map (fun (r : Node_row.t) -> r.Node_row.id) (query t xpath).Translate.rows

  let subtree t ~id = Reconstruct.subtree t.db ~doc:t.name t.enc ~id
  let serialize t ~id = Reconstruct.serialize_subtree t.db ~doc:t.name t.enc ~id

  let query_nodes t xpath =
    let ids = query_ids t xpath in
    Obs.Span.with_ "reconstruct" (fun () ->
        List.map (fun id -> subtree t ~id) ids)

  let query_values t xpath =
    let rows = (query t xpath).Translate.rows in
    Obs.Span.with_ "reconstruct" @@ fun () ->
    List.map (Reconstruct.string_value t.db ~doc:t.name t.enc) rows

  let count t xpath = List.length (query t xpath).Translate.rows

  let flwor t q = op_span t "flwor" (fun () -> Flwor.run t.db ~doc:t.name t.enc q)

  let insert_subtree t ~parent ~pos fragment =
    op_span t "insert_subtree" @@ fun () ->
    Update.insert_subtree t.db ~doc:t.name t.enc ~parent ~pos fragment

  let insert_forest t ~parent ~pos fragments =
    op_span t "insert_forest" @@ fun () ->
    Update.insert_forest t.db ~doc:t.name t.enc ~parent ~pos fragments

  let append_child t ~parent fragment =
    op_span t "append_child" @@ fun () ->
    Update.append_child t.db ~doc:t.name t.enc ~parent fragment

  let delete_subtree t ~id =
    op_span t "delete_subtree" @@ fun () ->
    Update.delete_subtree t.db ~doc:t.name t.enc ~id

  let move_subtree t ~id ~parent ~pos =
    op_span t "move_subtree" @@ fun () ->
    Update.move_subtree t.db ~doc:t.name t.enc ~id ~parent ~pos

  let replace_subtree t ~id fragment =
    op_span t "replace_subtree" @@ fun () ->
    Update.replace_subtree t.db ~doc:t.name t.enc ~id fragment

  let set_text t ~id value =
    op_span t "set_text" @@ fun () ->
    Update.set_text t.db ~doc:t.name t.enc ~id value

  let set_attribute t ~id ~name ~value =
    op_span t "set_attribute" @@ fun () ->
    Update.set_attribute t.db ~doc:t.name t.enc ~id ~name ~value

  let remove_attribute t ~id ~name =
    op_span t "remove_attribute" @@ fun () ->
    Update.remove_attribute t.db ~doc:t.name t.enc ~id ~name

  let atomically t f = Reldb.Db.with_transaction t.db f

  let document t = Reconstruct.document t.db ~doc:t.name t.enc
  let root_id t = Reconstruct.root_id t.db ~doc:t.name t.enc
  let storage t = Storage.measure t.db ~doc:t.name t.enc
  let check t =
    match (Integrity.check t.db ~doc:t.name t.enc, Reldb.Db.check t.db) with
    | Ok (), Ok () -> Ok ()
    | a, b ->
        let errors = function Ok () -> [] | Error e -> e in
        Error (errors a @ errors b)
end
