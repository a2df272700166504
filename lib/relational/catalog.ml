type t = {
  tbls : (string, Table.t) Hashtbl.t;
  (* Engine-owned scratch relations: visible to name lookup in SELECTs, but
     not tables of the database, so registering one bumps nothing. *)
  scratch : (string, Table.t) Hashtbl.t;
  (* Bumped on any schema change (CREATE/DROP TABLE, CREATE INDEX) so cached
     plans can be validated cheaply: a plan is stale iff the version moved. *)
  mutable version : int;
}

exception Catalog_error of string

let create () =
  { tbls = Hashtbl.create 16; scratch = Hashtbl.create 4; version = 0 }

let norm = String.lowercase_ascii

let version t = t.version

let bump_version t = t.version <- t.version + 1

let find_table t name = Hashtbl.find_opt t.tbls (norm name)

let create_table t name schema =
  if Hashtbl.mem t.tbls (norm name) || Hashtbl.mem t.scratch (norm name) then
    raise (Catalog_error (Printf.sprintf "table %s already exists" name));
  let tbl = Table.create name schema in
  Hashtbl.add t.tbls (norm name) tbl;
  bump_version t;
  tbl

let drop_table t name =
  if not (Hashtbl.mem t.tbls (norm name)) then
    raise (Catalog_error (Printf.sprintf "no such table %s" name));
  Hashtbl.remove t.tbls (norm name);
  bump_version t

let tables t = Hashtbl.fold (fun _ tbl acc -> tbl :: acc) t.tbls []

let find_scratch t name = Hashtbl.find_opt t.scratch (norm name)

let scratch t name schema =
  match find_scratch t name with
  | Some tbl when Table.schema tbl = schema -> tbl
  | Some _ ->
      raise
        (Catalog_error
           (Printf.sprintf "scratch relation %s exists with another schema" name))
  | None ->
      if Hashtbl.mem t.tbls (norm name) then
        raise (Catalog_error (Printf.sprintf "table %s already exists" name));
      let tbl = Table.create name schema in
      Hashtbl.add t.scratch (norm name) tbl;
      tbl
