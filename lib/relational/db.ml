(* A statement compiled once per text: a SELECT or UNION ALL plan, or an
   UPDATE or DELETE with its table, resolved SET expressions (column
   position, value) and access path ({!Planner.table_access}). [?] slots
   stay parameters; each execution binds them. A cache entry is valid only
   while the catalog version is unchanged; [ce_tick] implements LRU — it
   records the last lookup that touched the entry; eviction removes the
   smallest tick. *)
type compiled =
  | Query of Plan.t  (* SELECT, UNION ALL *)
  | Update of { tbl : Table.t; sets : (int * Expr.t) list; access : Plan.t }
  | Delete of { tbl : Table.t; access : Plan.t }

type cache_entry = {
  ce_version : int;
  ce_compiled : compiled;
  ce_nparams : int;
  mutable ce_tick : int;
}

(* Durable state for databases opened with [open_dir]: the WAL writer plus
   the transaction's pending log records. Committed writes are appended to
   the WAL as SQL text; a transaction buffers its statements here and logs
   them as one atomic batch record at commit. *)
type durable = {
  dur_dir : string;
  mutable dur_wal : Wal.writer;
  mutable dur_gen : int;  (* checkpoint generation the WAL belongs to *)
  dur_policy : Wal.fsync_policy;
  mutable dur_txn_buf : string list;  (* reversed *)
  mutable dur_auto : int option;  (* checkpoint when WAL exceeds this size *)
}

type recovery_info = {
  rec_gen : int;  (* generation recovered *)
  rec_checkpoint : bool;  (* whether a checkpoint snapshot was loaded *)
  rec_records : int;  (* WAL records replayed *)
  rec_statements : int;  (* statements inside those records *)
  rec_torn_bytes : int;  (* torn tail discarded from the log *)
  rec_ms : float;
}

type t = {
  cat : Catalog.t;
  mutable txn : bool;
  mutable slow_ms : float option;  (* slow-query log threshold *)
  mutable slow_log : (float * string) list;  (* newest first, capped *)
  plan_cache : (string, cache_entry) Hashtbl.t;  (* keyed by raw SQL text *)
  mutable cache_tick : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable dur : durable option;  (* None: plain in-memory database *)
  mutable last_recovery : recovery_info option;
}

let slow_log_cap = 32
let plan_cache_cap = 128

type result =
  | Rows of { schema : Schema.t; tuples : Tuple.t list }
  | Affected of int

exception Sql_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sql_error s)) fmt

let create () =
  {
    cat = Catalog.create ();
    txn = false;
    slow_ms = None;
    slow_log = [];
    plan_cache = Hashtbl.create 64;
    cache_tick = 0;
    cache_hits = 0;
    cache_misses = 0;
    dur = None;
    last_recovery = None;
  }

let set_slow_query_threshold t ms = t.slow_ms <- ms
let slow_queries t = t.slow_log
let clear_slow_queries t = t.slow_log <- []

let in_transaction t = t.txn

let catalog t = t.cat

let table t name =
  match Catalog.find_table t.cat name with
  | Some tbl -> tbl
  | None -> fail "no such table %s" name

let rows_read t =
  List.fold_left (fun acc tbl -> acc + Table.rows_read tbl) 0 (Catalog.tables t.cat)

let rows_written t =
  List.fold_left (fun acc tbl -> acc + Table.rows_written tbl) 0 (Catalog.tables t.cat)

let check t =
  match
    List.filter_map
      (fun tbl -> match Table.check tbl with Ok () -> None | Error m -> Some m)
      (Catalog.tables t.cat)
  with
  | [] -> Ok ()
  | errors -> Error errors

let reset_counters t = List.iter Table.reset_counters (Catalog.tables t.cat)

(* --- scratch relations -------------------------------------------------- *)

(* A scratch relation is filled for the one statement [f] runs and emptied
   afterwards, also when [f] raises. It never enters a transaction journal,
   the WAL, a dump or the catalog version (see Catalog.scratch), so the
   statements that read it keep a fixed text and a cached plan. *)
let with_scratch t ~name ~cols rows f =
  let schema =
    Array.of_list
      (List.map (fun (n, ty) -> Schema.column ~nullable:true n ty) cols)
  in
  let tbl =
    try Catalog.scratch t.cat name schema
    with Catalog.Catalog_error m -> fail "%s" m
  in
  if Table.row_count tbl > 0 then fail "scratch relation %s is in use" name;
  Fun.protect
    ~finally:(fun () -> Table.truncate tbl)
    (fun () ->
      (try List.iter (fun row -> ignore (Table.insert tbl row)) rows
       with Table.Constraint_violation m -> fail "%s" m);
      f ())

(* --- dump -------------------------------------------------------------- *)

let row_literal tu =
  Printf.sprintf "(%s)"
    (String.concat ", " (Array.to_list (Array.map Value.to_sql_literal tu)))

let dump t =
  let buf = Buffer.create 4096 in
  let tables =
    List.sort
      (fun a b -> compare (Table.name a) (Table.name b))
      (Catalog.tables t.cat)
  in
  List.iter
    (fun tbl ->
      let schema = Table.schema tbl in
      Buffer.add_string buf
        (Printf.sprintf "CREATE TABLE %s (%s);\n" (Table.name tbl)
           (String.concat ", "
              (Array.to_list
                 (Array.map
                    (fun (c : Schema.column) ->
                      Printf.sprintf "%s %s%s" c.Schema.col_name
                        (Value.ty_name c.Schema.col_type)
                        (if c.Schema.nullable then "" else " NOT NULL"))
                    schema))));
      List.iter
        (fun (idx : Table.index) ->
          Buffer.add_string buf
            (Printf.sprintf "CREATE %sINDEX %s ON %s (%s);\n"
               (if idx.Table.unique then "UNIQUE " else "")
               idx.Table.idx_name (Table.name tbl)
               (String.concat ", "
                  (Array.to_list
                     (Array.map
                        (fun c -> schema.(c).Schema.col_name)
                        idx.Table.key_cols)))))
        (Table.indexes tbl);
      (* batch rows into multi-VALUES inserts *)
      let batch = ref [] and n = ref 0 in
      let flush () =
        if !batch <> [] then begin
          Buffer.add_string buf
            (Printf.sprintf "INSERT INTO %s VALUES %s;\n" (Table.name tbl)
               (String.concat ", " (List.rev !batch)));
          batch := [];
          n := 0
        end
      in
      Seq.iter
        (fun (_, tu) ->
          batch := row_literal tu :: !batch;
          incr n;
          if !n >= 100 then flush ())
        (Table.scan tbl);
      flush ())
    tables;
  Buffer.contents buf

let dump_to_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (dump t))

(* --- durability: WAL logging and checkpointing ------------------------- *)

let ckpt_name gen = Printf.sprintf "checkpoint.%d.sql" gen
let wal_name gen = Printf.sprintf "wal.%d.log" gen

let is_durable t = t.dur <> None
let db_dir t = Option.map (fun d -> d.dur_dir) t.dur
let last_recovery t = t.last_recovery
let wal_size t = match t.dur with Some d -> Wal.size d.dur_wal | None -> 0

(* Crash-safe checkpoint: snapshot the database, then truncate the log, in
   an order where a kill at any point leaves either the old generation (old
   checkpoint + old WAL) or the new one (new checkpoint + empty WAL) fully
   recoverable. The commit point is the rename in step 3 — recovery always
   picks the highest generation with a completed checkpoint file.

     1. write checkpoint.<g+1>.sql.tmp (full dump), fsync
     2. create wal.<g+1>.log (header only), fsync
     3. rename the .tmp to checkpoint.<g+1>.sql, fsync dir   <- commit point
     4. switch the writer to the new WAL
     5. delete checkpoint.<g>.sql and wal.<g>.log, fsync dir *)
let checkpoint t =
  match t.dur with
  | None -> fail "checkpoint requires a database opened with Db.open_dir"
  | Some d ->
      if t.txn then fail "cannot checkpoint inside a transaction";
      Wal.failpoint "checkpoint.begin";
      let gen' = d.dur_gen + 1 in
      let ckpt = Filename.concat d.dur_dir (ckpt_name gen') in
      let tmp = ckpt ^ ".tmp" in
      let oc = open_out_bin tmp in
      (try
         output_string oc (dump t);
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc);
         close_out oc
       with e ->
         close_out_noerr oc;
         raise e);
      Wal.failpoint "checkpoint.temp_written";
      let wal' =
        Wal.open_writer ~policy:d.dur_policy ~gen:gen'
          (Filename.concat d.dur_dir (wal_name gen'))
      in
      Wal.fsync_dir d.dur_dir;
      Wal.failpoint "checkpoint.wal_created";
      Sys.rename tmp ckpt;
      Wal.fsync_dir d.dur_dir;
      Wal.failpoint "checkpoint.renamed";
      let old_wal = d.dur_wal and old_gen = d.dur_gen in
      d.dur_wal <- wal';
      d.dur_gen <- gen';
      Wal.close old_wal;
      Wal.failpoint "checkpoint.switched";
      (try Sys.remove (Filename.concat d.dur_dir (ckpt_name old_gen))
       with Sys_error _ -> ());
      (try Sys.remove (Filename.concat d.dur_dir (wal_name old_gen))
       with Sys_error _ -> ());
      Wal.fsync_dir d.dur_dir;
      Obs.incr "db.checkpoint";
      Wal.failpoint "checkpoint.done"

let maybe_auto_checkpoint t =
  match t.dur with
  | Some { dur_auto = Some limit; dur_wal; _ }
    when (not t.txn) && Wal.size dur_wal >= limit ->
      checkpoint t
  | _ -> ()

(* Log one committed write. Inside a transaction the statement is buffered
   and becomes part of the commit's batch record; in autocommit mode it is
   appended (and synced per policy) immediately — the durability point is
   before control returns to the caller. *)
let log_write t sql =
  match t.dur with
  | None -> ()
  | Some d ->
      if t.txn then d.dur_txn_buf <- sql :: d.dur_txn_buf
      else begin
        Wal.append d.dur_wal (Wal.Stmt sql);
        maybe_auto_checkpoint t
      end

(* Log several statements that committed as one unit (bulk loads). *)
let log_batch t sqls =
  match t.dur with
  | None -> ()
  | Some d ->
      if t.txn then
        List.iter (fun s -> d.dur_txn_buf <- s :: d.dur_txn_buf) sqls
      else begin
        Wal.append d.dur_wal (Wal.Batch sqls);
        maybe_auto_checkpoint t
      end

(* --- transactions ------------------------------------------------------ *)

let begin_txn t =
  if t.txn then fail "a transaction is already active";
  (match t.dur with Some d -> d.dur_txn_buf <- [] | None -> ());
  List.iter Table.begin_journal (Catalog.tables t.cat);
  t.txn <- true

let commit t =
  if not t.txn then fail "no active transaction";
  (* WAL first: once the batch record is on disk the transaction is durable;
     a crash after this point replays it, a crash before loses it whole. *)
  (match t.dur with
  | Some d when d.dur_txn_buf <> [] ->
      Wal.failpoint "commit.before_log";
      Wal.append d.dur_wal (Wal.Batch (List.rev d.dur_txn_buf));
      d.dur_txn_buf <- [];
      Wal.failpoint "commit.logged"
  | _ -> ());
  List.iter Table.commit_journal (Catalog.tables t.cat);
  t.txn <- false;
  Wal.failpoint "commit.done";
  maybe_auto_checkpoint t

let rollback t =
  if not t.txn then fail "no active transaction";
  (match t.dur with Some d -> d.dur_txn_buf <- [] | None -> ());
  List.iter Table.rollback_journal (Catalog.tables t.cat);
  t.txn <- false

let with_transaction t f =
  begin_txn t;
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      rollback t;
      raise e

(* Inline bound parameter values into the [?]-form SQL text, tracking string
   literals and quoted identifiers so a '?' inside either is left alone. The
   result is what the WAL records for a write with parameters: replay then
   parses plain constants, exactly like an autocommit statement. *)
let substitute_params sql params =
  let buf = Buffer.create (String.length sql + 32) in
  let n = String.length sql in
  let next = ref 0 in
  let i = ref 0 in
  let in_str = ref false and in_ident = ref false in
  while !i < n do
    let c = sql.[!i] in
    if !in_str then begin
      Buffer.add_char buf c;
      if c = '\'' then
        if !i + 1 < n && sql.[!i + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          incr i
        end
        else in_str := false
    end
    else if !in_ident then begin
      Buffer.add_char buf c;
      if c = '"' then in_ident := false
    end
    else begin
      match c with
      | '\'' ->
          in_str := true;
          Buffer.add_char buf c
      | '"' ->
          in_ident := true;
          Buffer.add_char buf c
      | '?' when !next < Array.length params ->
          Buffer.add_string buf (Value.to_sql_literal params.(!next));
          incr next
      | c -> Buffer.add_char buf c
    end;
    incr i
  done;
  Buffer.contents buf

(* Log a write that just ran, with its parameters printed as literals. *)
let log_bound t ~sql params =
  if is_durable t then
    log_write t (if Array.length params = 0 then sql else substitute_params sql params)

(* constant folding for INSERT value lists; [?] reads the bound values *)
let rec const_eval params (e : Sql_ast.sexpr) : Value.t =
  match e with
  | Sql_ast.E_const v -> v
  | Sql_ast.E_param i -> params.(i)
  | Sql_ast.E_neg a -> begin
      match const_eval params a with
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> fail "cannot negate %s" (Value.to_string v)
    end
  | Sql_ast.E_arith (op, a, b) -> begin
      let ea = Expr.Const (const_eval params a)
      and eb = Expr.Const (const_eval params b) in
      try Expr.eval (Expr.Arith (op, ea, eb)) [||]
      with Expr.Eval_error m -> fail "%s" m
    end
  | Sql_ast.E_concat (a, b) ->
      Value.Str
        (Value.to_string (const_eval params a) ^ Value.to_string (const_eval params b))
  | _ -> fail "INSERT values must be constants"

let do_insert t params ~table:name ~columns ~values =
  let tbl = table t name in
  let schema = Table.schema tbl in
  let arity = Schema.arity schema in
  let positions =
    match columns with
    | None -> Array.init arity (fun i -> i)
    | Some cols ->
        Array.of_list
          (List.map
             (fun c ->
               match Schema.find_opt schema c with
               | Some i -> i
               | None -> fail "table %s has no column %s" name c)
             cols)
  in
  let count = ref 0 in
  List.iter
    (fun row ->
      if List.length row <> Array.length positions then
        fail "INSERT arity mismatch";
      let tuple = Array.make arity Value.Null in
      List.iteri (fun i e -> tuple.(positions.(i)) <- const_eval params e) row;
      (try ignore (Table.insert tbl tuple)
       with Table.Constraint_violation m -> fail "%s" m);
      incr count)
    values;
  Affected !count

(* Materialize the rows an UPDATE or DELETE touches, before any mutation: a
   runtime error in the WHERE clause fails the statement and changes
   nothing. *)
let candidates access =
  try List.of_seq (Exec.rows_with_ids access)
  with Expr.Eval_error m | Exec.Exec_error m -> fail "%s" m

let do_update tbl ~sets access =
  let victims = candidates access in
  (* statement-level constraint semantics: compute every new tuple first,
     then apply them as one bulk in-place update — rowids are preserved, only
     indexes whose key changed are maintained, and a multi-row UPDATE that
     shifts a uniquely indexed column never trips over its own transient
     duplicates (Table.update_rows deletes all changed old keys per index
     before inserting any new ones). *)
  let changes =
    List.map
      (fun (rowid, old) ->
        let tuple = Array.copy old in
        List.iter
          (fun (i, e) ->
            tuple.(i) <-
              (try Expr.eval e old with Expr.Eval_error m -> fail "%s" m))
          sets;
        (rowid, tuple))
      victims
  in
  (try Table.update_rows tbl changes
   with Table.Constraint_violation m -> fail "%s" m);
  Affected (List.length victims)

let do_delete tbl access =
  let victims = candidates access in
  List.iter (fun (rowid, _) -> Table.delete tbl rowid) victims;
  Affected (List.length victims)

let do_create_table t ~name ~columns =
  if t.txn then fail "DDL is not allowed inside a transaction";
  let schema =
    Array.of_list
      (List.map
         (fun (cd : Sql_ast.column_def) ->
           Schema.column ~nullable:(not cd.cd_not_null) cd.cd_name cd.cd_type)
         columns)
  in
  (try ignore (Catalog.create_table t.cat name schema)
   with Catalog.Catalog_error m -> fail "%s" m);
  Affected 0

let do_create_index t ~name ~table:tname ~columns ~unique =
  if t.txn then fail "DDL is not allowed inside a transaction";
  let tbl = table t tname in
  let schema = Table.schema tbl in
  let cols =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.find_opt schema c with
           | Some i -> i
           | None -> fail "table %s has no column %s" tname c)
         columns)
  in
  (try ignore (Table.create_index tbl ~name ~cols ~unique)
   with Table.Constraint_violation m -> fail "%s" m);
  (* a new index changes the available access paths: cached plans are stale *)
  Catalog.bump_version t.cat;
  Affected 0

let plan_of_select t q =
  try Planner.plan_select t.cat q with Planner.Plan_error m -> fail "%s" m

let stmt_kind : Sql_ast.stmt -> string = function
  | Sql_ast.Select _ | Sql_ast.Union_all _ -> "select"
  | Sql_ast.Insert _ -> "insert"
  | Sql_ast.Update _ -> "update"
  | Sql_ast.Delete _ -> "delete"
  | Sql_ast.Create_table _ | Sql_ast.Create_index _ | Sql_ast.Drop_table _ ->
      "ddl"
  | Sql_ast.Begin_txn | Sql_ast.Commit_txn | Sql_ast.Rollback_txn -> "txn"

let union_plan t qs =
  let plans = List.map (plan_of_select t) qs in
  let arities = List.map (fun p -> Schema.arity (Plan.schema_of p)) plans in
  (match arities with
  | a :: rest when List.exists (fun b -> b <> a) rest ->
      fail "UNION ALL branches have different arities"
  | _ -> ());
  Plan.Union_all plans

(* Compile a SELECT, UNION ALL, UPDATE or DELETE. [?] slots stay in the
   result as parameters. *)
let compile t (stmt : Sql_ast.stmt) =
  let resolve tbl e =
    try Planner.resolve_expr_for_table tbl e with Planner.Plan_error m -> fail "%s" m
  in
  let access tbl where = Planner.table_access tbl (Option.map (resolve tbl) where) in
  match stmt with
  | Sql_ast.Select q -> Query (plan_of_select t q)
  | Sql_ast.Union_all qs -> Query (union_plan t qs)
  | Sql_ast.Update { table = name; sets; where } ->
      let tbl = table t name in
      let schema = Table.schema tbl in
      let sets =
        List.map
          (fun (col, e) ->
            match Schema.find_opt schema col with
            | None -> fail "table %s has no column %s" name col
            | Some i -> (i, resolve tbl e))
          sets
      in
      Update { tbl; sets; access = access tbl where }
  | Sql_ast.Delete { table = name; where } ->
      let tbl = table t name in
      Delete { tbl; access = access tbl where }
  | Sql_ast.Insert _ | Sql_ast.Create_table _ | Sql_ast.Create_index _
  | Sql_ast.Drop_table _ | Sql_ast.Begin_txn | Sql_ast.Commit_txn
  | Sql_ast.Rollback_txn ->
      fail "only SELECT, UNION ALL, UPDATE and DELETE statements are planned"

let parse sql =
  try Sql_parser.parse_params sql with Sql_parser.Parse_error m -> fail "%s" m

(* --- plan cache ------------------------------------------------------- *)
(* Compiled SELECT, UNION ALL, UPDATE and DELETE statements are cached,
   keyed by the raw SQL text and looked up BEFORE lexing: a hit skips
   parse, simplify and planning entirely. Entries are validated against the
   catalog version; DDL and CREATE INDEX bump it, and [restore] builds a
   fresh Db, so stale plans are never served. The hit and miss counters
   count SELECT and UNION ALL lookups only. *)

let cache_touch t entry =
  t.cache_tick <- t.cache_tick + 1;
  entry.ce_tick <- t.cache_tick

let cache_lookup t sql =
  match Hashtbl.find_opt t.plan_cache sql with
  | Some entry
    when entry.ce_version = Catalog.version t.cat ->
      cache_touch t entry;
      (match entry.ce_compiled with
      | Query _ ->
          t.cache_hits <- t.cache_hits + 1;
          Obs.incr "db.plan_cache.hit"
      | Update _ | Delete _ -> ());
      Some entry
  | Some _ ->
      Hashtbl.remove t.plan_cache sql;
      None
  | None -> None

let cache_store t sql compiled nparams =
  if Hashtbl.length t.plan_cache >= plan_cache_cap then begin
    (* evict the least recently used entry; O(n) over a small fixed cap *)
    let victim = ref None in
    Hashtbl.iter
      (fun key entry ->
        match !victim with
        | Some (_, best) when entry.ce_tick >= best -> ()
        | _ -> victim := Some (key, entry.ce_tick))
      t.plan_cache;
    match !victim with
    | Some (key, _) -> Hashtbl.remove t.plan_cache key
    | None -> ()
  end;
  (match compiled with
  | Query _ ->
      t.cache_misses <- t.cache_misses + 1;
      Obs.incr "db.plan_cache.miss"
  | Update _ | Delete _ -> ());
  t.cache_tick <- t.cache_tick + 1;
  Hashtbl.replace t.plan_cache sql
    {
      ce_version = Catalog.version t.cat;
      ce_compiled = compiled;
      ce_nparams = nparams;
      ce_tick = t.cache_tick;
    }

let plan_cache_stats t =
  (t.cache_hits, t.cache_misses, Hashtbl.length t.plan_cache)

(* --- the execution path ------------------------------------------------ *)

let check_arity nparams params =
  if Array.length params <> nparams then
    fail "statement has %d parameter slot(s) but %d value(s) were bound" nparams
      (Array.length params)

let run_select plan =
  let tuples =
    Obs.Span.with_ "exec" (fun () ->
        try Exec.run_list plan
        with Expr.Eval_error m | Exec.Exec_error m -> fail "%s" m)
  in
  Rows { schema = Plan.schema_of plan; tuples }

(* Bind [params] into a compiled statement (skipped when there are none;
   the compiled form itself is never changed) and run it. *)
let run_compiled t ~sql compiled params =
  let unbound = Array.length params = 0 in
  let bind p = if unbound then p else Plan.bind params p in
  match compiled with
  | Query plan -> ("select", run_select (bind plan))
  | Update { tbl; sets; access } ->
      let sets =
        if unbound then sets
        else List.map (fun (i, e) -> (i, Plan.bind_expr params e)) sets
      in
      let result = do_update tbl ~sets (bind access) in
      log_bound t ~sql params;
      ("update", result)
  | Delete { tbl; access } ->
      let result = do_delete tbl (bind access) in
      log_bound t ~sql params;
      ("delete", result)

(* A statement the cache does not hold: compile and cache a SELECT, UNION
   ALL, UPDATE or DELETE; run INSERT, DDL and transaction control from the
   AST, so one-off INSERT texts (dumps, scripts, WAL replay) never enter
   the cache. *)
let run_parsed t ~sql (stmt, nparams) params =
  check_arity nparams params;
  let ran result =
    (match stmt with
    | Sql_ast.Begin_txn | Sql_ast.Commit_txn | Sql_ast.Rollback_txn -> ()
    | _ -> log_bound t ~sql params);
    (stmt_kind stmt, result)
  in
  match stmt with
  | Sql_ast.Select _ | Sql_ast.Union_all _ | Sql_ast.Update _ | Sql_ast.Delete _ ->
      let compiled = Obs.Span.with_ "plan" (fun () -> compile t stmt) in
      cache_store t sql compiled nparams;
      run_compiled t ~sql compiled params
  | Sql_ast.Insert { table; columns; values } ->
      ran (do_insert t params ~table ~columns ~values)
  | Sql_ast.Create_table { name; columns } -> ran (do_create_table t ~name ~columns)
  | Sql_ast.Create_index { name; table; columns; unique } ->
      ran (do_create_index t ~name ~table ~columns ~unique)
  | Sql_ast.Drop_table name -> (
      if t.txn then fail "DDL is not allowed inside a transaction";
      try
        Catalog.drop_table t.cat name;
        ran (Affected 0)
      with Catalog.Catalog_error m -> fail "%s" m)
  | Sql_ast.Begin_txn ->
      begin_txn t;
      ran (Affected 0)
  | Sql_ast.Commit_txn ->
      commit t;
      ran (Affected 0)
  | Sql_ast.Rollback_txn ->
      rollback t;
      ran (Affected 0)

let run_text t sql params =
  match cache_lookup t sql with
  | Some entry ->
      check_arity entry.ce_nparams params;
      run_compiled t ~sql entry.ce_compiled params
  | None ->
      run_parsed t ~sql (Obs.Span.with_ "sql-parse" (fun () -> parse sql)) params

let note_slow t ~sql ms =
  match t.slow_ms with
  | Some threshold when ms >= threshold ->
      let log = (ms, sql) :: t.slow_log in
      t.slow_log <-
        (if List.length log > slow_log_cap then
           List.filteri (fun i _ -> i < slow_log_cap) log
         else log)
  | _ -> ()

let exec_params t sql params =
  if not (Obs.enabled ()) then snd (run_text t sql params)
  else begin
    let t0 = Obs.Clock.now_ns () in
    let kind, result = run_text t sql params in
    let ms = Obs.Clock.since_ms t0 in
    Obs.incr "db.statements";
    Obs.observe ("db.exec." ^ kind) ms;
    note_slow t ~sql ms;
    result
  end

let exec t sql = exec_params t sql [||]

let rows = function
  | Rows { tuples; _ } -> tuples
  | Affected _ -> fail "expected a SELECT statement"

let query_params t sql params = rows (exec_params t sql params)
let query t sql = query_params t sql [||]

let query_one t sql =
  match query t sql with [] -> None | r :: _ -> Some r

(* --- prepared statements ---------------------------------------------- *)

type stmt = { ps_db : t; ps_sql : string; ps_nparams : int }

let prepare t sql =
  let _, nparams = parse sql in
  { ps_db = t; ps_sql = sql; ps_nparams = nparams }

module Stmt = struct
  let param_count s = s.ps_nparams
  let sql s = s.ps_sql
  let exec s params = exec_params s.ps_db s.ps_sql params
  let query s params = query_params s.ps_db s.ps_sql params
end

(* --- bulk writes ------------------------------------------------------- *)

(* The dump-form INSERT statements recreating [rows], batched 100 rows per
   statement like [dump] — the WAL's logical record of a bulk load. *)
let insert_statements name rows =
  let stmts = ref [] and batch = ref [] and n = ref 0 in
  let flush () =
    if !batch <> [] then begin
      stmts :=
        Printf.sprintf "INSERT INTO %s VALUES %s" name
          (String.concat ", " (List.rev !batch))
        :: !stmts;
      batch := [];
      n := 0
    end
  in
  List.iter
    (fun row ->
      batch := row_literal row :: !batch;
      incr n;
      if !n >= 100 then flush ())
    rows;
  flush ();
  List.rev !stmts

(* Fast path for loading many rows into one table: skips SQL entirely.
   Atomic: a constraint violation removes the rows inserted so far. *)
let insert_many t name rows =
  let tbl = table t name in
  let inserted = ref [] in
  (try
     List.iter
       (fun row -> inserted := Table.insert tbl row :: !inserted)
       rows
   with Table.Constraint_violation m ->
     List.iter (fun rowid -> Table.delete tbl rowid) !inserted;
     fail "%s" m);
  if is_durable t && rows <> [] then
    log_batch t (insert_statements (Table.name tbl) rows);
  List.length rows

(* Single-row loader fast path (streaming shredders): one Table.insert plus,
   on durable databases, one WAL record. *)
let insert_row t name row =
  let tbl = table t name in
  let rowid =
    try Table.insert tbl row
    with Table.Constraint_violation m -> fail "%s" m
  in
  if is_durable t then
    log_write t
      (Printf.sprintf "INSERT INTO %s VALUES %s" (Table.name tbl)
         (row_literal row));
  rowid

(* --- scripts ----------------------------------------------------------- *)

(* Each statement is parsed exactly once. Runs of DML execute inside one
   implicit transaction (opened lazily, committed before any DDL or explicit
   transaction-control statement, which must run outside a journal); if the
   caller already holds a transaction, statements just run in it. *)
let exec_script t stmts =
  let parsed = List.map (fun s -> (s, parse s)) stmts in
  let run (sql, parsed) = ignore (run_parsed t ~sql parsed [||]) in
  if t.txn then List.iter run parsed
  else begin
    let open_bracket = ref false in
    let close () =
      if !open_bracket then begin
        commit t;
        open_bracket := false
      end
    in
    try
      List.iter
        (fun ((_, (ast, _)) as stmt) ->
          (match ast with
          | Sql_ast.Create_table _ | Sql_ast.Create_index _
          | Sql_ast.Drop_table _ | Sql_ast.Begin_txn | Sql_ast.Commit_txn
          | Sql_ast.Rollback_txn ->
              close ()
          | Sql_ast.Select _ | Sql_ast.Union_all _ | Sql_ast.Insert _
          | Sql_ast.Update _ | Sql_ast.Delete _ ->
              if (not !open_bracket) && not t.txn then begin
                begin_txn t;
                open_bracket := true
              end);
          run stmt;
          (* an explicit BEGIN inside the script takes over bracketing *)
          if !open_bracket && not t.txn then open_bracket := false)
        parsed;
      close ()
    with e ->
      if !open_bracket && t.txn then rollback t;
      raise e
  end

let compiled_of t sql = compile t (fst (parse sql))

let explain t sql =
  let plan =
    match compiled_of t sql with
    | Query plan | Update { access = plan; _ } | Delete { access = plan; _ } -> plan
  in
  Format.asprintf "%a" Plan.pp plan

let explain_analyze t sql =
  match compiled_of t sql with
  | Query plan ->
      let read0 = rows_read t in
      let t0 = Obs.Clock.now_ns () in
      let tuples, prof =
        try Exec.run_profiled plan
        with Expr.Eval_error m | Exec.Exec_error m -> fail "%s" m
      in
      let total_ms = Obs.Clock.since_ms t0 in
      Format.asprintf "%a(total: %d rows in %.3f ms; %d logical rows read)"
        Exec.pp_prof prof (List.length tuples) total_ms (rows_read t - read0)
  | Update _ | Delete _ -> fail "EXPLAIN ANALYZE supports only SELECT"

let render = function
  | Affected n -> Printf.sprintf "(%d rows affected)" n
  | Rows { schema; tuples } ->
      let headers = Array.map (fun c -> c.Schema.col_name) schema in
      let cells = List.map (Array.map Value.to_string) tuples in
      let widths = Array.map String.length headers in
      List.iter
        (fun row ->
          Array.iteri (fun i s -> widths.(i) <- max widths.(i) (String.length s)) row)
        cells;
      let buf = Buffer.create 256 in
      let line () =
        Array.iter (fun w -> Buffer.add_string buf ("+" ^ String.make (w + 2) '-')) widths;
        Buffer.add_string buf "+\n"
      in
      let row cells =
        Array.iteri
          (fun i s ->
            Buffer.add_string buf (Printf.sprintf "| %-*s " widths.(i) s))
          cells;
        Buffer.add_string buf "|\n"
      in
      line ();
      row headers;
      line ();
      List.iter (fun r -> row r) cells;
      line ();
      Buffer.add_string buf (Printf.sprintf "(%d rows)" (List.length tuples));
      Buffer.contents buf

(* split a script on ';' outside string literals (text values may contain
   newlines and semicolons, so line-based splitting would corrupt them) and
   outside '--' line comments (a comment may contain ';', which must not end
   the statement — the SQL lexer skips the comment, this splitter must too) *)
let split_statements script =
  let out = ref [] in
  let buf = Buffer.create 256 in
  let n = String.length script in
  let in_str = ref false in
  let i = ref 0 in
  while !i < n do
    let c = script.[!i] in
    (if !in_str then begin
       Buffer.add_char buf c;
       if c = '\'' then
         if !i + 1 < n && script.[!i + 1] = '\'' then begin
           Buffer.add_char buf '\'';
           incr i
         end
         else in_str := false
     end
     else
       match c with
       | '\'' ->
           in_str := true;
           Buffer.add_char buf c
       | '-' when !i + 1 < n && script.[!i + 1] = '-' ->
           (* drop the comment text; keep the newline as a separator *)
           while !i < n && script.[!i] <> '\n' do
             incr i
           done;
           if !i < n then Buffer.add_char buf '\n'
       | ';' ->
           out := Buffer.contents buf :: !out;
           Buffer.clear buf
       | c -> Buffer.add_char buf c);
    incr i
  done;
  if String.trim (Buffer.contents buf) <> "" then
    out := Buffer.contents buf :: !out;
  List.rev_map String.trim !out |> List.filter (fun s -> s <> "")

let restore script =
  let t = create () in
  exec_script t (split_statements script);
  t

let restore_from_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> restore (really_input_string ic (in_channel_length ic)))

(* --- persistent databases ---------------------------------------------- *)

(* Parse "<stem>.<gen>.<ext>" names; None for anything else (including the
   ".tmp" files an interrupted checkpoint leaves behind). *)
let gen_of_name ~stem ~ext name =
  let prefix = stem ^ "." and suffix = "." ^ ext in
  if
    String.length name > String.length prefix + String.length suffix
    && String.sub name 0 (String.length prefix) = prefix
    && Filename.check_suffix name suffix
  then
    int_of_string_opt
      (String.sub name (String.length prefix)
         (String.length name - String.length prefix - String.length suffix))
  else None

let ckpt_gen_of = gen_of_name ~stem:"checkpoint" ~ext:"sql"
let wal_gen_of = gen_of_name ~stem:"wal" ~ext:"log"

(* Recovery: load the newest completed checkpoint, replay the WAL of the
   same generation up to its torn tail, and garbage-collect everything else
   (interrupted checkpoints leave .tmp files and, at worst, a fresher empty
   WAL whose checkpoint never committed — all stale by the generation rule). *)
let open_dir ?(fsync = Wal.Every 32) ?auto_checkpoint dir =
  let t0 = Obs.Clock.now_ns () in
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      fail "open_dir: %s exists and is not a directory" dir
  end
  else Unix.mkdir dir 0o755;
  let entries = Sys.readdir dir in
  let gens_of f = List.filter_map f (Array.to_list entries) in
  let ckpt_gens = gens_of ckpt_gen_of and wal_gens = gens_of wal_gen_of in
  let gen =
    match (ckpt_gens, wal_gens) with
    | [], [] -> 0
    | [], w :: ws -> List.fold_left min w ws
    | c :: cs, _ -> List.fold_left max c cs
  in
  (* sweep stale generations and interrupted-checkpoint leftovers *)
  Array.iter
    (fun name ->
      let stale =
        Filename.check_suffix name ".tmp"
        || (match ckpt_gen_of name with Some g -> g <> gen | None -> false)
        || (match wal_gen_of name with Some g -> g <> gen | None -> false)
      in
      if stale then
        try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
    entries;
  let ckpt_path = Filename.concat dir (ckpt_name gen) in
  let have_ckpt = Sys.file_exists ckpt_path in
  let t = if have_ckpt then restore_from_file ckpt_path else create () in
  let wal_path = Filename.concat dir (wal_name gen) in
  let parsed =
    if Sys.file_exists wal_path then Wal.read_file wal_path
    else { Wal.records = []; file_gen = gen; valid_len = 0; torn_bytes = 0 }
  in
  let statements = ref 0 in
  let replay sql =
    incr statements;
    try ignore (exec t sql)
    with Sql_error m -> fail "WAL replay failed on %S: %s" sql m
  in
  List.iter
    (function
      | Wal.Stmt sql -> replay sql
      | Wal.Batch sqls -> List.iter replay sqls)
    parsed.Wal.records;
  Obs.add "wal.replayed" !statements;
  let wal = Wal.open_writer ~policy:fsync ~gen wal_path in
  Wal.fsync_dir dir;
  t.dur <-
    Some
      {
        dur_dir = dir;
        dur_wal = wal;
        dur_gen = gen;
        dur_policy = fsync;
        dur_txn_buf = [];
        dur_auto = auto_checkpoint;
      };
  let ms = Obs.Clock.since_ms t0 in
  Obs.observe "db.recovery" ms;
  t.last_recovery <-
    Some
      {
        rec_gen = gen;
        rec_checkpoint = have_ckpt;
        rec_records = List.length parsed.Wal.records;
        rec_statements = !statements;
        rec_torn_bytes = parsed.Wal.torn_bytes;
        rec_ms = ms;
      };
  t

let set_auto_checkpoint t limit =
  match t.dur with
  | None -> fail "set_auto_checkpoint requires a database opened with Db.open_dir"
  | Some d ->
      d.dur_auto <- limit;
      maybe_auto_checkpoint t

let close t =
  match t.dur with
  | None -> ()
  | Some d ->
      (* an open transaction dies with the handle, exactly as in a crash *)
      if t.txn then rollback t;
      Wal.close d.dur_wal;
      t.dur <- None
