(* A statement compiled once per text: a SELECT or UNION ALL plan with its
   pipeline ({!Exec}) and output schema, or an UPDATE or DELETE with its
   table, compiled SET expressions (column position, value over [| bound
   values; old row |]) and access path ({!Planner.table_access}), plan and
   pipeline. [?] slots stay parameters; each execution reads its bound
   values. A cache entry is valid only while the catalog version is
   unchanged. *)
type rows = Value.t array -> (int * Tuple.t) list

type compiled =
  | Query of { plan : Plan.t; exec : Exec.t; schema : Schema.t }
  | Update of {
      tbl : Table.t;
      sets : (int * (Expr.frame -> Value.t)) list;
      access : Plan.t;
      rows : rows;
    }
  | Delete of { tbl : Table.t; access : Plan.t; rows : rows }

type cache_entry = {
  ce_version : int;
  ce_compiled : compiled;
  ce_nparams : int;
}

(* Durable state for databases opened with [open_dir]: the WAL writer plus
   the transaction's pending log entries. Committed writes are appended to
   the WAL as typed entries; a transaction buffers its encoded entries here
   and logs them as one atomic record at commit. *)
type durable = {
  dur_dir : string;
  mutable dur_wal : Wal.writer;
  mutable dur_gen : int;  (* checkpoint generation the WAL belongs to *)
  dur_policy : Wal.fsync_policy;
  dur_txn_buf : Buffer.t;  (* encoded entries of the open transaction *)
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
  plan_cache : (string, cache_entry) Lru.t;  (* keyed by raw SQL text *)
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
    plan_cache = Lru.create plan_cache_cap;
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
   the WAL, a snapshot or the catalog version (see Catalog.scratch), so the
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
      (try Table.insert_many tbl rows with Table.Constraint_violation m -> fail "%s" m);
      f ())

(* --- snapshot ---------------------------------------------------------- *)

let sorted_tables t =
  List.sort
    (fun a b -> compare (Table.name a) (Table.name b))
    (Catalog.tables t.cat)

(* The CREATE TABLE and CREATE INDEX texts recreating [tbl], empty. *)
let table_ddl tbl =
  let q = Sql_lexer.quote_ident in
  let schema = Table.schema tbl in
  let cols cs = String.concat ", " (Array.to_list cs) in
  Printf.sprintf "CREATE TABLE %s (%s)" (q (Table.name tbl))
    (cols
       (Array.map
          (fun (c : Schema.column) ->
            Printf.sprintf "%s %s%s" (q c.Schema.col_name)
              (Value.ty_name c.Schema.col_type)
              (if c.Schema.nullable then "" else " NOT NULL"))
          schema))
  :: List.map
       (fun (idx : Table.index) ->
         Printf.sprintf "CREATE %sINDEX %s ON %s (%s)"
           (if idx.Table.unique then "UNIQUE " else "")
           (q idx.Table.idx_name) (q (Table.name tbl))
           (cols (Array.map (fun c -> q schema.(c).Schema.col_name) idx.Table.key_cols)))
       (Table.indexes tbl)

let snapshot t =
  List.map
    (fun tbl ->
      List.map (fun sql -> Wal.Exec (sql, [||])) (table_ddl tbl)
      @ [ Wal.Rows (Table.name tbl, List.of_seq (Seq.map snd (Table.scan tbl))) ])
    (sorted_tables t)

(* --- durability: WAL logging and checkpointing ------------------------- *)

let ckpt_name gen = Printf.sprintf "checkpoint.%d.ckpt" gen
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

     1. write checkpoint.<g+1>.ckpt.tmp (every table), fsync
     2. create wal.<g+1>.log (header only), fsync
     3. rename the .tmp to checkpoint.<g+1>.ckpt, fsync dir   <- commit point
     4. switch the writer to the new WAL
     5. delete checkpoint.<g>.ckpt and wal.<g>.log, fsync dir

   The checkpoint is a file in the WAL's format holding [snapshot t]. *)
let checkpoint t =
  match t.dur with
  | None -> fail "checkpoint requires a database opened with Db.open_dir"
  | Some d ->
      if t.txn then fail "cannot checkpoint inside a transaction";
      Wal.failpoint "checkpoint.begin";
      let gen' = d.dur_gen + 1 in
      let ckpt = Filename.concat d.dur_dir (ckpt_name gen') in
      let tmp = ckpt ^ ".tmp" in
      Wal.write_file ~gen:gen' tmp (snapshot t);
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

(* Log one write that just ran. The entry is encoded now, so a caller
   that reuses its values array cannot change what is logged. Inside a
   transaction it joins the commit's record; in autocommit mode it is
   appended (and synced per policy) immediately — the durability point is
   before control returns to the caller. *)
let log t entry =
  match t.dur with
  | None -> ()
  | Some d ->
      let payload = Wal.encode [ entry ] in
      if t.txn then Buffer.add_string d.dur_txn_buf payload
      else begin
        Wal.append d.dur_wal payload;
        maybe_auto_checkpoint t
      end

(* --- transactions ------------------------------------------------------ *)

let begin_txn t =
  if t.txn then fail "a transaction is already active";
  (match t.dur with Some d -> Buffer.clear d.dur_txn_buf | None -> ());
  List.iter Table.begin_journal (Catalog.tables t.cat);
  t.txn <- true

let commit t =
  if not t.txn then fail "no active transaction";
  (* WAL first: once the record is on disk the transaction is durable; a
     crash after this point replays it, a crash before loses it whole. *)
  (match t.dur with
  | Some d when Buffer.length d.dur_txn_buf > 0 ->
      Wal.failpoint "commit.before_log";
      Wal.append d.dur_wal (Buffer.contents d.dur_txn_buf);
      Buffer.reset d.dur_txn_buf;
      Wal.failpoint "commit.logged"
  | _ -> ());
  List.iter Table.commit_journal (Catalog.tables t.cat);
  t.txn <- false;
  Wal.failpoint "commit.done";
  maybe_auto_checkpoint t

let rollback t =
  if not t.txn then fail "no active transaction";
  (match t.dur with Some d -> Buffer.reset d.dur_txn_buf | None -> ());
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
let candidates rows params =
  try rows params with Expr.Eval_error m | Exec.Exec_error m -> fail "%s" m

let do_update tbl ~sets rows params =
  let victims = candidates rows params in
  (* statement-level constraint semantics: compute every new row first,
     then apply them as one bulk update — rowids are preserved, only
     indexes whose key changed are maintained, and a multi-row UPDATE that
     shifts a uniquely indexed column never trips over its own transient
     duplicates. The arrays start from immediates: an array over 256 words
     made from a young value ([Array.of_list]) forces a minor collection. *)
  let n = List.length victims in
  let rowids = Array.make n 0 and news = Array.make n [||] in
  List.iteri
    (fun j (rowid, old) ->
      let tuple = Array.copy old and f = [| params; old |] in
      List.iter
        (fun (i, e) -> tuple.(i) <- (try e f with Expr.Eval_error m -> fail "%s" m))
        sets;
      rowids.(j) <- rowid;
      news.(j) <- tuple)
    victims;
  (try Table.update_rows tbl rowids news
   with Table.Constraint_violation m -> fail "%s" m);
  Affected n

let do_delete tbl rows params =
  let victims = candidates rows params in
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

(* A trailing ORDER BY (of output columns), LIMIT and OFFSET apply to the
   whole compound. *)
let union_plan t (u : Sql_ast.compound) =
  let plans = List.map (plan_of_select t) u.branches in
  let schemas = List.map Plan.schema_of plans in
  let schema = match schemas with s :: _ -> s | [] -> [||] in
  if List.exists (fun s -> Schema.arity s <> Schema.arity schema) schemas then
    fail "UNION ALL branches have different arities";
  let value = function
    | Sql_ast.E_const v -> Expr.Const v
    | Sql_ast.E_param i -> Expr.Param i
    | _ -> fail "LIMIT and OFFSET take an integer or ?"
  and key = function
    | Sql_ast.E_col (None, c), dir when Schema.find_opt schema c <> None ->
        (Expr.Col (Schema.find schema c), if dir = Sql_ast.Asc then Plan.Asc else Plan.Desc)
    | _ -> fail "ORDER BY of a UNION ALL names its output columns"
  in
  let union = Plan.Union_all plans in
  let p =
    if u.c_order_by = [] then union
    else Plan.Sort { input = union; keys = List.map key u.c_order_by }
  in
  if u.c_limit = None && u.c_offset = None then p
  else
    let offset = Option.fold ~none:(Plan.count 0) ~some:value u.c_offset in
    Plan.Limit { input = p; limit = Option.map value u.c_limit; offset; by = [||] }

(* Plan and compile a SELECT, UNION ALL, UPDATE or DELETE. *)
let compile t (stmt : Sql_ast.stmt) =
  let resolve tbl e =
    try Planner.resolve_expr_for_table tbl e with Planner.Plan_error m -> fail "%s" m
  in
  let access tbl where =
    let plan = Planner.table_access tbl (Option.map (resolve tbl) where) in
    (plan, try Exec.rows_with_ids plan with Exec.Exec_error m -> fail "%s" m)
  in
  let query plan = Query { plan; exec = Exec.compile plan; schema = Plan.schema_of plan } in
  match stmt with
  | Sql_ast.Select q -> query (plan_of_select t q)
  | Sql_ast.Union_all u -> query (union_plan t u)
  | Sql_ast.Update { table = name; sets; where } ->
      let tbl = table t name in
      let schema = Table.schema tbl in
      let set (col, e) =
        match Schema.find_opt schema col with
        | None -> fail "table %s has no column %s" name col
        | Some i ->
            (i, Expr.compile ~arity:(Schema.arity schema) ~col:(fun c -> (1, c)) (resolve tbl e))
      in
      let access, rows = access tbl where in
      Update { tbl; sets = List.map set sets; access; rows }
  | Sql_ast.Delete { table = name; where } ->
      let tbl = table t name in
      let access, rows = access tbl where in
      Delete { tbl; access; rows }
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
   catalog version; DDL and CREATE INDEX bump it, and [open_dir] builds a
   fresh Db, so stale plans are never served. The hit and miss counters
   count SELECT and UNION ALL lookups only. *)

let cache_lookup t sql =
  match Lru.find t.plan_cache sql with
  | Some entry
    when entry.ce_version = Catalog.version t.cat ->
      (match entry.ce_compiled with
      | Query _ ->
          t.cache_hits <- t.cache_hits + 1;
          Obs.incr "db.plan_cache.hit"
      | Update _ | Delete _ -> ());
      Some entry
  | Some _ ->
      Lru.remove t.plan_cache sql;
      None
  | None -> None

let cache_store t sql compiled nparams =
  (match compiled with
  | Query _ ->
      t.cache_misses <- t.cache_misses + 1;
      Obs.incr "db.plan_cache.miss"
  | Update _ | Delete _ -> ());
  Lru.add t.plan_cache sql
    { ce_version = Catalog.version t.cat; ce_compiled = compiled; ce_nparams = nparams }

let plan_cache_stats t =
  (t.cache_hits, t.cache_misses, Lru.length t.plan_cache)

(* --- the execution path ------------------------------------------------ *)

let check_arity nparams params =
  if Array.length params <> nparams then
    fail "statement has %d parameter slot(s) but %d value(s) were bound" nparams
      (Array.length params)

(* Run a compiled statement with [params] as its bound values. *)
let run_compiled t ~sql compiled params =
  match compiled with
  | Query { exec; schema; _ } ->
      let tuples =
        Obs.Span.with_ "exec" (fun () ->
            try Exec.run exec params
            with Expr.Eval_error m | Exec.Exec_error m -> fail "%s" m)
      in
      ("select", Rows { schema; tuples })
  | Update { tbl; sets; rows; _ } ->
      let result = do_update tbl ~sets rows params in
      log t (Wal.Exec (sql, params));
      ("update", result)
  | Delete { tbl; rows; _ } ->
      let result = do_delete tbl rows params in
      log t (Wal.Exec (sql, params));
      ("delete", result)

(* A statement the cache does not hold: compile and cache a SELECT, UNION
   ALL, UPDATE or DELETE; run INSERT, DDL and transaction control from the
   AST, so one-off INSERT texts (such as logged ones on replay) never
   enter the cache. *)
let run_parsed t ~sql (stmt, nparams) params =
  check_arity nparams params;
  let ran result =
    (match stmt with
    | Sql_ast.Begin_txn | Sql_ast.Commit_txn | Sql_ast.Rollback_txn -> ()
    | _ -> log t (Wal.Exec (sql, params)));
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

(* --- bulk writes ------------------------------------------------------- *)

(* Fast path for loading rows into one table, one row or many: skips SQL
   entirely, and builds an empty table's indexes bottom-up. Atomic: a
   constraint violation removes the rows inserted so far. *)
let insert_many t name rows =
  let tbl = table t name in
  (try Table.insert_many tbl rows with Table.Constraint_violation m -> fail "%s" m);
  if rows <> [] then log t (Wal.Rows (Table.name tbl, rows));
  List.length rows

let plan t sql =
  match compile t (fst (parse sql)) with
  | Query { plan; _ } | Update { access = plan; _ } | Delete { access = plan; _ } -> plan

let explain t sql = Format.asprintf "%a" Plan.pp (plan t sql)

let explain_analyze t sql params =
  let stmt, nparams = parse sql in
  check_arity nparams params;
  match compile t stmt with
  | Query { plan; _ } ->
      let read0 = rows_read t in
      let t0 = Obs.Clock.now_ns () in
      let tuples, prof =
        try Exec.run_profiled plan params
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

let ckpt_gen_of = gen_of_name ~stem:"checkpoint" ~ext:"ckpt"
let wal_gen_of = gen_of_name ~stem:"wal" ~ext:"log"

(* Run one record of a checkpoint or the log: statements through the plan
   cache, rows through the loader. [dur] is [None] here, so nothing is
   logged again. The writer never logs transaction control, so a BEGIN is a
   misfit: it would leave the handle inside a transaction (COMMIT and
   ROLLBACK then fail for want of one). Returns the number of entries. *)
let replay t record =
  List.iter
    (function
      | Wal.Exec (sql, params) -> (
          (try ignore (exec_params t sql params)
           with Sql_error m -> fail "replay failed on %S: %s" sql m);
          if t.txn then fail "replay failed on %S: transaction control in a log" sql)
      | Wal.Rows (name, rows) -> (
          try ignore (insert_many t name rows)
          with Sql_error m -> fail "replay failed on rows of %s: %s" name m))
    record;
  List.length record

(* Recovery: load the newest completed checkpoint, replay the WAL of the
   same generation up to its torn tail, and garbage-collect everything else
   (interrupted checkpoints leave .tmp files and, at worst, a fresher empty
   WAL whose checkpoint never committed — all stale by the generation rule).
   Nothing is swept before both files have been read. *)
let open_dir ?(fsync = Wal.Every 32) ?auto_checkpoint dir =
  let t0 = Obs.Clock.now_ns () in
  (* a path the engine uses but cannot read or write (a directory under a
     file's name, no permission) fails the open like a damaged file *)
  let io path f =
    try f () with
    | Wal.Corrupt m -> fail "%s" m
    | Sys_error m -> fail "open_dir: %s: %s" path m
    | Unix.Unix_error (e, _, _) -> fail "open_dir: %s: %s" path (Unix.error_message e)
  in
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      fail "open_dir: %s exists and is not a directory" dir
  end
  else io dir (fun () -> Unix.mkdir dir 0o755);
  let entries = io dir (fun () -> Sys.readdir dir) in
  let gens_of f = List.filter_map f (Array.to_list entries) in
  let ckpt_gens = gens_of ckpt_gen_of and wal_gens = gens_of wal_gen_of in
  let gen =
    match (ckpt_gens, wal_gens) with
    | [], [] -> 0
    | [], w :: ws -> List.fold_left min w ws
    | c :: cs, _ -> List.fold_left max c cs
  in
  let read path = io path (fun () -> Wal.read_file path) in
  let t = create () in
  let ckpt_path = Filename.concat dir (ckpt_name gen) in
  let have_ckpt = Sys.file_exists ckpt_path in
  if have_ckpt then begin
    let ckpt = read ckpt_path in
    if ckpt.Wal.file_gen <> gen || ckpt.Wal.torn_bytes > 0 then
      fail "open_dir: checkpoint %s is damaged" ckpt_path;
    List.iter (fun r -> ignore (replay t r)) ckpt.Wal.records
  end;
  let wal_path = Filename.concat dir (wal_name gen) in
  let parsed =
    if Sys.file_exists wal_path then read wal_path
    else { Wal.records = []; file_gen = gen; valid_len = 0; torn_bytes = 0 }
  in
  let statements =
    List.fold_left (fun n r -> n + replay t r) 0 parsed.Wal.records
  in
  Obs.add "wal.replayed" statements;
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
  let wal = io wal_path (fun () -> Wal.open_writer ~policy:fsync ~gen wal_path) in
  Wal.fsync_dir dir;
  t.dur <-
    Some
      {
        dur_dir = dir;
        dur_wal = wal;
        dur_gen = gen;
        dur_policy = fsync;
        dur_txn_buf = Buffer.create 256;
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
        rec_statements = statements;
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
