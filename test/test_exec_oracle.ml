(* Executor oracle: every plan the real planner builds must give the same
   rows, in the same order, and read the same rows when the compiled push
   pipeline runs it as when the reference [Seq] interpreter (Ref_exec) does.
   Random typed tables (NULLs, ints, floats, strings, bytes; up to two
   indexes each, composite and unique ones included) and random statements:
   joins over two or three aliases with equality and range conditions, [?]
   parameters, ORDER BY [DESC], DISTINCT, GROUP BY with aggregates,
   LIMIT [OFFSET] [BY], UNION ALL, derived tables (DISTINCT or ORDER BY
   with LIMIT [OFFSET] [BY] inside, nested once, the outer input of an
   index join); and UPDATE and DELETE, which must touch the rows the
   reference access path yields and leave [Db.check] Ok. A derived table
   must also return what the same statement returns over a table filled
   with its rows. *)

module D = Reldb.Db
module V = Reldb.Value

let pick rs l = List.nth l (Random.State.int rs (List.length l))
let chance rs n = Random.State.int rs n = 0
let upto rs lo hi = lo + Random.State.int rs (hi - lo + 1)

type table = { tname : string; types : V.ty array; mutable indexes : int list list }

(* Mostly few distinct values, so joins match; now and then one where the
   index key encoding has edges: ints around 2^53 and at the ends of the
   int range, fractions and -0.0 (a float bound on an int column),
   strings holding 00 or ff bytes and prefixes of one another. Floats
   stay small, so that a SUM does not depend on the order it adds in. *)
let value rs ty =
  if chance rs 6 then V.Null
  else
    let rare = chance rs 8 in
    match ty with
    | V.Tint when rare -> V.Int (pick rs [ (1 lsl 53) + 1; 1 lsl 53; max_int; min_int ])
    | V.Tint -> V.Int (upto rs (-1) 4)
    | V.Tfloat when rare -> V.Float (pick rs [ 2.5; -0.0; -0.5 ])
    | V.Tfloat -> V.Float (pick rs [ 0.5; 1.0; 2.0; 3.5 ])
    | V.Ttext when rare -> V.Str (pick rs [ ""; "a\x00"; "a\xff"; "ab" ])
    | V.Ttext -> V.Str (pick rs [ "a"; "b"; "c" ])
    | V.Tbytes when rare -> V.Bytes (pick rs [ ""; "\xff"; "\x00\xff"; "\x01\x00" ])
    | V.Tbytes -> V.Bytes (pick rs [ "\x00"; "\x01"; "\x00\x01" ])

(* a literal or parameter: any type, and now and then a float beyond 2^53
   or beyond the int range (a bound no int equals) *)
let any_value rs =
  if chance rs 12 then V.Float (pick rs [ 0x1p53; Float.succ 0x1p53; 0x1p62; -0x1p63; 1e20 ])
  else value rs (pick rs [ V.Tint; V.Tfloat; V.Ttext; V.Tbytes ])

(* the schema script of a case, and its tables *)
let gen_schema rs =
  let tables =
    List.init (upto rs 2 3) (fun i ->
        {
          tname = Printf.sprintf "t%d" i;
          types =
            Array.init (upto rs 2 4) (fun _ -> pick rs [ V.Tint; V.Tint; V.Tfloat; V.Ttext; V.Tbytes ]);
          indexes = [];
        })
  in
  let col j = Printf.sprintf "c%d" j in
  let script =
    List.concat_map
      (fun t ->
        let n = Array.length t.types in
        let create =
          Printf.sprintf "CREATE TABLE %s (%s)" t.tname
            (String.concat ", "
               (Array.to_list (Array.mapi (fun j ty -> col j ^ " " ^ V.ty_name ty) t.types)))
        in
        let rows =
          List.init (upto rs 0 12) (fun _ ->
              Printf.sprintf "INSERT INTO %s VALUES (%s)" t.tname
                (String.concat ", "
                   (Array.to_list
                      (Array.map (fun ty -> V.to_sql_literal (value rs ty)) t.types))))
        in
        let indexes =
          List.init (upto rs 0 2) (fun k ->
              let a = Random.State.int rs n in
              let cols = if chance rs 3 then [ a ] else [ a; (a + 1 + Random.State.int rs (n - 1)) mod n ] in
              t.indexes <- cols :: t.indexes;
              Printf.sprintf "CREATE %sINDEX %s_i%d ON %s (%s)"
                (if chance rs 3 then "UNIQUE " else "")
                t.tname k t.tname
                (String.concat ", " (List.map col cols)))
        in
        (* an index before or after the rows: built over them, or kept up *)
        if chance rs 2 then (create :: indexes) @ rows else (create :: rows) @ indexes)
      tables
  in
  (tables, script)

(* ---- statements ----------------------------------------------------- *)

(* A statement under construction: its text pieces and the values of its
   [?] slots, in text order. *)
type stmt = { mutable params : V.t list }

let param st v =
  st.params <- st.params @ [ v ];
  "?"

let cmp_op rs = pick rs [ "="; "="; "<"; "<="; ">"; ">="; "<>" ]

let column rs aliases =
  let a, t = pick rs aliases in
  Printf.sprintf "%s.c%d" a (Random.State.int rs (Array.length t.types))

let literal st rs = if chance rs 2 then V.to_sql_literal (any_value rs) else param st (any_value rs)

let rec condition st rs aliases =
  match Random.State.int rs 9 with
  | 0 | 1 | 2 when List.length aliases > 1 ->
      (* a join condition between two aliases *)
      let a = column rs aliases and b = column rs aliases in
      Printf.sprintf "%s %s %s" a (if chance rs 2 then "=" else cmp_op rs) b
  | 3 -> column rs aliases ^ pick rs [ " IS NULL"; " IS NOT NULL" ]
  | 4 when chance rs 2 ->
      let a = condition st rs aliases in
      let b = condition st rs aliases in
      Printf.sprintf "(%s OR %s)" a b
  | _ -> Printf.sprintf "%s %s %s" (column rs aliases) (cmp_op rs) (literal st rs)

let gen_where ?(most = 4) st rs aliases =
  match List.init (upto rs 0 most) (fun _ -> condition st rs aliases) with
  | [] -> ""
  | cs -> " WHERE " ^ String.concat " AND " cs

let count st rs = if chance rs 3 then param st (V.Int (upto rs 0 4)) else string_of_int (upto rs 0 4)

let limit st rs =
  let lim = " LIMIT " ^ count st rs in
  if chance rs 2 then lim ^ " OFFSET " ^ count st rs else lim

let order_by rs cols =
  " ORDER BY "
  ^ String.concat ", "
      (List.init (upto rs 1 2) (fun _ -> pick rs cols ^ if chance rs 2 then " DESC" else ""))

(* A derived table over a base table (or, [depth] times at most, over
   another derived table): some of the inner's columns renamed c0, c1, ...,
   with a WHERE and either DISTINCT or an ORDER BY with LIMIT [OFFSET]
   [BY]. It reads as a table whose name is the parenthesized subquery and
   which has no index. *)
let rec derived st rs tables ~depth =
  let x = Printf.sprintf "x%d" depth in
  let inner =
    if depth > 0 && chance rs 3 then derived st rs tables ~depth:(depth - 1) else pick rs tables
  in
  let cols = List.init (upto rs 1 3) (fun _ -> Random.State.int rs (Array.length inner.types)) in
  let refs = List.map (Printf.sprintf "%s.c%d" x) cols in
  let where = gen_where ~most:2 st rs [ (x, inner) ] in
  let tail =
    match Random.State.int rs 4 with
    | 0 -> ""
    | 1 -> order_by rs refs ^ limit st rs
    | _ -> order_by rs refs ^ limit st rs ^ " BY " ^ pick rs refs
  in
  let text =
    Printf.sprintf "(SELECT %s%s FROM %s %s%s%s)"
      (if tail = "" && chance rs 2 then "DISTINCT " else "")
      (String.concat ", " (List.mapi (fun k r -> Printf.sprintf "%s AS c%d" r k) refs))
      inner.tname x where tail
  in
  { tname = text; types = Array.of_list (List.map (fun j -> inner.types.(j)) cols); indexes = [] }

let gen_from st rs tables =
  let aliases =
    List.init (upto rs 1 3) (fun i ->
        (Printf.sprintf "a%d" i, if chance rs 4 then derived st rs tables ~depth:1 else pick rs tables))
  in
  let text = String.concat ", " (List.map (fun (a, t) -> t.tname ^ " " ^ a) aliases) in
  (aliases, " FROM " ^ text)

let gen_select st rs tables =
  let probed = List.filter (fun t -> List.exists (fun c -> List.length c = 2) t.indexes) tables in
  let shape = Random.State.int rs 6 in
  let shape = if shape = 5 && probed = [] then 4 else shape in
  let aliases, from = if shape = 5 || shape = 2 then ([], "") else gen_from st rs tables in
  let cols = if aliases = [] then [] else List.init (upto rs 1 3) (fun _ -> column rs aliases) in
  let items = String.concat ", " cols in
  let where = if shape = 2 || shape = 5 then "" else gen_where st rs aliases in
  match shape with
  | 5 ->
      (* per outer row, the first rows of an index probe: a capped join *)
      let inner = pick rs probed in
      let x, y =
        match pick rs (List.filter (fun c -> List.length c = 2) inner.indexes) with
        | [ x; y ] -> (x, y)
        | _ -> (0, 0)
      in
      (* the outer input: a table, or a derived table *)
      let outer = if chance rs 3 then derived st rs tables ~depth:1 else pick rs tables in
      let oc () = Printf.sprintf "a0.c%d" (Random.State.int rs (Array.length outer.types)) in
      let dir = if chance rs 2 then " DESC" else "" in
      let k = oc () in
      let on = Printf.sprintf "a1.c%d = %s" x (oc ()) in
      let extra = if chance rs 2 then "" else " AND " ^ condition st rs [ ("a0", outer); ("a1", inner) ] in
      Printf.sprintf "SELECT %s, a1.c%d FROM %s a0, %s a1 WHERE %s%s ORDER BY %s%s, a1.c%d%s%s BY %s"
        (oc ()) y outer.tname inner.tname on extra k dir y dir (limit st rs) k
  | 0 ->
      (* GROUP BY with aggregates *)
      let g = column rs aliases and v = column rs aliases in
      Printf.sprintf "SELECT %s, COUNT(*), COUNT(%s), SUM(%s), MIN(%s), MAX(%s), AVG(%s)%s%s GROUP BY %s%s"
        g v v v v v from where g
        (if chance rs 2 then " ORDER BY " ^ g else "")
  | 1 ->
      (* LIMIT BY *)
      Printf.sprintf "SELECT %s%s%s%s%s BY %s" items from where
        (if chance rs 4 then "" else order_by rs cols)
        (limit st rs) (column rs aliases)
  | 2 ->
      (* UNION ALL with a trailing ORDER BY and LIMIT over the compound *)
      let branch st =
        let aliases, from = gen_from st rs tables in
        Printf.sprintf "SELECT %s AS v, %s AS w%s%s" (column rs aliases) (column rs aliases) from
          (gen_where st rs aliases)
      in
      let first = branch st in
      let second = branch st in
      Printf.sprintf "%s UNION ALL %s%s%s" first second
        (if chance rs 2 then order_by rs [ "v"; "w" ] else "")
        (if chance rs 2 then limit st rs else "")
  | _ ->
      Printf.sprintf "SELECT %s%s%s%s%s%s"
        (if chance rs 3 then "DISTINCT " else "")
        items from where
        (if chance rs 2 then order_by rs cols else "")
        (if chance rs 2 then limit st rs else "")

let gen_dml st rs tables =
  let t = pick rs tables in
  let aliases = [ (t.tname, t) ] in
  let where = gen_where ~most:2 st rs aliases in
  if chance rs 2 then Printf.sprintf "DELETE FROM %s%s" t.tname where
  else
    let j = Random.State.int rs (Array.length t.types) in
    (* the SET value comes first in the text: bind it first *)
    let v = value rs t.types.(j) in
    let params = st.params in
    st.params <- [];
    let set = param st v in
    st.params <- st.params @ params;
    Printf.sprintf "UPDATE %s SET c%d = %s%s" t.tname j set where

type case = { schema : string list; statements : (string * V.t array) list }

let gen_case rs =
  let tables, schema = gen_schema rs in
  let statements =
    List.init 10 (fun i ->
        let st = { params = [] } in
        let sql = if i >= 7 then gen_dml st rs tables else gen_select st rs tables in
        (sql, Array.of_list st.params))
  in
  { schema; statements }

let print_case c =
  String.concat ";\n" c.schema ^ ";\n"
  ^ String.concat "\n"
      (List.map
         (fun (sql, ps) ->
           Printf.sprintf "%s  -- [%s]" sql
             (String.concat ", " (Array.to_list (Array.map V.to_sql_literal ps))))
         c.statements)

(* ---- the property ----------------------------------------------------- *)

let planned = ref 0 and planned_derived = ref 0

(* [Ok rows] or [Error ()] for a failed statement *)
let outcome f = match f () with rows -> Ok rows | exception _ -> Error ()

let check_select db sql params =
  match D.plan db sql with
  | exception D.Sql_error _ -> true (* a statement the planner refuses *)
  | plan ->
      incr planned;
      if Astring_contains.contains sql "(SELECT" then incr planned_derived;
      let reading f =
        let r0 = D.rows_read db in
        let out = outcome f in
        (out, D.rows_read db - r0)
      in
      let expected, ref_read = reading (fun () -> Ref_exec.run params plan) in
      let got, read = reading (fun () -> Reldb.Exec.run (Reldb.Exec.compile plan) params) in
      let via_db, db_read = reading (fun () -> D.query_params db sql params) in
      let agree = expected = got && expected = via_db && ref_read = read && ref_read = db_read in
      if not agree then
        QCheck.Test.fail_reportf "%s\nplan:\n%sreference: %s rows, %d read\ncompiled: %s rows, %d read"
          sql (D.explain db sql)
          (match expected with Ok r -> string_of_int (List.length r) | Error () -> "error")
          ref_read
          (match got with Ok r -> string_of_int (List.length r) | Error () -> "error")
          read;
      true

let snapshot tbl = List.of_seq (Reldb.Table.scan tbl)

let check_dml db sql params =
  (* UPDATE t SET cJ = ? ... | DELETE FROM t ... *)
  let words = Array.of_list (String.split_on_char ' ' sql) in
  let delete = words.(0) = "DELETE" in
  let tbl = D.table db words.(if delete then 2 else 1) in
  match D.plan db sql with
  | exception D.Sql_error _ -> true
  | access ->
      incr planned;
      let before = snapshot tbl in
      let victims =
        match List.of_seq (Ref_exec.rows_with_ids params access) with
        | rows -> Some (List.map fst rows)
        | exception _ -> None
      in
      let result = outcome (fun () -> D.exec_params db sql params) in
      let after = snapshot tbl in
      let untouched id = List.assoc_opt id after = List.assoc_opt id before in
      let ok =
        match (result, victims) with
        | Ok (D.Affected n), Some ids ->
            n = List.length ids
            && List.for_all
                 (fun (id, _) -> List.mem id ids || untouched id)
                 before
            &&
            if delete then List.for_all (fun id -> not (List.mem_assoc id after)) ids
            else
              (* the one SET column takes the bound value; the rest stay *)
              let j = Scanf.sscanf words.(3) "c%d" Fun.id in
              List.for_all
                (fun id ->
                  match (List.assoc_opt id before, List.assoc_opt id after) with
                  | Some old, Some nw ->
                      let want = Array.copy old in
                      want.(j) <- params.(0);
                      want = nw
                  | _ -> false)
                ids
        | Error (), _ -> List.for_all (fun (id, _) -> untouched id) before
        | _ -> false
      in
      if not ok then QCheck.Test.fail_reportf "%s: the rows it changed are not the reference's" sql;
      (match D.check db with
      | Ok () -> ()
      | Error msgs -> QCheck.Test.fail_reportf "%s: %s" sql (String.concat "; " msgs));
      true

let prop_oracle =
  QCheck.Test.make ~name:"compiled pipeline = reference interpreter" ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let db = D.create () in
      List.iter
        (fun sql -> try ignore (D.exec db sql) with D.Sql_error _ -> ())
        c.schema;
      List.for_all
        (fun (sql, params) ->
          if String.length sql > 6 && String.sub sql 0 6 = "SELECT" then check_select db sql params
          else check_dml db sql params)
        c.statements)

(* ---- a derived table = its rows materialized ---------------------------- *)

(* [FROM (q) b] must return the rows the same outer statement returns over a
   table [m] filled with q's rows: b alone or joined with a base table, a
   WHERE over both, and either no order (compared as multisets) or an ORDER
   BY of every output column with a LIMIT (compared in order). *)
type materialized = {
  m_schema : string list;
  q : string;  (* the subquery, without its parentheses *)
  q_params : V.t array;
  q_types : V.ty array;
  outer : string -> string;  (* the statement over b's FROM item *)
  o_params : V.t array;
  ordered : bool;
}

let gen_materialized rs =
  let tables, m_schema = gen_schema rs in
  let sq = { params = [] } and so = { params = [] } in
  let b = derived sq rs tables ~depth:1 in
  let joined = if chance rs 2 then [ ("a1", pick rs tables) ] else [] in
  let aliases = ("b", b) :: joined in
  let cols = List.init (upto rs 1 3) (fun _ -> column rs aliases) in
  let where = gen_where so rs aliases in
  let ordered = chance rs 2 in
  let tail = if ordered then " ORDER BY " ^ String.concat ", " cols ^ limit so rs else "" in
  let rest = String.concat "" (List.map (fun (a, t) -> Printf.sprintf ", %s %s" t.tname a) joined) in
  {
    m_schema;
    q = String.sub b.tname 1 (String.length b.tname - 2);
    q_params = Array.of_list sq.params;
    q_types = b.types;
    outer = (fun item -> Printf.sprintf "SELECT %s FROM %s b%s%s%s" (String.concat ", " cols) item rest where tail);
    o_params = Array.of_list so.params;
    ordered;
  }

let print_materialized c =
  Printf.sprintf "%s;\n%s  -- [%s]"
    (String.concat ";\n" c.m_schema)
    (c.outer ("(" ^ c.q ^ ")"))
    (String.concat ", " (Array.to_list (Array.map V.to_sql_literal (Array.append c.q_params c.o_params))))

let prop_materialized =
  QCheck.Test.make ~name:"FROM (q) AS b = FROM a table of q's rows" ~count:300
    (QCheck.make ~print:print_materialized gen_materialized)
    (fun c ->
      let db = D.create () in
      List.iter (fun sql -> try ignore (D.exec db sql) with D.Sql_error _ -> ()) c.m_schema;
      match D.query_params db c.q c.q_params with
      | exception D.Sql_error _ -> true
      | rows ->
          ignore
            (D.exec db
               (Printf.sprintf "CREATE TABLE m (%s)"
                  (String.concat ", "
                     (Array.to_list (Array.mapi (fun k ty -> Printf.sprintf "c%d %s" k (V.ty_name ty)) c.q_types)))));
          ignore (D.insert_many db "m" rows);
          let settle l = if c.ordered then l else List.sort compare l in
          let run sql params = Result.map settle (outcome (fun () -> D.query_params db sql params)) in
          let direct = run (c.outer ("(" ^ c.q ^ ")")) (Array.append c.q_params c.o_params) in
          let via_m = run (c.outer "m") c.o_params in
          direct = via_m
          || QCheck.Test.fail_reportf "derived: %s rows, materialized: %s rows"
               (match direct with Ok r -> string_of_int (List.length r) | Error () -> "error")
               (match via_m with Ok r -> string_of_int (List.length r) | Error () -> "error"))

(* the generator must reach the executor: most statements plan *)
let test_exercised () =
  if !planned < 1500 then Alcotest.failf "only %d statements were planned" !planned;
  if !planned_derived < 600 then
    Alcotest.failf "only %d statements with a derived table were planned (%d in all)" !planned_derived !planned

let tests =
  ( "exec-oracle",
    [
      QCheck_alcotest.to_alcotest prop_oracle;
      QCheck_alcotest.to_alcotest prop_materialized;
      Alcotest.test_case "statements planned" `Quick test_exercised;
    ] )
