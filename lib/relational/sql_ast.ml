(* Surface syntax produced by the SQL parser. Column references are by name;
   the planner resolves them to positions. *)

type sexpr =
  | E_const of Value.t
  | E_param of int  (* positional ? placeholder, 0-based, numbered left to right *)
  | E_col of string option * string  (* qualifier (table alias), column *)
  | E_cmp of Expr.cmp * sexpr * sexpr
  | E_and of sexpr * sexpr
  | E_or of sexpr * sexpr
  | E_not of sexpr
  | E_arith of Expr.arith * sexpr * sexpr
  | E_neg of sexpr
  | E_concat of sexpr * sexpr
  | E_is_null of sexpr
  | E_is_not_null of sexpr
  | E_like of sexpr * string
  | E_in of sexpr * Value.t list
  | E_between of sexpr * sexpr * sexpr
  | E_func of string * sexpr list  (* scalar or aggregate; resolved later *)
  | E_star  (* only valid inside COUNT( * ) *)

type order_dir = Asc | Desc

type select_item = Item of sexpr * string option  (* expr AS alias *) | Star

type select = {
  distinct : bool;
  items : select_item list;
  from : (string * string option) list;  (* table name, alias *)
  where : sexpr option;
  group_by : sexpr list;
  having : sexpr option;
  order_by : (sexpr * order_dir) list;
  limit : int option;
  offset : int option;
  limit_by : sexpr list;
      (* LIMIT n [OFFSET m] BY e1, ...: the limit and offset apply per
         distinct key; empty for a plain LIMIT *)
}

type column_def = { cd_name : string; cd_type : Value.ty; cd_not_null : bool }

type stmt =
  | Select of select
  | Union_all of select list  (* SELECT ... UNION ALL SELECT ... *)
  | Insert of { table : string; columns : string list option; values : sexpr list list }
  | Update of { table : string; sets : (string * sexpr) list; where : sexpr option }
  | Delete of { table : string; where : sexpr option }
  | Create_table of { name : string; columns : column_def list }
  | Create_index of {
      name : string;
      table : string;
      columns : string list;
      unique : bool;
    }
  | Drop_table of string
  | Begin_txn
  | Commit_txn
  | Rollback_txn

(* --- parameter plumbing (prepared statements) ------------------------- *)

(* Rebuild an expression with every [E_param i] replaced by [f i]. *)
let rec subst_params f (e : sexpr) : sexpr =
  let s = subst_params f in
  match e with
  | E_param i -> f i
  | E_const _ | E_col _ | E_star -> e
  | E_cmp (op, a, b) -> E_cmp (op, s a, s b)
  | E_and (a, b) -> E_and (s a, s b)
  | E_or (a, b) -> E_or (s a, s b)
  | E_not a -> E_not (s a)
  | E_arith (op, a, b) -> E_arith (op, s a, s b)
  | E_neg a -> E_neg (s a)
  | E_concat (a, b) -> E_concat (s a, s b)
  | E_is_null a -> E_is_null (s a)
  | E_is_not_null a -> E_is_not_null (s a)
  | E_like (a, p) -> E_like (s a, p)
  | E_in (a, vs) -> E_in (s a, vs)
  | E_between (a, lo, hi) -> E_between (s a, s lo, s hi)
  | E_func (name, args) -> E_func (name, List.map s args)

let map_select g (sel : select) : select =
  {
    sel with
    items =
      List.map
        (function Item (e, alias) -> Item (g e, alias) | Star -> Star)
        sel.items;
    where = Option.map g sel.where;
    group_by = List.map g sel.group_by;
    having = Option.map g sel.having;
    order_by = List.map (fun (e, d) -> (g e, d)) sel.order_by;
    limit_by = List.map g sel.limit_by;
  }

(* Apply [g] to every expression position of a statement. *)
let map_exprs g (stmt : stmt) : stmt =
  match stmt with
  | Select sel -> Select (map_select g sel)
  | Union_all sels -> Union_all (List.map (map_select g) sels)
  | Insert { table; columns; values } ->
      Insert { table; columns; values = List.map (List.map g) values }
  | Update { table; sets; where } ->
      Update
        {
          table;
          sets = List.map (fun (c, e) -> (c, g e)) sets;
          where = Option.map g where;
        }
  | Delete { table; where } -> Delete { table; where = Option.map g where }
  | Create_table _ | Create_index _ | Drop_table _ | Begin_txn | Commit_txn
  | Rollback_txn ->
      stmt

let iter_exprs f (stmt : stmt) : unit =
  ignore
    (map_exprs
       (fun e ->
         f e;
         e)
       stmt)

(* Number of parameter slots a statement needs: one past the highest [?]
   index (the parser numbers them densely left to right). *)
let param_count stmt =
  let n = ref 0 in
  iter_exprs
    (fun e ->
      let rec go e =
        match e with
        | E_param i -> if i + 1 > !n then n := i + 1
        | E_const _ | E_col _ | E_star -> ()
        | E_cmp (_, a, b)
        | E_and (a, b)
        | E_or (a, b)
        | E_arith (_, a, b)
        | E_concat (a, b) ->
            go a;
            go b
        | E_not a | E_neg a | E_is_null a | E_is_not_null a
        | E_like (a, _)
        | E_in (a, _) ->
            go a
        | E_between (a, lo, hi) ->
            go a;
            go lo;
            go hi
        | E_func (_, args) -> List.iter go args
      in
      go e)
    stmt;
  !n

exception Bind_error of string

(* Substitute bound values for every parameter. *)
let bind_params (params : Value.t array) stmt =
  map_exprs
    (subst_params (fun i ->
         if i < 0 || i >= Array.length params then
           raise
             (Bind_error
                (Printf.sprintf "parameter ?%d has no bound value" (i + 1)))
         else E_const params.(i)))
    stmt
