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
  limit : sexpr option;  (* an integer literal or a ? slot *)
  offset : sexpr option;
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
