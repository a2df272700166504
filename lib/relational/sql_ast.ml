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

(* the operands of an expression, left to right *)
let children = function
  | E_const _ | E_param _ | E_col _ | E_star -> []
  | E_cmp (_, a, b) | E_and (a, b) | E_or (a, b) | E_arith (_, a, b) | E_concat (a, b) -> [ a; b ]
  | E_between (a, lo, hi) -> [ a; lo; hi ]
  | E_not a | E_neg a | E_is_null a | E_is_not_null a | E_like (a, _) | E_in (a, _) -> [ a ]
  | E_func (_, args) -> args

(* an expression and every expression inside it, parents first *)
let rec subterms e = e :: List.concat_map subterms (children e)

type order_dir = Asc | Desc

type select_item = Item of sexpr * string option  (* expr AS alias *) | Star

type select = {
  distinct : bool;
  items : select_item list;
  from : from_item list;
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

and from_item =
  | Base of string * string option  (* table name, alias *)
  | Derived of select * string  (* (SELECT ...) AS alias: uncorrelated *)

let from_alias = function Base (name, alias) -> Option.value alias ~default:name | Derived (_, a) -> a

(* A trailing ORDER BY, LIMIT or OFFSET applies to the whole compound;
   ORDER BY names output columns. *)
type compound = {
  branches : select list;
  c_order_by : (sexpr * order_dir) list;
  c_limit : sexpr option;
  c_offset : sexpr option;
}

type column_def = { cd_name : string; cd_type : Value.ty; cd_not_null : bool }

type stmt =
  | Select of select
  | Union_all of compound  (* SELECT ... UNION ALL SELECT ... *)
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
