(** Recursive-descent parser for the SQL dialect described in the README:
    single-block SELECT (joins expressed in the FROM/WHERE clauses, GROUP BY,
    ORDER BY, LIMIT/OFFSET), INSERT .. VALUES, UPDATE, DELETE, CREATE TABLE,
    CREATE [UNIQUE] INDEX, DROP TABLE. *)

exception Parse_error of string

val parse : string -> Sql_ast.stmt
(** Parse a single statement (a trailing [;] is allowed). *)

val parse_params : string -> Sql_ast.stmt * int
(** As {!parse}, with the number of [?] slots: [E_param 0] to
    [E_param (n - 1)], numbered left to right. *)

val parse_expr : string -> Sql_ast.sexpr
(** Parse a standalone scalar expression (used by tests). *)
