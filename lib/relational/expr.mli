(** Scalar expressions evaluated against a tuple.

    Column references are positional; the planner resolves names to positions
    when it builds plans. Boolean results use SQL three-valued logic with
    [Int 1] / [Int 0] / [Null]. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod
type func = Length | Abs | Lower | Upper | Substr

type t =
  | Const of Value.t
  | Col of int
  | Param of int
      (** Positional [?] placeholder (0-based). Cached plans keep their
          parameters; each execution binds them ({!Plan.bind})
          before the plan runs. Evaluating an unbound one raises
          {!Eval_error}. *)
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | Concat of t * t
      (** [||]: BYTES with BYTES gives BYTES; any other pair concatenates
          the text forms. NULL if either side is NULL. *)
  | Is_null of t
  | Is_not_null of t
  | Like of t * string  (** SQL LIKE with [%] and [_] wildcards *)
  | In_list of t * Value.t list
  | Func of func * t list
      (** Scalar functions. [SUBSTR(s, start)] and [SUBSTR(s, start, len)]
          take a 1-based start and return BYTES for BYTES input, TEXT for
          TEXT. *)

exception Eval_error of string

val eval : t -> Tuple.t -> Value.t
(** @raise Eval_error on type errors (e.g. arithmetic on text). *)

val eval_bool : t -> Tuple.t -> bool
(** Predicate semantics: [true] iff {!eval} yields a truthy non-null value. *)

val like_match : pattern:string -> string -> bool
(** Exposed for tests. *)

val columns : t -> int list
(** Distinct column positions referenced, ascending. *)

val map_columns : (int -> int) -> t -> t
(** Rewrite every column reference. *)

val subst_params : (int -> t) -> t -> t
(** [subst_params f e] replaces every [Param i] by [f i]. *)

val shift_columns : int -> t -> t
(** Add an offset to every column reference (used when an expression over a
    join input is rebased onto the concatenated join schema). *)

val conjuncts : t -> t list
(** Flatten nested [And]s. *)

val conjoin : t list -> t option
(** [None] for the empty list. *)

val pp : Format.formatter -> t -> unit
