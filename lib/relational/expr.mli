(** Scalar expressions evaluated against a tuple.

    Column references are positional; the planner resolves names to positions
    when it builds plans. Boolean results use SQL three-valued logic with
    [Int 1] / [Int 0] / [Null]. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod
type func = Length | Abs | Lower | Upper | Substr | Path_shift

type t =
  | Const of Value.t
  | Col of int
  | Param of int
      (** Positional [?] placeholder (0-based). Cached plans keep their
          parameters; a compiled expression reads slot [i] of the bound
          values in its frame's slot 0. Reading a slot with no value
          raises {!Eval_error}. *)
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
          TEXT. [PATH_SHIFT(path, depth, k)] is the BYTES path
          ({!Path_codec}) with [k] added to its component after the first
          [depth]; NULL if an argument is NULL, {!Eval_error} if the path
          is not BYTES, has no component at [depth], is malformed up to it,
          or the new component is out of range. *)

exception Eval_error of string

type frame = Tuple.t array
(** What a compiled expression reads: slot 0 holds the bound [?] values,
    the other slots tuples (e.g. one per alias of a join). *)

val compile : arity:int -> col:(int -> int * int) -> t -> frame -> Value.t
(** [compile ~arity ~col e] is [e] as a closure: column [i] (below
    [arity]) reads [f.(s).(o)] for [(s, o) = col i], [?] slot [i] reads
    [f.(0).(i)], and a column compared with a constant reads the frame in
    place. The closure raises {!Eval_error} on type errors (e.g.
    arithmetic on text), a column at or above [arity] or an unbound slot. *)

val compile_pred : arity:int -> col:(int -> int * int) -> t -> frame -> bool
(** Predicate semantics: [true] iff the three-valued result of {!compile}
    is true (truthy and not NULL). AND and OR short-circuit on booleans,
    and a column compared with a non-NULL INT or TEXT constant tests the
    stored value in place; every other predicate is evaluated three-valued. *)

val eval : t -> Tuple.t -> Value.t
(** {!compile} over one tuple, applied once, with no bound values. *)

val eval_bool : t -> Tuple.t -> bool
(** {!compile_pred} over one tuple, applied once. *)

val like_match : pattern:string -> string -> bool
(** Exposed for tests. *)

val columns : t -> int list
(** Distinct column positions referenced, ascending. *)

val map_columns : (int -> int) -> t -> t
(** Rewrite every column reference. *)

val shift_columns : int -> t -> t
(** Add an offset to every column reference (used when an expression over a
    join input is rebased onto the concatenated join schema). *)

val conjuncts : t -> t list
(** Flatten nested [And]s. *)

val conjoin : t list -> t option
(** [None] for the empty list. *)

val pp : Format.formatter -> t -> unit
