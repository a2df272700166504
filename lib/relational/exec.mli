(** Plan execution: a {!Plan.t} compiled once into a push pipeline.

    Each operator is a closure that writes its rows into a frame and calls
    its consumer. A frame is one array per execution: slot 0 holds the
    bound [?] values, and each scan, projection and kept row has a slot, so
    a join chain writes each alias into its slot instead of concatenating
    tuples. Expressions are {!Expr.compile}d against their columns' frame
    positions. Only operators that keep rows copy them: Sort, Distinct,
    Aggregate, a hash-join build, a nested-loop join's inner side and the
    result. Sort, Aggregate, hash-join builds and nested-loop inner sides
    read their input when they open; everything else streams, and reads no
    row past a met LIMIT without BY or index-join cap. *)

exception Exec_error of string

type t
(** A compiled plan; it runs any number of times. *)

val compile : Plan.t -> t

val run : t -> Value.t array -> Tuple.t list
(** [run t params] executes [t] with [params] as its [?] values.
    @raise Exec_error on a bad LIMIT or OFFSET value
    @raise Expr.Eval_error on a failing expression *)

val run_list : Plan.t -> Tuple.t list
(** Compile and run a plan without parameters. *)

val row_count : Plan.t -> int

val rows_with_ids : Plan.t -> Value.t array -> (int * Tuple.t) list
(** [rows_with_ids plan] compiles a single-table access path (a scan under
    filters, or [LIMIT 0] over one); applied to bound values, it returns
    the rows an UPDATE or DELETE touches, with their row ids.
    @raise Exec_error on any other plan. *)

(** {2 Profiled execution} (the engine half of [Db.explain_analyze]) *)

type prof = {
  prof_label : string;  (** {!Plan.label} of the operator *)
  prof_children : prof list;
  mutable prof_rows : int;  (** rows pushed to its consumer *)
  mutable prof_loops : int;  (** times it was opened *)
  mutable prof_ns : int64;
      (** time in it and the operators below it, without its consumer's *)
}

val run_profiled : Plan.t -> Value.t array -> Tuple.t list * prof
(** {!compile} with row, loop and time counters around every operator, run
    once: the rows and the stats tree, in the plan's shape. *)

val pp_prof : Format.formatter -> prof -> unit
(** The plan tree annotated with actual rows / loops / elapsed time. *)
