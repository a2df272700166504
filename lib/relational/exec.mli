(** Plan execution. Pipelining operators produce rows lazily; Sort, hash
    builds, Distinct and Aggregate materialize as relational engines do. *)

exception Exec_error of string

val run : Plan.t -> Tuple.t Seq.t
(** Evaluate the plan. The sequence may be consumed once. *)

val run_list : Plan.t -> Tuple.t list
(** Convenience: fully materialize the result. *)

val row_count : Plan.t -> int
(** Consume the plan counting rows. *)

val rows_with_ids : Plan.t -> (int * Tuple.t) Seq.t
(** The rows of a single-table access path, with their row ids: a scan
    under filters, or [LIMIT 0] over one. These are the rows an UPDATE or
    DELETE touches. @raise Exec_error on any other plan. *)

(** {2 Instrumented execution}

    Per-operator runtime statistics, the engine half of
    [Db.explain_analyze]. *)

type prof = {
  prof_label : string;  (** {!Plan.label} of the operator *)
  prof_children : prof list;
  mutable prof_rows : int;  (** rows the operator produced *)
  mutable prof_loops : int;  (** times its output sequence was started *)
  mutable prof_ns : int64;
      (** time spent pulling rows out of it, children included *)
}

val run_profiled : Plan.t -> Tuple.t list * prof
(** Evaluate the plan with every operator wrapped in a row counter and a
    monotonic pull timer; returns the materialized rows and the stats tree
    (mirroring the plan's shape). *)

val pp_prof : Format.formatter -> prof -> unit
(** The plan tree annotated with actual rows / loops / elapsed time. *)
