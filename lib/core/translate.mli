(** XPath evaluation over the shredded relations: the paper's translation of
    ordered queries into SQL, one strategy per encoding. This is the one
    XPath compiler: {!compile} cuts a path into {!segment}s once, and the
    evaluators execute exactly that list, so what [oxq sql], [oxq lint] and
    the static analysis read is what runs.

    A path is cut into {e runs}: maximal sequences of steps that one SQL
    statement can hold, each a chain of self-joins over the edge table with
    one alias per step, as in the paper's translator. A run holds
    - steps whose axis is in the encoding's join table ([child],
      [attribute], [parent], [self] and the sibling axes everywhere; the
      descendant(-or-self) and [following] axes under GLOBAL and DEWEY,
      whose subtrees end below [g_end] or below the path followed by the
      byte [ff]; the ancestor and [preceding] axes under GLOBAL only), and,
      on every encoding, a leading [child] or [descendant] step from the
      document root (a tag-index scan);
    - predicates that are conjunctions of existence tests and value
      comparisons over such steps, each lowered as more joined aliases (with
      [DISTINCT] when they can reach a row twice);
    - on any step, one positional predicate — [[k]], [[last()]] or a
      [position()] range — lowered as [ORDER BY] the chain's order columns
      and [LIMIT ? OFFSET ? BY] the previous alias's id, so a position is a
      bound value and each context's probe of the [(parent, tag, order)]
      index stops after offset + limit rows. A positional step followed by
      more steps ends a derived table, [FROM (SELECT ... LIMIT ? OFFSET ?
      BY ...) b0, ...], that the rest of the statement joins; after a join
      that can reach a row twice, a [SELECT DISTINCT] derived table comes
      first, so that a position counts unique rows;
    - under GLOBAL and GLOBAL/gap, in a run from the root, a [following]
      ([preceding]) step without a positional predicate joins one row
      instead of every context: the least [g_end] (greatest [g_order]) of
      the steps before it, a derived table [(SELECT MIN(...) AS g_end ...)]
      (the staircase join: the union of the contexts' following nodes is
      the following nodes of the context that ends first). Its rows are
      then unique, so the step carries no [DISTINCT] unless a predicate
      join repeats them.

    Every other step is evaluated in the middle tier, and the next run
    starts from the context relation ({!Node_row.ctx_relation}): the current
    context set fills an engine-owned scratch relation that the statement
    joins (alias [c]). Statement texts depend only on the table, encoding,
    axes, node tests and the shape of the predicates; values and positions
    are bound to [?] slots, so every plan stays cached.

    A run from the root along a child/attribute chain (under GLOBAL and
    DEWEY: any run from the root without a positional predicate on its last
    step; under LOCAL: also a whole path a sibling step ends) returns
    each row once and in document order, through its [ORDER BY]; the middle
    tier then neither deduplicates nor sorts. A child chain from the root
    ({!child_chain}) orders by every chain alias's order column, root down,
    under every encoding (LOCAL's sibling orders, or [g_order] or [path]):
    that is its rows' document order, and it is the order the chain's index
    nested-loop joins already deliver, so the planner runs no Sort for it
    ({!Reldb.Planner}). Otherwise the encodings differ:

    - ordered axes map to order-column ranges — [g_order]/[g_end] intervals
      for GLOBAL, [path] prefix ranges for DEWEY, [(parent, l_order)] ranges
      for LOCAL sibling axes;
    - document-order axes ([following], [preceding]) and document-order
      output sorting are closed-form for GLOBAL and DEWEY but require the
      middle tier to materialize parent chains (one SQL statement per level)
      for LOCAL — the recursion cost the paper attributes to local order.
      LOCAL orders rows by root-path keys, the [l_order] values from the
      root down: a [following]/[preceding] step reads the rows passing its
      node test, then fetches only those ancestors of them and of the
      context rows that no earlier statement of the call has fetched. Each
      call of the functions below keeps, for LOCAL only, one node-id table
      ({!Node_row.Tbl}) of every edge row the call fetched, each with its
      key once computed, so a row is looked up once per pass; every step
      and the final sort share it, a sort of rows that have keys climbs no
      chain, and it is dropped when the call returns or raises; GLOBAL and
      DEWEY leave it empty. So that this cache holds
      every row a sort needs, a LOCAL run holds one step unless it is a
      child chain from the root, and such a chain, when more steps follow
      it or a union sorts it again, also selects the rows of its earlier
      steps;
    - positional predicates the statement cannot hold are ranked in the
      middle tier per context node over the axis-ordered candidates (sibling
      positions stored by LOCAL/DEWEY are sibling ranks, not ranks among
      nodes passing the step's name test, so they cannot answer
      [bidder[2]] alone);
    - value predicates ([price > 100], [@id = 'x']) become comparisons on
      the [value]/[nval] columns ({!Encoding.number_of_string} is the one
      number rule). A comparison path that selects elements gets an
      implicit [/text()] appended, which equals XPath string-value
      semantics for elements whose content is a single text node (the
      data-centric case; see DESIGN.md).

    The number of SQL statements issued and the SQL text are reported for
    instrumentation; rows-read/written counters live on {!Reldb.Db}. *)

type result = {
  rows : Node_row.t list;  (** result nodes, in document order *)
  statements : int;  (** SQL statements issued *)
  sql_log : string list;  (** the statements, in order *)
}

exception Unsupported of string

val eval : Reldb.Db.t -> doc:string -> Encoding.t -> Xpath_ast.path -> result
(** Evaluate an absolute or relative (root-context) path: {!compile}, then
    {!exec}. *)

(** {2 The compiled form}

    What {!exec} runs, and what the CLI and the static analysis read: there
    is no second compiler. A compiled query holds every statement its
    evaluation can issue, with its bound values, so running it lowers
    nothing. It depends only on the table name, the encoding and the path,
    so it can be kept and run again after any update. *)

type run = {
  steps : Xpath_ast.step list;  (** the path steps the statement holds *)
  sql : string;  (** the statement text, values as [?] slots *)
  params : Reldb.Value.t array;  (** the values of the slots, in order *)
  from_root : bool;
      (** from the document root; otherwise the statement joins the
          context relation (alias [c]) filled with the previous segment's
          rows, and selects the context id last *)
  chain : (string * string) list;
      (** the order keys of the statement's chain, root down, as (alias,
          column): under GLOBAL and DEWEY the order column of each alias
          of its steps, the derived table's first; under LOCAL the
          [l_order] of every level from the root, a derived table's
          levels as its [o0], [o1], ... and [l_order], a sibling step in
          place of its context's level. The last alias's columns are
          selected *)
  tail : bool;
      (** a positional predicate on the last step: [ORDER BY] the chain's
          order columns, [LIMIT ? OFFSET ?] per context *)
  sorted : bool;
      (** the statement returns each row once, in document order, through
          its [ORDER BY]; when the run ends the path, the middle tier does
          not sort *)
  keeps_chain : bool;
      (** LOCAL: the rows of the chain's earlier steps follow the result's
          columns, for the parent-chain cache *)
  derived : run option;
      (** the run of the leading steps, which the statement reads as its
          derived table [b<k>] (its [sql] is the subquery): a positional
          tail or a [DISTINCT] ends it; it is never [sorted] *)
}

type segment =
  | Run of run  (** one statement *)
  | Step of step
      (** one step in the middle tier, from the previous segment's rows (or,
          leading a path, from the root): its candidates, ranked and
          filtered per context *)

and step = {
  step : Xpath_ast.step;  (** the path step; its predicates run as [preds] *)
  fetch : fetch;  (** how the step's candidates are read *)
  preds : pred list;
}

and fetch =
  | Self_rows  (** the context rows that pass the node test: no statement *)
  | Root of run  (** a step leading the path: its rows from the root *)
  | Context of run  (** one statement over the context relation *)
  | Prefixes of string  (** DEWEY [ancestor]: one join with the contexts' path prefixes *)
  | Chain_walk  (** LOCAL [ancestor]: parent chains, fetched by id per level *)
  | Levels  (** LOCAL [descendant]: children by parent id, per level *)
  | Doc_order of run  (** LOCAL [following]/[preceding]: the candidates from the root *)
  | With_self of fetch  (** [-or-self] without a join: the context rows, then [fetch] *)

(** A predicate with the compiled segments of each path it reads from the
    candidates; [Cmp]'s last segments read the elements' [child::text()]. *)
and pred =
  | Pos of Xpath_ast.cmp * int
  | Last
  | Exists of segment list
  | Cmp of segment list * Xpath_ast.cmp * Xpath_ast.literal * segment list
  | Count of segment list * Xpath_ast.cmp * int
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type query = segment list list

val child_chain : from_root:bool -> Xpath_ast.step list -> bool
(** A run's steps are a child chain from the root: from the root, and every
    step a [child], [attribute] or [self] step. Such a run orders by its
    whole {!run.chain}, root down, on every encoding. *)

val compile : ?relative:bool -> doc:string -> Encoding.t -> Xpath_ast.union -> query
(** Each path of the union as the segments its evaluation executes, in
    order; a one-path union's last run from the root sorts when it can.
    With [~relative:true], paths start from the context nodes given to
    {!exec}. Each statement lowered counts in Obs's [translate.lowered]. *)

val exec : ?ids:int list -> Reldb.Db.t -> doc:string -> Encoding.t -> query -> result
(** Run a query compiled for the same [doc] and encoding; [ids] are the
    context nodes of a [relative] one. The paths of a union are merged,
    deduplicated and returned in document order. *)
