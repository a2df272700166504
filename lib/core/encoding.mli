(** The three order encodings of the paper (plus the gap-based GLOBAL
    variant used by the ablation experiment).

    All encodings share the node payload columns
    [(id, parent, kind, tag, value, nval)] and differ in their order columns:

    - {b GLOBAL} adds [(g_order, g_end)]: a begin/end interval numbering in
      document order. Document order is [ORDER BY g_order]; the descendants
      of [n] are exactly the rows with [g_order] strictly inside [n]'s
      interval. (The paper stored the begin-tag position; the interval form
      carries the same order information and makes the descendant test
      closed-form. See DESIGN.md, substitutions.)
    - {b GLOBAL/gap} is the same schema loaded with gaps between interval
      endpoints so insertions can often be absorbed without renumbering.
    - {b LOCAL} adds [l_order]: the sibling position (attributes occupy
      negative positions, see {!Doc_index}).
    - {b DEWEY} adds [(depth, path)] where [path] is the binary
      order-preserving {!Dewey} key; document order is [ORDER BY path] and
      the descendant axis is a [path] prefix range.
    - {b DEWEY/caret} ("ordpath", after the SQL Server follow-up to the
      paper) shares the DEWEY schema but loads children at odd components
      (1, 3, 5, ...) and lets insertions claim even {e caret} components
      between existing siblings, so typical insertions renumber {e zero}
      rows. [depth] stores the logical depth (caret components are not
      levels). When a caret zone is exhausted the updater falls back to a
      DEWEY-style sibling renumbering that restores headroom (full ORDPATH
      avoids even that with negative components, which the unsigned binary
      codec here does not represent — see DESIGN.md).

    [nval] is the numeric shadow of [value] for text/attribute rows whose
    content parses as a number; value predicates compare against it (the
    standard shredding trick for typed comparisons inside an RDBMS). *)

type t = Global | Global_gap | Local | Dewey_enc | Dewey_caret

val all : t list
val name : t -> string
(** "global" | "global-gap" | "local" | "dewey" | "ordpath" *)

val of_name : string -> t option

val table_name : doc:string -> t -> string
(** The edge table for document [doc] under this encoding. *)

val default_gap : int
(** Interval spacing used when loading [Global_gap] (32). *)

val order_col : t -> string
(** The column that orders the children of one parent: ["g_order"],
    ["l_order"] or ["path"]. Under every encoding but LOCAL it is also
    document order. *)

val create_tables : Reldb.Db.t -> doc:string -> t -> unit
(** Issue the CREATE TABLE / CREATE INDEX DDL. *)

val drop_tables : Reldb.Db.t -> doc:string -> t -> unit

(** {2 Column positions} (fixed per encoding, used by bulk paths) *)

val col_id : int
val col_parent : int
val col_kind : int
val col_tag : int
val col_value : int
val col_nval : int

val col_g_order : int
val col_g_end : int
(** GLOBAL only. *)

val col_l_order : int
(** LOCAL only. *)

val col_depth : int
val col_path : int
(** DEWEY only. *)

(** {2 Numbers}

    One number rule serves shredding, the SQL comparisons the translators
    emit, the DOM oracle and FLWOR, so a comparison gives the same answer
    wherever it is evaluated. *)

val number_of_string : string -> float
(** XPath [number()] of a string: the float it parses as after trimming
    when that is finite, else NaN (so ["inf"] and ["1e999"] are not
    numbers). *)

val cmp_holds : Xpath_ast.cmp -> int -> bool
(** [cmp_holds op c] reads a comparison result [c] (negative, zero or
    positive) through [op]. *)

val value_matches : Xpath_ast.cmp -> Xpath_ast.literal -> string -> bool
(** [value_matches op lit sv]: the string value [sv] compared with [lit]
    under XPath's rules: numerically for a number literal and for the
    ordering operators (false when either side is NaN), as strings for
    [=] / [!=] against a string literal. *)

val nval_of : kind:Doc_index.kind -> string -> Reldb.Value.t
(** Numeric shadow value for a text/attribute payload:
    {!number_of_string} of it, NULL where that is NaN. *)
