(** User-facing facade: an ordered XML store inside a relational engine.

    {[
      let db = Reldb.Db.create () in
      let doc = Xmllib.Parser.parse_document xml_text in
      let store = Api.Store.create db ~name:"books" Encoding.Dewey_enc doc in
      let titles = Api.Store.query_values store "/catalog/book[2]/title" in
      ...
    ]}

    {2 Tracing}

    When {!Obs.enabled} (the default), every entry point below runs under an
    {!Obs.Span}: queries open a [query] span (attributes [xpath] and
    [encoding]) with [xpath-parse] / [translate] / [reconstruct] children,
    loading opens [shred], and each update opens a span named after the
    operation (e.g. [insert_subtree]) whose renumbering statements nest
    under [renumber] spans. Engine-level spans ([sql-parse] / [plan] /
    [exec]) from {!Reldb.Db.exec} nest inside whichever phase issued the
    statement. Capture a trace with {!Obs.Span.collect}:

    {[
      let nodes, spans =
        Obs.Span.collect (fun () -> Api.Store.query_nodes store xpath)
      in
      print_string (Obs.Span.to_string spans)
    ]} *)

exception No_subtree of int
(** Raised by {!Store.subtree}, {!Store.serialize} and {!Store.query_nodes}
    when the node id is unknown or names an attribute, which roots no
    subtree. The same exception as {!Reconstruct.No_subtree}. *)

exception No_document of string
(** Raised by {!Store.document} and {!Store.root_id} when the store's edge
    table holds no root element (say, after its rows were deleted through
    SQL); carries the store's name. The same exception as
    {!Reconstruct.No_document}. *)

module Store : sig
  type t

  val create :
    ?gap:int ->
    Reldb.Db.t ->
    name:string ->
    Encoding.t ->
    Xmllib.Types.document ->
    t
  (** Shred the document into tables named [<name>_<encoding>].
      @raise Reldb.Db.Sql_error if the store already exists. *)

  val open_existing : Reldb.Db.t -> name:string -> Encoding.t -> t
  (** Attach to tables created earlier. @raise Reldb.Db.Sql_error if the
      edge table is missing. *)

  val drop : t -> unit

  val db : t -> Reldb.Db.t
  val name : t -> string
  val encoding : t -> Encoding.t

  (** {2 Queries} *)

  val query : t -> string -> Translate.result
  (** Evaluate an XPath string. @raise Xpath_parser.Parse_error on bad
      syntax. The store caches the compiled query of up to 128 texts
      (least recently used out first), which updates never invalidate; a
      hit skips parsing and translation, and its [query] span says
      [cached=true] (Obs counters [xpath_cache.hit] / [.miss]). *)

  val compile : t -> string -> Translate.query
  (** The compiled query {!query} runs for the text, through the cache. *)

  val cached : t -> int  (** texts whose compiled query the store holds *)

  val query_ids : t -> string -> int list
  (** Node ids in document order. *)

  val query_nodes : t -> string -> Xmllib.Types.node list
  (** Result subtrees, reconstructed. Attribute results cannot be rebuilt
      as standalone subtrees, so use {!query_values} when the XPath selects
      attributes. @raise No_subtree if it selects one. *)

  val query_values : t -> string -> string list
  (** XPath string-values of the result nodes. *)

  val count : t -> string -> int

  val flwor : t -> string -> Xmllib.Types.node list
  (** Run a FLWOR-lite publishing query (see {!Flwor}). *)

  (** {2 Updates} *)

  val insert_subtree : t -> parent:int -> pos:int -> Xmllib.Types.node -> Update.stats

  (** Bulk sibling insertion with one renumbering pass, see
      {!Update.insert_forest}. *)
  val insert_forest :
    t -> parent:int -> pos:int -> Xmllib.Types.node list -> Update.stats
  val append_child : t -> parent:int -> Xmllib.Types.node -> Update.stats
  val delete_subtree : t -> id:int -> Update.stats
  val move_subtree : t -> id:int -> parent:int -> pos:int -> Update.stats
  val replace_subtree : t -> id:int -> Xmllib.Types.node -> Update.stats
  val set_text : t -> id:int -> string -> Update.stats
  val set_attribute : t -> id:int -> name:string -> value:string -> Update.stats
  val remove_attribute : t -> id:int -> name:string -> Update.stats

  val atomically : t -> (unit -> 'a) -> 'a
  (** Run a batch of updates in one engine transaction: an exception rolls
      every row of every table back (see {!Reldb.Db.with_transaction}). *)

  (** {2 Whole-document access} *)

  val document : t -> Xmllib.Types.document
  (** @raise No_document if the store holds no root element. *)

  val root_id : t -> int
  (** @raise No_document as {!document}. *)

  val subtree : t -> id:int -> Xmllib.Types.node
  (** @raise No_subtree on an unknown id or an attribute. *)

  (** Single-pass streaming serialization of a subtree, see
      {!Reconstruct.serialize_subtree}. @raise No_subtree as {!subtree}. *)
  val serialize : t -> id:int -> string
  val storage : t -> Storage.t

  val check : t -> (unit, string list) result
  (** Verify the encoding's structural invariants (see {!Integrity}) and
      every index of the database against its heap ({!Reldb.Db.check}). *)
end
