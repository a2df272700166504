(** The one event format every XML conversion goes through.

    Producers: {!fold} / {!iter} (XML text), {!iter_node} (a DOM tree) and
    [Reconstruct]'s row reader (document-ordered edge rows). Consumers:
    [Shred.build_rows] (edge rows), {!build} (a DOM tree, so
    {!Parser} is {!fold} plus {!build}) and {!Printer.add_events} (XML
    text). The streaming shredder loads documents in one pass off {!iter}
    — possible for every order encoding precisely because all three can
    be computed with a stack (preorder counters, sibling counters, Dewey
    component stack). *)

type event =
  | Start_element of { tag : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of { target : string; data : string }

exception Error of string
(** Malformed input; message includes position. *)

val fold :
  ?keep_ws:bool -> string -> init:'a -> f:('a -> event -> 'a) -> 'a
(** Run the event stream over a complete document, checking
    well-formedness (matching tags, single root, distinct attribute names,
    an XML declaration only at the start, character references naming XML
    characters). Comments and PIs outside the root element produce no
    events. [keep_ws] keeps whitespace-only text (see
    {!Parser.parse_document_ws}); default false. *)

val iter : ?keep_ws:bool -> string -> (event -> unit) -> unit

val count_events : string -> int
(** Number of events in the document (a cheap smoke check). *)

val iter_node : (event -> unit) -> Types.node -> unit
(** The events of a DOM subtree, in document order. *)

val build : ((event -> unit) -> unit) -> Types.node list
(** [build produce] runs [produce] with a sink and returns the trees its
    events describe, top-level nodes in order. The stream must be balanced,
    as every producer above makes it: an [End_element] closes the innermost
    open element whatever its name, one with no open element is ignored,
    and an element still open at the end is dropped. *)
