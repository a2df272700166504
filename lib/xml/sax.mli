(** Streaming (SAX-style) traversal: parse events off the wire without
    building a DOM. The streaming shredder uses this to load documents in
    one pass — possible for every order encoding precisely because all
    three can be computed with a stack (preorder counters, sibling
    counters, Dewey component stack). *)

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
    an XML declaration only at the start). Comments and PIs outside the
    root element produce no events, as {!Parser} drops them: a document
    {!Parser.parse_document} accepts yields exactly the events
    {!iter_node} yields for its root. [keep_ws] as in
    {!Parser.parse_document_ws}; default false. *)

val iter : ?keep_ws:bool -> string -> (event -> unit) -> unit

val count_events : string -> int
(** Number of events in the document (a cheap smoke check). *)

val iter_node : (event -> unit) -> Types.node -> unit
(** The events of a DOM subtree, in document order. *)
