(** Well-formedness-checking XML parser producing a {!Types.document}. *)

exception Parse_error of string
(** Raised on malformed documents; the message includes line/column. *)

val parse_document : string -> Types.document
(** Parse a complete document. Whitespace-only text between elements is kept
    only when [keep_ws] below is used; this entry point drops
    whitespace-only text nodes that sit between two pieces of markup, which is
    the convention used by the shredding experiments (data-centric XML). *)

val parse_document_ws : string -> Types.document
(** Like {!parse_document} but preserves whitespace-only text nodes
    (document-centric mode). *)
