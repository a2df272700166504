(** Well-formedness-checking XML parser producing a {!Types.document}: the
    events of {!Sax.fold} fed to the tree builder {!Sax.build}, so it
    accepts exactly what the streaming reader accepts. *)

exception Parse_error of string
(** Raised on malformed documents; the message includes line/column. *)

val parse_document : string -> Types.document
(** Parse a complete document. Whitespace-only text between elements is kept
    only when [keep_ws] below is used; this entry point drops
    whitespace-only text nodes that sit between two pieces of markup, which is
    the convention used by the shredding experiments (data-centric XML).
    Comments and PIs outside the root element are dropped; [decl] reports
    whether the document starts with an XML declaration. *)

val parse_document_ws : string -> Types.document
(** Like {!parse_document} but preserves whitespace-only text nodes
    (document-centric mode). *)
