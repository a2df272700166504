(** XML serialization.

    Everything this module emits parses back to the same value: character
    data escapes [& < >] plus carriage return (XML 1.0 §2.11 end-of-line
    handling would otherwise fold it to a line feed), and attribute values
    additionally escape the double quote, tab, line feed and carriage
    return as character references (§3.3.3 attribute-value normalization
    would otherwise fold them to spaces). Comments and processing
    instructions have {e no} escaping mechanism, so contents colliding with
    their delimiters raise {!Unserializable} instead of producing
    unparseable output. A character the parser refuses raw (malformed
    UTF-8, a C0 control other than tab, LF and CR; see
    {!Lexer.char_length}) has no escape either, since XML refuses its
    reference too, so it raises {!Unserializable} wherever it stands. *)

exception Unserializable of string
(** Raised for nodes XML cannot represent: a comment containing ["--"] or
    ending with ["-"], processing-instruction data containing ["?>"], or
    text, an attribute value, a comment or PI data holding a character
    outside XML's [Char] production or bytes that are not UTF-8. *)

val escape_text : string -> string
(** Escape [& < > \r] for character data.
    @raise Unserializable on a character outside XML's [Char]. *)

val escape_attr : string -> string
(** Escape an attribute value as a start tag writes it between double
    quotes: [escape_text]'s characters plus the double quote, tab and line
    feed. @raise Unserializable on a character outside XML's [Char]. *)

val add_events : Buffer.t -> ((Sax.event -> unit) -> unit) -> unit
(** [add_events buf produce] runs [produce] with the event writer, which
    appends the XML text of its events to [buf]. An element with no content
    events is written self-closed ([<a/>]). Every serialization goes through
    it: the functions below, and [Reconstruct.serialize_subtree] over the
    events of stored rows. @raise Unserializable, see above. *)

val node_to_string : Types.node -> string
(** Compact serialization (no added whitespace). Empty elements are written
    self-closed ([<a/>]). @raise Unserializable, see above. *)

val document_to_string : Types.document -> string
(** Serialize the document, emitting an XML declaration when the document
    carries one. @raise Unserializable, see above. *)

val pretty : ?indent:int -> Types.node -> string
(** Indented rendering for humans. Text nodes inhibit indentation of their
    siblings so mixed content round-trips visually intact.
    @raise Unserializable, see above. *)
