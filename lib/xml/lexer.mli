(** Tokenizer for XML 1.0 documents (the subset the experiments require:
    elements, attributes, character data, CDATA sections, comments,
    processing instructions, the XML declaration, and a skipped DOCTYPE).

    Entity references ([&lt; &gt; &amp; &apos; &quot;]) and numeric character
    references ([&#n;], [&#xn;]) are decoded in character data and attribute
    values. Raw characters in text, CDATA, attribute values, comments and
    PIs follow XML's [Char] production in UTF-8: malformed
    UTF-8 and C0 controls other than tab, LF and CR are refused, as their
    references are. A comment holds no ["--"] and does not end in ['-'],
    so every comment read can be printed again. *)

type position = { line : int; col : int; offset : int }

exception Error of position * string
(** Raised on malformed input, with the position of the offending byte. *)

type token =
  | Start_tag of {
      name : string;
      attrs : (string * string) list;
      self_closing : bool;
    }
  | End_tag of string
  | Chars of string  (** decoded character data (also used for CDATA) *)
  | Comment_tok of string
  | Pi_tok of { target : string; data : string }
  | Decl_tok  (** the [<?xml ...?>] declaration *)
  | Doctype_tok  (** a DOCTYPE declaration, contents skipped *)
  | Eof

type t

val create : string -> t
(** Tokenizer over a complete document held in memory. *)

val next : t -> token
(** Next token; returns {!Eof} at end of input and forever after. *)

val position : t -> position
(** Current position (start of the token about to be read). *)

val decode_entities : string -> string
(** Decode entity and character references in a string.
    @raise Error on an unknown or unterminated reference. *)

val char_length : string -> int -> int
(** [char_length s i] is the byte length of the XML [Char] whose UTF-8
    encoding starts at [s.[i]], or 0 when the bytes there are malformed
    UTF-8 or encode a character outside [Char]: exactly the raw characters
    this lexer refuses. *)
