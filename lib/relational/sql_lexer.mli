(** SQL tokenizer. Keywords are case-insensitive; identifiers may be quoted
    with double quotes; strings use single quotes with [''] escapes; byte
    literals use [X'0a0b'] notation. *)

type token =
  | Ident of string
  | Kw of string  (** uppercased keyword or bare word *)
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Bytes_lit of string
  | Sym of string  (** punctuation / operators: ( ) , . = <> <= ... || * *)
  | Eof

exception Error of string

val tokenize : string -> token list
(** @raise Error on unterminated strings, stray characters, malformed
    numbers or integers outside [int]'s range. *)
