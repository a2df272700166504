type position = { line : int; col : int; offset : int }

exception Error of position * string

type token =
  | Start_tag of {
      name : string;
      attrs : (string * string) list;
      self_closing : bool;
    }
  | End_tag of string
  | Chars of string
  | Comment_tok of string
  | Pi_tok of { target : string; data : string }
  | Decl_tok
  | Doctype_tok
  | Eof

type t = { src : string; mutable pos : int; mutable line : int; mutable bol : int }

let create src = { src; pos = 0; line = 1; bol = 0 }

let position t = { line = t.line; col = t.pos - t.bol + 1; offset = t.pos }

let error t msg = raise (Error (position t, msg))

let error_exn t msg = Error (position t, msg)

let at_end t = t.pos >= String.length t.src

let peek t = if at_end t then '\000' else t.src.[t.pos]

let peek2 t =
  if t.pos + 1 >= String.length t.src then '\000' else t.src.[t.pos + 1]

let advance t =
  (if not (at_end t) then
     let c = t.src.[t.pos] in
     t.pos <- t.pos + 1;
     if c = '\n' then begin
       t.line <- t.line + 1;
       t.bol <- t.pos
     end)

let skip_ws t =
  while (not (at_end t)) && (match peek t with ' ' | '\t' | '\r' | '\n' -> true | _ -> false) do
    advance t
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let read_name t =
  if not (is_name_start (peek t)) then error t "expected a name";
  let start = t.pos in
  while (not (at_end t)) && is_name_char (peek t) do
    advance t
  done;
  String.sub t.src start (t.pos - start)

(* Decoding of entity/character references, shared with attribute parsing. *)

(* Char ::= #x9 | #xA | #xD | [#x20-#xD7FF] | [#xE000-#xFFFD] |
   [#x10000-#x10FFFF] *)
let is_xml_char c =
  c = 0x9 || c = 0xA || c = 0xD
  || (c >= 0x20 && c <= 0xD7FF)
  || (c >= 0xE000 && c <= 0xFFFD)
  || (c >= 0x10000 && c <= 0x10FFFF)

(* Length of the XML Char whose UTF-8 encoding starts at [s.[i]], 0 when
   the bytes there are malformed or encode a character outside Char: the
   raw form of a character is refused exactly when its reference is. *)
let char_length s i =
  let c = Char.code (String.unsafe_get s i) in
  if c >= 0x20 && c < 0x80 then 1
  else if c < 0x80 then if c = 0x9 || c = 0xA || c = 0xD then 1 else 0
  else
    let d = String.get_utf_8_uchar s i in
    if Uchar.utf_decode_is_valid d && is_xml_char (Uchar.to_int (Uchar.utf_decode_uchar d))
    then Uchar.utf_decode_length d
    else 0

let decode_ref_at src pos ~err =
  (* [pos] points at '&'; returns (decoded, next_pos); [err] builds the
     exception to raise on malformed references. *)
  let err msg = raise (err msg) in
  let n = String.length src in
  let semi =
    let rec find i =
      if i >= n then err "unterminated entity reference"
      else if src.[i] = ';' then i
      else find (i + 1)
    in
    find (pos + 1)
  in
  let body = String.sub src (pos + 1) (semi - pos - 1) in
  let decoded =
    match body with
    | "lt" -> "<"
    | "gt" -> ">"
    | "amp" -> "&"
    | "apos" -> "'"
    | "quot" -> "\""
    | _ ->
        if String.length body > 1 && body.[0] = '#' then begin
          (* CharRef ::= '&#' [0-9]+ ';' | '&#x' [0-9a-fA-F]+ ';' *)
          let hex = body.[1] = 'x' in
          let skip = if hex then 2 else 1 in
          let digits = String.sub body skip (String.length body - skip) in
          let is_digit = function
            | '0' .. '9' -> true
            | 'a' .. 'f' | 'A' .. 'F' -> hex
            | _ -> false
          in
          let code =
            if digits = "" || not (String.for_all is_digit digits) then None
            else int_of_string_opt ((if hex then "0x" else "") ^ digits)
          in
          match code with
          | Some c when is_xml_char c ->
              let b = Buffer.create 4 in
              Buffer.add_utf_8_uchar b (Uchar.of_int c);
              Buffer.contents b
          | _ -> err ("bad character reference &" ^ body ^ ";")
        end
        else err ("unknown entity &" ^ body ^ ";")
  in
  (decoded, semi + 1)

let decode_entities s =
  match String.index_opt s '&' with
  | None -> s
  | Some _ ->
      let err msg = Error ({ line = 0; col = 0; offset = 0 }, msg) in
      let buf = Buffer.create (String.length s) in
      let n = String.length s in
      let rec go i =
        if i >= n then Buffer.contents buf
        else if s.[i] = '&' then begin
          let decoded, next = decode_ref_at s i ~err in
          Buffer.add_string buf decoded;
          go next
        end
        else begin
          Buffer.add_char buf s.[i];
          go (i + 1)
        end
      in
      go 0

(* Copy the Char at [t.pos] into [buf] and step past it; printable ASCII,
   the bulk of most documents, takes the first branch. *)
let[@inline] add_char t buf =
  let c = peek t in
  if c >= ' ' && c < '\128' then begin
    Buffer.add_char buf c;
    t.pos <- t.pos + 1
  end
  else
    match char_length t.src t.pos with
    | 0 -> error t "character not allowed in XML"
    | 1 ->
        Buffer.add_char buf c;
        advance t
    | k ->
        Buffer.add_substring buf t.src t.pos k;
        t.pos <- t.pos + k

let read_quoted_value t =
  let quote = peek t in
  if quote <> '"' && quote <> '\'' then error t "expected quoted attribute value";
  advance t;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end t then error t "unterminated attribute value"
    else
      let c = peek t in
      if c = quote then advance t
      else if c = '<' then error t "'<' in attribute value"
      else if c = '&' then begin
        let decoded, next = decode_ref_at t.src t.pos ~err:(error_exn t) in
        Buffer.add_string buf decoded;
        t.pos <- next;
        go ()
      end
      else begin
        add_char t buf;
        go ()
      end
  in
  go ();
  Buffer.contents buf

let read_attrs t =
  let rec go acc =
    skip_ws t;
    match peek t with
    | '>' | '/' | '?' -> List.rev acc
    | c when is_name_start c ->
        let name = read_name t in
        skip_ws t;
        if peek t <> '=' then error t "expected '=' after attribute name";
        advance t;
        skip_ws t;
        let value = read_quoted_value t in
        go ((name, value) :: acc)
    | _ -> error t "malformed tag"
  in
  go []

let expect_str t s =
  let n = String.length s in
  if t.pos + n > String.length t.src || String.sub t.src t.pos n <> s then
    error t (Printf.sprintf "expected %S" s);
  for _ = 1 to n do
    advance t
  done

(* Scan one Char at a time for the closing delimiter, comparing it in
   place; returns the content before it. *)
let read_until t close =
  let n = String.length t.src and cn = String.length close in
  let rec matches i k = k >= cn || (t.src.[i + k] = close.[k] && matches i (k + 1)) in
  let rec find i =
    if i + cn > n then error t (Printf.sprintf "missing %S" close)
    else if matches i 0 then i
    else
      match char_length t.src i with
      | 0 ->
          while t.pos < i do advance t done;
          error t "character not allowed in XML"
      | k -> find (i + k)
  in
  let stop = find t.pos in
  let content = String.sub t.src t.pos (stop - t.pos) in
  while t.pos < stop + cn do
    advance t
  done;
  content

let read_markup t =
  (* [t.pos] points at '<' *)
  advance t;
  match peek t with
  | '/' ->
      advance t;
      let name = read_name t in
      skip_ws t;
      if peek t <> '>' then error t "malformed end tag";
      advance t;
      End_tag name
  | '?' ->
      advance t;
      let target = read_name t in
      if String.lowercase_ascii target = "xml" then begin
        let _ = read_until t "?>" in
        Decl_tok
      end
      else begin
        skip_ws t;
        let data = read_until t "?>" in
        Pi_tok { target; data }
      end
  | '!' ->
      advance t;
      if peek t = '-' && peek2 t = '-' then begin
        advance t;
        advance t;
        (* Comment ::= '<!--' ((Char - '-') | ('-' (Char - '-')))* '-->':
           the first "--" must close it *)
        let content = read_until t "--" in
        if peek t <> '>' then error t "\"--\" inside a comment";
        advance t;
        Comment_tok content
      end
      else if peek t = '[' then begin
        expect_str t "[CDATA[";
        let content = read_until t "]]>" in
        Chars content
      end
      else begin
        (* DOCTYPE: skip to matching '>' accounting for an internal subset *)
        let name = read_name t in
        if String.uppercase_ascii name <> "DOCTYPE" then
          error t "unsupported '<!' construct";
        let depth = ref 0 in
        let rec skip () =
          if at_end t then error t "unterminated DOCTYPE"
          else
            match peek t with
            | '[' ->
                incr depth;
                advance t;
                skip ()
            | ']' ->
                decr depth;
                advance t;
                skip ()
            | '>' when !depth = 0 -> advance t
            | _ ->
                advance t;
                skip ()
        in
        skip ();
        Doctype_tok
      end
  | c when is_name_start c ->
      let name = read_name t in
      let attrs = read_attrs t in
      skip_ws t;
      if peek t = '/' then begin
        advance t;
        if peek t <> '>' then error t "malformed self-closing tag";
        advance t;
        Start_tag { name; attrs; self_closing = true }
      end
      else if peek t = '>' then begin
        advance t;
        Start_tag { name; attrs; self_closing = false }
      end
      else error t "malformed start tag"
  | _ -> error t "malformed markup"

let read_chars t =
  let buf = Buffer.create 32 in
  let rec go () =
    if at_end t then ()
    else
      match peek t with
      | '<' -> ()
      | '&' ->
          let decoded, next = decode_ref_at t.src t.pos ~err:(error_exn t) in
          Buffer.add_string buf decoded;
          t.pos <- next;
          go ()
      | _ ->
          add_char t buf;
          go ()
  in
  go ();
  Chars (Buffer.contents buf)

let next t =
  if at_end t then Eof
  else if peek t = '<' then read_markup t
  else read_chars t
