exception Unserializable of string

let unserializable fmt =
  Printf.ksprintf (fun s -> raise (Unserializable s)) fmt

(* The index after the XML Char at [s.[i]]. A byte sequence the parser
   refuses (malformed UTF-8, a C0 control other than tab, LF and CR) has
   no escape, since XML refuses its character reference too. *)
let next_char s i =
  match Lexer.char_length s i with
  | 0 -> unserializable "character not allowed in XML at byte %d of %S" i s
  | k -> i + k

let check_chars s =
  let rec go i = if i < String.length s then go (next_char s i) in
  go 0

(* XML 1.0 gives parsers license to rewrite whitespace we emit raw: §3.3.3
   attribute-value normalization folds tab/CR/LF in attribute values to
   spaces, and §2.11 end-of-line handling folds CR (and CRLF) in content to
   LF. Emitting them as character references is the only way a round trip
   preserves the exact string. *)
let escape buf ~quot s =
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '&' -> Buffer.add_string buf "&amp;"; go (i + 1)
      | '<' -> Buffer.add_string buf "&lt;"; go (i + 1)
      | '>' -> Buffer.add_string buf "&gt;"; go (i + 1)
      | '"' when quot -> Buffer.add_string buf "&quot;"; go (i + 1)
      | '\n' when quot -> Buffer.add_string buf "&#10;"; go (i + 1)
      | '\t' when quot -> Buffer.add_string buf "&#9;"; go (i + 1)
      | '\r' -> Buffer.add_string buf "&#13;"; go (i + 1)
      | ' ' .. '\127' as c -> Buffer.add_char buf c; go (i + 1)
      | _ ->
          let j = next_char s i in
          Buffer.add_substring buf s i (j - i);
          go j
  in
  go 0

let escaped ~quot s =
  let buf = Buffer.create (String.length s + 8) in
  escape buf ~quot s;
  Buffer.contents buf

let escape_text = escaped ~quot:false
let escape_attr = escaped ~quot:true

(* Comments and processing instructions have no escaping mechanism at all,
   so contents that collide with their delimiters cannot be serialized —
   reject rather than emit XML that will not parse back. *)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let add_comment buf s =
  check_chars s;
  if contains_sub s "--" then
    unserializable "comment contains \"--\": %S" s;
  if s <> "" && s.[String.length s - 1] = '-' then
    unserializable "comment ends with \"-\": %S" s;
  Buffer.add_string buf "<!--";
  Buffer.add_string buf s;
  Buffer.add_string buf "-->"

let add_pi buf ~target ~data =
  check_chars data;
  if contains_sub data "?>" then
    unserializable "processing-instruction data contains \"?>\": %S" data;
  Buffer.add_string buf "<?";
  Buffer.add_string buf target;
  if data <> "" then begin
    Buffer.add_char buf ' ';
    Buffer.add_string buf data
  end;
  Buffer.add_string buf "?>"

(* The event writer. [pending] while a start tag awaits its ['>']: the
   next event decides, and an [End_element] self-closes it ([<a/>]). *)
type writer = { buf : Buffer.t; mutable pending : bool }

let flush w =
  if w.pending then begin
    Buffer.add_char w.buf '>';
    w.pending <- false
  end

let write w (ev : Sax.event) =
  let buf = w.buf in
  match ev with
  | Sax.End_element tag ->
      if w.pending then begin
        Buffer.add_string buf "/>";
        w.pending <- false
      end
      else begin
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
      end
  | Sax.Start_element { tag; attrs } ->
      flush w;
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun (name, value) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf name;
          Buffer.add_string buf "=\"";
          escape buf ~quot:true value;
          Buffer.add_char buf '"')
        attrs;
      w.pending <- true
  | Sax.Text s ->
      flush w;
      escape buf ~quot:false s
  | Sax.Comment s ->
      flush w;
      add_comment buf s
  | Sax.Pi { target; data } ->
      flush w;
      add_pi buf ~target ~data

let add_events buf produce =
  let w = { buf; pending = false } in
  produce (write w);
  flush w

let node_to_string n =
  let buf = Buffer.create 256 in
  add_events buf (fun emit -> Sax.iter_node emit n);
  Buffer.contents buf

let document_to_string (d : Types.document) =
  let buf = Buffer.create 256 in
  if d.decl then Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  add_events buf (fun emit -> Sax.iter_node emit (Types.Element d.root));
  Buffer.contents buf

let pretty ?(indent = 2) n =
  let w = { buf = Buffer.create 256; pending = false } in
  let line level f =
    Buffer.add_string w.buf (String.make (level * indent) ' ');
    f ();
    flush w;
    Buffer.add_char w.buf '\n'
  in
  let has_text children =
    List.exists (function Types.Text _ -> true | _ -> false) children
  in
  let rec go level (n : Types.node) =
    match n with
    | Types.Element e when e.children <> [] && not (has_text e.children) ->
        let attrs =
          List.map (fun (a : Types.attribute) -> (a.attr_name, a.attr_value)) e.attrs
        in
        line level (fun () -> write w (Sax.Start_element { tag = e.tag; attrs }));
        List.iter (go (level + 1)) e.children;
        line level (fun () -> write w (Sax.End_element e.tag))
    | n -> line level (fun () -> Sax.iter_node (write w) n)
  in
  go 0 n;
  Buffer.contents w.buf
