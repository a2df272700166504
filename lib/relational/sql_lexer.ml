type token =
  | Ident of string
  | Kw of string
  | Int_lit of int
  | Float_lit of float
  | Str_lit of string
  | Bytes_lit of string
  | Sym of string
  | Eof

exception Error of string

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "ORDER"; "ASC";
    "DESC"; "LIMIT"; "OFFSET"; "AND"; "OR"; "NOT"; "NULL"; "IS"; "IN"; "LIKE";
    "BETWEEN"; "AS"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "CREATE"; "TABLE"; "INDEX"; "UNIQUE"; "ON"; "DROP"; "HAVING"; "EXISTS";
    "UNION"; "ALL"; "BEGIN"; "COMMIT"; "ROLLBACK";
  ]

let is_kw s = List.mem (String.uppercase_ascii s) keywords

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise (Error (Printf.sprintf "bad hex digit %c" c))

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then incr i
    else if c = '-' && peek 1 = '-' then begin
      (* line comment *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if (c = 'x' || c = 'X') && peek 1 = '\'' then begin
      (* bytes literal X'..' *)
      i := !i + 2;
      let buf = Buffer.create 8 in
      let rec go () =
        if !i >= n then raise (Error "unterminated bytes literal")
        else if src.[!i] = '\'' then incr i
        else begin
          if !i + 1 >= n then raise (Error "odd-length bytes literal");
          Buffer.add_char buf
            (Char.chr ((hex_val src.[!i] * 16) + hex_val src.[!i + 1]));
          i := !i + 2;
          go ()
        end
      in
      go ();
      emit (Bytes_lit (Buffer.contents buf))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let word = String.sub src start (!i - start) in
      if is_kw word then emit (Kw (String.uppercase_ascii word))
      else emit (Ident word)
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      if !i < n && src.[!i] = '.' && !i + 1 < n && is_digit src.[!i + 1] then begin
        incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        (if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
           incr i;
           if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
           while !i < n && is_digit src.[!i] do
             incr i
           done
         end);
        let lit = String.sub src start (!i - start) in
        match float_of_string_opt lit with
        | Some f -> emit (Float_lit f)
        | None -> raise (Error ("malformed number " ^ lit))
      end
      else
        let lit = String.sub src start (!i - start) in
        match int_of_string_opt lit with
        | Some k -> emit (Int_lit k)
        | None -> raise (Error ("integer out of range " ^ lit))
    end
    else if c = '\'' then begin
      incr i;
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then raise (Error "unterminated string literal")
        else if src.[!i] = '\'' then
          if peek 1 = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2;
            go ()
          end
          else incr i
        else begin
          Buffer.add_char buf src.[!i];
          incr i;
          go ()
        end
      in
      go ();
      emit (Str_lit (Buffer.contents buf))
    end
    else if c = '"' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> '"' do
        incr i
      done;
      if !i >= n then raise (Error "unterminated quoted identifier");
      emit (Ident (String.sub src start (!i - start)));
      incr i
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "<>" | "<=" | ">=" | "!=" | "||" ->
          emit (Sym (if two = "!=" then "<>" else two));
          i := !i + 2
      | _ -> (
          match c with
          | '(' | ')' | ',' | '.' | '=' | '<' | '>' | '+' | '-' | '*' | '/'
          | '%' | ';' | '?' ->
              emit (Sym (String.make 1 c));
              incr i
          | c -> raise (Error (Printf.sprintf "unexpected character %C" c)))
    end
  done;
  List.rev (Eof :: !toks)
