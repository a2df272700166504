type ty = Tint | Tfloat | Ttext | Tbytes

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string
  | Bytes of string

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Ttext
  | Bytes _ -> Some Tbytes

let ty_name = function
  | Tint -> "INT"
  | Tfloat -> "FLOAT"
  | Ttext -> "TEXT"
  | Tbytes -> "BYTES"

let ty_of_name s =
  match String.uppercase_ascii s with
  | "INT" | "INTEGER" | "BIGINT" -> Some Tint
  | "FLOAT" | "REAL" | "DOUBLE" -> Some Tfloat
  | "TEXT" | "VARCHAR" | "STRING" | "CHAR" -> Some Ttext
  | "BYTES" | "BLOB" | "VARBINARY" -> Some Tbytes
  | _ -> None

let rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2
  | Bytes _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bytes x, Bytes y -> String.compare x y
  | a, b -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Numbers hash by the bits of their float image, as [compare] compares an
   int with a float, so [Int n] and [Float n.0] agree; all NaNs are equal,
   and so are [-0.0] and [0.0]. Nothing here allocates. *)
let[@inline] hash_float x =
  if Float.is_nan x then 0x7ff8
  else
    (* the low 63 bits: a float and its negation may collide *)
    Hashtbl.hash (Int64.to_int (Int64.bits_of_float (x +. 0.0)))

let hash = function
  | Null -> 0
  | Int x -> hash_float (float_of_int x)
  | Float x -> hash_float x
  | Str s -> Hashtbl.hash s
  | Bytes s -> Hashtbl.seeded_hash 1 s

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bytes _ -> false

let hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bytes s -> "0x" ^ hex s

let to_sql_literal = function
  | Null -> "NULL"
  | Int i ->
      (* min_int's magnitude is no int literal: build it from max_int's *)
      if i = min_int then Printf.sprintf "(%d - 1)" (-max_int) else string_of_int i
  | Float f ->
      (* Non-finite floats have no literal: an overflowing exponent reads
         back as an infinity, and their difference as a NaN. *)
      if f <> f then "(1.0e999 - 1.0e999)"
      else if f = infinity then "1.0e999"
      else if f = neg_infinity then "-1.0e999"
      else
        let s = Printf.sprintf "%.17g" f in
        (* keep it lexically a float so it parses back as one: the SQL
           lexer requires digits '.' digits before any exponent, so "1e+22"
           must become "1.0e+22" *)
        if String.contains s '.' then s
        else begin
          match String.index_opt s 'e' with
          | Some i -> String.sub s 0 i ^ ".0" ^ String.sub s i (String.length s - i)
          | None -> s ^ ".0"
        end
  | Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Buffer.contents buf
  | Bytes s -> "X'" ^ hex s ^ "'"

let size_bytes = function
  | Null -> 1
  | Int _ -> 8
  | Float _ -> 8
  | Str s | Bytes s -> 4 + String.length s
