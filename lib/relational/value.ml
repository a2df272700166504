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

(* [Int x] against [Float y], exactly: NaN ranks below every number, a
   float beyond the int range beyond every int, and one within it by its
   floor, then by whether it has a fraction. Comparing [float_of_int x]
   would round [x] above 2^53 and make the order intransitive. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let fl = Float.floor y in
    let n = int_of_float fl in
    if x <> n then Int.compare x n else if y > fl then -1 else 0

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> - compare_int_float y x
  | Str x, Str y -> String.compare x y
  | Bytes x, Bytes y -> String.compare x y
  | a, b -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* An integer mix computed in OCaml, not by the [caml_hash] C call: one
   multiply spreads the low bits up, and the shift folds the high bits back
   down, where a hash table's bucket index reads them, so ids spaced by a
   power of two do not share a bucket. *)
let[@inline] hash_int x =
  let x = x * 0x1f3d5b79a4c1e6b5 in
  (x lxor (x lsr 31)) land max_int

(* Numbers equal to an int hash as that int: a [Float] equals an [Int n]
   only when it is exactly [n], an integer inside the int range ([-0.0]
   included). Other floats hash by their bits; all NaNs are equal. *)
let hash = function
  | Null -> 0
  | Int x -> hash_int x
  | Float x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 -> hash_int (int_of_float x)
  | Float x when Float.is_nan x -> 0x7ff8
  | Float x -> hash_int (Int64.to_int (Int64.bits_of_float x))
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
