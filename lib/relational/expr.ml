type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod
type func = Length | Abs | Lower | Upper | Substr

type t =
  | Const of Value.t
  | Col of int
  | Param of int  (* positional ? placeholder, 0-based; bound before eval *)
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | Concat of t * t
  | Is_null of t
  | Is_not_null of t
  | Like of t * string
  | In_list of t * Value.t list
  | Func of func * t list

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let bool_v = function true -> Value.Int 1 | false -> Value.Int 0

(* three-valued logic: Some b or None for unknown *)
let to_tvl = function
  | Value.Null -> None
  | Value.Int 0 -> Some false
  | Value.Int _ -> Some true
  | Value.Float f -> Some (f <> 0.0)
  | v -> err "expected a boolean, got %s" (Value.to_string v)

let of_tvl = function None -> Value.Null | Some b -> bool_v b

let like_match ~pattern s =
  (* classic recursive LIKE matcher: % = any run, _ = any single byte *)
  let pl = String.length pattern and sl = String.length s in
  let rec go pi si =
    if pi >= pl then si >= sl
    else
      match pattern.[pi] with
      | '%' ->
          let rec try_from k = k <= sl && (go (pi + 1) k || try_from (k + 1)) in
          try_from si
      | '_' -> si < sl && go (pi + 1) (si + 1)
      | c -> si < sl && s.[si] = c && go (pi + 1) (si + 1)
  in
  go 0 0

let num_arith op a b =
  let open Value in
  match (op, a, b) with
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int _, Int 0 -> err "division by zero"
  | Div, Int x, Int y -> Int (x / y)
  | Mod, Int _, Int 0 -> err "modulo by zero"
  | Mod, Int x, Int y -> Int (x mod y)
  | Mod, _, _ -> err "MOD requires integers"
  | op, (Int _ | Float _), (Int _ | Float _) ->
      let f = function Int i -> float_of_int i | Float f -> f | _ -> assert false in
      let x = f a and y = f b in
      Float
        (match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> if y = 0.0 then err "division by zero" else x /. y
        | Mod -> assert false)
  | _, a, b ->
      err "arithmetic on non-numeric values %s, %s" (Value.to_string a)
        (Value.to_string b)

(* SQL SUBSTR: 1-based [start] (values below 1 count as 1), at most [len]
   characters *)
let substr s start len =
  let n = String.length s in
  let from = max 1 start - 1 in
  if from >= n || len <= 0 then "" else String.sub s from (min len (n - from))

let rec eval e tuple =
  match e with
  | Const v -> v
  | Param i -> err "unbound parameter ?%d" (i + 1)
  | Col i ->
      if i < 0 || i >= Array.length tuple then
        err "column %d out of range (arity %d)" i (Array.length tuple)
      else tuple.(i)
  | Cmp (op, a, b) -> begin
      let va = eval a tuple and vb = eval b tuple in
      if Value.is_null va || Value.is_null vb then Value.Null
      else
        let c = Value.compare va vb in
        bool_v
          (match op with
          | Eq -> c = 0
          | Ne -> c <> 0
          | Lt -> c < 0
          | Le -> c <= 0
          | Gt -> c > 0
          | Ge -> c >= 0)
    end
  | And (a, b) -> begin
      match to_tvl (eval a tuple) with
      | Some false -> bool_v false
      | Some true -> of_tvl (to_tvl (eval b tuple))
      | None -> (
          match to_tvl (eval b tuple) with
          | Some false -> bool_v false
          | Some true | None -> Value.Null)
    end
  | Or (a, b) -> begin
      match to_tvl (eval a tuple) with
      | Some true -> bool_v true
      | Some false -> of_tvl (to_tvl (eval b tuple))
      | None -> (
          match to_tvl (eval b tuple) with
          | Some true -> bool_v true
          | Some false | None -> Value.Null)
    end
  | Not a -> of_tvl (Option.map not (to_tvl (eval a tuple)))
  | Arith (op, a, b) ->
      let va = eval a tuple and vb = eval b tuple in
      if Value.is_null va || Value.is_null vb then Value.Null
      else num_arith op va vb
  | Neg a -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | Value.Int i -> Value.Int (-i)
      | Value.Float f -> Value.Float (-.f)
      | v -> err "negation of %s" (Value.to_string v)
    end
  | Concat (a, b) -> begin
      match (eval a tuple, eval b tuple) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Bytes x, Value.Bytes y -> Value.Bytes (x ^ y)
      | x, y -> Value.Str (Value.to_string x ^ Value.to_string y)
    end
  | Is_null a -> bool_v (Value.is_null (eval a tuple))
  | Is_not_null a -> bool_v (not (Value.is_null (eval a tuple)))
  | Like (a, pattern) -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | Value.Str s -> bool_v (like_match ~pattern s)
      | v -> err "LIKE on non-text value %s" (Value.to_string v)
    end
  | In_list (a, vs) -> begin
      match eval a tuple with
      | Value.Null -> Value.Null
      | v -> bool_v (List.exists (Value.equal v) vs)
    end
  | Func (f, args) -> eval_func f (List.map (fun a -> eval a tuple) args)

and eval_func f args =
  let open Value in
  match (f, args) with
  | _, args when List.exists Value.is_null args -> Null
  | Length, [ Str s ] -> Int (String.length s)
  | Length, [ Bytes s ] -> Int (String.length s)
  | Abs, [ Int i ] -> Int (abs i)
  | Abs, [ Float f ] -> Float (Float.abs f)
  | Lower, [ Str s ] -> Str (String.lowercase_ascii s)
  | Upper, [ Str s ] -> Str (String.uppercase_ascii s)
  | Substr, [ Str s; Int start ] -> Str (substr s start max_int)
  | Substr, [ Str s; Int start; Int len ] -> Str (substr s start len)
  | Substr, [ Bytes s; Int start ] -> Bytes (substr s start max_int)
  | Substr, [ Bytes s; Int start; Int len ] -> Bytes (substr s start len)
  | (Length | Abs | Lower | Upper | Substr), _ ->
      err "bad arguments to function"

let eval_bool e tuple =
  match to_tvl (eval e tuple) with Some b -> b | None -> false

let columns e =
  let acc = ref [] in
  let rec go = function
    | Const _ | Param _ -> ()
    | Col i -> acc := i :: !acc
    | Cmp (_, a, b) | And (a, b) | Or (a, b) | Arith (_, a, b) | Concat (a, b) ->
        go a;
        go b
    | Not a | Neg a | Is_null a | Is_not_null a | Like (a, _) | In_list (a, _) ->
        go a
    | Func (_, args) -> List.iter go args
  in
  go e;
  List.sort_uniq Stdlib.compare !acc

let rec map_columns f e =
  let s = map_columns f in
  match e with
  | Const v -> Const v
  | Param i -> Param i
  | Col i -> Col (f i)
  | Cmp (op, a, b) -> Cmp (op, s a, s b)
  | And (a, b) -> And (s a, s b)
  | Or (a, b) -> Or (s a, s b)
  | Not a -> Not (s a)
  | Arith (op, a, b) -> Arith (op, s a, s b)
  | Neg a -> Neg (s a)
  | Concat (a, b) -> Concat (s a, s b)
  | Is_null a -> Is_null (s a)
  | Is_not_null a -> Is_not_null (s a)
  | Like (a, p) -> Like (s a, p)
  | In_list (a, vs) -> In_list (s a, vs)
  | Func (f, args) -> Func (f, List.map s args)

let shift_columns off e = map_columns (fun i -> i + off) e

let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | e :: rest -> Some (List.fold_left (fun acc x -> And (acc, x)) e rest)

let cmp_name = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let arith_name = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"

let func_name = function
  | Length -> "LENGTH"
  | Abs -> "ABS"
  | Lower -> "LOWER"
  | Upper -> "UPPER"
  | Substr -> "SUBSTR"

let rec pp ppf = function
  | Const v -> Format.pp_print_string ppf (Value.to_sql_literal v)
  | Param i -> Format.fprintf ppf "?%d" (i + 1)
  | Col i -> Format.fprintf ppf "#%d" i
  | Cmp (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (cmp_name op) pp b
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp a pp b
  | Not a -> Format.fprintf ppf "NOT %a" pp a
  | Arith (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (arith_name op) pp b
  | Neg a -> Format.fprintf ppf "-%a" pp a
  | Concat (a, b) -> Format.fprintf ppf "(%a || %a)" pp a pp b
  | Is_null a -> Format.fprintf ppf "%a IS NULL" pp a
  | Is_not_null a -> Format.fprintf ppf "%a IS NOT NULL" pp a
  | Like (a, p) -> Format.fprintf ppf "%a LIKE '%s'" pp a p
  | In_list (a, vs) ->
      Format.fprintf ppf "%a IN (%s)" pp a
        (String.concat ", " (List.map Value.to_sql_literal vs))
  | Func (f, args) ->
      Format.fprintf ppf "%s(%a)" (func_name f)
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
        args
