type cmp = Eq | Ne | Lt | Le | Gt | Ge
type arith = Add | Sub | Mul | Div | Mod
type func = Length | Abs | Lower | Upper | Substr | Path_shift

type t =
  | Const of Value.t
  | Col of int
  | Param of int  (* positional ? placeholder, 0-based; read from slot 0 *)
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
  | op, _, _ -> (
      let float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None in
      match (float a, float b) with
      | Some x, Some y ->
          Float
            (match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> if y = 0.0 then err "division by zero" else x /. y
            | Mod -> err "MOD requires integers")
      | _ -> err "arithmetic on non-numeric values %s, %s" (Value.to_string a) (Value.to_string b))

(* SQL SUBSTR: 1-based [start] (values below 1 count as 1), at most [len]
   characters *)
let substr s start len =
  let n = String.length s in
  let from = max 1 start - 1 in
  if from >= n || len <= 0 then "" else String.sub s from (min len (n - from))

(* PATH_SHIFT(path, depth, k): [k] added to the path's component after its
   first [depth] (see Path_codec) *)
let path_shift path depth k =
  match (path, depth, k) with
  | Value.Null, _, _ | _, Value.Null, _ | _, _, Value.Null -> Value.Null
  | Value.Bytes s, Value.Int depth, Value.Int k -> (
      try Value.Bytes (Path_codec.shift s ~depth k)
      with Path_codec.Malformed m -> err "PATH_SHIFT: %s" m)
  | _ -> err "PATH_SHIFT takes a BYTES path, an INT depth and an INT shift"

let eval_func f args =
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
  | (Length | Abs | Lower | Upper | Substr | Path_shift), _ ->
      err "bad arguments to function"

type frame = Tuple.t array

(* SQL's three truth values, unboxed *)
type tvl = T | F | U

let tvl_of_bool b = if b then T else F

let to_tvl v =
  match v with
  | Value.Null -> U
  | Value.Int 0 -> F
  | Value.Int _ -> T
  | Value.Float f -> tvl_of_bool (f <> 0.0)
  | v -> err "expected a boolean, got %s" (Value.to_string v)

let of_tvl = function T -> bool_v true | F -> bool_v false | U -> Value.Null

(* the test a comparison applies to [Value.compare]'s result *)
let holds = function
  | Eq -> fun c -> c = 0
  | Ne -> fun c -> c <> 0
  | Lt -> fun c -> c < 0
  | Le -> fun c -> c <= 0
  | Gt -> fun c -> c > 0
  | Ge -> fun c -> c >= 0

let compare_tvl test va vb =
  if Value.is_null va || Value.is_null vb then U else tvl_of_bool (test (Value.compare va vb))

(* The one evaluator: [e] becomes a closure over a frame. Column [i] of [e]
   reads [f.(slot).(off)] for [(slot, off) = col i]; [?] slot [i] reads
   [f.(0).(i)]. *)
let rec compile ~arity ~col e : frame -> Value.t =
  let c = compile ~arity ~col in
  match e with
  | Const v -> fun _ -> v
  | Param i ->
      fun f ->
        let p = f.(0) in
        if i < Array.length p then p.(i) else err "unbound parameter ?%d" (i + 1)
  | Col i ->
      if i < 0 || i >= arity then fun _ ->
        err "column %d out of range (arity %d)" i arity
      else
        let s, o = col i in
        fun f -> f.(s).(o)
  | Cmp _ | And _ | Or _ | Not _ | Is_null _ | Is_not_null _ | Like _ | In_list _ ->
      let t = compile_tvl ~arity ~col e in
      fun f -> of_tvl (t f)
  | Arith (op, a, b) ->
      let a = c a and b = c b in
      fun f ->
        let va = a f and vb = b f in
        if Value.is_null va || Value.is_null vb then Value.Null else num_arith op va vb
  | Neg a -> (
      let a = c a in
      fun f ->
        match a f with
        | Value.Null -> Value.Null
        | Value.Int i -> Value.Int (-i)
        | Value.Float x -> Value.Float (-.x)
        | v -> err "negation of %s" (Value.to_string v))
  | Concat (a, b) -> (
      let a = c a and b = c b in
      fun f ->
        match (a f, b f) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Bytes x, Value.Bytes y -> Value.Bytes (x ^ y)
        | x, y -> Value.Str (Value.to_string x ^ Value.to_string y))
  | Func (Path_shift, [ path; depth; k ]) ->
      (* no argument list per row *)
      let path = c path and depth = c depth and k = c k in
      fun f -> path_shift (path f) (depth f) (k f)
  | Func (fn, args) ->
      let args = List.map c args in
      fun f -> eval_func fn (List.map (fun a -> a f) args)

and compile_tvl ~arity ~col e : frame -> tvl =
  let c = compile ~arity ~col and t = compile_tvl ~arity ~col in
  let in_range i = i >= 0 && i < arity in
  match e with
  (* a column against a constant reads the frame in place *)
  | Cmp (op, Col i, Const v) when in_range i && not (Value.is_null v) ->
      let s, o = col i and test = holds op in
      fun f ->
        let x = f.(s).(o) in
        if Value.is_null x then U else tvl_of_bool (test (Value.compare x v))
  | Cmp (op, a, b) ->
      let a = c a and b = c b and test = holds op in
      fun f -> compare_tvl test (a f) (b f)
  | And (a, b) -> (
      let a = t a and b = t b in
      fun f ->
        match a f with
        | F -> F
        | T -> b f
        | U -> ( match b f with F -> F | T | U -> U))
  | Or (a, b) -> (
      let a = t a and b = t b in
      fun f ->
        match a f with
        | T -> T
        | F -> b f
        | U -> ( match b f with T -> T | F | U -> U))
  | Not a -> (
      let a = t a in
      fun f -> match a f with T -> F | F -> T | U -> U)
  | Is_null a | Is_not_null a ->
      let a = c a and null = match e with Is_null _ -> true | _ -> false in
      fun f -> tvl_of_bool (Value.is_null (a f) = null)
  | Like (a, pattern) -> (
      let a = c a in
      fun f ->
        match a f with
        | Value.Null -> U
        | Value.Str s -> tvl_of_bool (like_match ~pattern s)
        | v -> err "LIKE on non-text value %s" (Value.to_string v))
  | In_list (a, vs) -> (
      let a = c a in
      fun f ->
        match a f with
        | Value.Null -> U
        | v -> tvl_of_bool (List.exists (Value.equal v) vs))
  | Const _ | Param _ | Col _ | Arith _ | Neg _ | Concat _ | Func _ ->
      let v = c e in
      fun f -> to_tvl (v f)

(* A predicate holds when its truth value is T. AND and OR keep that
   property, so they short-circuit on booleans; a column compared with a
   non-NULL INT or TEXT constant tests the stored value in place, reaching
   [Value.compare] only for a value of another type. Anything else takes
   the three-valued path. *)
let rec compile_pred ~arity ~col e =
  let p = compile_pred ~arity ~col in
  match e with
  | And (a, b) ->
      let a = p a and b = p b in
      fun f -> a f && b f
  | Or (a, b) ->
      let a = p a and b = p b in
      fun f -> a f || b f
  | Cmp (op, Col i, Const (Value.Int n as v)) when i >= 0 && i < arity -> (
      let s, o = col i and test = holds op in
      match op with
      | Eq -> fun f -> ( match f.(s).(o) with Value.Int x -> x = n | x -> Value.compare x v = 0)
      | _ -> (
          fun f ->
            match f.(s).(o) with
            | Value.Int x -> test (Int.compare x n)
            | Value.Null -> false
            | x -> test (Value.compare x v)))
  | Cmp (op, Col i, Const (Value.Str c as v)) when i >= 0 && i < arity -> (
      let s, o = col i and test = holds op in
      match op with
      | Eq -> fun f -> ( match f.(s).(o) with Value.Str x -> String.equal x c | _ -> false)
      | _ -> (
          fun f ->
            match f.(s).(o) with
            | Value.Str x -> test (String.compare x c)
            | Value.Null -> false
            | x -> test (Value.compare x v)))
  | _ ->
      let t = compile_tvl ~arity ~col e in
      fun f -> t f = T

(* over one tuple, the frame's slot 1 *)
let eval e tu = compile ~arity:(Array.length tu) ~col:(fun i -> (1, i)) e [| [||]; tu |]
let eval_bool e tu = compile_pred ~arity:(Array.length tu) ~col:(fun i -> (1, i)) e [| [||]; tu |]

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

(* Rebuild [e] with every leaf (constant, column or parameter) replaced by
   [leaf] of it. *)
let rec map_leaves leaf e =
  let s = map_leaves leaf in
  match e with
  | Const _ | Col _ | Param _ -> leaf e
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

let map_columns f = map_leaves (function Col i -> Col (f i) | e -> e)

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
  | Path_shift -> "PATH_SHIFT"

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
