type column = { col_name : string; col_type : Value.ty; nullable : bool }

type t = column array

let column ?(nullable = true) col_name col_type = { col_name; col_type; nullable }

let arity = Array.length

let norm = String.lowercase_ascii

let find_opt t name =
  let name = norm name in
  let n = Array.length t in
  let rec go i =
    if i >= n then None
    else if norm t.(i).col_name = name then Some i
    else go (i + 1)
  in
  go 0

let concat = Array.append

let rename_prefix alias t =
  Array.map (fun c -> { c with col_name = alias ^ "." ^ c.col_name }) t

let fits c (v : Value.t) =
  match (v, c.col_type) with
  | Null, _ -> c.nullable
  | Int _, Tint | Float _, Tfloat | Str _, Ttext | Bytes _, Tbytes -> true
  | _ -> false

let check_tuple t tuple =
  if Array.length tuple <> Array.length t then
    Error
      (Printf.sprintf "arity mismatch: schema has %d columns, tuple has %d"
         (Array.length t) (Array.length tuple))
  else
    let rec go i =
      if i = Array.length t then Ok ()
      else if fits t.(i) tuple.(i) then go (i + 1)
      else
        let c = t.(i) in
        match Value.type_of tuple.(i) with
        | None -> Error (Printf.sprintf "column %s is NOT NULL" c.col_name)
        | Some vt ->
            Error
              (Printf.sprintf "column %s expects %s, got %s" c.col_name
                 (Value.ty_name c.col_type) (Value.ty_name vt))
    in
    go 0
