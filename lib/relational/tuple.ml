type t = Value.t array

let key cols tuple = Array.map (fun i -> tuple.(i)) cols

(* top-level, so that a comparison allocates no closure: every B+-tree
   descent, probe and sort runs this loop *)
let rec compare_from a b i =
  let la = Array.length a and lb = Array.length b in
  if i >= la || i >= lb then Int.compare la lb
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare_key a b = compare_from a b 0

(* [compare_key] over the keys [key cols a] and [key cols b], read in place *)
let rec compare_cols_from cols a b i =
  if i >= Array.length cols then 0
  else
    let c = Value.compare a.(cols.(i)) b.(cols.(i)) in
    if c <> 0 then c else compare_cols_from cols a b (i + 1)

let compare_cols cols a b = compare_cols_from cols a b 0

let equal a b = compare_key a b = 0

let hash_key t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let to_string t =
  String.concat "|" (Array.to_list (Array.map Value.to_string t))

let size_bytes t = Array.fold_left (fun acc v -> acc + Value.size_bytes v) 8 t
