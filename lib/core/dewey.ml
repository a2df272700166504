type t = int array

let root = [| 1 |]

(* top-level recursion: no closure per call, as sorts call these often *)
let rec compare_from (a : t) (b : t) i =
  if i = Array.length a || i = Array.length b then
    Int.compare (Array.length a) (Array.length b)
  else
    let c = Int.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b = compare_from a b 0

let parent p =
  if Array.length p <= 1 then None else Some (Array.sub p 0 (Array.length p - 1))

let depth = Array.length

let child p k = Array.append p [| k |]

(* The argument errors below are documented caller errors (dewey.mli) that
   the system cannot reach: it asks [last] only of stored paths, which hold
   the root's component at least; it parses no dotted path ([of_string]
   serves tests and tools); it encodes only sibling positions and caret
   labels, all positive and far below [max_component]; and it decodes only
   bytes [encode] wrote. *)
let last p =
  if Array.length p = 0 then invalid_arg "Dewey.last: empty path"
  else p.(Array.length p - 1)

let rec prefix_from (a : t) (d : t) i =
  i = Array.length a || (a.(i) = d.(i) && prefix_from a d (i + 1))

let is_strict_prefix a d = Array.length a < Array.length d && prefix_from a d 0

let to_string p =
  String.concat "." (Array.to_list (Array.map string_of_int p))

let of_string s =
  if s = "" then invalid_arg "Dewey.of_string: empty";
  let parts = String.split_on_char '.' s in
  Array.of_list
    (List.map
       (fun part ->
         match int_of_string_opt part with
         | Some v when v >= 0 -> v
         | Some _ | None -> invalid_arg "Dewey.of_string: bad component")
       parts)

(* The codec is [Reldb.Path_codec]'s, which the engine's PATH_SHIFT scalar
   shares; its typed error becomes the documented [Invalid_argument]. *)
module C = Reldb.Path_codec

let max_component = C.max_component
let encode p = try C.encode p with C.Malformed m -> invalid_arg ("Dewey.encode: " ^ m)
let encode_component c = encode [| c |]
let decode s = try C.decode s with C.Malformed m -> invalid_arg ("Dewey.decode: " ^ m)
