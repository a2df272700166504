type 'a t = { mutable data : 'a array; mutable len : int; fill : 'a }

let create ~fill = { data = [||]; len = 0; fill }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let ncap = max 8 (cap * 2) in
  let nd = Array.make ncap t.fill in
  Array.blit t.data 0 nd 0 t.len;
  t.data <- nd

let push t x =
  if t.len >= Array.length t.data then grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let clear t =
  t.data <- [||];
  t.len <- 0

(* the one range check of a read: past the length a slot holds [fill] *)
let get t i = if i >= 0 && i < t.len then Array.unsafe_get t.data i else t.fill

(* Table sets only slots it has pushed *)
let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds";
  t.data.(i) <- x

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_seq t =
  let rec go i () =
    if i >= t.len then Seq.Nil else Seq.Cons ((i, t.data.(i)), go (i + 1))
  in
  go 0
