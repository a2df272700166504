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

let check t i = if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
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
