exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Component encoding classes (first byte determines total length):
     1 byte : 0x00..0x7F                  c in [0, 0x80)
     2 bytes: 0x80..0xBF + 1              c in [0x80, 0x80 + 0x4000)
     3 bytes: 0xC0..0xDF + 2              c in [0x4080, 0x4080 + 0x200000)
     4 bytes: 0xE0..0xEF + 3              c in [0x204080, 0x204080 + 0x10000000)
   Longer classes start at strictly higher first bytes and every class is
   prefix-free, so bytewise comparison equals numeric comparison. *)

let base2 = 0x80
let base3 = base2 + 0x4000
let base4 = base3 + 0x200000
let max_component = base4 + 0x10000000 - 1

(* the first value and the first byte of the class of [n]-byte components *)
let base = function 1 -> 0 | 2 -> base2 | 3 -> base3 | _ -> base4
let lead = function 1 -> 0 | 2 -> 0x80 | 3 -> 0xC0 | _ -> 0xE0

let size c =
  if c < 0 then malformed "negative component %d" c
  else if c < base2 then 1
  else if c < base3 then 2
  else if c < base4 then 3
  else if c <= max_component then 4
  else malformed "component %d above %d" c max_component

let write b pos c =
  let n = size c in
  let v = c - base n in
  for i = 1 to n - 1 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * (n - 1 - i))) land 0xFF))
  done;
  Bytes.set b pos (Char.chr (lead n lor (v lsr (8 * (n - 1)))));
  pos + n

(* the length of the component starting at byte [i] of [s] *)
let length_at s i =
  let b0 = Char.code s.[i] in
  let n =
    if b0 < 0x80 then 1
    else if b0 < 0xC0 then 2
    else if b0 < 0xE0 then 3
    else if b0 < 0xF0 then 4
    else malformed "invalid lead byte %02x at byte %d" b0 i
  in
  if i + n > String.length s then malformed "truncated component at byte %d" i;
  n

(* the value of the [n]-byte component starting at byte [i] *)
let read s i n =
  let v = ref (Char.code s.[i] - lead n) in
  for j = 1 to n - 1 do
    v := (!v lsl 8) lor Char.code s.[i + j]
  done;
  !v + base n

let encode p =
  let b = Bytes.create (Array.fold_left (fun n c -> n + size c) 0 p) in
  ignore (Array.fold_left (write b) 0 p);
  Bytes.unsafe_to_string b

let decode s =
  let rec count i k = if i = String.length s then k else count (i + length_at s i) (k + 1) in
  let out = Array.make (count 0 0) 0 in
  let i = ref 0 in
  Array.iteri
    (fun k _ ->
      let n = length_at s !i in
      out.(k) <- read s !i n;
      i := !i + n)
    out;
  out

let shift s ~depth k =
  let len = String.length s in
  let rec skip i d =
    if i >= len then malformed "no component at depth %d of a %d-byte path" depth len
    else if d = 0 then i
    else skip (i + length_at s i) (d - 1)
  in
  if depth < 0 then malformed "negative depth %d" depth;
  let i = skip 0 depth in
  let n = length_at s i in
  let c = read s i n + k in
  let m = size c in
  let b = Bytes.create (len - n + m) in
  Bytes.blit_string s 0 b 0 i;
  ignore (write b i c);
  Bytes.blit_string s (i + n) b (i + m) (len - i - n);
  Bytes.unsafe_to_string b
