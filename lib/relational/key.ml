let t_null = '\x05'
let t_nan = '\x10'
let t_neg_inf = '\x11'
let t_neg_big = '\x12'
let t_pos_big = '\x24'
let t_pos_inf = '\x25'
let t_str = '\x30'
let t_bytes = '\x31'
let more = '\xff'

(* the fewest bytes, from [n], holding [x] in two's complement *)
let rec length x n = if n < 8 && x asr (8 * n) <> x asr 62 then length x (n + 1) else n

external get64u : string -> int -> int64 = "%caml_string_get64u"

let rec byte_zero s i =
  if i < String.length s && String.unsafe_get s i <> '\000' then byte_zero s (i + 1) else i

let[@inline] has_zero w =
  not Int64.(equal (logand (logand (sub w 0x0101010101010101L) (lognot w)) 0x8080808080808080L) 0L)

(* the first 00 byte of [s] at or after [i], or its length: eight bytes at
   a time while no byte of them is 00 *)
let rec zero s i =
  if i + 8 <= String.length s && not (has_zero (get64u s i)) then zero s (i + 8) else byte_zero s i

let rec zeros s i acc =
  let z = zero s i in
  if z >= String.length s then acc else zeros s (z + 1) (acc + 1)

let size = function
  | Value.Null -> 1
  | Value.Int x -> 1 + length x 1
  | Value.Float f ->
      if Float.is_nan f || Float.abs f = infinity then 1
      else if f < -0x1p62 || f >= 0x1p62 then 9
      else
        let fl = Float.floor f in
        1 + length (int_of_float fl) 1 + if f > fl then 9 else 0
  | Value.Str s | Value.Bytes s -> 2 + String.length s + zeros s 0 0

(* the tag orders lengths, so a longer negative int sorts lower; then the
   low [n] bytes of [x], big-endian *)
let write_int b pos x =
  let n = length x 1 in
  Bytes.set b pos (Char.unsafe_chr (if x < 0 then 0x1b - n else 0x1b + n));
  for i = 1 to n do
    Bytes.set b (pos + i) (Char.unsafe_chr ((x asr (8 * (n - i))) land 0xff))
  done;
  pos + 1 + n

let write_tag b pos tag =
  Bytes.set b pos tag;
  pos + 1

let write_bits b pos tag bits =
  Bytes.set b pos tag;
  Bytes.set_int64_be b (pos + 1) bits;
  pos + 9

let write_float b pos f =
  if Float.is_nan f then write_tag b pos t_nan
  else if f < -0x1p62 then
    if f = neg_infinity then write_tag b pos t_neg_inf
    else write_bits b pos t_neg_big (Int64.lognot (Int64.bits_of_float f))
  else if f >= 0x1p62 then
    if f = infinity then write_tag b pos t_pos_inf
    else write_bits b pos t_pos_big (Int64.bits_of_float f)
  else
    let fl = Float.floor f in
    let pos = write_int b pos (int_of_float fl) in
    (* f - floor f is exact, and its bits grow with it *)
    if f > fl then write_bits b pos more (Int64.bits_of_float (f -. fl)) else pos

(* [s] from [i] on at [pos], each 00 as 00 ff, then the terminator 00:
   eight bytes at a time while no byte of them is 00 *)
let rec write_escaped b pos s i =
  if i + 8 <= String.length s && not (has_zero (get64u s i)) then begin
    Bytes.set_int64_ne b pos (get64u s i);
    write_escaped b (pos + 8) s (i + 8)
  end
  else if i >= String.length s then write_tag b pos '\000'
  else
    let c = String.unsafe_get s i in
    Bytes.set b pos c;
    if c = '\000' then write_escaped b (write_tag b (pos + 1) more) s (i + 1)
    else write_escaped b (pos + 1) s (i + 1)

let write b pos = function
  | Value.Null -> write_tag b pos t_null
  | Value.Int x -> write_int b pos x
  | Value.Float f -> write_float b pos f
  | Value.Str s -> write_escaped b (write_tag b pos t_str) s 0
  | Value.Bytes s -> write_escaped b (write_tag b pos t_bytes) s 0

let encode vs =
  let b = Bytes.create (Array.fold_left (fun n v -> n + size v) 0 vs) in
  ignore (Array.fold_left (write b) 0 vs);
  b

let prefix_end p =
  let n = Bytes.length p in
  let e = Bytes.extend p 0 1 in
  Bytes.set e n more;
  e

let write_end b pos = write_tag b pos more

type scratch = { mutable keys : bytes array }

let scratch () = { keys = [||] }

let scratch_key s n =
  if n >= Array.length s.keys then begin
    let keys = Array.make (n + 16) Bytes.empty in
    Array.blit s.keys 0 keys 0 (Array.length s.keys);
    s.keys <- keys
  end;
  if Bytes.length s.keys.(n) <> n then s.keys.(n) <- Bytes.create n;
  s.keys.(n)
