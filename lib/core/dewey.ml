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

let last p =
  if Array.length p = 0 then invalid_arg "Dewey.last: empty path"
  else p.(Array.length p - 1)

let with_last p k =
  if Array.length p = 0 then invalid_arg "Dewey.with_last: empty path";
  let out = Array.copy p in
  out.(Array.length out - 1) <- k;
  out

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

let add_component buf c =
  if c < 0 then invalid_arg "Dewey.encode: negative component";
  if c < base2 then Buffer.add_char buf (Char.chr c)
  else if c < base3 then begin
    let v = c - base2 in
    Buffer.add_char buf (Char.chr (0x80 lor (v lsr 8)));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  end
  else if c < base4 then begin
    let v = c - base3 in
    Buffer.add_char buf (Char.chr (0xC0 lor (v lsr 16)));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  end
  else if c <= max_component then begin
    let v = c - base4 in
    Buffer.add_char buf (Char.chr (0xE0 lor (v lsr 24)));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr (v land 0xFF))
  end
  else invalid_arg "Dewey.encode: component too large"

let encode p =
  let buf = Buffer.create (Array.length p * 2) in
  Array.iter (add_component buf) p;
  Buffer.contents buf

let encode_component c =
  let buf = Buffer.create 4 in
  add_component buf c;
  Buffer.contents buf

let decode s =
  let n = String.length s in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let b0 = Char.code s.[!i] in
    let need k =
      if !i + k > n then invalid_arg "Dewey.decode: truncated component"
    in
    let byte k = Char.code s.[!i + k] in
    if b0 < 0x80 then begin
      out := b0 :: !out;
      i := !i + 1
    end
    else if b0 < 0xC0 then begin
      need 2;
      out := (base2 + (((b0 land 0x3F) lsl 8) lor byte 1)) :: !out;
      i := !i + 2
    end
    else if b0 < 0xE0 then begin
      need 3;
      out := (base3 + (((b0 land 0x1F) lsl 16) lor (byte 1 lsl 8) lor byte 2)) :: !out;
      i := !i + 3
    end
    else if b0 < 0xF0 then begin
      need 4;
      out :=
        (base4
        + (((b0 land 0x0F) lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3))
        :: !out;
      i := !i + 4
    end
    else invalid_arg "Dewey.decode: invalid lead byte"
  done;
  Array.of_list (List.rev !out)

let prefix_upper_bound enc =
  (* increment the byte string as a big-endian number, dropping trailing
     0xFF bytes; valid encodings never consist solely of 0xFF bytes because
     lead bytes are < 0xF0 *)
  let n = String.length enc in
  let rec go i =
    if i < 0 then invalid_arg "Dewey.prefix_upper_bound: all 0xFF"
    else if enc.[i] = '\xFF' then go (i - 1)
    else begin
      let b = Bytes.of_string (String.sub enc 0 (i + 1)) in
      Bytes.set b i (Char.chr (Char.code enc.[i] + 1));
      Bytes.to_string b
    end
  in
  if n = 0 then invalid_arg "Dewey.prefix_upper_bound: empty" else go (n - 1)
