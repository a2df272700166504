type fsync_policy = Always | Every of int | Never

type entry =
  | Exec of string * Value.t array
  | Rows of string * Tuple.t list

type record = entry list

exception Corrupt of string

let magic = "OXWAL2\n"
let header_size = String.length magic + 8

(* --- failpoints -------------------------------------------------------- *)

let failpoint_hook : (string -> unit) option ref = ref None
let set_failpoint h = failpoint_hook := h
let failpoint name = match !failpoint_hook with Some h -> h name | None -> ()

(* --- CRC-32 (IEEE 802.3, table-driven) --------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_update crc s =
  let tbl = Lazy.force crc_table in
  let c = ref crc in
  String.iter
    (fun ch -> c := tbl.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c

let crc32 s = crc32_update 0xFFFFFFFF s lxor 0xFFFFFFFF

(* --- little-endian integer framing ------------------------------------- *)

let put_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

(* --- record encoding --------------------------------------------------- *)

(* unsigned LEB128; a negative int (a zigzagged one) takes 9 bytes *)
let rec put_uvarint buf v =
  if v land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr v)
  else begin
    Buffer.add_char buf (Char.chr (v land 0x7f lor 0x80));
    put_uvarint buf (v lsr 7)
  end

let put_str buf s =
  put_uvarint buf (String.length s);
  Buffer.add_string buf s

let put_value buf = function
  | Value.Null -> Buffer.add_char buf '\000'
  | Value.Int i ->
      Buffer.add_char buf '\001';
      (* zigzag: small magnitudes of either sign take few bytes *)
      put_uvarint buf ((i lsl 1) lxor (i asr 62))
  | Value.Float f ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
      Buffer.add_char buf '\003';
      put_str buf s
  | Value.Bytes s ->
      Buffer.add_char buf '\004';
      put_str buf s

let put_values buf vs =
  put_uvarint buf (Array.length vs);
  Array.iter (put_value buf) vs

let encode record =
  let buf = Buffer.create 64 in
  List.iter
    (function
      | Exec (sql, params) ->
          Buffer.add_char buf 'E';
          put_str buf sql;
          put_values buf params
      | Rows (table, tuples) ->
          Buffer.add_char buf 'R';
          put_str buf table;
          put_uvarint buf (List.length tuples);
          List.iter (put_values buf) tuples)
    record;
  Buffer.contents buf

(* A cursor over one payload. Every read checks the bytes it takes against
   the payload's end, and every count against the bytes left (each element
   takes at least one), so no length, however damaged, can read past the
   payload or allocate more than it holds. *)
exception Short

type cursor = { s : string; mutable pos : int }

let byte c =
  if c.pos >= String.length c.s then raise Short;
  c.pos <- c.pos + 1;
  Char.code c.s.[c.pos - 1]

let uvarint c =
  let rec go acc shift =
    let b = byte c in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else if shift >= 56 then raise Short
    else go acc (shift + 7)
  in
  go 0 0

let count c =
  let n = uvarint c in
  if n < 0 || n > String.length c.s - c.pos then raise Short;
  n

let take c n =
  if n > String.length c.s - c.pos then raise Short;
  c.pos <- c.pos + n;
  String.sub c.s (c.pos - n) n

let get_str c = take c (count c)

let get_value c =
  match byte c with
  | 0 -> Value.Null
  | 1 ->
      let z = uvarint c in
      Value.Int ((z lsr 1) lxor -(z land 1))
  | 2 -> Value.Float (Int64.float_of_bits (String.get_int64_le (take c 8) 0))
  | 3 -> Value.Str (get_str c)
  | 4 -> Value.Bytes (get_str c)
  | _ -> raise Short

let get_values c =
  let n = count c in
  Array.init n (fun _ -> get_value c)

let decode payload =
  let c = { s = payload; pos = 0 } in
  let entry () =
    match Char.chr (byte c) with
    | 'E' ->
        let sql = get_str c in
        Exec (sql, get_values c)
    | 'R' ->
        let table = get_str c in
        Rows (table, List.init (count c) (fun _ -> get_values c))
    | _ -> raise Short
  in
  let rec go acc =
    if c.pos = String.length payload then Some (List.rev acc)
    else go (entry () :: acc)
  in
  try go [] with Short -> None

let frame_kind = 'R'

let crc_of payload =
  crc32_update (crc32_update 0xFFFFFFFF (String.make 1 frame_kind)) payload
  lxor 0xFFFFFFFF

let frame payload =
  let buf = Buffer.create (String.length payload + 9) in
  Buffer.add_char buf frame_kind;
  put_u32 buf (String.length payload);
  put_u32 buf (crc_of payload);
  Buffer.add_string buf payload;
  Buffer.to_bytes buf

(* Decode the records of [data] (a whole file image). Returns the valid
   records with the byte offset just past each, in order. *)
let decode_records data =
  let n = String.length data in
  let rec go acc off =
    if off + 9 > n || data.[off] <> frame_kind then List.rev acc
    else
      let len = get_u32 data (off + 1) in
      if off + 9 + len > n then List.rev acc
      else
        let payload = String.sub data (off + 9) len in
        if crc_of payload <> get_u32 data (off + 5) then List.rev acc
        else
          match decode payload with
          | None -> List.rev acc
          | Some r -> go ((r, off + 9 + len) :: acc) (off + 9 + len)
  in
  go [] header_size

type read_result = {
  records : record list;
  file_gen : int;
  valid_len : int;
  torn_bytes : int;
}

let read_string path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A complete header of another format version is no torn tail: reading
   on would discard, and a writer truncate, a log this code cannot parse. *)
let parse_image path data =
  let n = String.length data in
  let version = String.length magic - 2 in
  if n >= header_size && String.sub data 0 version = String.sub magic 0 version
     && String.sub data 0 (String.length magic) <> magic
  then
    raise
      (Corrupt
         (Printf.sprintf "%s: unsupported format %S (this build reads %S)" path
            (String.sub data 0 (String.length magic)) magic));
  if n < header_size || String.sub data 0 (String.length magic) <> magic then
    { records = []; file_gen = -1; valid_len = 0; torn_bytes = n }
  else
    let gen = Int64.to_int (String.get_int64_le data (String.length magic)) in
    let decoded = decode_records data in
    let valid_len =
      List.fold_left (fun _ (_, e) -> e) header_size decoded
    in
    {
      records = List.map fst decoded;
      file_gen = gen;
      valid_len;
      torn_bytes = n - valid_len;
    }

let read_file path = parse_image path (read_string path)

let frame_ends path =
  List.map snd (decode_records (read_string path))

(* --- directory sync ---------------------------------------------------- *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

(* --- writer ------------------------------------------------------------ *)

type writer = {
  w_path : string;
  w_gen : int;
  w_policy : fsync_policy;
  w_fd : Unix.file_descr;
  mutable w_size : int;
  mutable w_unsynced : int;  (* records appended since the last fsync *)
  mutable w_appends : int;
  mutable w_fsyncs : int;
  mutable w_closed : bool;
}

let write_all fd bytes =
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

let header_bytes gen =
  let buf = Buffer.create header_size in
  Buffer.add_string buf magic;
  Buffer.add_int64_le buf (Int64.of_int gen);
  Buffer.to_bytes buf

let open_writer ?(policy = Every 32) ~gen path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let w =
    {
      w_path = path;
      w_gen = gen;
      w_policy = policy;
      w_fd = fd;
      w_size = 0;
      w_unsynced = 0;
      w_appends = 0;
      w_fsyncs = 0;
      w_closed = false;
    }
  in
  let parsed =
    try parse_image path (read_string path)
    with e ->
      Unix.close fd;
      raise e
  in
  if parsed.file_gen = -1 then begin
    (* fresh file, or a header torn by a crash during creation: start over *)
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    Unix.ftruncate fd 0;
    write_all fd (header_bytes gen);
    Unix.fsync fd;
    w.w_fsyncs <- w.w_fsyncs + 1;
    w.w_size <- header_size
  end
  else if parsed.file_gen <> gen then begin
    Unix.close fd;
    raise
      (Corrupt
         (Printf.sprintf "%s: log carries generation %d, expected %d" path
            parsed.file_gen gen))
  end
  else begin
    (* drop the torn tail so appends extend the valid prefix *)
    if parsed.torn_bytes > 0 then Unix.ftruncate fd parsed.valid_len;
    ignore (Unix.lseek fd parsed.valid_len Unix.SEEK_SET);
    w.w_size <- parsed.valid_len
  end;
  w

let do_fsync w =
  Unix.fsync w.w_fd;
  w.w_fsyncs <- w.w_fsyncs + 1;
  w.w_unsynced <- 0;
  Obs.incr "wal.fsync"

let append w payload =
  if w.w_closed then invalid_arg "Wal.append: writer is closed";
  let frame = frame payload in
  failpoint "wal.append.before";
  write_all w.w_fd frame;
  w.w_size <- w.w_size + Bytes.length frame;
  w.w_appends <- w.w_appends + 1;
  w.w_unsynced <- w.w_unsynced + 1;
  Obs.incr "wal.append";
  failpoint "wal.append.after";
  (match w.w_policy with
  | Always -> do_fsync w
  | Every n -> if w.w_unsynced >= n then do_fsync w
  | Never -> ());
  failpoint "wal.append.synced"

let write_file ~gen path records =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (header_bytes gen);
      List.iter (fun r -> write_all fd (frame (encode r))) records;
      Unix.fsync fd)

let close w =
  if not w.w_closed then begin
    (try if w.w_unsynced > 0 then do_fsync w with Unix.Unix_error _ -> ());
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    w.w_closed <- true
  end

let size w = w.w_size
let gen w = w.w_gen
let appends w = w.w_appends
let fsyncs w = w.w_fsyncs
