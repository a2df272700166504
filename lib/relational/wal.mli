(** Write-ahead log and checkpoint files: an append-only file of CRC-framed
    records, each holding one committed unit of writes as typed entries.
    The engine keeps data in memory; durability comes from logging every
    committed write here and replaying the checkpoint and the log on
    {!Db.open_dir}. A checkpoint is a file in the same format.

    {2 File format}

    {v
    file    := header record*
    header  := "OXWAL2\n" generation:64le          (15 bytes)
    record  := 'R' len:32le crc:32le payload       (9-byte frame + payload)
    payload := entry*
    entry   := 'E' str(sql) count value*           one statement and its ? values
             | 'R' str(table) count tuple*         one insert_many call
    tuple   := count value*
    value   := 0x00 | 0x01 zigzag-varint | 0x02 ieee754:64le
             | 0x03 str | 0x04 str                 NULL, INT, FLOAT, TEXT, BYTES
    str     := count bytes
    count   := unsigned LEB128 varint
    v}

    [crc] is CRC-32 (IEEE) over the kind byte followed by the payload, so a
    bit flip in either the type or the body of a record is detected. A
    record is valid only if its whole frame fits in the file, the CRC
    matches and its entries tile the payload exactly; the first invalid
    record ends the valid prefix and everything after it is a {e torn
    tail} — discarded on recovery and truncated away when a writer reopens
    the file. Appends are single [write(2)] calls, so the log is always a
    valid prefix followed by at most one torn record. *)

type fsync_policy =
  | Always  (** fsync after every record: no committed write is ever lost *)
  | Every of int
      (** fsync after every [n] records: bounds loss to the last [n-1]
          commits on power failure (in-process crashes lose nothing) *)
  | Never  (** leave flushing to the OS (and to {!close}) *)

type entry =
  | Exec of string * Value.t array
      (** a statement's own text, [?] slots included, and its bound values *)
  | Rows of string * Tuple.t list  (** rows inserted into a table *)

type record = entry list
(** One committed unit: an autocommit write, or a whole transaction. *)

exception Corrupt of string
(** Raised when a file's header belongs to another generation than the
    caller expects, or to another version of the format (record-level
    damage is never an error: it just ends the valid prefix). *)

(** {2 Encoding} *)

val encode : record -> string
(** A record's payload: its entries' encodings, concatenated, so
    [encode (r1 @ r2) = encode r1 ^ encode r2]. *)

val decode : string -> record option
(** Inverse of {!encode}; [None] if the entries do not tile the payload
    exactly. Never raises. *)

(** {2 Writing} *)

type writer

val open_writer : ?policy:fsync_policy -> gen:int -> string -> writer
(** Open (or create) the log at [path] for appending. A missing, empty or
    header-torn file is (re)initialized with a fresh header; an existing log
    is scanned and truncated to its valid prefix so new records never land
    after a torn tail.
    @raise Corrupt if the file carries a different generation or format
    version. *)

val append : writer -> string -> unit
(** Frame and CRC one record payload (built with {!encode}) and append it
    in a single write, then fsync according to the policy. Counts
    [wal.append] (and [wal.fsync] when it syncs) in {!Obs} when enabled. *)

val write_file : gen:int -> string -> record list -> unit
(** Write a whole file: the header with generation [gen], then one frame
    per record, then one fsync. Counts nothing in {!Obs}. Checkpoints are
    written this way. *)

val close : writer -> unit
(** Sync and close. Idempotent. *)

val size : writer -> int
(** Current file length in bytes, header included. *)

val gen : writer -> int

val appends : writer -> int
(** Records appended through this writer. *)

val fsyncs : writer -> int
(** fsync(2) calls issued by this writer. *)

(** {2 Reading (recovery)} *)

type read_result = {
  records : record list;  (** the valid prefix, in append order *)
  file_gen : int;  (** generation from the header, [-1] if header torn *)
  valid_len : int;  (** byte length of header + valid records *)
  torn_bytes : int;  (** bytes past the valid prefix (0 for a clean log) *)
}

val read_file : string -> read_result
(** Parse a log or checkpoint file, stopping at the first invalid record.
    Damaged contents just shorten the valid prefix.
    @raise Corrupt if a complete header carries another format version.
    @raise Sys_error if the file cannot be opened. *)

val frame_ends : string -> int list
(** Byte offsets just past each valid record (test instrumentation: maps a
    truncation offset to the number of records that survive it). *)

(** {2 Crash-point hooks}

    The commit and checkpoint sequences call {!failpoint} with a point name
    at every step boundary; a test installs a hook that raises to simulate a
    process kill at exactly that point. The hook must treat the database
    handle as dead afterwards — only {!Db.open_dir} on the directory is
    meaningful, as after a real crash. *)

val set_failpoint : (string -> unit) option -> unit
val failpoint : string -> unit

(** {2 Utilities} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3), as used by the record frames. *)

val fsync_dir : string -> unit
(** fsync a directory so renames/creates/unlinks in it are durable (best
    effort: ignored on systems that refuse directory fsync). *)
