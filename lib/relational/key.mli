(** Index keys as order-preserving byte strings.

    An index key is the concatenation of its values' encodings, so that
    [Bytes.compare] (one [memcmp]) on two keys has the sign of
    {!Tuple.compare_key} on their values, and the encoding of a key's first
    [k] values is a byte prefix of the whole key's. Equal values encode
    equally: [Int 1] and [Float 1.0], [0.0] and [-0.0], all NaNs.

    {v
    value                          bytes
    NULL                           05
    NaN                            10
    -infinity                      11
    float below min_int            12, 8 bytes: the IEEE bits, all flipped
    int n < 0, of L = 8 .. 1 bytes 1b - L, the low L bytes of n, big-endian
    int n >= 0, of L = 1 .. 8      1b + L, the low L bytes of n, big-endian
    float above max_int            24, 8 bytes: the IEEE bits
    +infinity                      25
    fractional float f             the int floor f, then ff, 8 bytes: the
                                   IEEE bits of f - floor f
    TEXT s                         30, s with each 00 as 00 ff, then 00
    BYTES s                        31, as TEXT
    v}

    An integral float in the int range encodes as that int. Every tag is
    below [ff], and a value whose encoding extends another's continues with
    [ff] (a fraction, an escaped [00]), so {!prefix_end} is one byte. *)

val size : Value.t -> int
(** The length of a value's encoding. *)

val write : bytes -> int -> Value.t -> int
(** [write b pos v] writes [v]'s encoding at [pos], which must leave
    [size v] bytes, and returns the position after it. *)

val encode : Tuple.t -> bytes
(** The key of these values, a fresh byte string. *)

val prefix_end : bytes -> bytes
(** [prefix_end p] is [p] followed by [ff]: the least byte string above
    every key whose first values encode to [p] (PREFIX_END). As an
    exclusive upper bound it keeps those keys; as an inclusive lower bound
    it skips them. *)

val write_end : bytes -> int -> int
(** [write_end b pos] writes the byte that {!prefix_end} appends. *)

type scratch
(** Reusable keys, one per length, for code that encodes keys without
    allocating per row. *)

val scratch : unit -> scratch

val scratch_key : scratch -> int -> bytes
(** The scratch key of this length, which the next call for the same
    length hands out again. *)
