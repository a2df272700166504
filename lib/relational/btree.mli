(** In-memory B+-tree over byte-string keys, ordered by [Bytes.compare].

    {!Key} encodes a composite index key so that this order is the order of
    its values. Keys are unique within a tree; {!Table} makes non-unique
    index entries unique by appending the row id to the key. Leaves are linked for
    ordered range scans — the access path every order encoding depends on
    (document-order scans, Dewey prefix ranges, sibling ranges).

    Deletion is lazy with respect to structure: entries are removed from
    leaves but leaves are not rebalanced, and separators stay where they
    are, so a leaf may be empty and a separator need not equal any key.
    Under the shred workloads deleted slots are soon reused by inserted
    keys, so occupancy stays high; {!stats} exposes occupancy so tests can
    check this. Order-preserving renumbering does not delete at all: it
    rewrites each key in its slot with {!rewrite_key}. A leaf shifts its
    entries in place on insert and delete, and grows its arrays by half
    only when full. *)

type t

exception Duplicate_key

val create : ?branching:int -> unit -> t
(** [branching] is the max entries per node (default 64, minimum 4). *)

val insert : t -> bytes -> int -> unit
(** The tree keeps the bytes as its own key ({!rewrite_key} writes into
    them). @raise Duplicate_key if the key is already present. *)

val build : t -> int -> (int -> bytes) -> (int -> int) -> unit
(** [build t n key value] makes [t] hold exactly the [n] entries [key i,
    value i], [i] from 0, whose keys are strictly ascending (its old
    entries are dropped): leaves are filled left to right and each level of
    internal nodes is built over the one below, with no search and no
    split. The tree keeps the keys. *)

val find : t -> bytes -> int option

val delete : t -> bytes -> bool
(** [true] if the key was present. *)

val rewrite_key : t -> value:int -> old:(unit -> bytes) -> bytes -> bool
(** [rewrite_key t ~value ~old nk] replaces the key of the entry
    [(old (), value)] by [nk] in its slot, keeping its payload, if [nk]
    sorts strictly between the entry's neighbours in key order. [nk]'s
    bytes are copied into the stored key when both have the same length
    (else the slot takes a copy of [nk]), so [nk] may be a scratch key the
    caller refills; separators own their bytes. Returns [false] and leaves
    the tree untouched otherwise: no such entry, [nk] at or beyond a
    neighbour, or a neighbour in an adjacent leaf that is empty. A key
    that crosses its leaf's bounding separator moves that one separator
    (up to a copy of the next leaf's first key, or down to a copy of
    [nk]). So a [true] result leaves a valid tree holding the same keys
    with the old one replaced by [nk], never a duplicate, whatever the
    order of the calls. No split, no merge, and no descent while the
    entry lies within the keys of the leaf the last rewrite wrote. The
    slots beside the one written are tried first, by payload alone, without
    calling [old]: payloads must tell entries apart, as a table's row ids
    do. So calls in key order (either direction) find each entry at once
    and never encode its old key. Obs counter [index.descents] counts the
    descents. *)

val length : t -> int

type bound = Unbounded | Incl of bytes | Excl of bytes

type hint
(** Where a walk's last seek landed, for the next walk of the same caller:
    one per join probe, say. *)

val hint : unit -> hint

val iter :
  ?hint:hint -> t -> lo:bound -> hi:bound -> reverse:bool -> (bytes -> int -> bool) -> unit
(** [iter t ~lo ~hi ~reverse f] pushes the entries between [lo] and [hi]
    to [f], in ascending key order (descending with [reverse]), until [f]
    returns [false]: no entry past that one is visited. The walk allocates
    nothing. An ascending walk with a [hint] seeks [lo] in the hint's leaf
    or the leaf after it when that holds it, without descending from the
    root (so the probes of a join whose outer rows come in key order
    mostly skip the descent), and leaves its leaf in the hint.

    A bound compares whole byte strings. A bound on the leading values of
    a composite key is a byte prefix: with keys [(parent, pos, rowid)],
    [lo = Incl (encode [p])] starts at the first entry whose [parent] is
    [>= p], and [hi = Excl (Key.prefix_end (encode [p; 5]))] keeps every
    entry with [parent = p] and [pos <= 5] whatever its [rowid]. This is
    what SQL range predicates over an index prefix need.
    [f] borrows the tree's own key: a later {!rewrite_key} changes it.
    A descending walk finds the right end of the range by binary search in
    every node on the way down: O(log n + k) for the first [k] entries.
    Behaviour is unspecified if the tree is mutated during the walk. *)

val range : t -> lo:bound -> hi:bound -> (bytes * int) Seq.t
(** The entries {!iter} visits, in ascending order, read when called, each
    key a copy (so in {!range_desc} and {!to_seq}). *)

val range_desc : t -> lo:bound -> hi:bound -> (bytes * int) Seq.t
(** The same entries in descending order. *)

val to_seq : t -> (bytes * int) Seq.t
(** All entries in key order. *)

type stats = { entries : int; leaves : int; depth : int; occupancy : float }

val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Structural check: key ordering within and across leaves, separator
    consistency, depth uniformity, entry count, a leaf chain that visits
    every leaf in tree order, and no separator that is physically a leaf's
    key. One walk, building no list of the entries. *)
