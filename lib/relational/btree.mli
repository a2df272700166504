(** In-memory B+-tree over composite {!Tuple.t} keys.

    Keys are unique within a tree; the {!Index} layer makes non-unique index
    entries unique by appending the row id to the key. Leaves are linked for
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

val insert : t -> Tuple.t -> int -> unit
(** The tree keeps the array as its own key ({!rewrite_key} writes into
    it). @raise Duplicate_key if the key is already present. *)

val replace : t -> Tuple.t -> int -> unit
(** Insert or overwrite. *)

val find : t -> Tuple.t -> int option

val delete : t -> Tuple.t -> bool
(** [true] if the key was present. *)

val rewrite_key : t -> old:Tuple.t -> Tuple.t -> bool
(** [rewrite_key t ~old nk] replaces the key [old] by [nk] in [old]'s slot,
    keeping its payload, if [nk] sorts strictly between [old]'s neighbours
    in key order. [nk]'s values are copied into the stored array, so [nk]
    may be a scratch key the caller refills; separators own their arrays.
    Returns [false] and leaves the tree untouched otherwise: [old] absent,
    [nk] not of [old]'s length, [nk] at or beyond a neighbour, or a
    neighbour in an adjacent leaf that is empty. A key that crosses its
    leaf's bounding separator moves that one separator (up to a copy of
    the next leaf's first key, or down to a copy of [nk]). So a [true]
    result leaves a valid tree holding the same keys with [old] replaced
    by [nk], never a duplicate, whatever the order of the calls. No split,
    no merge, and no descent while [old] lies within the keys of the leaf
    the last rewrite wrote, whose slots beside the one written are tried
    before a binary search: calls in key order (either direction) find each
    key at once. Obs counter [index.descents] counts the descents. *)

val length : t -> int

type bound = Unbounded | Incl of Tuple.t | Excl of Tuple.t

val iter : t -> lo:bound -> hi:bound -> reverse:bool -> (Tuple.t -> int -> bool) -> unit
(** [iter t ~lo ~hi ~reverse f] pushes the entries between [lo] and [hi]
    to [f], in ascending key order (descending with [reverse]), until [f]
    returns [false]: no entry past that one is visited. The walk allocates
    nothing.

    Bounds use {e truncated-prefix} semantics: a bound key may be shorter
    than the stored keys, and a stored key is compared against the bound on
    the bound's arity only. So with a composite key [(parent, pos, rowid)],
    [lo = Incl [p]] starts at the first entry whose [parent] is [>= p], and
    [hi = Incl [p; 5]] keeps every entry with [parent = p] and [pos <= 5]
    regardless of its [rowid]. [Excl] makes the truncated comparison strict.
    This is exactly what SQL range predicates over an index prefix need.
    [f] borrows the tree's own key array: a later {!rewrite_key} changes it.
    A descending walk finds the right end of the range by binary search in
    every node on the way down: O(log n + k) for the first [k] entries.
    Behaviour is unspecified if the tree is mutated during the walk. *)

val range : t -> lo:bound -> hi:bound -> (Tuple.t * int) Seq.t
(** The entries {!iter} visits, in ascending order, read when called, each
    key a copy (so in {!range_desc}, {!prefix} and {!to_seq}). *)

val range_desc : t -> lo:bound -> hi:bound -> (Tuple.t * int) Seq.t
(** The same entries in descending order. *)

val prefix : t -> Tuple.t -> (Tuple.t * int) Seq.t
(** All entries whose key starts with the given prefix (a prefix compares
    smaller than its extensions, so this is the range
    [prefix <= k < next-sibling-of-prefix]). *)

val to_seq : t -> (Tuple.t * int) Seq.t
(** All entries in key order. *)

type stats = { entries : int; leaves : int; depth : int; occupancy : float }

val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Structural check: key ordering within and across leaves, separator
    consistency, depth uniformity, entry count, a leaf chain that visits
    every leaf in tree order, and no separator that is physically a leaf's
    key array. One walk, building no list of the entries. *)
