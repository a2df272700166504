(** In-memory B+-tree over composite {!Tuple.t} keys.

    Keys are unique within a tree; the {!Index} layer makes non-unique index
    entries unique by appending the row id to the key. Leaves are linked for
    ordered range scans — the access path every order encoding depends on
    (document-order scans, Dewey prefix ranges, sibling ranges).

    Deletion is lazy with respect to structure: entries are removed from
    leaves but leaves are not rebalanced. Under the shred/renumber workloads
    deleted slots are immediately reused by reinserted keys, so occupancy
    stays high; {!stats} exposes occupancy so tests can check this. *)

type t

exception Duplicate_key

val create : ?branching:int -> unit -> t
(** [branching] is the max entries per node (default 64, minimum 4). *)

val insert : t -> Tuple.t -> int -> unit
(** @raise Duplicate_key if the key is already present. *)

val replace : t -> Tuple.t -> int -> unit
(** Insert or overwrite. *)

val find : t -> Tuple.t -> int option

val delete : t -> Tuple.t -> bool
(** [true] if the key was present. *)

val length : t -> int

type bound = Unbounded | Incl of Tuple.t | Excl of Tuple.t

val range : t -> lo:bound -> hi:bound -> (Tuple.t * int) Seq.t
(** Entries between [lo] and [hi] in ascending key order, lazily produced so
    consumers can stop early.

    Bounds use {e truncated-prefix} semantics: a bound key may be shorter
    than the stored keys, and a stored key is compared against the bound on
    the bound's arity only. So with a composite key [(parent, pos, rowid)],
    [lo = Incl [p]] starts at the first entry whose [parent] is [>= p], and
    [hi = Incl [p; 5]] keeps every entry with [parent = p] and [pos <= 5]
    regardless of its [rowid]. [Excl] makes the truncated comparison strict.
    This is exactly what SQL range predicates over an index prefix need.
    Behaviour is unspecified if the tree is mutated during consumption. *)

val range_desc : t -> lo:bound -> hi:bound -> (Tuple.t * int) Seq.t
(** Same entries in descending order, produced lazily from the right end
    of the range: O(log n + k) for the first [k] entries. *)

val prefix : t -> Tuple.t -> (Tuple.t * int) Seq.t
(** All entries whose key starts with the given prefix (a prefix compares
    smaller than its extensions, so this is the range
    [prefix <= k < next-sibling-of-prefix]). *)

val to_seq : t -> (Tuple.t * int) Seq.t
(** All entries in key order. *)

type stats = { entries : int; leaves : int; depth : int; occupancy : float }

val stats : t -> stats

val check_invariants : t -> (unit, string) result
(** Structural check used by the test suite: key ordering within and across
    leaves, separator consistency, depth uniformity. *)
