exception Duplicate_key

type node = Leaf of leaf | Internal of internal

and leaf = {
  (* entries [0, n) are live; an insert or delete shifts them in place, and
     a full leaf grows its arrays by half (see [make_room]) *)
  mutable keys : Tuple.t array;
  mutable vals : int array;
  mutable n : int;
  mutable next : leaf option;
}

and internal = {
  (* children.(i) covers keys k with seps.(i-1) <= k < seps.(i); each
     separator owns its array, so rewriting a leaf key moves no bound *)
  mutable seps : Tuple.t array;
  mutable children : node array;
}

(* The finger: the leaf and slot of the last [rewrite_key] and the deepest
   separators bounding it, [lo.seps.(lo_j)] below and [hi.seps.(hi_j)]
   above ([-1]: no bound on that side). A split moves separators and
   drops it; a rewrite, a delete or an insert that splits nothing keeps it.
   The slot is a hint, checked against the key before use. *)
type finger = {
  mutable leaf : leaf;
  mutable slot : int;
  mutable lo : internal;
  mutable lo_j : int;
  mutable hi : internal;
  mutable hi_j : int;
}

type t = { mutable root : node; branching : int; mutable count : int; finger : finger }

type bound = Unbounded | Incl of Tuple.t | Excl of Tuple.t

(* an empty leaf: the finger holding it matches no key *)
let no_leaf = { keys = [||]; vals = [||]; n = 0; next = None }
let no_internal = { seps = [||]; children = [||] }

let create ?(branching = 64) () =
  let branching = max 4 branching in
  {
    root = Leaf { keys = [||]; vals = [||]; n = 0; next = None };
    branching;
    count = 0;
    finger = { leaf = no_leaf; slot = 0; lo = no_internal; lo_j = -1; hi = no_internal; hi_j = -1 };
  }

(* room for one more entry in [l]: a full leaf's arrays grow by half, up to
   the [branching + 1] entries a leaf holds before it splits, so inserts
   copy a leaf O(log branching) times while it fills *)
let make_room t l =
  if l.n = Array.length l.keys then begin
    let cap = min (t.branching + 1) (l.n + (l.n / 2) + 4) in
    let keys = Array.make cap [||] and vals = Array.make cap 0 in
    Array.blit l.keys 0 keys 0 l.n;
    Array.blit l.vals 0 vals 0 l.n;
    l.keys <- keys;
    l.vals <- vals
  end

let length t = t.count

(* position of first key >= k among the sorted keys.(0 .. n - 1) *)
let lower_bound keys n k =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Tuple.compare_key keys.(mid) k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* child index for key [k] in an internal node *)
let child_index (n : internal) k =
  (* first i with k < seps.(i); all seps <= k -> last child *)
  let lo = ref 0 and hi = ref (Array.length n.seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Tuple.compare_key n.seps.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let rec find_leaf node k =
  match node with
  | Leaf l -> l
  | Internal n -> find_leaf n.children.(child_index n k) k

let find t k =
  let l = find_leaf t.root k in
  let i = lower_bound l.keys l.n k in
  if i < l.n && Tuple.compare_key l.keys.(i) k = 0 then
    Some l.vals.(i)
  else None

(* insert into subtree; returns Some (separator, right sibling) on split *)
let rec insert_node t node k v ~replace_existing =
  match node with
  | Leaf l ->
      let i = lower_bound l.keys l.n k in
      if i < l.n && Tuple.compare_key l.keys.(i) k = 0 then begin
        if replace_existing then begin
          l.vals.(i) <- v;
          None
        end
        else raise Duplicate_key
      end
      else begin
        make_room t l;
        Array.blit l.keys i l.keys (i + 1) (l.n - i);
        Array.blit l.vals i l.vals (i + 1) (l.n - i);
        l.keys.(i) <- k;
        l.vals.(i) <- v;
        l.n <- l.n + 1;
        t.count <- t.count + 1;
        if l.n > t.branching then begin
          (* both halves get arrays of their own size: a leaf filled by
             appends keeps no empty slots once it has split *)
          t.finger.leaf <- no_leaf;
          let n = l.n in
          let mid = n / 2 in
          let right =
            {
              keys = Array.sub l.keys mid (n - mid);
              vals = Array.sub l.vals mid (n - mid);
              n = n - mid;
              next = l.next;
            }
          in
          l.keys <- Array.sub l.keys 0 mid;
          l.vals <- Array.sub l.vals 0 mid;
          l.n <- mid;
          l.next <- Some right;
          Some (Array.copy right.keys.(0), Leaf right)
        end
        else None
      end
  | Internal n -> (
      let ci = child_index n k in
      match insert_node t n.children.(ci) k v ~replace_existing with
      | None -> None
      | Some (sep, right) ->
          n.seps <- array_insert n.seps ci sep;
          n.children <- array_insert n.children (ci + 1) right;
          if Array.length n.children > t.branching then begin
            let nc = Array.length n.children in
            let mid = nc / 2 in
            (* separator promoted to parent is seps.(mid-1) *)
            let promoted = n.seps.(mid - 1) in
            let right =
              {
                seps = Array.sub n.seps mid (Array.length n.seps - mid);
                children = Array.sub n.children mid (nc - mid);
              }
            in
            n.seps <- Array.sub n.seps 0 (mid - 1);
            n.children <- Array.sub n.children 0 mid;
            Some (promoted, Internal right)
          end
          else None)

let insert_gen t k v ~replace_existing =
  match insert_node t t.root k v ~replace_existing with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] }

let insert t k v = insert_gen t k v ~replace_existing:false
let replace t k v = insert_gen t k v ~replace_existing:true

let delete t k =
  let l = find_leaf t.root k in
  let i = lower_bound l.keys l.n k in
  if i < l.n && Tuple.compare_key l.keys.(i) k = 0 then begin
    Array.blit l.keys (i + 1) l.keys i (l.n - 1 - i);
    Array.blit l.vals (i + 1) l.vals i (l.n - 1 - i);
    l.n <- l.n - 1;
    l.keys.(l.n) <- [||];
    t.count <- t.count - 1;
    true
  end
  else false

(* Rewrite [old] to [nk] in its slot, keeping the tree's shape. The slot's
   neighbours are its leaf mates, or across a leaf edge the first key of
   [l.next] and the last key of the rightmost leaf left of [l]. The
   finger's [lo] and [hi] are the deepest separators on the descent path
   that bound [l] from below and above: [n.seps.(j)] heads the child
   [j + 1] holding [l], with the subtree to its left at [n.children.(j)].
   A key that leaves [l]'s bounds moves exactly one of them: the upper one
   rises to the next leaf's first key, the lower one falls to [nk]. Every
   other separator already lies beyond the neighbour on its side. *)
let rec descend f k node =
  match node with
  | Leaf l -> f.leaf <- l
  | Internal n ->
      let ci = child_index n k in
      if ci > 0 then (f.lo <- n; f.lo_j <- ci - 1);
      if ci < Array.length n.seps then (f.hi <- n; f.hi_j <- ci);
      descend f k n.children.(ci)

let rec rightmost = function
  | Leaf l -> l
  | Internal n -> rightmost n.children.(Array.length n.children - 1)

(* what [nk] needs on one side of its slot *)
type side = Inside | Moves | Crosses

let holds l i k = i >= 0 && i < l.n && Tuple.compare_key l.keys.(i) k = 0

let rewrite_key t ~old nk =
  let f = t.finger in
  let l = f.leaf in
  (* a slot beside the last rewrite's, else the finger's leaf if its keys
     span [old], else a descent *)
  let i =
    if holds l (f.slot - 1) old then f.slot - 1
    else if holds l (f.slot + 1) old then f.slot + 1
    else (
      if not (l.n > 0 && Tuple.compare_key l.keys.(0) old <= 0
              && Tuple.compare_key old l.keys.(l.n - 1) <= 0)
      then (Obs.incr "index.descents"; f.lo_j <- -1; f.hi_j <- -1; descend f old t.root);
      lower_bound f.leaf.keys f.leaf.n old)
  in
  let l = f.leaf in
  let last = l.n - 1 in
  if i > last || Tuple.compare_key l.keys.(i) old <> 0
     || Array.length l.keys.(i) <> Array.length nk
  then false
  else
    let below =
      if i > 0 then
        if Tuple.compare_key l.keys.(i - 1) nk < 0 then Inside else Crosses
      else if f.lo_j < 0 || Tuple.compare_key f.lo.seps.(f.lo_j) nk <= 0 then Inside
      else
        let p = rightmost f.lo.children.(f.lo_j) in
        if p.n > 0 && Tuple.compare_key p.keys.(p.n - 1) nk < 0 then Moves
        else Crosses
    in
    let above =
      if i < last then
        if Tuple.compare_key nk l.keys.(i + 1) < 0 then Inside else Crosses
      else if f.hi_j < 0 || Tuple.compare_key nk f.hi.seps.(f.hi_j) < 0 then Inside
      else
        match l.next with
        | Some r when r.n > 0 && Tuple.compare_key nk r.keys.(0) < 0 -> Moves
        | _ -> Crosses
    in
    if below = Crosses || above = Crosses then false
    else begin
      if below = Moves then f.lo.seps.(f.lo_j) <- Array.copy nk;
      if above = Moves then
        Option.iter (fun r -> f.hi.seps.(f.hi_j) <- Array.copy r.keys.(0)) l.next;
      Array.blit nk 0 l.keys.(i) 0 (Array.length nk);
      f.slot <- i;
      true
    end

let leftmost_leaf t =
  let rec go = function
    | Leaf l -> l
    | Internal n -> go n.children.(0)
  in
  go t.root

(* Compare a stored key against a (possibly shorter) bound key on the bound's
   arity only, in place. A stored key shorter than the bound falls back to
   full comparison (cannot happen for well-formed index keys). Top-level, so
   that the per-row bound check of a range scan allocates nothing. *)
let rec compare_trunc_from k b i =
  if i >= Array.length b then 0
  else if i >= Array.length k then -1
  else
    let c = Value.compare k.(i) b.(i) in
    if c <> 0 then c else compare_trunc_from k b (i + 1)

let compare_trunc k b = compare_trunc_from k b 0

let within_hi hi k =
  match hi with
  | Unbounded -> true
  | Incl h -> compare_trunc k h <= 0
  | Excl h -> compare_trunc k h < 0

let above_lo lo k =
  match lo with
  | Unbounded -> true
  | Incl l -> compare_trunc k l >= 0
  | Excl l -> compare_trunc k l > 0

(* Number of leading entries of the sorted a.(0 .. n - 1) that satisfy
   [p], which holds on a prefix of them and fails on the rest. *)
let count_while p a n =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p a.(mid) then lo := mid + 1 else hi := mid
  done;
  !lo

(* Range walks as push loops: [f] gets each entry and returns whether to go
   on. Top-level recursions, so that a walk allocates nothing. The seek
   compares full keys: for [Incl b] the first qualifying key (truncated
   compare >= b) is exactly the first key >= b, because a prefix sorts
   before all its extensions; for [Excl b] the walk skips the extensions of
   [b] themselves. *)
let rec iter_from lo hi f (l : leaf) i ~leading =
  if i >= l.n then
    match l.next with None -> () | Some nxt -> iter_from lo hi f nxt 0 ~leading
  else
    let k = l.keys.(i) in
    if within_hi hi k then
      let skip =
        leading && match lo with Excl b -> compare_trunc k b = 0 | Unbounded | Incl _ -> false
      in
      if skip then iter_from lo hi f l (i + 1) ~leading
      else if f k l.vals.(i) then iter_from lo hi f l (i + 1) ~leading:false

(* From the right, stopping at the first key below [lo]; [false] once [f]
   stops or the walk passes [lo]. Truncation preserves order, so a
   separator bounds the truncated keys of its neighbours: child [i] holds
   keys in [seps.(i-1), seps.(i)). The seek to the right end
   binary-searches [hi] in each node on the rightmost path ([first]); every
   key left of that path is within [hi]. *)
let rec desc_node lo hi f node ~first =
  match node with
  | Leaf l -> desc_leaf lo f l ((if first then count_while (within_hi hi) l.keys l.n else l.n) - 1)
  | Internal n ->
      let ns = Array.length n.seps in
      desc_kids lo hi f n (if first then count_while (within_hi hi) n.seps ns else ns) ~first

and desc_leaf lo f l i =
  i < 0 || (above_lo lo l.keys.(i) && f l.keys.(i) l.vals.(i) && desc_leaf lo f l (i - 1))

and desc_kids lo hi f n i ~first =
  i < 0
  || ((i >= Array.length n.seps || above_lo lo n.seps.(i))
     && desc_node lo hi f n.children.(i) ~first
     && desc_kids lo hi f n (i - 1) ~first:false)

let iter t ~lo ~hi ~reverse f =
  if reverse then ignore (desc_node lo hi f t.root ~first:true)
  else
    match lo with
    | Unbounded -> iter_from lo hi f (leftmost_leaf t) 0 ~leading:true
    | Incl k | Excl k ->
        let l = find_leaf t.root k in
        iter_from lo hi f l (lower_bound l.keys l.n k) ~leading:true

let entries t ~lo ~hi ~reverse =
  let acc = ref [] in
  iter t ~lo ~hi ~reverse (fun k v ->
      acc := (Array.copy k, v) :: !acc;
      true);
  List.to_seq (List.rev !acc)

let range t ~lo ~hi = entries t ~lo ~hi ~reverse:false
let range_desc t ~lo ~hi = entries t ~lo ~hi ~reverse:true

let prefix t p = range t ~lo:(Incl p) ~hi:(Incl p)

let to_seq t = range t ~lo:Unbounded ~hi:Unbounded

type stats = { entries : int; leaves : int; depth : int; occupancy : float }

let stats t =
  let leaves = ref 0 and slots = ref 0 in
  let rec depth = function
    | Leaf _ -> 1
    | Internal n -> 1 + depth n.children.(0)
  in
  let rec walk = function
    | Leaf l ->
        incr leaves;
        slots := !slots + l.n
    | Internal n -> Array.iter walk n.children
  in
  walk t.root;
  {
    entries = t.count;
    leaves = !leaves;
    depth = depth t.root;
    occupancy =
      (if !leaves = 0 then 0.0
       else float_of_int !slots /. float_of_int (!leaves * t.branching));
  }

let check_invariants t =
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let leaf_depth = ref (-1) and entries = ref 0 and prev = ref None in
  (* separators passed since the last leaf key, the only key one can share *)
  let pending = ref [] in
  (* the leaf the chain must reach next, if it visits leaves in tree order *)
  let chain = ref (Some (leftmost_leaf t)) in
  let rec check lo hi depth node =
    let in_bounds k =
      (match lo with None -> true | Some b -> Tuple.compare_key b k <= 0)
      && match hi with None -> true | Some b -> Tuple.compare_key k b < 0
    in
    match node with
    | Leaf l ->
        if !leaf_depth < 0 then leaf_depth := depth
        else if depth <> !leaf_depth then fail "non-uniform depth";
        (match !chain with
        | Some c when c == l -> chain := l.next
        | _ -> fail "leaf chain out of tree order");
        entries := !entries + l.n;
        for i = 0 to l.n - 1 do
          let k = l.keys.(i) in
          if not (in_bounds k) then fail "leaf key out of separator bounds";
          if List.exists (fun sep -> sep == k) !pending then
            fail "separator shares a leaf key's array";
          pending := [];
          (match !prev with
          | Some p when Tuple.compare_key p k >= 0 ->
              fail "leaf keys not strictly ascending"
          | _ -> ());
          prev := Some k
        done
    | Internal n ->
        if Array.length n.children <> Array.length n.seps + 1 then
          fail "internal node arity mismatch";
        Array.iteri
          (fun i sep ->
            if not (in_bounds sep) then fail "separator out of bounds";
            if i > 0 && Tuple.compare_key n.seps.(i - 1) sep >= 0 then
              fail "separators not ascending")
          n.seps;
        Array.iteri
          (fun i child ->
            let lo' = if i = 0 then lo else Some n.seps.(i - 1) in
            let hi' = if i = Array.length n.seps then hi else Some n.seps.(i) in
            if i > 0 then pending := n.seps.(i - 1) :: !pending;
            check lo' hi' (depth + 1) child)
          n.children
  in
  check None None 0 t.root;
  if Option.is_some !chain then fail "leaf chain runs past the last leaf";
  if !entries <> t.count then fail "count mismatch with leaves";
  match !err with None -> Ok () | Some msg -> Error msg
