exception Duplicate_key

type node = Leaf of leaf | Internal of internal

and leaf = {
  (* entries [0, n) are live; an insert or delete shifts them in place, and
     a full leaf grows its arrays by half (see [make_room]) *)
  mutable keys : bytes array;
  mutable vals : int array;
  mutable n : int;
  mutable next : leaf option;
}

and internal = {
  (* children.(i) covers keys k with seps.(i-1) <= k < seps.(i); each
     separator owns its bytes, so rewriting a leaf key moves no bound *)
  mutable seps : bytes array;
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

(* [build] names the tree's current set of leaves, unique across trees: a
   tree gets a new one when made and when {!build} replaces its leaves *)
type t = {
  mutable root : node;
  branching : int;
  mutable count : int;
  finger : finger;
  mutable build : int;
}

let builds = ref 0

let next_build () =
  incr builds;
  !builds

(* the leaf of a walk's last seek, in the tree's build [h_build] *)
type hint = { mutable h_leaf : leaf; mutable h_build : int }

type bound = Unbounded | Incl of bytes | Excl of bytes

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
    build = next_build ();
  }

let hint () = { h_leaf = no_leaf; h_build = 0 }

(* room for one more entry in [l]: a full leaf's arrays grow by half, up to
   the [branching + 1] entries a leaf holds before it splits, so inserts
   copy a leaf O(log branching) times while it fills *)
let make_room t l =
  if l.n = Array.length l.keys then begin
    let cap = min (t.branching + 1) (l.n + (l.n / 2) + 4) in
    let keys = Array.make cap Bytes.empty and vals = Array.make cap 0 in
    Array.blit l.keys 0 keys 0 l.n;
    Array.blit l.vals 0 vals 0 l.n;
    l.keys <- keys;
    l.vals <- vals
  end

let length t = t.count

(* position of the first key >= k ([c = 0]) or > k ([c = 1]) among the
   sorted keys.(0 .. n - 1) *)
let search keys n k c =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bytes.compare keys.(mid) k < c then lo := mid + 1 else hi := mid
  done;
  !lo

let lower_bound keys n k = search keys n k 0

(* child index for key [k] in an internal node *)
let child_index (n : internal) k =
  (* first i with k < seps.(i); all seps <= k -> last child *)
  let lo = ref 0 and hi = ref (Array.length n.seps) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bytes.compare n.seps.(mid) k <= 0 then lo := mid + 1 else hi := mid
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
  if i < l.n && Bytes.equal l.keys.(i) k then
    Some l.vals.(i)
  else None

(* insert into subtree; returns Some (separator, right sibling) on split *)
let rec insert_node t node k v =
  match node with
  | Leaf l ->
      let i = lower_bound l.keys l.n k in
      if i < l.n && Bytes.equal l.keys.(i) k then raise Duplicate_key
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
          Some (Bytes.copy right.keys.(0), Leaf right)
        end
        else None
      end
  | Internal n -> (
      let ci = child_index n k in
      match insert_node t n.children.(ci) k v with
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

let insert t k v =
  match insert_node t t.root k v with
  | None -> ()
  | Some (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] }

let delete t k =
  let l = find_leaf t.root k in
  let i = lower_bound l.keys l.n k in
  if i < l.n && Bytes.equal l.keys.(i) k then begin
    Array.blit l.keys (i + 1) l.keys i (l.n - 1 - i);
    Array.blit l.vals (i + 1) l.vals i (l.n - 1 - i);
    l.n <- l.n - 1;
    l.keys.(l.n) <- Bytes.empty;
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

let holds l i value = i >= 0 && i < l.n && l.vals.(i) = value

(* the slot of the entry [old (), value], or [-1] *)
let locate t f ~value ~old =
  let l = f.leaf in
  (* a slot beside the last rewrite's, else the finger's leaf if its keys
     span the old key, else a descent *)
  if holds l (f.slot - 1) value then f.slot - 1
  else if holds l (f.slot + 1) value then f.slot + 1
  else
    let old = old () in
    if not (l.n > 0 && Bytes.compare l.keys.(0) old <= 0 && Bytes.compare old l.keys.(l.n - 1) <= 0)
    then (
      Obs.incr "index.descents";
      f.lo_j <- -1;
      f.hi_j <- -1;
      descend f old t.root);
    let l = f.leaf in
    let i = lower_bound l.keys l.n old in
    if i < l.n && Bytes.equal l.keys.(i) old && l.vals.(i) = value then i else -1

let rewrite_key t ~value ~old nk =
  let f = t.finger in
  let i = locate t f ~value ~old in
  let l = f.leaf in
  let last = l.n - 1 in
  if i < 0 then false
  else
    let below =
      if i > 0 then
        if Bytes.compare l.keys.(i - 1) nk < 0 then Inside else Crosses
      else if f.lo_j < 0 || Bytes.compare f.lo.seps.(f.lo_j) nk <= 0 then Inside
      else
        let p = rightmost f.lo.children.(f.lo_j) in
        if p.n > 0 && Bytes.compare p.keys.(p.n - 1) nk < 0 then Moves
        else Crosses
    in
    let above =
      if i < last then
        if Bytes.compare nk l.keys.(i + 1) < 0 then Inside else Crosses
      else if f.hi_j < 0 || Bytes.compare nk f.hi.seps.(f.hi_j) < 0 then Inside
      else
        match l.next with
        | Some r when r.n > 0 && Bytes.compare nk r.keys.(0) < 0 -> Moves
        | _ -> Crosses
    in
    if below = Crosses || above = Crosses then false
    else begin
      if below = Moves then f.lo.seps.(f.lo_j) <- Bytes.copy nk;
      if above = Moves then
        Option.iter (fun r -> f.hi.seps.(f.hi_j) <- Bytes.copy r.keys.(0)) l.next;
      let n = Bytes.length nk in
      if Bytes.length l.keys.(i) = n then Bytes.blit nk 0 l.keys.(i) 0 n
      else l.keys.(i) <- Bytes.copy nk;
      f.slot <- i;
      true
    end

(* Bottom-up: [n] entries make ceil (n / branching) leaves, filled left to
   right as evenly as they go, and each level above takes as many
   children per node until one node is left. A node's separators are
   copies of the first keys of its children but the first. *)
let build t n key value =
  t.root <- Leaf { keys = [||]; vals = [||]; n = 0; next = None };
  t.count <- 0;
  t.finger.leaf <- no_leaf;
  t.build <- next_build ();
  if n > 0 then begin
    let spread n f =
      let k = (n + t.branching - 1) / t.branching in
      Array.init k (fun i -> f (i * n / k) (((i + 1) * n / k) - (i * n / k)))
    in
    let leaves =
      spread n (fun a len ->
          {
            keys = Array.init len (fun i -> key (a + i));
            vals = Array.init len (fun i -> value (a + i));
            n = len;
            next = None;
          })
    in
    Array.iteri (fun i l -> if i > 0 then leaves.(i - 1).next <- Some l) leaves;
    (* [firsts.(i)]: the least key under [nodes.(i)] *)
    let rec up nodes firsts =
      if Array.length nodes = 1 then nodes.(0)
      else
        let m = Array.length nodes in
        up
          (spread m (fun a len ->
               Internal
                 {
                   seps = Array.init (len - 1) (fun j -> Bytes.copy firsts.(a + j + 1));
                   children = Array.sub nodes a len;
                 }))
          (spread m (fun a _ -> firsts.(a)))
    in
    t.root <- up (Array.map (fun l -> Leaf l) leaves) (Array.map (fun l -> l.keys.(0)) leaves);
    t.count <- n
  end

let leftmost_leaf t =
  let rec go = function
    | Leaf l -> l
    | Internal n -> go n.children.(0)
  in
  go t.root

let within_hi hi k =
  match hi with
  | Unbounded -> true
  | Incl h -> Bytes.compare k h <= 0
  | Excl h -> Bytes.compare k h < 0

let above_lo lo k =
  match lo with
  | Unbounded -> true
  | Incl l -> Bytes.compare k l >= 0
  | Excl l -> Bytes.compare k l > 0

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
   on. Top-level recursions, so that a walk allocates nothing. A leaf the
   walk enters from its left neighbour is [whole] when its last key is
   within [hi]: its keys are then pushed unchecked. *)
let rec iter_from hi f (l : leaf) i ~whole =
  if i >= l.n then
    match l.next with
    | None -> ()
    | Some r -> iter_from hi f r 0 ~whole:(r.n > 0 && within_hi hi r.keys.(r.n - 1))
  else
    let k = l.keys.(i) in
    if (whole || within_hi hi k) && f k l.vals.(i) then iter_from hi f l (i + 1) ~whole

(* [l]'s last key is at or above the bound [k] ([c = 0]), or above it
   ([c = 1]) *)
let past l k c = l.n > 0 && Bytes.compare l.keys.(l.n - 1) k >= c

(* The leaf holding the first key at or above the bound, or the one left
   of it: the hint's leaf when its last key is past the bound and its first
   is not, the next leaf when the hint's lies wholly below the bound and
   the next one's last key is past it (the probes of a join in key order
   mostly land in one of the two), else the leaf a descent finds. No leaf
   leaves the tree before a new build, so a leaf of the hint's build is in
   the tree, and its keys are a run of the tree's. *)
let seek t h k c =
  let l = h.h_leaf in
  let l =
    if h.h_build <> t.build || l.n = 0 then find_leaf t.root k
    else if past l k c then if Bytes.compare l.keys.(0) k < c then l else find_leaf t.root k
    else match l.next with Some r when past r k c -> r | _ -> find_leaf t.root k
  in
  h.h_leaf <- l;
  h.h_build <- t.build;
  l

(* From the right, stopping at the first key below [lo]; [false] once [f]
   stops or the walk passes [lo]. Child [i] holds keys in
   [seps.(i-1), seps.(i)). The seek to the right end binary-searches [hi]
   in each node on the rightmost path ([first]); every key left of that
   path is within [hi]. *)
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

let iter ?(hint = hint ()) t ~lo ~hi ~reverse f =
  if reverse then ignore (desc_node lo hi f t.root ~first:true)
  else
    match lo with
    | Unbounded -> iter_from hi f (leftmost_leaf t) 0 ~whole:false
    | Incl k ->
        let l = seek t hint k 0 in
        iter_from hi f l (search l.keys l.n k 0) ~whole:false
    | Excl k ->
        let l = seek t hint k 1 in
        iter_from hi f l (search l.keys l.n k 1) ~whole:false

let entries t ~lo ~hi ~reverse =
  let acc = ref [] in
  iter t ~lo ~hi ~reverse (fun k v ->
      acc := (Bytes.copy k, v) :: !acc;
      true);
  List.to_seq (List.rev !acc)

let range t ~lo ~hi = entries t ~lo ~hi ~reverse:false
let range_desc t ~lo ~hi = entries t ~lo ~hi ~reverse:true

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
      (match lo with None -> true | Some b -> Bytes.compare b k <= 0)
      && match hi with None -> true | Some b -> Bytes.compare k b < 0
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
          | Some p when Bytes.compare p k >= 0 ->
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
            if i > 0 && Bytes.compare n.seps.(i - 1) sep >= 0 then
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
