(* B+-tree: unit semantics, prefix bounds, model-based qcheck. *)

module B = Reldb.Btree
module K = Reldb.Key
module V = Reldb.Value

let k = K.encode
let key1 i = k [| V.Int i |]
let key2 a b = k [| V.Int a; V.Int b |]

(* bounds on a key prefix [p]: every key extending [p] is at or below
   [upto p] and below [above p] *)
let upto p = B.Excl (K.prefix_end p)
let above p = B.Incl (K.prefix_end p)

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let entries_ids seq = List.map snd (List.of_seq seq)

let test_insert_find () =
  let t = B.create ~branching:4 () in
  for i = 0 to 99 do
    B.insert t (key1 ((i * 37) mod 100)) i
  done;
  check int_t "length" 100 (B.length t);
  for i = 0 to 99 do
    match B.find t (key1 ((i * 37) mod 100)) with
    | Some v -> check int_t "payload" i v
    | None -> Alcotest.fail "missing key"
  done;
  check bool_t "absent" true (B.find t (key1 1000) = None)

let test_duplicate () =
  let t = B.create () in
  B.insert t (key1 1) 10;
  (match B.insert t (key1 1) 11 with
  | exception B.Duplicate_key -> ()
  | () -> Alcotest.fail "expected Duplicate_key");
  check bool_t "kept" true (B.find t (key1 1) = Some 10)

let test_delete () =
  let t = B.create ~branching:4 () in
  for i = 0 to 49 do
    B.insert t (key1 i) i
  done;
  for i = 0 to 49 do
    if i mod 2 = 0 then check bool_t "deleted" true (B.delete t (key1 i))
  done;
  check bool_t "gone" true (B.find t (key1 0) = None);
  check bool_t "remains" true (B.find t (key1 1) = Some 1);
  check int_t "length" 25 (B.length t);
  check bool_t "delete absent" false (B.delete t (key1 0))

let test_range_basic () =
  let t = B.create ~branching:4 () in
  List.iter (fun i -> B.insert t (key1 i) i) [ 5; 1; 9; 3; 7 ];
  check (Alcotest.list int_t) "all" [ 1; 3; 5; 7; 9 ]
    (entries_ids (B.to_seq t));
  check (Alcotest.list int_t) "incl/incl" [ 3; 5; 7 ]
    (entries_ids (B.range t ~lo:(B.Incl (key1 3)) ~hi:(B.Incl (key1 7))));
  check (Alcotest.list int_t) "excl/excl" [ 5 ]
    (entries_ids (B.range t ~lo:(B.Excl (key1 3)) ~hi:(B.Excl (key1 7))));
  check (Alcotest.list int_t) "desc" [ 7; 5; 3 ]
    (entries_ids (B.range_desc t ~lo:(B.Incl (key1 3)) ~hi:(B.Incl (key1 7))))

let test_truncated_bounds () =
  (* composite keys (a, b): bounds on the first component only *)
  let t = B.create ~branching:4 () in
  List.iter
    (fun (a, b) -> B.insert t (key2 a b) ((a * 100) + b))
    [ (1, 1); (1, 2); (2, 1); (2, 2); (2, 3); (3, 1) ];
  (* prefix scan a = 2 *)
  check (Alcotest.list int_t) "prefix" [ 201; 202; 203 ]
    (entries_ids (B.range t ~lo:(B.Incl (key1 2)) ~hi:(upto (key1 2))));
  (* lo = Incl [2] keeps all a >= 2 including extensions of [2] *)
  check (Alcotest.list int_t) "trunc lo incl" [ 201; 202; 203; 301 ]
    (entries_ids (B.range t ~lo:(B.Incl (key1 2)) ~hi:B.Unbounded));
  (* lo = above [2] skips every key whose first component is 2 *)
  check (Alcotest.list int_t) "trunc lo excl" [ 301 ]
    (entries_ids (B.range t ~lo:(above (key1 2)) ~hi:B.Unbounded));
  (* hi = upto [2] keeps extensions of [2]; hi = Excl [2] drops them *)
  check (Alcotest.list int_t) "trunc hi incl" [ 101; 102; 201; 202; 203 ]
    (entries_ids (B.range t ~lo:B.Unbounded ~hi:(upto (key1 2))));
  check (Alcotest.list int_t) "trunc hi excl" [ 101; 102 ]
    (entries_ids (B.range t ~lo:B.Unbounded ~hi:(B.Excl (key1 2))));
  (* two-component range on (2, b >= 2) *)
  check (Alcotest.list int_t) "two-comp" [ 202; 203 ]
    (entries_ids (B.range t ~lo:(B.Incl (key2 2 2)) ~hi:(upto (key1 2))))

let test_mixed_types_order () =
  let t = B.create () in
  B.insert t (k [| V.Null |]) 0;
  B.insert t (k [| V.Int 5 |]) 1;
  B.insert t (k [| V.Float 5.5 |]) 2;
  B.insert t (k [| V.Str "a" |]) 3;
  B.insert t (k [| V.Bytes "a" |]) 4;
  check (Alcotest.list int_t) "type order" [ 0; 1; 2; 3; 4 ]
    (entries_ids (B.to_seq t))

let test_invariants_after_churn () =
  let t = B.create ~branching:4 () in
  let rng = Xmllib.Rng.create 5 in
  let model = Hashtbl.create 64 in
  for step = 0 to 2000 do
    let k = Xmllib.Rng.int rng 300 in
    if Xmllib.Rng.bool rng then begin
      if not (Hashtbl.mem model k) then begin
        B.insert t (key1 k) step;
        Hashtbl.replace model k step
      end
    end
    else begin
      let was = Hashtbl.mem model k in
      let deleted = B.delete t (key1 k) in
      if was <> deleted then Alcotest.fail "delete disagrees with model";
      Hashtbl.remove model k
    end
  done;
  (match B.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m);
  check int_t "length vs model" (Hashtbl.length model) (B.length t)

let test_stats () =
  let t = B.create ~branching:8 () in
  for i = 0 to 999 do
    B.insert t (key1 i) i
  done;
  let s = B.stats t in
  check int_t "entries" 1000 s.B.entries;
  check bool_t "depth sane" true (s.B.depth >= 2 && s.B.depth <= 6);
  check bool_t "occupancy" true (s.B.occupancy > 0.3)

(* model-based property: a random operation sequence agrees with a Map *)
let prop_model =
  let open QCheck in
  let op_gen =
    Gen.(
      oneof
        [
          map (fun k -> `Insert k) (int_bound 100);
          map (fun k -> `Delete k) (int_bound 100);
          map2 (fun a b -> `Range (min a b, max a b)) (int_bound 100) (int_bound 100);
        ])
  in
  Test.make ~name:"btree agrees with Map model" ~count:200
    (make Gen.(list_size (int_bound 400) op_gen))
    (fun ops ->
      let t = B.create ~branching:4 () in
      let module M = Map.Make (Int) in
      let model = ref M.empty in
      let ok = ref true in
      List.iteri
        (fun step op ->
          match op with
          | `Insert k ->
              if not (M.mem k !model) then begin
                B.insert t (key1 k) step;
                model := M.add k step !model
              end
          | `Delete k ->
              let was = M.mem k !model in
              if B.delete t (key1 k) <> was then ok := false;
              model := M.remove k !model
          | `Range (lo, hi) ->
              let got =
                entries_ids (B.range t ~lo:(B.Incl (key1 lo)) ~hi:(B.Incl (key1 hi)))
              in
              let expect =
                M.bindings !model
                |> List.filter (fun (k, _) -> k >= lo && k <= hi)
                |> List.map snd
              in
              if got <> expect then ok := false)
        ops;
      !ok && B.check_invariants t = Ok ())

(* random bounds: unbounded, or inclusive / exclusive over a 1- or 2-column
   key or the prefix end of one — a 1-column bound over the 2-column keys
   is a prefix *)
let bound_gen =
  QCheck.Gen.(
    let key =
      oneof [ map key1 (int_bound 12); map2 key2 (int_bound 12) (int_bound 12) ]
    in
    let key = oneof [ key; map K.prefix_end key ] in
    oneof
      [ return B.Unbounded; map (fun k -> B.Incl k) key; map (fun k -> B.Excl k) key ])

let print_bound = function
  | B.Unbounded -> "-"
  | B.Incl k -> "[" ^ String.escaped (Bytes.to_string k)
  | B.Excl k -> "(" ^ String.escaped (Bytes.to_string k)

let prop_desc_is_reverse =
  let open QCheck in
  let gen =
    Gen.(
      quad
        (list_size (int_bound 200) (pair (int_bound 10) (int_bound 10)))
        (list_size (int_bound 60) (pair (int_bound 10) (int_bound 10)))
        bound_gen bound_gen)
  in
  let print (keys, dels, lo, hi) =
    Printf.sprintf "%d keys, %d deletes, lo %s, hi %s" (List.length keys)
      (List.length dels) (print_bound lo) (print_bound hi)
  in
  Test.make ~name:"range_desc reverses range" ~count:300 (make ~print gen)
    (fun (keys, dels, lo, hi) ->
      let t = B.create ~branching:4 () in
      (* each key once, at its first position *)
      List.iteri (fun i (a, b) -> if B.find t (key2 a b) = None then B.insert t (key2 a b) i) keys;
      (* deletes leave sparse and empty leaves behind *)
      List.iter (fun (a, b) -> ignore (B.delete t (key2 a b))) dels;
      (* reference: every entry, filtered by the bounds *)
      let trunc = Bytes.compare in
      let keep (k, _) =
        (match lo with
        | B.Unbounded -> true
        | B.Incl b -> trunc k b >= 0
        | B.Excl b -> trunc k b > 0)
        &&
        match hi with
        | B.Unbounded -> true
        | B.Incl b -> trunc k b <= 0
        | B.Excl b -> trunc k b < 0
      in
      let expect = List.filter keep (List.of_seq (B.to_seq t)) in
      let asc = List.of_seq (B.range t ~lo ~hi) in
      let desc = List.of_seq (B.range_desc t ~lo ~hi) in
      asc = expect && desc = List.rev expect)

(* The seek to the right end of a range binary-searches [hi] in every node
   it descends through: over a three-level tree of composite keys, bounds
   that fall inside leaves, between keys, on separators and on a prefix
   give the ascending range reversed, and the first entry alone is the
   range's last. *)
let test_desc_seek () =
  let t = B.create ~branching:4 () in
  for a = 0 to 9 do
    for b = 0 to 9 do
      B.insert t (key2 a b) ((a * 10) + b)
    done
  done;
  check bool_t "three levels" true ((B.stats t).B.depth >= 3);
  let his =
    [ B.Unbounded; B.Incl (key2 4 5); B.Excl (key2 4 5); upto (key1 6);
      B.Excl (key1 6); upto (k [| V.Float 3.5 |]); B.Excl (key2 9 9);
      B.Incl (key2 0 0); B.Excl (key2 0 0); upto (key1 12) ]
  and los =
    [ B.Unbounded; B.Incl (key2 2 7); B.Excl (key2 2 7); B.Incl (key1 4);
      above (key1 4); B.Incl (k [| V.Float 3.5 |]) ]
  in
  List.iter
    (fun hi ->
      List.iter
        (fun lo ->
          let asc = entries_ids (B.range t ~lo ~hi) in
          let desc = B.range_desc t ~lo ~hi in
          let what = print_bound lo ^ " .. " ^ print_bound hi in
          check (Alcotest.list int_t) what (List.rev asc) (entries_ids desc);
          check (Alcotest.list int_t) (what ^ ", first")
            (match List.rev asc with [] -> [] | x :: _ -> [ x ])
            (entries_ids (Seq.take 1 desc)))
        los)
    his

(* --- in-place key rewrites ------------------------------------------- *)

(* keys 0..19 inserted in order: with branching 4 every leaf but the last
   holds a pair, [0; 1], [2; 3], ..., so leaf edges sit at even keys *)
let pairs_tree () =
  let t = B.create ~branching:4 () in
  for i = 0 to 19 do
    B.insert t (key1 i) i
  done;
  t

let half x = k [| V.Float x |]

(* [B.rewrite_key] of the entry whose key is [old] *)
let rewrite t ~old nk =
  B.rewrite_key t ~value:(Option.value (B.find t old) ~default:(-1)) ~old:(fun () -> old) nk

let valid t =
  match B.check_invariants t with
  | Ok () -> ()
  | Error m -> Alcotest.failf "invariants: %s" m

let refused what t ~old nk =
  let before = List.of_seq (B.to_seq t) in
  check bool_t what false (rewrite t ~old nk);
  check bool_t (what ^ ": tree unchanged") true
    (List.of_seq (B.to_seq t) = before);
  valid t

let test_rewrite_in_place () =
  let t = pairs_tree () in
  (* within a leaf, then across a leaf edge in both directions: the
     bounding separator rises to the next leaf's first key, or falls *)
  check bool_t "inside a leaf" true (rewrite t ~old:(key1 2) (half 2.5));
  ignore (B.delete t (key1 6));
  check bool_t "up across an edge" true (rewrite t ~old:(key1 5) (half 6.5));
  valid t;
  ignore (B.delete t (key1 9));
  check bool_t "down across an edge" true
    (rewrite t ~old:(key1 10) (half 8.5));
  valid t;
  check bool_t "payload kept" true
    (B.find t (half 6.5) = Some 5 && B.find t (half 8.5) = Some 10);
  check bool_t "old keys gone" true
    (B.find t (key1 5) = None && B.find t (key1 10) = None);
  check int_t "length" 18 (B.length t)

let test_rewrite_refusals () =
  let t = pairs_tree () in
  refused "absent key" t ~old:(key1 99) (key1 100);
  refused "swap with a neighbour" t ~old:(key1 4) (half 5.5);
  refused "swap across a leaf edge" t ~old:(key1 5) (half 6.5);
  refused "onto an existing key" t ~old:(key1 4) (key1 5);
  refused "onto a farther key" t ~old:(key1 4) (key1 12);
  (* empty the leaf [4; 5]: 3 -> 5.5 and 6 -> 3.5 stay between their
     neighbours, but the neighbour across the edge is not in that leaf *)
  ignore (B.delete t (key1 4));
  ignore (B.delete t (key1 5));
  refused "empty leaf above" t ~old:(key1 3) (half 5.5);
  refused "empty leaf below" t ~old:(key1 6) (half 3.5)

(* Separators own their arrays. A tree built through splits, whose keys
   are then shifted up and back down with one scratch key refilled for
   every rewrite, crossing leaf edges both ways (so separators rise to the
   next leaf's first key and fall to the new key), stays valid and holds
   exactly the shifted keys, also once the scratch key is overwritten.
   Inserts after the shifts split leaves under the finger of the last
   rewrite, and rewrites after them still see the right bounds. *)
let test_separator_ownership () =
  let t = B.create ~branching:4 () in
  let n = 60 in
  for i = 0 to n - 1 do
    B.insert t (key1 (10 * i)) i
  done;
  valid t;
  (* scratch keys, one per length, refilled for every rewrite *)
  let news = K.scratch () and olds = K.scratch () in
  let fill s v =
    let b = K.scratch_key s (K.size (V.Int v)) in
    ignore (K.write b 0 (V.Int v));
    b
  in
  let clobber () =
    List.iter (fun v -> ignore (fill news v); ignore (fill olds v)) [ -1; 100_000 ]
  in
  let keys = Array.init n (fun i -> 10 * i) in
  let shift d =
    let order = List.init n (fun i -> if d > 0 then n - 1 - i else i) in
    List.iter
      (fun i ->
        let old = fill olds keys.(i) in
        let scratch = fill news (keys.(i) + d) in
        check bool_t "shift in place" true (rewrite t ~old scratch);
        keys.(i) <- keys.(i) + d)
      order;
    clobber ();
    valid t;
    check (Alcotest.list Alcotest.bytes) "keys after the shift"
      (List.map key1 (Array.to_list keys))
      (List.map fst (List.of_seq (B.to_seq t)))
  in
  shift 7;
  shift (-7);
  shift 9;
  (* keys 9, 19, ..: fill the gaps below keys 300..590 so their leaves and
     parents split, then move each of those keys down into the gap *)
  for i = 30 to n - 1 do
    B.insert t (key1 ((10 * i) + 1)) (n + i)
  done;
  valid t;
  for i = n - 1 downto 30 do
    let old = fill olds ((10 * i) + 9) in
    let scratch = fill news ((10 * i) + 5) in
    check bool_t "down after splits" true (rewrite t ~old scratch);
    clobber ();
    valid t
  done;
  check int_t "length" (n + 30) (B.length t)

(* Model property for [rewrite_key]: rows carry a value [a] and a group [p];
   two indexes hold [(a, rowid)] and [(p, a, rowid)]. A shift adds [d] to
   [a] on a range of rows, visiting them top-down when [d > 0] as
   [Table.update_rows] does; each key is rewritten in place where the tree
   accepts it and deleted and re-inserted otherwise. Shifts can cross other
   rows, so both paths run. Every accepted rewrite must give exactly the old
   entries with one key replaced, still strictly ascending; every refusal
   must leave the tree as it was; after each shift the trees must be valid
   and hold the keys rebuilt from the rows. *)
let prop_rewrite_model =
  let open QCheck in
  let op_gen =
    Gen.(
      frequency
        [
          (4, map2 (fun p a -> `Insert (p, a)) (int_bound 3) (int_bound 60));
          (1, map2 (fun lo n -> `Delete (lo, lo + n)) (int_bound 60) (int_bound 10));
          ( 3,
            map3
              (fun lo n d -> `Shift (lo, lo + n, if d >= 0 then d + 1 else d))
              (int_bound 60) (int_bound 30) (int_range (-12) 11) );
        ])
  in
  let print ops =
    String.concat "; "
      (List.map
         (function
           | `Insert (p, a) -> Printf.sprintf "ins %d,%d" p a
           | `Delete (lo, hi) -> Printf.sprintf "del %d..%d" lo hi
           | `Shift (lo, hi, d) -> Printf.sprintf "shift %d..%d by %d" lo hi d)
         ops)
  in
  Test.make ~name:"rewrite_key under random range shifts" ~count:150
    (make ~print Gen.(list_size (int_bound 80) op_gen))
    (fun ops ->
      let keys =
        [
          (fun (_, a) r -> k [| V.Int a; V.Int r |]);
          (fun (p, a) r -> k [| V.Int p; V.Int a; V.Int r |]);
        ]
      in
      let trees = List.map (fun key -> (B.create ~branching:4 (), key)) keys in
      let rows = Hashtbl.create 64 and next = ref 0 in
      let expect what b = if not b then Test.fail_report what in
      (* the rows with [a] in [lo, hi], ascending by (a, rowid) *)
      let in_range lo hi =
        Hashtbl.fold
          (fun r (p, a) acc -> if a >= lo && a <= hi then (a, r, p) :: acc else acc)
          rows []
        |> List.sort compare
      in
      let rewrite t ok_key nk =
        let before = List.of_seq (B.to_seq t) in
        let did = rewrite t ~old:ok_key nk in
        let after = List.of_seq (B.to_seq t) in
        (if did then
           let replaced =
             List.map (fun (k, v) -> if k = ok_key then (nk, v) else (k, v)) before
           in
           let rec ascending = function
             | (a, _) :: ((b, _) :: _ as rest) ->
                 Bytes.compare a b < 0 && ascending rest
             | _ -> true
           in
           expect "accepted a crossing" (ascending replaced && after = replaced)
         else expect "refusal changed the tree" (after = before));
        did
      in
      List.iter
        (fun op ->
          match op with
          | `Insert (p, a) ->
              let r = !next in
              incr next;
              Hashtbl.replace rows r (p, a);
              List.iter (fun (t, key) -> B.insert t (key (p, a) r) r) trees
          | `Delete (lo, hi) ->
              List.iter
                (fun (a, r, p) ->
                  Hashtbl.remove rows r;
                  List.iter
                    (fun (t, key) -> ignore (B.delete t (key (p, a) r)))
                    trees)
                (in_range lo hi)
          | `Shift (lo, hi, d) ->
              let moved = in_range lo hi in
              let moved = if d > 0 then List.rev moved else moved in
              List.iter
                (fun (t, key) ->
                  let refused =
                    List.filter
                      (fun (a, r, p) ->
                        not (rewrite t (key (p, a) r) (key (p, a + d) r)))
                      moved
                  in
                  List.iter
                    (fun (a, r, p) -> ignore (B.delete t (key (p, a) r)))
                    refused;
                  List.iter
                    (fun (a, r, p) -> B.insert t (key (p, a + d) r) r)
                    refused)
                trees;
              List.iter (fun (a, r, p) -> Hashtbl.replace rows r (p, a + d)) moved;
              List.iter
                (fun (t, key) ->
                  expect "invariants" (B.check_invariants t = Ok ());
                  let model =
                    Hashtbl.fold (fun r pa acc -> (key pa r, r) :: acc) rows []
                    |> List.sort (fun (a, _) (b, _) -> Bytes.compare a b)
                  in
                  expect "model" (List.of_seq (B.to_seq t) = model))
                trees)
        ops;
      true)

(* The comparison every node search, seek and bound check makes tests the
   7-byte prefixes first and the bytes only on a tie: over byte strings of
   length 0-20 drawn from 00, 01, fe and ff, half of them extensions or
   truncations of the other (so prefixes tie and zero padding meets real
   zero bytes), it has the sign of [Bytes.compare], and a smaller prefix
   is always a smaller key. *)
let prop_prefix_compare =
  let open QCheck in
  let str = Gen.(map Bytes.of_string (string_size ~gen:(oneofl [ '\x00'; '\x01'; '\xfe'; '\xff' ]) (int_range 0 20))) in
  let pair =
    Gen.(
      str >>= fun a ->
      oneof
        [
          map (fun b -> (a, b)) str;
          map (fun ext -> (a, Bytes.cat a ext)) str;
          map (fun n -> (a, Bytes.sub a 0 (min n (Bytes.length a)))) (int_range 0 20);
        ])
  in
  let hex b = String.concat " " (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq b))) in
  Test.make ~name:"prefix-first comparison = Bytes.compare" ~count:5000
    (make ~print:(fun (a, b) -> hex a ^ " / " ^ hex b) pair)
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (B.compare_keys a b) = sign (Bytes.compare a b)
      && sign (B.compare_keys b a) = sign (Bytes.compare b a)
      && (B.prefix a >= B.prefix b || Bytes.compare a b < 0))

(* A prefix that no longer matches its key is a broken tree: the tree
   keeps the caller's bytes, so changing one key in place, still between
   its neighbours, leaves only its prefix wrong; [check_invariants] and
   [Table.check] (through it) refuse that. *)
let test_stale_prefix () =
  let t = B.create ~branching:4 () in
  let keys = Array.init 20 (fun i -> key1 (10 * i)) in
  Array.iteri (fun i k -> B.insert t k i) keys;
  valid t;
  Bytes.set keys.(5) 1 (Char.chr (Char.code (Bytes.get keys.(5) 1) + 1));
  (match B.check_invariants t with
  | Error m -> check bool_t ("stale prefix: " ^ m) true (Astring_contains.contains m "prefix")
  | Ok () -> Alcotest.fail "a stale prefix passed");
  let module T = Reldb.Table in
  let tbl = T.create "t" [| Reldb.Schema.column "k" V.Tint |] in
  let idx = T.create_index tbl ~name:"t_k" ~cols:[| 0 |] ~unique:true in
  for i = 0 to 9 do
    ignore (T.insert tbl [| V.Int (10 * i) |])
  done;
  check bool_t "table valid" true (T.check tbl = Ok ());
  (* the walk lends the tree's own keys *)
  B.iter idx.T.tree ~lo:B.Unbounded ~hi:B.Unbounded ~reverse:false (fun k _ ->
      if Bytes.equal k (key1 50) then Bytes.set k 1 (Char.chr (Char.code (Bytes.get k 1) + 1));
      true);
  match T.check tbl with
  | Error m -> check bool_t ("Table.check: " ^ m) true (Astring_contains.contains m "prefix")
  | Ok () -> Alcotest.fail "Table.check passed a stale prefix"

let tests =
  ( "btree",
    [
      Alcotest.test_case "insert/find" `Quick test_insert_find;
      Alcotest.test_case "duplicates" `Quick test_duplicate;
      Alcotest.test_case "delete" `Quick test_delete;
      Alcotest.test_case "range basics" `Quick test_range_basic;
      Alcotest.test_case "truncated-prefix bounds" `Quick test_truncated_bounds;
      Alcotest.test_case "cross-type ordering" `Quick test_mixed_types_order;
      Alcotest.test_case "invariants after churn" `Quick test_invariants_after_churn;
      Alcotest.test_case "stats" `Quick test_stats;
      QCheck_alcotest.to_alcotest prop_model;
      QCheck_alcotest.to_alcotest prop_desc_is_reverse;
      Alcotest.test_case "range_desc seeks inside leaves" `Quick test_desc_seek;
      Alcotest.test_case "rewrite_key in place" `Quick test_rewrite_in_place;
      Alcotest.test_case "rewrite_key refusals" `Quick test_rewrite_refusals;
      Alcotest.test_case "separators own their arrays" `Quick test_separator_ownership;
      QCheck_alcotest.to_alcotest prop_rewrite_model;
      QCheck_alcotest.to_alcotest prop_prefix_compare;
      Alcotest.test_case "a stale prefix fails the checks" `Quick test_stale_prefix;
    ] )
