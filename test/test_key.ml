(* Index keys as byte strings: the exact int/float order they encode, the
   order property of the encoding, and bottom-up index builds. *)

module V = Reldb.Value
module K = Reldb.Key
module Tu = Reldb.Tuple

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let sign x = if x < 0 then -1 else if x > 0 then 1 else 0

(* Int against Float compares exactly: float_of_int would round 2^53 + 1
   down to 2^53 and make the order intransitive. *)
let test_int_float_exact () =
  let p53 = 1 lsl 53 and f53 = 0x1p53 in
  let cmp what expect a b =
    check int_t what expect (sign (V.compare a b));
    check int_t (what ^ ", swapped") (-expect) (sign (V.compare b a))
  in
  cmp "2^53 + 1 > 2^53.0" 1 (V.Int (p53 + 1)) (V.Float f53);
  cmp "2^53 - 1 < 2^53.0" (-1) (V.Int (p53 - 1)) (V.Float f53);
  cmp "2^53 = 2^53.0" 0 (V.Int p53) (V.Float f53);
  cmp "max_int < 2^62.0" (-1) (V.Int max_int) (V.Float (float_of_int max_int));
  cmp "min_int = -2^62.0" 0 (V.Int min_int) (V.Float (-0x1p62));
  cmp "min_int > the float below it" 1 (V.Int min_int) (V.Float (Float.pred (-0x1p62)));
  cmp "3 > 2.5" 1 (V.Int 3) (V.Float 2.5);
  cmp "-3 < -2.5" (-1) (V.Int (-3)) (V.Float (-2.5));
  cmp "NaN below every int" 1 (V.Int min_int) (V.Float nan);
  cmp "-infinity below every int" 1 (V.Int min_int) (V.Float neg_infinity);
  (* transitive: 2^53 + 1 > 2^53.0 = 2^53 *)
  check bool_t "transitive" true
    (V.compare (V.Int (p53 + 1)) (V.Float f53) > 0 && V.equal (V.Float f53) (V.Int p53));
  List.iter
    (fun (a, b) ->
      check bool_t "equal values hash alike" true (V.equal a b && V.hash a = V.hash b))
    [ (V.Int p53, V.Float f53); (V.Int min_int, V.Float (-0x1p62)); (V.Int 0, V.Float (-0.0)) ]

(* values that sit where encodings meet: tags, lengths, fractions, the
   int range's ends, escapes *)
let value =
  let open QCheck.Gen in
  let special_int =
    oneofl
      [ 0; 1; -1; 255; 256; -256; -257; 65535; 65536; (1 lsl 53) - 1; 1 lsl 53; (1 lsl 53) + 1;
        max_int; min_int; max_int - 1; min_int + 1 ]
  and special_float =
    oneofl
      [ 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 0.5; -0.5; 1.5; -1.5; 0x1p53; 0x1p62;
        -0x1p62; Float.pred (-0x1p62); Float.succ 0x1p62; 1e300; -1e300; max_float; -.max_float;
        Float.min_float; 255.5; 256.25 ]
  and bytes = string_size ~gen:(oneofl [ '\000'; '\001'; 'a'; '\xfe'; '\xff' ]) (int_range 0 4) in
  oneof
    [
      return V.Null;
      map (fun i -> V.Int i) (oneof [ special_int; int_range (-300) 300; int ]);
      map
        (fun f -> V.Float f)
        (oneof
           [ special_float; float; map (fun i -> float_of_int i /. 4.) (int_range (-1200) 1200) ]);
      (* an int and its float twin *)
      map (fun i -> V.Float (float_of_int i)) (oneof [ special_int; int_range (-300) 300 ]);
      map (fun s -> V.Str s) bytes;
      map (fun s -> V.Bytes s) bytes;
    ]

let tuple = QCheck.Gen.(array_size (int_range 0 3) value)

(* The encoding orders tuples as Tuple.compare_key does, a prefix of a
   tuple encodes to a prefix of its bytes, and [size] is the length [write]
   fills. Tuples often share a first value, so later columns decide. *)
let prop_order =
  let gen =
    QCheck.Gen.(
      pair tuple tuple >>= fun (a, b) ->
      map
        (fun share ->
          if share && Array.length a > 0 && Array.length b > 0 then
            (a, Array.append [| a.(0) |] (Array.sub b 1 (Array.length b - 1)))
          else (a, b))
        bool)
  in
  let print (a, b) = Printf.sprintf "%s / %s" (Tu.to_string a) (Tu.to_string b) in
  QCheck.Test.make ~name:"key bytes order as compare_key" ~count:5000
    (QCheck.make ~print gen)
    (fun (a, b) ->
      let ea = K.encode a and eb = K.encode b in
      let prefix t e =
        let n = Array.length t in
        List.for_all
          (fun k ->
            let p = K.encode (Array.sub t 0 k) in
            Bytes.length p <= Bytes.length e && Bytes.equal p (Bytes.sub e 0 (Bytes.length p)))
          (List.init (n + 1) Fun.id)
      in
      sign (Bytes.compare ea eb) = sign (Tu.compare_key a b)
      && prefix a ea && prefix b eb
      && Array.for_all (fun v -> K.write (Bytes.create (K.size v + 9)) 0 v = K.size v) a)

(* PREFIX_END keeps exactly the keys whose first value equals the prefix's *)
let prop_prefix_end =
  let gen = QCheck.Gen.pair value tuple in
  let print (v, b) = Printf.sprintf "%s / %s" (V.to_string v) (Tu.to_string b) in
  QCheck.Test.make ~name:"prefix_end bounds a prefix's extensions" ~count:3000
    (QCheck.make ~print gen)
    (fun (v, b) ->
      let p = K.encode [| v |] and k = K.encode b in
      let within = Bytes.compare p k <= 0 && Bytes.compare k (K.prefix_end p) < 0 in
      within = (Array.length b > 0 && V.equal b.(0) v))

(* Every index of a shredded document, built bottom-up from its sorted
   keys, holds the entries a row-by-row build of the same rows holds, and
   is a valid tree, on all five encodings. *)
let test_bulk_equals_rows () =
  let module O = Ordered_xml in
  let doc = O.Workload.dataset ~scale:1 in
  List.iter
    (fun enc ->
      let bulk = Reldb.Db.create () and rows = Reldb.Db.create () in
      ignore (O.Shred.shred bulk ~doc:"d" enc doc);
      O.Encoding.create_tables rows ~doc:"d" enc;
      let name = O.Encoding.table_name ~doc:"d" enc in
      let tb = Reldb.Db.table bulk name and tr = Reldb.Db.table rows name in
      Seq.iter
        (fun (_, tu) -> ignore (Reldb.Table.insert tr tu))
        (Reldb.Table.scan tb);
      let what = O.Encoding.name enc in
      List.iter2
        (fun (ib : Reldb.Table.index) (ir : Reldb.Table.index) ->
          let w = what ^ " " ^ ib.Reldb.Table.idx_name in
          check bool_t (w ^ ": valid") true
            (Reldb.Btree.check_invariants ib.Reldb.Table.tree = Ok ());
          check bool_t (w ^ ": same entries") true
            (List.of_seq (Reldb.Btree.to_seq ib.Reldb.Table.tree)
            = List.of_seq (Reldb.Btree.to_seq ir.Reldb.Table.tree));
          let s = Reldb.Btree.stats ib.Reldb.Table.tree in
          check bool_t (w ^ ": leaves filled") true (s.Reldb.Btree.occupancy > 0.9))
        (Reldb.Table.indexes tb) (Reldb.Table.indexes tr);
      check bool_t (what ^ ": Db.check") true (Reldb.Db.check bulk = Ok ()))
    O.Encoding.all

(* A bulk load refuses a duplicate of a unique index with the violation a
   row-by-row load raises (the same row, the same index), and loads
   nothing; schema errors keep their order against it too. *)
let test_bulk_refusals () =
  let load rows ~bulk =
    let db = Reldb.Db.create () in
    List.iter
      (fun s -> ignore (Reldb.Db.exec db s))
      [ "CREATE TABLE t (a INT NOT NULL, b TEXT)"; "CREATE UNIQUE INDEX t_b ON t (b)";
        "CREATE UNIQUE INDEX t_a ON t (a)"; "CREATE INDEX t_ba ON t (b, a)" ];
    if not bulk then ignore (Reldb.Db.insert_many db "t" [ [| V.Int (-1); V.Str "seed" |] ]);
    let r =
      match Reldb.Db.insert_many db "t" rows with
      | _ -> "ok"
      | exception Reldb.Db.Sql_error m -> m
    in
    let n = Reldb.Table.row_count (Reldb.Db.table db "t") - if bulk then 0 else 1 in
    (r, n, Reldb.Db.check db = Ok ())
  in
  let row a b = [| V.Int a; (match b with Some b -> V.Str b | None -> V.Null) |] in
  List.iter
    (fun (what, rows) ->
      let m, n, ok = load rows ~bulk:true and m', n', ok' = load rows ~bulk:false in
      check Alcotest.string (what ^ ": message") m' m;
      check int_t (what ^ ": rows") n' n;
      check bool_t (what ^ ": Db.check") true (ok && ok'))
    [
      ("no duplicate", [ row 1 (Some "x"); row 2 (Some "y"); row 3 None ]);
      ("two NULLs", [ row 1 (Some "x"); row 3 None; row 4 None ]);
      ("duplicate a", [ row 1 (Some "x"); row 2 (Some "y"); row 1 (Some "z") ]);
      ( "duplicate b first",
        [ row 5 (Some "x"); row 2 (Some "y"); row 7 (Some "y"); row 5 (Some "w") ] );
      ("duplicate a first", [ row 5 (Some "x"); row 5 (Some "y"); row 7 (Some "x") ]);
      ("same row, both", [ row 1 (Some "x"); row 1 (Some "x") ]);
      ("schema after a duplicate", [ row 1 (Some "x"); row 1 (Some "y"); [| V.Null; V.Null |] ]);
      ("schema before a duplicate", [ row 1 (Some "x"); [| V.Null; V.Null |]; row 1 (Some "y") ]);
    ]

(* A walk with a hint visits what a walk without one visits: one hint is
   shared by every walk while the tree takes inserts (splits), deletes
   (emptied leaves) and a rebuild (the hint's leaves leave the tree). *)
let prop_hint =
  let module B = Reldb.Btree in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> `Insert k) (int_bound 200));
          (2, map (fun k -> `Delete k) (int_bound 200));
          (6, map3 (fun a b x -> `Walk (a, b, x)) (int_bound 210) (int_bound 12) bool);
          (1, return `Rebuild);
        ])
  in
  QCheck.Test.make ~name:"hinted walks = unhinted walks" ~count:300
    QCheck.(make Gen.(list_size (int_bound 200) op))
    (fun ops ->
      let t = B.create ~branching:4 () and hint = B.hint () in
      let key i = K.encode [| V.Int (i / 3); V.Str (String.make (i mod 3) 'a') |] in
      let walk ?hint lo hi =
        let acc = ref [] in
        B.iter ?hint t ~lo ~hi ~reverse:false (fun _ v -> acc := v :: !acc; true);
        !acc
      in
      List.for_all
        (function
          | `Insert k -> if B.find t (key k) = None then B.insert t (key k) k; true
          | `Delete k -> ignore (B.delete t (key k)); true
          | `Rebuild ->
              let entries = Array.of_seq (B.to_seq t) in
              B.build t (Array.length entries)
                (fun i -> fst entries.(i))
                (fun i -> snd entries.(i));
              B.check_invariants t = Ok ()
          | `Walk (a, n, strict) ->
              let p = K.encode [| V.Int (a / 3) |] in
              let lo = if strict then B.Incl (K.prefix_end p) else B.Incl (key a) in
              let hi = B.Excl (key (a + n)) in
              walk ~hint lo hi = walk lo hi)
        ops)

let tests =
  ( "key",
    [
      Alcotest.test_case "int/float compare exactly" `Quick test_int_float_exact;
      QCheck_alcotest.to_alcotest prop_order;
      QCheck_alcotest.to_alcotest prop_prefix_end;
      QCheck_alcotest.to_alcotest prop_hint;
      Alcotest.test_case "bulk build equals row by row" `Quick test_bulk_equals_rows;
      Alcotest.test_case "bulk load refusals" `Quick test_bulk_refusals;
    ] )
