(* Dewey keys: codec roundtrip, the order-isomorphism property, and the
   subtree range a path followed by ff bounds. *)

module Dw = Ordered_xml.Dewey

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let string_t = Alcotest.string

let test_to_of_string () =
  let p = [| 1; 3; 2 |] in
  check string_t "render" "1.3.2" (Dw.to_string p);
  check bool_t "parse" true (Dw.of_string "1.3.2" = p);
  (match Dw.of_string "1.x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad component accepted")

let test_navigation () =
  let p = Dw.of_string "1.2.3" in
  check bool_t "parent" true (Dw.parent p = Some [| 1; 2 |]);
  check bool_t "root parent" true (Dw.parent Dw.root = None);
  check int_t "depth" 3 (Dw.depth p);
  check int_t "last" 3 (Dw.last p);
  check bool_t "child" true (Dw.child p 7 = [| 1; 2; 3; 7 |]);
  check bool_t "with_last" true (Dw.with_last p 9 = [| 1; 2; 9 |]);
  check bool_t "prefix yes" true (Dw.is_strict_prefix [| 1; 2 |] p);
  check bool_t "prefix self" false (Dw.is_strict_prefix p p);
  check bool_t "prefix no" false (Dw.is_strict_prefix [| 1; 3 |] p)

let test_codec_classes () =
  (* one component per encoding-length class, plus boundaries *)
  let cases = [ 0; 1; 127; 128; 129; 16511; 16512; 100000; 2113663; 2113664; 10_000_000 ] in
  List.iter
    (fun c ->
      let enc = Dw.encode [| c |] in
      check bool_t (Printf.sprintf "roundtrip %d" c) true (Dw.decode enc = [| c |]))
    cases;
  check int_t "1-byte" 1 (String.length (Dw.encode_component 127));
  check int_t "2-byte" 2 (String.length (Dw.encode_component 128));
  check int_t "3-byte" 3 (String.length (Dw.encode_component 16512));
  check int_t "4-byte" 4 (String.length (Dw.encode_component 2113664));
  match Dw.encode [| Dw.max_component + 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "overflow accepted"

let test_order_cases () =
  (* the classic traps: multi-byte vs single-byte, prefix vs extension *)
  let le a b = String.compare (Dw.encode a) (Dw.encode b) < 0 in
  check bool_t "1.2 < 1.10" true (le [| 1; 2 |] [| 1; 10 |]);
  check bool_t "1.2 < 1.200" true (le [| 1; 2 |] [| 1; 200 |]);
  check bool_t "1.2.3 < 1.200" true (le [| 1; 2; 3 |] [| 1; 200 |]);
  check bool_t "prefix first" true (le [| 1 |] [| 1; 1 |]);
  check bool_t "0 level first" true (le [| 1; 0; 1 |] [| 1; 1 |]);
  check bool_t "128 boundary" true (le [| 127 |] [| 128 |]);
  check bool_t "16512 boundary" true (le [| 16511 |] [| 16512 |])

let gen_path =
  QCheck.Gen.(
    map Array.of_list
      (list_size (int_range 1 8)
         (frequency
            [ (8, int_bound 300); (2, int_bound 20000); (1, int_bound 3_000_000) ])))

let arb_path = QCheck.make ~print:Dw.to_string gen_path

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 arb_path
    (fun p -> Dw.decode (Dw.encode p) = p)

let prop_order_isomorphism =
  QCheck.Test.make ~name:"bytewise order = document order" ~count:1000
    (QCheck.pair arb_path arb_path) (fun (a, b) ->
      let c1 = compare (Dw.compare a b) 0 in
      let c2 = compare (String.compare (Dw.encode a) (Dw.encode b)) 0 in
      c1 = c2)

(* Components of every encoded length, the largest (first byte ef)
   included; a level's label is one component or an ORDPATH caret label:
   even components, then an odd one. *)
let gen_component =
  QCheck.Gen.(
    frequency
      [
        (8, int_bound 300);
        (2, int_bound 20000);
        (1, int_bound 3_000_000);
        (1, int_range (Dw.max_component - 20_000_000) Dw.max_component);
      ])

let gen_labels =
  QCheck.Gen.(
    map List.concat
      (list_size (int_range 0 4)
         (frequency
            [
              (3, map (fun c -> [ c ]) gen_component);
              ( 1,
                map2
                  (fun evens c -> List.map (fun e -> e land lnot 1) evens @ [ c lor 1 ])
                  (list_size (int_range 1 3) gen_component)
                  gen_component );
            ])))

(* [a] from the root, possibly ending in an attribute level [0; j]; [b]
   is [a], an extension of [a], or shares a prefix of [a] *)
let gen_subtree_pair =
  QCheck.Gen.(
    let path =
      map2 (fun l attr -> Array.of_list ((1 :: l) @ attr)) gen_labels
        (oneof [ return []; map (fun j -> [ 0; j + 1 ]) (int_bound 5) ])
    in
    path >>= fun a ->
    let n = Array.length a in
    map (fun b -> (a, b))
      (oneof
         [
           return a;
           map (fun l -> Array.append a (Array.of_list l)) gen_labels;
           map2
             (fun k l -> Array.append (Array.sub a 0 (1 + (k mod n))) (Array.of_list l))
             nat gen_labels;
           path;
         ]))

let prop_subtree_bound =
  QCheck.Test.make ~name:"subtree iff within [p, p ^ ff)" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Dw.to_string a ^ " / " ^ Dw.to_string b) gen_subtree_pair)
    (fun (a, b) ->
      let ea = Dw.encode a and eb = Dw.encode b in
      let bound = ea ^ "\xff" in
      let in_subtree = a = b || Dw.is_strict_prefix a b in
      let inside = String.compare ea eb <= 0 && String.compare eb bound < 0 in
      (* and a later path outside the subtree is above the bound *)
      inside = in_subtree && (in_subtree || Dw.compare b a < 0 || String.compare eb bound > 0))

let prop_parent_prefix =
  QCheck.Test.make ~name:"parent is the immediate prefix" ~count:300 arb_path
    (fun p ->
      match Dw.parent p with
      | None -> Dw.depth p <= 1
      | Some par ->
          Dw.is_strict_prefix par p
          && Dw.depth par = Dw.depth p - 1
          && Dw.child par (Dw.last p) = p)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:300 arb_path
    (fun p -> Dw.of_string (Dw.to_string p) = p)

let tests =
  ( "dewey",
    [
      Alcotest.test_case "string form" `Quick test_to_of_string;
      Alcotest.test_case "navigation" `Quick test_navigation;
      Alcotest.test_case "codec classes" `Quick test_codec_classes;
      Alcotest.test_case "ordering traps" `Quick test_order_cases;
      QCheck_alcotest.to_alcotest prop_roundtrip;
      QCheck_alcotest.to_alcotest prop_order_isomorphism;
      QCheck_alcotest.to_alcotest prop_subtree_bound;
      QCheck_alcotest.to_alcotest prop_parent_prefix;
      QCheck_alcotest.to_alcotest prop_string_roundtrip;
    ] )
