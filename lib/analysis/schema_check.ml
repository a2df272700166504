module A = Ordered_xml.Xpath_ast
module Dtd = Xmllib.Dtd

(* ------------------------------------------------------------------ *)
(* Cardinality lattice                                                 *)
(* ------------------------------------------------------------------ *)

type card = Zero | One | Many

let card_add a b = match (a, b) with Zero, x | x, Zero -> x | _ -> Many

let card_mul a b =
  match (a, b) with Zero, _ | _, Zero -> Zero | One, One -> One | _ -> Many

let card_max a b =
  match (a, b) with
  | Many, _ | _, Many -> Many
  | One, _ | _, One -> One
  | Zero, Zero -> Zero

let card_le_one = function Zero | One -> true | Many -> false

let card_of_bounds (_mn, mx) =
  match mx with Some 0 -> Zero | Some 1 -> One | _ -> Many

(* ------------------------------------------------------------------ *)
(* Reachability graph                                                  *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

type graph = {
  dtd : Dtd.t;
  roots : string list;  (* possible document root elements *)
  reachable : SSet.t;  (* declared elements reachable from the roots *)
  edges : (string, (string * (int * int option)) list) Hashtbl.t;
      (* parent -> per-child occurrence bounds (declared children only) *)
  rev : (string, SSet.t) Hashtbl.t;  (* child -> declared parents *)
  occ : (string, card) Hashtbl.t;  (* per-document occurrence bound *)
}

let default_roots dtd =
  let names = List.sort_uniq compare (Dtd.element_names dtd) in
  let as_child =
    List.fold_left
      (fun acc e ->
        List.fold_left
          (fun acc (c, _) -> SSet.add c acc)
          acc (Dtd.child_bounds dtd e))
      SSet.empty names
  in
  (* a document root is an element no content model mentions; recursive or
     ANY-heavy DTDs may leave none, in which case any element may be root *)
  match List.filter (fun e -> not (SSet.mem e as_child)) names with
  | [] -> names
  | rs -> rs

let graph ?roots dtd =
  let declared n = Dtd.content_of dtd n <> None in
  let roots =
    match roots with
    | Some rs -> List.sort_uniq compare (List.filter declared rs)
    | None -> default_roots dtd
  in
  let edges = Hashtbl.create 16 and rev = Hashtbl.create 16 in
  (* BFS over declared-child edges; undeclared names in content models are
     validation errors, so valid documents never contain them *)
  let rec visit seen = function
    | [] -> seen
    | e :: rest when SSet.mem e seen -> visit seen rest
    | e :: rest ->
        let bounds =
          List.filter
            (fun (c, b) -> declared c && card_of_bounds b <> Zero)
            (Dtd.child_bounds dtd e)
        in
        Hashtbl.replace edges e bounds;
        List.iter
          (fun (c, _) ->
            let ps =
              Option.value (Hashtbl.find_opt rev c) ~default:SSet.empty
            in
            Hashtbl.replace rev c (SSet.add e ps))
          bounds;
        visit (SSet.add e seen) (List.map fst bounds @ rest)
  in
  let reachable = visit SSet.empty roots in
  (* per-document occurrence bound: a monotone fixpoint over the finite
     lattice; recursion saturates to Many *)
  let occ = Hashtbl.create 16 in
  let get e = Option.value (Hashtbl.find_opt occ e) ~default:Zero in
  let changed = ref true in
  while !changed do
    changed := false;
    SSet.iter
      (fun e ->
        let from_root = if List.mem e roots then One else Zero in
        let v =
          SSet.fold
            (fun p acc ->
              let eb =
                match
                  List.assoc_opt e
                    (Option.value (Hashtbl.find_opt edges p) ~default:[])
                with
                | Some b -> card_of_bounds b
                | None -> Zero
              in
              card_add acc (card_mul (get p) eb))
            (Option.value (Hashtbl.find_opt rev e) ~default:SSet.empty)
            from_root
        in
        if v <> get e then begin
          Hashtbl.replace occ e v;
          changed := true
        end)
      reachable
  done;
  { dtd; roots; reachable; edges; rev; occ }

let graph_roots g = g.roots
let graph_reachable g = SSet.elements g.reachable
let occurrence g e = Option.value (Hashtbl.find_opt g.occ e) ~default:Zero
let edge_bounds g p = Option.value (Hashtbl.find_opt g.edges p) ~default:[]

let edge_card g p c =
  match List.assoc_opt c (edge_bounds g p) with
  | Some b -> card_of_bounds b
  | None -> Zero

let elem_parents g c =
  Option.value (Hashtbl.find_opt g.rev c) ~default:SSet.empty

(* ------------------------------------------------------------------ *)
(* Abstract node kinds and axis transitions                            *)
(* ------------------------------------------------------------------ *)

(* Where can a step land? [K_root] is the virtual document root — only ever
   a context, never a result (it is not a row; [parent IS NULL] marks the
   root element). Text/comment/PI kinds carry their owner element; the
   validator permits comments and PIs anywhere except under EMPTY content
   and text only under mixed/ANY content. *)
type kind =
  | K_root
  | K_elem of string
  | K_text of string
  | K_comment of string
  | K_pi of string
  | K_attr of string * string  (* owner element, attribute name *)

module KSet = Set.Make (struct
  type t = kind

  let compare = compare
end)

let kset_of_list l = List.fold_left (fun s k -> KSet.add k s) KSet.empty l

let children_of_kind g = function
  | K_root -> List.map (fun r -> K_elem r) g.roots
  | K_elem e ->
      let elems = List.map (fun (c, _) -> K_elem c) (edge_bounds g e) in
      let extra = if Dtd.allows_text g.dtd e then [ K_text e ] else [] in
      let extra =
        if Dtd.allows_comments g.dtd e then K_comment e :: K_pi e :: extra
        else extra
      in
      elems @ extra
  | K_text _ | K_comment _ | K_pi _ | K_attr _ -> []

let parents_of_kind g = function
  | K_root -> []
  | K_elem e ->
      (* the document root element has no parent row, so [K_root] is never
         a parent-axis result *)
      SSet.fold (fun p acc -> K_elem p :: acc) (elem_parents g e) []
  | K_text e | K_comment e | K_pi e | K_attr (e, _) -> [ K_elem e ]

let closure next start =
  let rec go seen = function
    | [] -> seen
    | k :: rest ->
        if KSet.mem k seen then go seen rest
        else go (KSet.add k seen) (next k @ rest)
  in
  go KSet.empty start

let descendants g ks =
  closure (children_of_kind g)
    (KSet.fold (fun k acc -> children_of_kind g k @ acc) ks [])

let ancestors g ks =
  closure (parents_of_kind g)
    (KSet.fold (fun k acc -> parents_of_kind g k @ acc) ks [])

let siblings g ks =
  KSet.fold
    (fun k acc ->
      match k with
      | K_root | K_attr _ -> acc (* attributes have no siblings *)
      | K_elem _ | K_text _ | K_comment _ | K_pi _ ->
          List.fold_left
            (fun acc p ->
              List.fold_left
                (fun acc c -> KSet.add c acc)
                acc (children_of_kind g p))
            acc (parents_of_kind g k))
    ks KSet.empty

let axis_kinds g (axis : A.axis) ks =
  match axis with
  | A.Self -> ks
  | A.Child ->
      KSet.fold
        (fun k acc -> KSet.union acc (kset_of_list (children_of_kind g k)))
        ks KSet.empty
  | A.Attribute ->
      KSet.fold
        (fun k acc ->
          match k with
          | K_elem e ->
              List.fold_left
                (fun acc (n, _) -> KSet.add (K_attr (e, n)) acc)
                acc
                (Dtd.attributes_of g.dtd e)
          | _ -> acc)
        ks KSet.empty
  | A.Parent ->
      KSet.fold
        (fun k acc -> KSet.union acc (kset_of_list (parents_of_kind g k)))
        ks KSet.empty
  | A.Descendant -> descendants g ks
  | A.Descendant_or_self -> KSet.union ks (descendants g ks)
  | A.Ancestor -> ancestors g ks
  | A.Ancestor_or_self -> KSet.union ks (ancestors g ks)
  | A.Following_sibling | A.Preceding_sibling -> siblings g ks
  | A.Following | A.Preceding ->
      (* over-approximation: any non-attribute node in the document; exact
         narrowing happens in the strength-reduction pass *)
      if KSet.is_empty (KSet.remove K_root ks) then KSet.empty
      else descendants g (KSet.singleton K_root)

let test_filter (axis : A.axis) (test : A.node_test) ks =
  KSet.filter
    (fun k ->
      match (axis, test, k) with
      | A.Attribute, A.Name n, K_attr (_, a) -> a = n
      | A.Attribute, (A.Any_name | A.Node_test), K_attr _ -> true
      | A.Attribute, _, _ -> false
      | _, A.Name n, K_elem e -> e = n
      | _, A.Any_name, K_elem _ -> true
      | _, A.Text_test, K_text _ -> true
      | _, A.Comment_test, K_comment _ -> true
      | _, A.Node_test, (K_elem _ | K_text _ | K_comment _ | K_pi _) -> true
      | _ -> false)
    ks

let raw_target g ks (s : A.step) =
  test_filter s.A.axis s.A.test (axis_kinds g s.A.axis ks)

(* ------------------------------------------------------------------ *)
(* Per-context-node result cardinality of a step                       *)
(* ------------------------------------------------------------------ *)

let text_card g e = if Dtd.allows_text g.dtd e then Many else Zero
let comment_card g e = if Dtd.allows_comments g.dtd e then Many else Zero

let child_elem_card g e =
  List.fold_left
    (fun acc (_, b) -> card_add acc (card_of_bounds b))
    Zero (edge_bounds g e)

(* how many descendants named [n] can one instance of each element have?
   D(e) = sum over edges e->c of card(edge) * ((c = n) + D(c)); monotone,
   saturates to Many through recursion *)
let desc_name_card g n =
  let d = Hashtbl.create 16 in
  let get e = Option.value (Hashtbl.find_opt d e) ~default:Zero in
  let changed = ref true in
  while !changed do
    changed := false;
    SSet.iter
      (fun e ->
        let v =
          List.fold_left
            (fun acc (c, b) ->
              card_add acc
                (card_mul (card_of_bounds b)
                   (card_add (if c = n then One else Zero) (get c))))
            Zero (edge_bounds g e)
        in
        if v <> get e then begin
          Hashtbl.replace d e v;
          changed := true
        end)
      g.reachable
  done;
  get

let step_card g ctx (s : A.step) =
  let over f = KSet.fold (fun k acc -> card_max acc (f k)) ctx Zero in
  match s.A.axis with
  | A.Self | A.Parent -> One
  | A.Attribute -> (
      match s.A.test with
      | A.Name _ -> One
      | A.Any_name | A.Node_test ->
          over (function
            | K_elem e -> (
                match List.length (Dtd.attributes_of g.dtd e) with
                | 0 -> Zero
                | 1 -> One
                | _ -> Many)
            | _ -> Zero)
      | A.Text_test | A.Comment_test -> Zero)
  | A.Child ->
      over (fun k ->
        match (k, s.A.test) with
        | K_root, (A.Name _ | A.Any_name | A.Node_test) ->
            One (* the one root element *)
        | K_root, (A.Text_test | A.Comment_test) -> Zero
        | K_elem e, A.Name n -> edge_card g e n
        | K_elem e, A.Any_name -> child_elem_card g e
        (* comments may split adjacent text nodes, so text under mixed
           content is Many even for pure (#PCDATA) *)
        | K_elem e, A.Text_test -> text_card g e
        | K_elem e, A.Comment_test -> comment_card g e
        | K_elem e, A.Node_test ->
            card_add (child_elem_card g e)
              (card_add (text_card g e) (comment_card g e))
        | _ -> Zero)
  | A.Descendant -> (
      match s.A.test with
      | A.Name n ->
          let d = desc_name_card g n in
          over (function
            | K_root ->
                (* one root element per document: max, not sum *)
                List.fold_left
                  (fun acc r ->
                    card_max acc
                      (card_add (if r = n then One else Zero) (d r)))
                  Zero g.roots
            | K_elem e -> d e
            | _ -> Zero)
      | _ -> Many)
  | A.Descendant_or_self | A.Following_sibling | A.Preceding_sibling
  | A.Following | A.Preceding | A.Ancestor | A.Ancestor_or_self ->
      Many

(* upper bound on results of a relative path per context node (ignores
   predicates, which only filter) *)
let path_card g ctx (p : A.path) =
  let rec go ctx acc = function
    | [] -> acc
    | s :: rest ->
        let ts = raw_target g ctx s in
        if KSet.is_empty ts then Zero
        else go ts (card_mul acc (step_card g ctx s)) rest
  in
  go ctx One p.A.steps

(* ------------------------------------------------------------------ *)
(* Three-valued static predicate evaluation                            *)
(* ------------------------------------------------------------------ *)

type tri = T_true | T_false | T_unknown

let tri_not = function
  | T_true -> T_false
  | T_false -> T_true
  | T_unknown -> T_unknown

let tri_and a b =
  match (a, b) with
  | T_false, _ | _, T_false -> T_false
  | T_true, T_true -> T_true
  | _ -> T_unknown

let tri_or a b =
  match (a, b) with
  | T_true, _ | _, T_true -> T_true
  | T_false, T_false -> T_false
  | _ -> T_unknown

let of_bool b = if b then T_true else T_false

let cmp_int (op : A.cmp) a b =
  match op with
  | A.Eq -> a = b
  | A.Ne -> a <> b
  | A.Lt -> a < b
  | A.Le -> a <= b
  | A.Gt -> a > b
  | A.Ge -> a >= b

(* the node set a value comparison actually reads: element results compare
   via their text children (the translator's string-value convention) *)
let value_set g ts (p : A.path) =
  let selects_elements =
    match List.rev p.A.steps with
    | last :: _ -> (
        match (last.A.axis, last.A.test) with
        | A.Attribute, _ -> false
        | _, (A.Name _ | A.Any_name | A.Node_test) -> true
        | _, (A.Text_test | A.Comment_test) -> false)
    | [] -> true
  in
  if selects_elements then
    raw_target g ts { A.axis = A.Child; test = A.Text_test; preds = [] }
  else ts

let rec steps_target g ctx steps =
  List.fold_left
    (fun ts (s : A.step) ->
      if KSet.is_empty ts then ts
      else
        let out = raw_target g ts s in
        if KSet.is_empty out then out
        else
          let single = card_le_one (step_card g ts s) in
          if
            List.exists
              (fun p -> pred_static g out ~single p = T_false)
              s.A.preds
          then KSet.empty
          else out)
    ctx steps

and pred_static g ctx ~single (p : A.predicate) =
  match p with
  | A.P_pos (op, k) -> if single then of_bool (cmp_int op 1 k) else T_unknown
  | A.P_last -> if single then T_true else T_unknown
  | A.P_exists pth ->
      if KSet.is_empty (steps_target g ctx pth.A.steps) then T_false
      else T_unknown
  | A.P_cmp (pth, _, _) ->
      let ts = steps_target g ctx pth.A.steps in
      if KSet.is_empty ts || KSet.is_empty (value_set g ts pth) then T_false
      else T_unknown
  | A.P_count (pth, op, k) -> (
      let ts = steps_target g ctx pth.A.steps in
      let decide lo hi =
        (* count ranges over [lo..hi]; hi < 0 means unbounded *)
        let outcomes =
          List.init
            (if hi < 0 then 0 else hi - lo + 1)
            (fun i -> cmp_int op (lo + i) k)
        in
        if hi < 0 then
          (* unbounded: only universally monotone forms decide *)
          match op with
          | A.Ge when k <= lo -> T_true
          | A.Gt when k < lo -> T_true
          | A.Ne when k < lo -> T_true
          | A.Lt when k <= lo -> T_false
          | A.Le when k < lo -> T_false
          | A.Eq when k < lo -> T_false
          | _ -> T_unknown
        else if List.for_all Fun.id outcomes then T_true
        else if List.for_all not outcomes then T_false
        else T_unknown
      in
      if KSet.is_empty ts then of_bool (cmp_int op 0 k)
      else
        match path_card g ctx pth with
        | Zero -> of_bool (cmp_int op 0 k)
        | One -> decide 0 1
        | Many -> decide 0 (-1))
  | A.P_and (a, b) ->
      tri_and (pred_static g ctx ~single a) (pred_static g ctx ~single b)
  | A.P_or (a, b) ->
      tri_or (pred_static g ctx ~single a) (pred_static g ctx ~single b)
  | A.P_not a -> tri_not (pred_static g ctx ~single a)

(* simplify a predicate, dropping statically-decided subterms *)
let rec simp_pred g ctx ~single (p : A.predicate) =
  match p with
  | A.P_and (a, b) -> (
      match (simp_pred g ctx ~single a, simp_pred g ctx ~single b) with
      | `False, _ | _, `False -> `False
      | `True, x | x, `True -> x
      | `Keep a', `Keep b' -> `Keep (A.P_and (a', b')))
  | A.P_or (a, b) -> (
      match (simp_pred g ctx ~single a, simp_pred g ctx ~single b) with
      | `True, _ | _, `True -> `True
      | `False, x | x, `False -> x
      | `Keep a', `Keep b' -> `Keep (A.P_or (a', b')))
  | A.P_not a -> (
      match simp_pred g ctx ~single a with
      | `True -> `False
      | `False -> `True
      | `Keep a' -> `Keep (A.P_not a'))
  | p -> (
      match pred_static g ctx ~single p with
      | T_true -> `True
      | T_false -> `False
      | T_unknown -> `Keep p)

(* ------------------------------------------------------------------ *)
(* Axis strength reduction                                             *)
(* ------------------------------------------------------------------ *)

let max_chain_len = 12

(* elements from which [n] is reachable via child edges *)
let can_reach g n =
  let rec go seen = function
    | [] -> seen
    | e :: rest when SSet.mem e seen -> go seen rest
    | e :: rest ->
        go (SSet.add e seen)
          (SSet.elements (elem_parents g e) @ rest)
  in
  go SSet.empty (SSet.elements (elem_parents g n))

exception Give_up

(* Every label chain from the start kinds down to [n]. Fails (None) when
   [n] can recur below itself (matches at several depths), when more than
   one distinct chain exists, or when a chain is oversized. Also returns
   the saturated product of the edge cardinalities excluding the final
   edge into [n]: when that product is One, each context node has at most
   one instance of the chain's parent, so positions inside the rewritten
   child chain group exactly as descendant positions did. *)
let chains_to g starts n =
  if SSet.mem n (can_reach g n) then None
  else begin
    let reach = can_reach g n in
    let chains = ref [] and inter_card = ref Zero in
    let record labels card =
      if not (List.mem labels !chains) then chains := labels :: !chains;
      if List.length !chains > 1 then raise Give_up;
      inter_card := card_max !inter_card card
    in
    let rec dfs labels stack card e =
      if List.length labels > max_chain_len then raise Give_up;
      if e = n then record labels card
        (* nothing below [n] can reach [n] again: stop descending *)
      else
        List.iter
          (fun (c, b) ->
            if c = n || SSet.mem c reach then begin
              if List.mem c stack then raise Give_up;
              let card' =
                if c = n then card else card_mul card (card_of_bounds b)
              in
              dfs (labels @ [ c ]) (c :: stack) card' c
            end)
          (edge_bounds g e)
    in
    let enter card c = dfs [ c ] [ c ] card c in
    try
      KSet.iter
        (fun k ->
          match k with
          | K_root ->
              List.iter
                (fun r -> if r = n || SSet.mem r reach then enter One r)
                g.roots
          | K_elem e ->
              List.iter
                (fun (c, b) ->
                  if c = n || SSet.mem c reach then
                    enter (if c = n then One else card_of_bounds b) c)
                (edge_bounds g e)
          | K_text _ | K_comment _ | K_pi _ | K_attr _ -> ())
        starts;
      match !chains with
      | [ chain ] -> Some (chain, !inter_card)
      | _ -> None
    with Give_up -> None
  end

(* descendant::n -> child chain when every DTD path from the context to [n]
   has one fixed label sequence *)
let reduce_descendant g ctx (s : A.step) =
  match (s.A.axis, s.A.test) with
  | A.Descendant, A.Name n -> (
      match chains_to g ctx n with
      | Some (chain, inter) ->
          (* the product of the intermediate edge cardinalities must be One
             for positional predicates to keep their groups *)
          if A.step_has_positional s && not (card_le_one inter) then None
          else
            let prefix =
              List.filteri (fun i _ -> i < List.length chain - 1) chain
            in
            Some (A.child_chain prefix @ [ { s with A.axis = A.Child } ])
      | None -> None)
  | _ -> None

(* following::n / preceding::n -> the sibling axis when schema proves every
   instance of [n] and every context node share the one instance of a
   single parent element *)
let reduce_following g ctx (s : A.step) =
  let sibling_axis =
    match s.A.axis with
    | A.Following -> Some A.Following_sibling
    | A.Preceding -> Some A.Preceding_sibling
    | _ -> None
  in
  match (sibling_axis, s.A.test) with
  | Some axis, A.Name n when not (KSet.is_empty ctx) ->
      let all_elems =
        KSet.for_all (function K_elem _ -> true | _ -> false) ctx
      in
      if not all_elems then None
      else
        let parents =
          KSet.fold
            (fun k acc ->
              match k with
              | K_elem e -> SSet.union acc (elem_parents g e)
              | _ -> acc)
            ctx (elem_parents g n)
        in
        (match SSet.elements parents with
        | [ p ] when card_le_one (occurrence g p) ->
            Some { s with A.axis = axis }
        | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The analysis driver                                                 *)
(* ------------------------------------------------------------------ *)

type result = { findings : Finding.t list; rewritten : A.path; satisfiable : bool }

let analyze g (path : A.path) =
  let findings = ref [] in
  let note f = findings := f :: !findings in
  let unsat = ref None in
  (* both translators evaluate relative paths from the document root too *)
  let rec walk ctx acc idx = function
    | [] -> List.rev acc
    | (s : A.step) :: rest when !unsat = None -> begin
        (* pass 3: axis strength reduction (produces plain child /
           sibling steps that the passes below then process) *)
        match reduce_descendant g ctx s with
        | Some steps ->
            note
              (Finding.info "schema-axis"
                 "step %d: descendant::%s has one DTD shape; rewritten \
                  to the child chain %s"
                 idx (A.test_name s.A.test)
                 (String.concat "/" (List.map A.step_to_string steps)));
            walk ctx acc idx (steps @ rest)
        | None -> (
            match reduce_following g ctx s with
            | Some s' ->
                note
                  (Finding.info "schema-axis"
                     "step %d: the schema confines %s::%s to the \
                      context's parent; narrowed to %s::"
                     idx (A.axis_name s.A.axis) (A.test_name s.A.test)
                     (A.axis_name s'.A.axis));
                walk ctx acc idx (s' :: rest)
            | None ->
                (* pass 1: satisfiability *)
                let first_ok =
                  idx > 1
                  ||
                  match s.A.axis with
                  | A.Child | A.Descendant | A.Descendant_or_self -> true
                  | _ -> false
                in
                let ts =
                  if first_ok then raw_target g ctx s else KSet.empty
                in
                if KSet.is_empty ts then begin
                  unsat :=
                    Some
                      (Finding.error "schema-unsat"
                         "step %d (%s): no document valid under the DTD \
                          has nodes matching this step"
                         idx (A.step_to_string s));
                  List.rev acc
                end
                else begin
                  (* pass 2: cardinality — a provably-singleton step
                     makes position() = last() = 1 *)
                  let single = card_le_one (step_card g ctx s) in
                  let dead = ref false in
                  let preds =
                    List.filter_map
                      (fun p ->
                        match simp_pred g ts ~single p with
                        | `True ->
                            note
                              (Finding.info "schema-cardinality"
                                 "step %d (%s): predicate [%s] always \
                                  holds under the DTD; dropped"
                                 idx (A.step_to_string s)
                                 (A.pred_to_string p));
                            None
                        | `False ->
                            dead := true;
                            unsat :=
                              Some
                                (Finding.error "schema-unsat"
                                   "step %d (%s): predicate [%s] can \
                                    never hold under the DTD"
                                   idx (A.step_to_string s)
                                   (A.pred_to_string p));
                            None
                        | `Keep p' -> Some p')
                      s.A.preds
                  in
                  if !dead then List.rev acc
                  else begin
                    walk ts ({ s with A.preds } :: acc) (idx + 1) rest
                  end
                end)
      end
    | _ :: _ -> List.rev acc
  in
  let steps = walk (KSet.singleton K_root) [] 1 path.A.steps in
  match !unsat with
  | Some f ->
      {
        findings = Finding.sort (List.rev (f :: !findings));
        rewritten = path;
        satisfiable = false;
      }
  | None ->
      {
        findings = Finding.sort (List.rev !findings);
        rewritten = { path with A.steps };
        satisfiable = true;
      }

let eval g db ~doc enc (path : A.path) =
  let r = analyze g path in
  if not r.satisfiable then
    { Ordered_xml.Translate.rows = []; statements = 0; sql_log = [] }
  else Ordered_xml.Translate.eval db ~doc enc r.rewritten
