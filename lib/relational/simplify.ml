let rec has_col = function
  | Expr.Col _ -> true
  (* A parameter is not a constant we can fold; treating it like a column
     keeps the rewriter from trying. *)
  | Expr.Param _ -> true
  | Expr.Const _ -> false
  | Expr.Cmp (_, a, b)
  | Expr.And (a, b)
  | Expr.Or (a, b)
  | Expr.Arith (_, a, b)
  | Expr.Concat (a, b) ->
      has_col a || has_col b
  | Expr.Not a | Expr.Neg a | Expr.Is_null a | Expr.Is_not_null a
  | Expr.Like (a, _) | Expr.In_list (a, _) ->
      has_col a
  | Expr.Func (_, args) -> List.exists has_col args

type truth = True | False | Unknown

(* Verdict of a constant under WHERE semantics: NULL never accepts a row. *)
let truth_of = function
  | Expr.Const Value.Null -> False
  | Expr.Const (Value.Int 0) -> False
  | Expr.Const (Value.Int _) -> True
  | Expr.Const (Value.Float f) -> if f <> 0.0 then True else False
  | _ -> Unknown

(* Like truth_of but for boolean algebra, where NULL is genuinely unknown
   (FALSE AND NULL = FALSE, but TRUE AND NULL = NULL, not TRUE). *)
let tvl = function
  | Expr.Const Value.Null -> Unknown
  | e -> truth_of e

let const_false = Expr.Const (Value.Int 0)

let rec fold (e : Expr.t) : Expr.t =
  let e =
    match e with
    | Expr.Const _ | Expr.Col _ | Expr.Param _ -> e
    | Expr.Cmp (op, a, b) -> Expr.Cmp (op, fold a, fold b)
    | Expr.And (a, b) -> Expr.And (fold a, fold b)
    | Expr.Or (a, b) -> Expr.Or (fold a, fold b)
    | Expr.Not a -> Expr.Not (fold a)
    | Expr.Arith (op, a, b) -> Expr.Arith (op, fold a, fold b)
    | Expr.Neg a -> Expr.Neg (fold a)
    | Expr.Concat (a, b) -> Expr.Concat (fold a, fold b)
    | Expr.Is_null a -> Expr.Is_null (fold a)
    | Expr.Is_not_null a -> Expr.Is_not_null (fold a)
    | Expr.Like (a, p) -> Expr.Like (fold a, p)
    | Expr.In_list (a, vs) -> Expr.In_list (fold a, vs)
    | Expr.Func (f, args) -> Expr.Func (f, List.map fold args)
  in
  match e with
  | Expr.Const _ | Expr.Col _ -> e
  | Expr.And (a, b) -> begin
      match (tvl a, tvl b) with
      | False, _ | _, False -> const_false
      | True, _ -> b
      | _, True -> a
      | _ -> e
    end
  | Expr.Or (a, b) -> begin
      match (tvl a, tvl b) with
      | True, _ | _, True -> Expr.Const (Value.Int 1)
      | False, _ -> b
      | _, False -> a
      | _ -> e
    end
  | e when not (has_col e) -> (
      (* a runtime error (division by zero) must still surface at
         execution, so a failing fold leaves the expression alone *)
      try Expr.Const (Expr.eval e [||]) with Expr.Eval_error _ -> e)
  | e -> e

(* ------------------------------------------------------------------ *)
(* Interval analysis over [col op constant] conjuncts                  *)
(* ------------------------------------------------------------------ *)

type bound = { v : Value.t; strict : bool; src : Expr.t }

type interval = {
  mutable lo : bound option;
  mutable hi : bound option;
  mutable eq : (Value.t * Expr.t) option;
  mutable ne : (Value.t * Expr.t) list;  (* [<>] conjuncts seen before an equality *)
  mutable dead : Expr.t list;  (* conjuncts subsumed by tighter ones *)
  mutable broken : bool;  (* constraints are mutually exclusive *)
}

(* [col op const] in either orientation, with the comparison normalized to
   put the column on the left. NULL constants never match (the fold step
   already turned those into constant NULL). *)
let atom = function
  | Expr.Cmp (op, Expr.Col i, Expr.Const v) when not (Value.is_null v) ->
      Some (i, op, v)
  | Expr.Cmp (op, Expr.Const v, Expr.Col i) when not (Value.is_null v) ->
      let flipped =
        match op with
        | Expr.Lt -> Expr.Gt
        | Expr.Le -> Expr.Ge
        | Expr.Gt -> Expr.Lt
        | Expr.Ge -> Expr.Le
        | (Expr.Eq | Expr.Ne) as op -> op
      in
      Some (i, flipped, v)
  | _ -> None

let satisfies v (op : Expr.cmp) w =
  let c = Value.compare v w in
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

let add_constraint iv conj (op : Expr.cmp) v =
  if iv.broken then ()
  else
    match iv.eq with
    | Some (e, _) ->
        (* an equality pins the column: every further constraint is either
           implied (drop it) or impossible *)
        if satisfies e op v then iv.dead <- conj :: iv.dead
        else iv.broken <- true
    | None -> begin
        match op with
        | Expr.Eq ->
            let ok_lo =
              match iv.lo with
              | None -> true
              | Some b ->
                  let c = Value.compare v b.v in
                  if b.strict then c > 0 else c >= 0
            in
            let ok_hi =
              match iv.hi with
              | None -> true
              | Some b ->
                  let c = Value.compare v b.v in
                  if b.strict then c < 0 else c <= 0
            in
            (* an earlier [<>] is implied by the equality, or contradicts it *)
            let ok_ne = List.for_all (fun (w, _) -> Value.compare v w <> 0) iv.ne in
            if ok_lo && ok_hi && ok_ne then begin
              (* the bounds collected so far are implied by the equality *)
              (match iv.lo with Some b -> iv.dead <- b.src :: iv.dead | None -> ());
              (match iv.hi with Some b -> iv.dead <- b.src :: iv.dead | None -> ());
              iv.dead <- List.map snd iv.ne @ iv.dead;
              iv.lo <- None;
              iv.hi <- None;
              iv.eq <- Some (v, conj)
            end
            else iv.broken <- true
        | Expr.Ne -> iv.ne <- (v, conj) :: iv.ne  (* kept unless an equality follows *)
        | Expr.Gt | Expr.Ge ->
            let strict = op = Expr.Gt in
            (match iv.lo with
            | None -> iv.lo <- Some { v; strict; src = conj }
            | Some b ->
                let c = Value.compare v b.v in
                if c > 0 || (c = 0 && strict && not b.strict) then begin
                  iv.dead <- b.src :: iv.dead;
                  iv.lo <- Some { v; strict; src = conj }
                end
                else iv.dead <- conj :: iv.dead);
            (* check against the upper bound *)
            (match (iv.lo, iv.hi) with
            | Some lo, Some hi ->
                let c = Value.compare lo.v hi.v in
                if c > 0 || (c = 0 && (lo.strict || hi.strict)) then
                  iv.broken <- true
            | _ -> ())
        | Expr.Lt | Expr.Le ->
            let strict = op = Expr.Lt in
            (match iv.hi with
            | None -> iv.hi <- Some { v; strict; src = conj }
            | Some b ->
                let c = Value.compare v b.v in
                if c < 0 || (c = 0 && strict && not b.strict) then begin
                  iv.dead <- b.src :: iv.dead;
                  iv.hi <- Some { v; strict; src = conj }
                end
                else iv.dead <- conj :: iv.dead);
            (match (iv.lo, iv.hi) with
            | Some lo, Some hi ->
                let c = Value.compare lo.v hi.v in
                if c > 0 || (c = 0 && (lo.strict || hi.strict)) then
                  iv.broken <- true
            | _ -> ())
      end

type verdict = Contradiction | Conjuncts of Expr.t list

let simplify_conjuncts conjuncts =
  let folded = List.map fold conjuncts in
  if List.exists (fun c -> truth_of c = False) folded then Contradiction
  else begin
    (* a conjunct that repeats an earlier one is dropped *)
    let live = List.rev (List.fold_left (fun l c -> if truth_of c = True || List.mem c l then l else c :: l) [] folded) in
    let intervals : (int, interval) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun conj ->
        match atom conj with
        | None -> ()
        | Some (col, op, v) ->
            let iv =
              match Hashtbl.find_opt intervals col with
              | Some iv -> iv
              | None ->
                  let iv =
                    { lo = None; hi = None; eq = None; ne = []; dead = []; broken = false }
                  in
                  Hashtbl.add intervals col iv;
                  iv
            in
            add_constraint iv conj op v)
      live;
    let broken = Hashtbl.fold (fun _ iv acc -> acc || iv.broken) intervals false in
    if broken then Contradiction
    else begin
      let dead =
        Hashtbl.fold (fun _ iv acc -> List.rev_append iv.dead acc) intervals []
      in
      Conjuncts (List.filter (fun c -> not (List.memq c dead)) live)
    end
  end
