(* each entry with the tick of its last use *)
type ('k, 'v) t = { cap : int; tbl : ('k, 'v * int ref) Hashtbl.t; mutable tick : int }

let create cap = { cap; tbl = Hashtbl.create 16; tick = 0 }
let length t = Hashtbl.length t.tbl
let remove t k = Hashtbl.remove t.tbl k

let tick t =
  t.tick <- t.tick + 1;
  t.tick

let find t k = match Hashtbl.find_opt t.tbl k with Some (v, used) -> used := tick t; Some v | None -> None

let add t k v =
  if length t >= t.cap && not (Hashtbl.mem t.tbl k) then
    Option.iter (fun (k, _) -> remove t k)
      (Hashtbl.fold (fun k (_, used) o -> match o with Some (_, u) when u <= !used -> o | _ -> Some (k, !used)) t.tbl None);
  Hashtbl.replace t.tbl k (v, ref (tick t))
