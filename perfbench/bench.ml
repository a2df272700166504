(* The repository benchmark: seeded closed-loop workloads over the public
   [Ordered_xml.Api.Store] and [Reldb.Db] surface, every result checked.

     bench.exe --workload browse|edit|durable-edit --seed N --seconds S
               --trace 0|1

   One client, one process, one thread: each Store call starts when the
   previous one has returned. The document (Xmllib.Generator.xmark) and the
   op stream are generated from the seed before anything is timed.

   --trace 0  Obs off. Set up, warm up once over every op shape,
              Gc.compact, then run about S seconds of the op stream in ten
              segments of fixed length with one more timed set-up between
              segments, and report end-to-end metrics: timings scaled to a
              reference host speed, best segment, fastest set-up.
   --trace 1  Replay a fixed-length prefix of the same op stream on two
              fresh sets of stores, step by step: one untraced, one with Obs
              on and each Store call inside Obs.Span.collect. Report
              per-layer metrics built from the library's spans, a few
              benchmark-side spans and the public counters. The counters
              repeat exactly for a given seed and S.

   Lines starting with '#' are the human-readable report; the last line of
   standard output is one JSON object. Any failed check makes the exit code
   1. *)

module O = Ordered_xml
module S = O.Api.Store
module Enc = O.Encoding
module Db = Reldb.Db

(* ---- command line ------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " browse | edit | durable-edit");
      ("--seed", Arg.Set_int seed, " workload seed (document and op stream)");
      ("--seconds", Arg.Set_int seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* ---- workloads ---------------------------------------------------------- *)

type kind = Browse | Edit | Durable

type spec = {
  kind : kind;
  scale : int;  (** XMark scale of the generated document *)
  size : float * float;
      (** nominal node and bidder counts at [scale]: means over xmark seeds
          1-300 *)
  encs : Enc.t array;
  steps_per_s : int;
      (** op-stream steps the timed phase runs per --seconds (about a second's
          worth on a 2-vCPU x86 host) *)
  trace_steps_per_s : int;
      (** op-stream steps the --trace 1 replay runs per --seconds *)
  stream_steps : int;  (** op-stream length; the timed phase cycles it *)
}

let browse_encodings = [ Enc.Global; Enc.Local; Enc.Dewey_enc ]

let spec =
  match !workload with
  | "browse" ->
      {
        kind = Browse;
        scale = 4;
        size = (9067., 262.);
        encs = Array.of_list browse_encodings;
        steps_per_s = 700;
        trace_steps_per_s = 150;
        stream_steps = 24 * 500;
      }
  | "edit" | "durable-edit" ->
      {
        kind = (if !workload = "edit" then Edit else Durable);
        scale = 2;
        size = (4542., 132.);
        encs = Array.of_list Enc.all;
        steps_per_s = (if !workload = "edit" then 300 else 220);
        trace_steps_per_s = (if !workload = "edit" then 80 else 60);
        stream_steps = 6 * 1000;
      }
  | w -> die "unknown workload %S (browse, edit, durable-edit)" w

let () =
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1"

let n_encs = Array.length spec.encs
let enc_names = Array.map Enc.name spec.encs

(* the flush policy of durable-edit, stated in the output *)
let fsync_policy = Reldb.Wal.Every 32
let fsync_policy_name = "Every 32"

(* durable-edit checkpoints after this many writes (the checkpoint is itself
   counted as a write). Checkpoint calls are then about 0.5 % of all calls:
   they set the top of the tail, while op_p99_us stays on the update calls
   instead of landing on the boundary between the two. *)
let checkpoint_every = 97

(* ---- operations --------------------------------------------------------- *)

type read =
  | Path of string  (** Store.query *)
  | Subtree of int  (** Store.subtree of this node id *)
  | Serialize of int  (** Store.serialize of this node id *)

type op =
  | Read of string * read  (** cell label ("Q1".."Q8", "bidder1", ...) *)
  | Insert of int  (** draw for the child position under open_auctions *)
  | Delete  (** delete the fragment inserted earlier in the same block *)
  | Set_text of int * string  (** draw for the text node, new value *)
  | Checkpoint

(* [target = Some i]: one call on store [i] (browse). [None]: the op is
   applied to every store in turn and the results are compared. *)
type step = { target : int option; op : op }

(* Facts about the generated document. On a freshly shredded document the
   store's node ids are the Doc_index record ids, and every encoding assigns
   the same ids to inserted nodes, so ids are shared across stores. *)
type facts = {
  idx : O.Doc_index.t;
  container : int;  (** /site/open_auctions *)
  auctions : int array;  (** its open_auction children, in order *)
  texts : int array;  (** every text node of the original document *)
  q8 : int;
}

let eval_ids idx xpath = O.Dom_eval.eval idx (O.Xpath_parser.parse xpath)

let facts_of doc =
  let idx = O.Doc_index.build doc in
  let one xpath =
    match eval_ids idx xpath with
    | [ id ] -> id
    | ids -> die "%s selects %d nodes" xpath (List.length ids)
  in
  let container = one O.Workload.container_path in
  let texts =
    Array.to_list (O.Doc_index.records idx)
    |> List.filter (fun (r : O.Doc_index.record) ->
           r.O.Doc_index.kind = O.Doc_index.Text_node)
    |> List.map (fun (r : O.Doc_index.record) -> r.O.Doc_index.id)
    |> Array.of_list
  in
  {
    idx;
    container;
    auctions = Array.of_list (eval_ids idx "/site/open_auctions/open_auction");
    texts;
    q8 = one O.Workload.q8_target;
  }

(* The workload's document: the first of xmark ~seed:(1000 * seed + i),
   i = 0, 1, ..., whose node count is within 1 % and whose bidder count is
   within 2 % of the nominal [spec.size]. The seed then varies the content
   and the op stream but not the document size, which sets the cost of an
   update. *)
let document () =
  let nodes0, bidders0 = spec.size in
  let near x x0 tol = Float.abs (float_of_int x -. x0) <= tol *. x0 in
  let rec attempt i =
    let seed = (1000 * !seed) + i in
    let doc = Xmllib.Generator.xmark ~seed ~scale:spec.scale () in
    let idx = O.Doc_index.build doc in
    let bidders = eval_ids idx "/site/open_auctions/open_auction/bidder" in
    if
      i >= 1000
      || near (O.Doc_index.length idx) nodes0 0.01
         && near (List.length bidders) bidders0 0.02
    then (doc, seed)
    else attempt (i + 1)
  in
  attempt 0

let browse_reads facts =
  List.map
    (fun (q : O.Workload.query) ->
      match q.O.Workload.q_xpath with
      | Some xp -> Read (q.O.Workload.q_id, Path xp)
      | None -> Read (q.O.Workload.q_id, Subtree facts.q8))
    O.Workload.queries
  |> Array.of_list

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Browse: uniform over (query x encoding), drawn without replacement in
   blocks of every cell, so each cell's share is exact. *)
let browse_stream rng facts ~n =
  let reads = browse_reads facts in
  let cells =
    Array.concat
      (List.init n_encs (fun e ->
           Array.map (fun op -> { target = Some e; op }) reads))
  in
  let out = ref [] and len = ref 0 in
  while !len < n do
    let block = Array.copy cells in
    shuffle rng block;
    out := block :: !out;
    len := !len + Array.length block
  done;
  Array.sub (Array.concat (List.rev !out)) 0 n

let read_ops rng facts =
  let k () = 1 + Random.State.int rng (Array.length facts.auctions) in
  let path =
    Printf.sprintf "/site/open_auctions/open_auction[%d]/bidder[%s]"
  in
  let k1 = k () in
  let k2 = k () in
  [|
    Read ("bidder1", Path (path k1 "1"));
    Read ("bidderlast", Path (path k2 "last()"));
    Read ("serialize", Serialize facts.auctions.(k () - 1));
  |]

let draw rng = Random.State.int rng 0x3FFFFFFF

let text_op rng i =
  Set_text (draw rng, Printf.sprintf "edit %d %d" i (draw rng))

(* Edit: blocks of three reads (one of each kind, each with its own k) and
   three writes (insert, delete, set_text), shuffled, except that the delete
   follows the insert. So the document size stays level, and every block,
   the whole stream included, starts and ends without inserted fragments. *)
let edit_stream rng facts ~n =
  let out = ref [] and len = ref 0 and writes = ref 0 in
  let emit op =
    out := { target = None; op } :: !out;
    incr len;
    match op with
    | Read _ -> ()
    | _ ->
        incr writes;
        if spec.kind = Durable && !writes mod checkpoint_every = 0 then begin
          out := { target = None; op = Checkpoint } :: !out;
          incr len;
          incr writes
        end
  in
  while !len < n do
    let reads = read_ops rng facts in
    let block =
      [|
        reads.(0); reads.(1); reads.(2); Insert (draw rng); Delete;
        text_op rng !len;
      |]
    in
    shuffle rng block;
    let pos p = Option.get (Array.find_index p block) in
    let i = pos (function Insert _ -> true | _ -> false)
    and d = pos (( = ) Delete) in
    if d < i then begin
      block.(d) <- block.(i);
      block.(i) <- Delete
    end;
    Array.iter emit block
  done;
  Array.of_list (List.rev !out)

(* One untimed pass over every distinct op shape. *)
let warmup_steps rng facts =
  match spec.kind with
  | Browse ->
      let reads = browse_reads facts in
      Array.concat
        (List.init n_encs (fun e ->
             Array.map (fun op -> { target = Some e; op }) reads))
  | Edit | Durable ->
      let ops =
        Array.to_list (read_ops rng facts)
        @ [ Insert (draw rng); text_op rng (-1); Delete ]
        @ if spec.kind = Durable then [ Checkpoint ] else []
      in
      Array.of_list (List.map (fun op -> { target = None; op }) ops)

(* ---- timing and statistics ---------------------------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s
end

(* nearest-rank percentile of a sorted array; 0 when empty *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (r - 1)))

let median l = pct (let a = Array.of_list l in Array.sort compare a; a) 50.

let ns_of t0 = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0)

let ratio a b = if b = 0. then 0. else a /. b
let per a b = ratio (float_of_int a) (float_of_int b)
let per_float x n = ratio x (float_of_int n)

(* ---- stores ------------------------------------------------------------- *)

type store = { enc : Enc.t; db : Db.t; s : S.t; dir : string option }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Durable databases live under the checkout's build directory, never outside
   it, and are removed on exit. *)
let scratch =
  Filename.concat ".bench_build"
    (Printf.sprintf "perfbench-%s-%d" !workload (Unix.getpid ()))

let () = at_exit (fun () -> rm_rf scratch)
let dir_counter = ref 0

let fresh_dir enc =
  incr dir_counter;
  let d =
    Filename.concat scratch (Printf.sprintf "%d-%s" !dir_counter (Enc.name enc))
  in
  mkdir_p d;
  d

let close_stores stores =
  Array.iter
    (fun st ->
      Db.close st.db;
      Option.iter rm_rf st.dir)
    stores

(* Parse the serialized document and shred it into every encoding of the
   workload. A durable store is checkpointed so the timed phase starts from
   an empty log. Returns the stores and the seconds it took. *)
let setup text =
  let t0 = Obs.Clock.now_ns () in
  let doc = Obs.Span.with_ "xml-parse" (fun () -> Xmllib.Parser.parse_document text) in
  let stores =
    Array.map
      (fun enc ->
        let db, dir =
          match spec.kind with
          | Durable ->
              let d = fresh_dir enc in
              (Db.open_dir ~fsync:fsync_policy d, Some d)
          | Browse | Edit -> (Db.create (), None)
        in
        let s = S.create db ~name:"bench" enc doc in
        if dir <> None then Db.checkpoint db;
        { enc; db; s; dir })
      spec.encs
  in
  (stores, ns_of t0 /. 1e9)

(* ---- per-layer accounting ----------------------------------------------- *)

type layer = {
  mutable calls : int;
  mutable reads : int;
  mutable recon_reads : int;
  mutable writes : int;  (** Update calls (insert, delete, set_text) *)
  self_ns : (string, float) Hashtbl.t;  (** span name -> summed self time *)
  mutable read_stmts : int;
  mutable update_stmts : int;
  mutable rows_read : int;
  mutable rows_written : int;
  mutable renumbered : int;
  mutable hits : int;
  mutable misses : int;
  mutable bumps : int;
  mutable wal_bytes : int;
  mutable shred_ms : float;
}

let new_layer () =
  {
    calls = 0; reads = 0; recon_reads = 0; writes = 0;
    self_ns = Hashtbl.create 16; read_stmts = 0; update_stmts = 0;
    rows_read = 0; rows_written = 0; renumbered = 0; hits = 0; misses = 0;
    bumps = 0; wal_bytes = 0; shred_ms = 0.;
  }

let layers = Array.init n_encs (fun _ -> new_layer ())

(* Self time per span name: a span's duration minus its direct children's,
   the tree rebuilt from sp_depth over the preorder list. *)
let add_self_times (l : layer) (spans : Obs.Span.t list) =
  let arr = Array.of_list spans in
  let child = Array.make (Array.length arr) 0L in
  let stack = ref [] in
  Array.iteri
    (fun i (sp : Obs.Span.t) ->
      let rec pop = function
        | j :: rest when arr.(j).Obs.Span.sp_depth >= sp.Obs.Span.sp_depth ->
            pop rest
        | st -> st
      in
      stack := pop !stack;
      (match !stack with
      | j :: _ -> child.(j) <- Int64.add child.(j) sp.Obs.Span.sp_elapsed_ns
      | [] -> ());
      stack := i :: !stack)
    arr;
  Array.iteri
    (fun i (sp : Obs.Span.t) ->
      let self = Int64.to_float (Int64.sub sp.Obs.Span.sp_elapsed_ns child.(i)) in
      let prev =
        Option.value ~default:0. (Hashtbl.find_opt l.self_ns sp.Obs.Span.sp_name)
      in
      Hashtbl.replace l.self_ns sp.Obs.Span.sp_name (prev +. self))
    arr

let span_total name spans =
  List.fold_left
    (fun acc (sp : Obs.Span.t) ->
      if sp.Obs.Span.sp_name = name then acc +. Obs.Span.elapsed_ms sp else acc)
    0. spans

(* ---- running ops -------------------------------------------------------- *)

type outcome =
  | Ids of int list * int  (** result ids in document order, statements *)
  | Tree of Xmllib.Types.node
  | Str of string
  | Upd of O.Update.stats
  | Ckpt
  | Failed of string

type env = {
  stores : store array;
  mutable counting : bool;  (** collect spans and counter deltas per call *)
  read_lat : Samples.t;  (** ns per read call *)
  write_lat : Samples.t;  (** ns per write call (update or checkpoint) *)
  cells : (string * int, Samples.t) Hashtbl.t;  (** read ns by (label, store) *)
  mutable busy_ns : float;  (** summed duration of the timed calls *)
  mutable calls : int;  (** timed calls *)
  mutable attempted : int;
  mutable failed : int;
  mutable checkpoint_ms : float list;
}

let new_env stores =
  {
    stores;
    counting = false;
    read_lat = Samples.create ();
    write_lat = Samples.create ();
    cells = Hashtbl.create 64;
    busy_ns = 0.;
    calls = 0;
    attempted = 0;
    failed = 0;
    checkpoint_ms = [];
  }

let reset_timing env =
  env.read_lat.Samples.n <- 0;
  env.write_lat.Samples.n <- 0;
  Hashtbl.reset env.cells;
  env.busy_ns <- 0.;
  env.calls <- 0

let fail env fmt =
  Printf.ksprintf
    (fun s ->
      env.failed <- env.failed + 1;
      if env.failed <= 20 then prerr_endline ("check failed: " ^ s))
    fmt

(* Turn a generated op into its Store call, resolving the op's draws against
   the current document before the timer starts. *)
let prepare facts st op : unit -> outcome =
  match op with
  | Read (_, Path xp) ->
      fun () ->
        let r = S.query st.s xp in
        Ids
          ( List.map (fun (n : O.Node_row.t) -> n.O.Node_row.id) r.O.Translate.rows,
            r.O.Translate.statements )
  | Read (_, Subtree id) ->
      fun () -> Tree (Obs.Span.with_ "reconstruct" (fun () -> S.subtree st.s ~id))
  | Read (_, Serialize id) ->
      fun () -> Str (Obs.Span.with_ "reconstruct" (fun () -> S.serialize st.s ~id))
  | Insert r ->
      (* no inserted fragment is left when an insert comes *)
      let pos = 1 + (r mod (Array.length facts.auctions + 1)) in
      fun () ->
        Upd
          (S.insert_subtree st.s ~parent:facts.container ~pos
             O.Workload.small_fragment)
  | Delete -> (
      (* inserted fragments are the only bidder children of open_auctions *)
      match S.query_ids st.s "/site/open_auctions/bidder" with
      | [ id ] -> fun () -> Upd (S.delete_subtree st.s ~id)
      | ids ->
          let n = List.length ids in
          fun () -> Failed (Printf.sprintf "%d inserted fragments, not 1" n))
  | Set_text (t, v) ->
      let id = facts.texts.(t mod Array.length facts.texts) in
      fun () -> Upd (S.set_text st.s ~id v)
  | Checkpoint ->
      fun () ->
        Obs.Span.with_ "checkpoint" (fun () -> Db.checkpoint st.db);
        Ckpt

type snapshot = {
  rr : int;
  rw : int;
  hits : int;
  misses : int;
  version : int;
  wal : int;
}

let snapshot db =
  let hits, misses, _ = Db.plan_cache_stats db in
  {
    rr = Db.rows_read db;
    rw = Db.rows_written db;
    hits;
    misses;
    version = Reldb.Catalog.version (Db.catalog db);
    wal = Db.wal_size db;
  }

(* Charge one traced call's spans and counter deltas to its encoding. *)
let account env e op o spans (b : snapshot) =
  let l = layers.(e) and a = snapshot env.stores.(e).db in
  add_self_times l spans;
  l.calls <- l.calls + 1;
  l.rows_read <- l.rows_read + a.rr - b.rr;
  l.hits <- l.hits + a.hits - b.hits;
  l.misses <- l.misses + a.misses - b.misses;
  l.bumps <- l.bumps + a.version - b.version;
  match op with
  | Read (_, r) -> (
      l.reads <- l.reads + 1;
      (match o with Ids (_, n) -> l.read_stmts <- l.read_stmts + n | _ -> ());
      match r with
      | Path _ -> ()
      | Subtree _ | Serialize _ -> l.recon_reads <- l.recon_reads + 1)
  | Checkpoint ->
      env.checkpoint_ms <- span_total "checkpoint" spans :: env.checkpoint_ms
  | Insert _ | Delete | Set_text _ -> (
      l.writes <- l.writes + 1;
      l.rows_written <- l.rows_written + a.rw - b.rw;
      l.wal_bytes <- l.wal_bytes + a.wal - b.wal;
      match o with
      | Upd u ->
          l.update_stmts <- l.update_stmts + u.O.Update.statements;
          l.renumbered <- l.renumbered + u.O.Update.rows_renumbered
      | _ -> ())

let cell env key =
  match Hashtbl.find_opt env.cells key with
  | Some s -> s
  | None ->
      let s = Samples.create () in
      Hashtbl.replace env.cells key s;
      s

(* One Store call on store [e], timed on the monotonic clock. *)
let call env facts e op =
  let st = env.stores.(e) in
  let f =
    try prepare facts st op
    with exn ->
      let m = Printexc.to_string exn in
      fun () -> Failed m
  in
  let run () = try f () with exn -> Failed (Printexc.to_string exn) in
  env.attempted <- env.attempted + 1;
  let before = if env.counting then Some (snapshot st.db) else None in
  let t0 = Obs.Clock.now_ns () in
  let o, spans = if env.counting then Obs.Span.collect run else (run (), []) in
  let ns = ns_of t0 in
  env.busy_ns <- env.busy_ns +. ns;
  env.calls <- env.calls + 1;
  (match op with
  | Read (label, _) ->
      Samples.add env.read_lat ns;
      Samples.add (cell env (label, e)) ns
  | Insert _ | Delete | Set_text _ | Checkpoint -> Samples.add env.write_lat ns);
  Option.iter (account env e op o spans) before;
  o

let same a b =
  match (a, b) with
  | Ids (x, _), Ids (y, _) -> x = y
  | Tree x, Tree y -> Xmllib.Types.equal_node x y
  | Str x, Str y -> String.equal x y
  | Upd _, Upd _ | Ckpt, Ckpt -> true
  | _ -> false

let describe = function
  | Ids (l, _) -> Printf.sprintf "%d ids" (List.length l)
  | Tree _ -> "a subtree"
  | Str s -> Printf.sprintf "%d bytes" (String.length s)
  | Upd _ -> "an update"
  | Ckpt -> "a checkpoint"
  | Failed m -> "error: " ^ m

let label = function
  | Read (l, _) -> l
  | Insert _ -> "insert"
  | Delete -> "delete"
  | Set_text _ -> "set_text"
  | Checkpoint -> "checkpoint"

(* Run one step and check it, outside the timed calls: a browse read against
   the DOM oracle, an op applied to every store across encodings. *)
let run_step env facts oracle { target; op } =
  match target with
  | Some e -> (
      let o = call env facts e op in
      match (o, Hashtbl.find_opt oracle (label op)) with
      | Failed m, _ -> fail env "%s on %s: %s" (label op) enc_names.(e) m
      | o, Some want when not (same o want) ->
          fail env "%s on %s: got %s, oracle %s" (label op) enc_names.(e)
            (describe o) (describe want)
      | _ -> ())
  | None ->
      let outs = Array.init n_encs (fun e -> call env facts e op) in
      Array.iteri
        (fun e o ->
          match o with
          | Failed m -> fail env "%s on %s: %s" (label op) enc_names.(e) m
          | o when e > 0 && not (same o outs.(0)) ->
              fail env "%s on %s: got %s, %s got %s" (label op) enc_names.(e)
                (describe o) enc_names.(0) (describe outs.(0))
          | _ -> ())
        outs

(* ---- host speed --------------------------------------------------------- *)

(* The host's speed drifts by tens of percent over seconds to minutes, as
   other tenants load its cores. A fixed probe measures the drift: 4000
   lookups of string keys in a 1000-entry Hashtbl. It allocates nothing, so
   the program's heap cannot slow it, and like the program it is bound by
   instruction throughput (a pointer-chasing probe, bound by memory latency,
   missed the drift). During the timed phase it runs after every
   [probe_every] steps, outside the timed calls, and each timing is scaled by
   [probe_ref_ns] over the median probe time of its segment. *)
let probe_keys =
  Array.init 1000 (fun i -> Printf.sprintf "key-%d-%d" i (i * 7919))

let probe_table =
  let h = Hashtbl.create 1024 in
  Array.iteri (fun i k -> Hashtbl.replace h k i) probe_keys;
  h

let probe_every = 8

(* the probe's time on a quiet 2-vCPU x86 host, so that scaled timings read
   close to raw ones there *)
let probe_ref_ns = 270_000.

let probing = ref false
let probe_ns = Samples.create ()

let probe () =
  let t0 = Obs.Clock.now_ns () in
  let acc = ref 0 in
  for r = 0 to 3 do
    for i = 0 to 999 do
      acc := !acc + Hashtbl.find probe_table probe_keys.(((i * 37) + r) mod 1000)
    done
  done;
  ignore (Sys.opaque_identity !acc);
  Samples.add probe_ns (ns_of t0)

(* Run steps in order from index [from], cycling through [steps], until the
   deadline or index [until] (the end of [steps] by default); return the
   index reached. The op streams can be replayed from the start: each ends
   with no inserted fragment left in the document. *)
let run_steps ?(from = 0) ?until env facts oracle steps ~deadline =
  let n = Array.length steps in
  let until = Option.value until ~default:n in
  let i = ref from in
  while !i < until && Obs.Clock.now_ns () < deadline do
    run_step env facts oracle steps.(!i mod n);
    if !probing && !i mod probe_every = 0 then probe ();
    incr i
  done;
  !i

(* ---- end-of-run checks -------------------------------------------------- *)

(* Every store passes Store.check and reconstructs the same document (and,
   for browse, the loaded one). Returns that document. *)
let final_checks env ~original =
  Array.iter
    (fun st ->
      match S.check st.s with
      | Ok () -> ()
      | Error msgs ->
          fail env "integrity on %s: %s" (Enc.name st.enc)
            (String.concat "; " msgs))
    env.stores;
  let docs = Array.map (fun st -> S.document st.s) env.stores in
  Array.iteri
    (fun e d ->
      if not (Xmllib.Types.equal_document d docs.(0)) then
        fail env "document on %s differs from %s" enc_names.(e) enc_names.(0))
    docs;
  (match original with
  | Some d when not (Xmllib.Types.equal_document d docs.(0)) ->
      fail env "document differs from the loaded one"
  | _ -> ());
  docs.(0)

(* Close every durable store, then reopen all the directories [reps] times.
   Returns the median milliseconds to reopen them all and the statements one
   reopen replayed. The first reopen is checked against [doc]. *)
let recover env ~doc ~reps =
  Array.iter (fun st -> Db.close st.db) env.stores;
  let replayed = ref 0 in
  let check_reopened e db =
    (match Db.last_recovery db with
    | Some ri -> replayed := !replayed + ri.Db.rec_statements
    | None -> ());
    match S.open_existing db ~name:"bench" spec.encs.(e) with
    | s -> (
        if not (Xmllib.Types.equal_document (S.document s) doc) then
          fail env "recovered document on %s differs" enc_names.(e);
        match S.check s with
        | Ok () -> ()
        | Error msgs ->
            fail env "recovered integrity on %s: %s" enc_names.(e)
              (String.concat "; " msgs))
    | exception exn ->
        fail env "reopen on %s: %s" enc_names.(e) (Printexc.to_string exn)
  in
  let times =
    List.init reps (fun r ->
        Gc.compact ();
        let t0 = Obs.Clock.now_ns () in
        let dbs =
          Array.map
            (fun st ->
              Obs.Span.with_ "open_dir" (fun () ->
                  Db.open_dir ~fsync:fsync_policy (Option.get st.dir)))
            env.stores
        in
        let ms = ns_of t0 /. 1e6 in
        Array.iteri
          (fun e db ->
            if r = 0 then check_reopened e db;
            Db.close db)
          dbs;
        ms)
  in
  (median times, !replayed)

(* ---- output ------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let m ?(n = 1) name unit_ value = { name; value; unit_; n }

(* The metrics BENCHMARK.json declares. Every workload reports every one. *)
let end_to_end =
  [
    "ops_per_s"; "read_p50_us"; "op_p50_us"; "op_p99_us";
    "setup_s"; "storage_ratio"; "top_heap_mb";
  ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* Print every metric as a report line, then the result object holding the
   ones named in [keep] (all of them when [keep] is None). *)
let print_result ~attempted ~failed ?keep metrics =
  List.iter
    (fun { name; value; unit_; n } ->
      Printf.printf "# %-30s %14.4f %-6s (n=%d)\n" name value unit_ n)
    metrics;
  let kept =
    match keep with
    | None -> metrics
    | Some names ->
        List.map (fun k -> List.find (fun mt -> mt.name = k) metrics) names
  in
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit_; _ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_num value) unit_)
         kept)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed body;
  exit (if failed = 0 then 0 else 1)

(* Throughput and latency of one segment of the timed phase, scaled by
   [speed] (reference probe time over the segment's median probe time). *)
let segment_stats env ~speed =
  let us_of a p = pct a p /. 1e3 *. speed in
  let reads = Samples.sorted env.read_lat and writes = Samples.sorted env.write_lat in
  let ops = Array.append reads writes in
  Array.sort compare ops;
  let nr = Array.length reads and nw = Array.length writes and no = Array.length ops in
  (* p99 is the highest percentile reported: it needs ten samples beyond it *)
  List.iter
    (fun (what, n) ->
      if n > 0 && n < 1000 then
        Printf.printf "# note: fewer than ten %s samples beyond p99 (n=%d)\n"
          what n)
    [ ("read", nr); ("op", no); ("write", nw) ];
  [
    m ~n:env.calls "ops_per_s" "op/s"
      (float_of_int env.calls /. (env.busy_ns /. 1e9) /. speed);
    m ~n:nr "read_p50_us" "us" (us_of reads 50.);
    m ~n:nr "read_p99_us" "us" (us_of reads 99.);
    m ~n:no "op_p50_us" "us" (us_of ops 50.);
    m ~n:no "op_p99_us" "us" (us_of ops 99.);
  ]
  @
  if nw = 0 then []
  else
    [
      m ~n:nw "write_p50_us" "us" (us_of writes 50.);
      m ~n:nw "write_p99_us" "us" (us_of writes 99.);
    ]

(* The best segment per metric: highest throughput, lowest latency. *)
let best_of segments =
  match segments with
  | [] -> []
  | first :: _ ->
      List.map
        (fun mt ->
          let all =
            List.map (fun seg -> List.find (fun x -> x.name = mt.name) seg) segments
          in
          let better a b =
            if mt.name = "ops_per_s" then a.value >= b.value else a.value <= b.value
          in
          List.fold_left (fun best x -> if better x best then x else best) mt all)
        first

(* ---- main --------------------------------------------------------------- *)

let rng salt = Random.State.make [| !seed; salt |]
let us sorted p = pct sorted p /. 1e3

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let () =
  Obs.set_enabled false;
  let source, xmark_seed = document () in
  let text = Xmllib.Printer.document_to_string source in
  let doc = Xmllib.Parser.parse_document text in
  let facts = facts_of doc in
  let steps =
    let n = spec.stream_steps in
    match spec.kind with
    | Browse -> browse_stream (rng 1) facts ~n
    | Edit | Durable -> edit_stream (rng 1) facts ~n
  in
  let warm = warmup_steps (rng 2) facts in
  (* the browse oracle: Dom_eval over a Doc_index of the same document *)
  let oracle = Hashtbl.create 16 in
  let original = if spec.kind = Browse then Some doc else None in
  if spec.kind = Browse then
    Array.iter
      (function
        | Read (l, Path xp) ->
            Hashtbl.replace oracle l (Ids (eval_ids facts.idx xp, 0))
        | Read (l, Subtree id) ->
            Hashtbl.replace oracle l (Tree (O.Doc_index.to_node facts.idx id))
        | _ -> ())
      (browse_reads facts);
  let run ?from ?until env steps ~deadline =
    run_steps ?from ?until env facts oracle steps ~deadline
  in
  (* one untimed pass over every op shape, then a compaction, so lazy set-up
     and set-up garbage stay out of the samples *)
  let start envs =
    List.iter (fun env -> ignore (run env warm ~deadline:Int64.max_int)) envs;
    Gc.compact ();
    List.iter reset_timing envs
  in
  Printf.printf
    "# workload %s, seed %d, XMark scale %d seed %d (%d nodes, %d bytes), \
     encodings %s\n"
    !workload !seed spec.scale xmark_seed
    (O.Doc_index.length facts.idx)
    (String.length text)
    (String.concat "," (Array.to_list enc_names));
  Printf.printf "# closed loop, one client, %d op-stream steps generated\n"
    (Array.length steps);
  if spec.kind = Durable then
    Printf.printf "# durable: fsync Wal.%s, checkpoint every %d writes, in %s\n"
      fsync_policy_name checkpoint_every scratch;
  let storage_ratio env final =
    let bytes =
      Array.fold_left
        (fun acc st -> acc + (S.storage st.s).O.Storage.total_bytes)
        0 env.stores
    in
    float_of_int bytes
    /. float_of_int (String.length (Xmllib.Printer.document_to_string final))
  in
  let cell_lines env =
    Hashtbl.fold (fun k s acc -> (k, Samples.sorted s) :: acc) env.cells []
    |> List.sort compare
    |> List.iter (fun ((l, e), s) ->
           Printf.printf "# cell %-10s %-10s p50 %10.1f us  p99 %10.1f us (n=%d)\n"
             l enc_names.(e) (us s 50.) (us s 99.) (Array.length s))
  in
  if !trace = 0 then begin
    (* The timed phase is cut into equal segments of a fixed number of
       steps. Between two segments the timer stops for one more set-up, so
       that setup_s samples the same host conditions as the ops. Timings are
       scaled to the reference host speed measured during the segment (see
       [probe]); a set-up by that of the segment before it (the first by the
       first segment's). Each timing metric is the best segment's:
       interference from other processes only ever slows a segment down. *)
    let stores, first_setup = setup text in
    let env = new_env stores in
    let times = ref [] in
    start [ env ];
    let segments = 10 in
    let segment_steps = spec.steps_per_s * !seconds / segments in
    (* a slower program stops short, at three times the planned length *)
    let segment_ns = 3 * !seconds * 1_000_000_000 / segments in
    let ran = ref 0 and per_segment = ref [] in
    for i = 1 to segments do
      reset_timing env;
      probe_ns.Samples.n <- 0;
      probing := true;
      let deadline = Int64.add (Obs.Clock.now_ns ()) (Int64.of_int segment_ns) in
      ran := run ~from:!ran ~until:(!ran + segment_steps) env steps ~deadline;
      probing := false;
      let speed =
        if probe_ns.Samples.n = 0 then 1.
        else probe_ref_ns /. pct (Samples.sorted probe_ns) 50.
      in
      if i = 1 then times := [ first_setup *. speed ];
      let stats = segment_stats env ~speed in
      Printf.printf "# segment %d: speed %.3f, %s\n" i speed
        (String.concat ", "
           (List.map (fun mt -> Printf.sprintf "%s %.1f" mt.name mt.value) stats));
      per_segment := stats :: !per_segment;
      Gc.compact ();
      let stores, s = setup text in
      times := (s *. speed) :: !times;
      close_stores stores;
      Gc.compact ()
    done;
    let final = final_checks env ~original in
    let recovery =
      if spec.kind = Durable then Some (recover env ~doc:final ~reps:5) else None
    in
    print_result ~attempted:env.attempted ~failed:env.failed ~keep:end_to_end
      (best_of !per_segment
      @ (match recovery with
        | Some (ms, _) -> [ m ~n:5 "recovery_ms" "ms" ms ]
        | None -> [])
      @ [
          m ~n:(segments + 1) "setup_s" "s" (List.fold_left Float.min infinity !times);
          m ~n:env.attempted "failed_frac" "ratio" (per env.failed env.attempted);
          m ~n:n_encs "storage_ratio" "ratio" (storage_ratio env final);
          m "top_heap_mb" "MB" (top_heap_mb ());
        ])
  end
  else begin
    let prefix =
      Array.init (spec.trace_steps_per_s * !seconds) (fun i ->
          steps.(i mod Array.length steps))
    in
    (* Two sets of stores replay the prefix step by step, interleaved: [a]
       untraced (the base of obs.overhead, the per-cell medians, write
       latency and recovery), [b] with Obs on and counting. *)
    let stores, _ = setup text in
    let a = new_env stores in
    Obs.set_enabled true;
    Obs.reset ();
    let (stores, _), setup_spans = Obs.Span.collect (fun () -> setup text) in
    List.iter
      (fun (sp : Obs.Span.t) ->
        match
          ( sp.Obs.Span.sp_name,
            Option.bind
              (List.assoc_opt "encoding" sp.Obs.Span.sp_attrs)
              (fun n -> Array.find_index (String.equal n) enc_names) )
        with
        | "shred", Some e ->
            layers.(e).shred_ms <- layers.(e).shred_ms +. Obs.Span.elapsed_ms sp
        | _ -> ())
      setup_spans;
    let b = new_env stores in
    Obs.set_enabled false;
    start [ a; b ];
    let appends0 = Obs.counter_value "wal.append"
    and fsyncs0 = Obs.counter_value "wal.fsync" in
    b.counting <- true;
    Array.iter
      (fun step ->
        run_step a facts oracle step;
        Obs.set_enabled true;
        run_step b facts oracle step;
        Obs.set_enabled false)
      prefix;
    b.counting <- false;
    let appends = Obs.counter_value "wal.append" - appends0
    and fsyncs = Obs.counter_value "wal.fsync" - fsyncs0 in
    let final = final_checks a ~original in
    if not (Xmllib.Types.equal_document final (final_checks b ~original)) then
      fail a "traced and untraced replays end in different documents";
    let recovery =
      if spec.kind = Durable then Some (recover a ~doc:final ~reps:5) else None
    in
    close_stores a.stores;
    close_stores b.stores;
    (* per-layer metrics; an encoding the workload does not load reads 0 *)
    let per_enc name unit_ ~(base : layer -> int) (f : layer -> float) =
      List.map
        (fun enc ->
          match Array.find_index (( = ) enc) spec.encs with
          | Some e ->
              let l = layers.(e) in
              m ~n:(base l) (name ^ "." ^ Enc.name enc) unit_ (f l)
          | None -> m ~n:0 (name ^ "." ^ Enc.name enc) unit_ 0.)
        Enc.all
    in
    let self_us (l : layer) name ~base =
      per_float (Option.value ~default:0. (Hashtbl.find_opt l.self_ns name) /. 1e3) base
    in
    let calls (l : layer) = l.calls
    and reads (l : layer) = l.reads
    and writes (l : layer) = l.writes in
    let updates = Array.fold_left (fun acc l -> acc + l.writes) 0 layers in
    let cells =
      List.concat_map
        (fun (q : O.Workload.query) ->
          List.map
            (fun enc ->
              let name = Printf.sprintf "api.read_us.%s.%s" q.O.Workload.q_id (Enc.name enc) in
              match
                Option.bind (Array.find_index (( = ) enc) spec.encs) (fun e ->
                    Hashtbl.find_opt a.cells (q.O.Workload.q_id, e))
              with
              | Some s -> m ~n:s.Samples.n name "us" (us (Samples.sorted s) 50.)
              | None -> m ~n:0 name "us" 0.)
            browse_encodings)
        O.Workload.queries
    in
    let rate env = float_of_int env.calls /. env.busy_ns in
    let metrics =
      [ m "xml_parse.ms" "ms" (span_total "xml-parse" setup_spans) ]
      @ per_enc "shred.ms" "ms" ~base:(fun _ -> 1) (fun l -> l.shred_ms)
      @ per_enc "xpath_parse.self_us" "us" ~base:reads (fun l ->
            self_us l "xpath-parse" ~base:l.reads)
      @ per_enc "translate.self_us" "us" ~base:reads (fun l ->
            self_us l "translate" ~base:l.reads)
      @ per_enc "translate.stmts" "count" ~base:reads (fun l ->
            per l.read_stmts l.reads)
      @ per_enc "catalog.bumps" "count" ~base:calls (fun l -> per l.bumps l.calls)
      @ per_enc "sql_parse.self_us" "us" ~base:calls (fun l ->
            self_us l "sql-parse" ~base:l.calls)
      @ per_enc "plan.self_us" "us" ~base:calls (fun l ->
            self_us l "plan" ~base:l.calls)
      @ per_enc "plan_cache.hit_ratio" "ratio"
          ~base:(fun l -> l.hits + l.misses)
          (fun l -> per l.hits (l.hits + l.misses))
      @ per_enc "exec.self_us" "us" ~base:calls (fun l ->
            self_us l "exec" ~base:l.calls)
      @ per_enc "rows_read" "count" ~base:calls (fun l -> per l.rows_read l.calls)
      @ per_enc "reconstruct.self_us" "us"
          ~base:(fun l -> l.recon_reads)
          (fun l -> self_us l "reconstruct" ~base:l.recon_reads)
      @ per_enc "renumber.self_us" "us" ~base:writes (fun l ->
            self_us l "renumber" ~base:l.writes)
      @ per_enc "rows_renumbered" "count" ~base:writes (fun l ->
            per l.renumbered l.writes)
      @ per_enc "update.stmts" "count" ~base:writes (fun l ->
            per l.update_stmts l.writes)
      @ per_enc "rows_written" "count" ~base:writes (fun l ->
            per l.rows_written l.writes)
      @ [
          m ~n:updates "wal.bytes_per_write" "B"
            (per (Array.fold_left (fun acc l -> acc + l.wal_bytes) 0 layers) updates);
          m ~n:updates "wal.appends_per_write" "count" (per appends updates);
          m ~n:updates "wal.fsyncs_per_write" "count" (per fsyncs updates);
          m ~n:(List.length b.checkpoint_ms) "checkpoint.ms" "ms"
            (if b.checkpoint_ms = [] then 0. else median b.checkpoint_ms);
          m "recovery.replayed_stmts" "count"
            (match recovery with Some (_, n) -> float_of_int n | None -> 0.);
          m ~n:5 "recovery.ms" "ms"
            (match recovery with Some (ms, _) -> ms | None -> 0.);
        ]
      @ (let writes = Samples.sorted a.write_lat in
         [
           m ~n:(Array.length writes) "write.p50_us" "us" (us writes 50.);
           m ~n:(Array.length writes) "write.p99_us" "us" (us writes 99.);
         ])
      @ cells
      @ [ m ~n:b.calls "obs.overhead" "ratio" (ratio (rate a) (rate b)) ]
    in
    (* the deterministic counters, one line per encoding *)
    Array.iteri
      (fun e (l : layer) ->
        Printf.printf
          "# counters %s: calls %d statements %d rows_read %d rows_written %d \
           rows_renumbered %d plan_cache %d/%d catalog_bumps %d wal_bytes %d\n"
          enc_names.(e) l.calls (l.read_stmts + l.update_stmts) l.rows_read
          l.rows_written l.renumbered l.hits l.misses l.bumps l.wal_bytes)
      layers;
    Printf.printf "# counters wal: appends %d fsyncs %d replayed %d\n" appends
      fsyncs
      (match recovery with Some (_, n) -> n | None -> 0);
    cell_lines a;
    print_result ~attempted:(a.attempted + b.attempted)
      ~failed:(a.failed + b.failed) metrics
  end
