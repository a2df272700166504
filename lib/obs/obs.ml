let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

module Clock = struct
  external now_ns : unit -> (int64[@unboxed])
    = "obs_clock_now_ns_byte" "obs_clock_now_ns"
  [@@noalloc]

  let since_ms t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

  let time_ms f =
    let t0 = now_ns () in
    let v = f () in
    (v, since_ms t0)
end

module Counter = struct
  type t = { c_name : string; c_help : string; mutable c_value : int }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let create ?(help = "") name =
    match Hashtbl.find_opt registry name with
    | Some c -> c
    | None ->
        let c = { c_name = name; c_help = help; c_value = 0 } in
        Hashtbl.add registry name c;
        c

  let add c n = if !enabled_flag then c.c_value <- c.c_value + n
  let incr c = add c 1
  let value c = c.c_value
  let name c = c.c_name
  let find name = Hashtbl.find_opt registry name
end

module Histogram = struct
  (* raw samples up to a cap; count/sum/min/max stay exact past it *)
  let sample_cap = 65536

  type t = {
    h_name : string;
    h_help : string;
    mutable samples : float array;
    mutable stored : int;
    mutable sorted : bool;
    mutable n : int;
    mutable total : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32

  let create ?(help = "") name =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            h_name = name;
            h_help = help;
            samples = Array.make 64 0.0;
            stored = 0;
            sorted = true;
            n = 0;
            total = 0.0;
            minv = infinity;
            maxv = neg_infinity;
          }
        in
        Hashtbl.add registry name h;
        h

  let observe h v =
    if !enabled_flag then begin
      h.n <- h.n + 1;
      h.total <- h.total +. v;
      if v < h.minv then h.minv <- v;
      if v > h.maxv then h.maxv <- v;
      if h.stored < sample_cap then begin
        if h.stored = Array.length h.samples then begin
          let bigger =
            Array.make (Stdlib.min sample_cap (2 * h.stored)) 0.0
          in
          Array.blit h.samples 0 bigger 0 h.stored;
          h.samples <- bigger
        end;
        h.samples.(h.stored) <- v;
        h.stored <- h.stored + 1;
        h.sorted <- false
      end
    end

  let count h = h.n
  let sum h = h.total
  let min_value h = if h.n = 0 then 0.0 else h.minv
  let max_value h = if h.n = 0 then 0.0 else h.maxv
  let mean h = if h.n = 0 then 0.0 else h.total /. float_of_int h.n

  let ensure_sorted h =
    if not h.sorted then begin
      let prefix = Array.sub h.samples 0 h.stored in
      Array.sort compare prefix;
      Array.blit prefix 0 h.samples 0 h.stored;
      h.sorted <- true
    end

  (* nearest-rank: the ceil(p/100 * n)-th smallest sample *)
  let percentile h p =
    if h.stored = 0 then 0.0
    else begin
      ensure_sorted h;
      let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.stored)) in
      let idx = Stdlib.max 0 (Stdlib.min (h.stored - 1) (rank - 1)) in
      h.samples.(idx)
    end

  let p50 h = percentile h 50.0
  let p95 h = percentile h 95.0
  let p99 h = percentile h 99.0
  let name h = h.h_name
  let find name = Hashtbl.find_opt registry name
end

let incr name = if !enabled_flag then Counter.incr (Counter.create name)

let counter_value name =
  match Counter.find name with Some c -> Counter.value c | None -> 0
let add name n = if !enabled_flag then Counter.add (Counter.create name) n

let observe name v =
  if !enabled_flag then Histogram.observe (Histogram.create name) v

module Span = struct
  type t = {
    sp_name : string;
    sp_attrs : (string * string) list;
    sp_depth : int;
    sp_seq : int;
    mutable sp_elapsed_ns : int64;
  }

  let depth = ref 0
  let seq = ref 0
  let recording = ref false
  let buffer : t list ref = ref []
  let sink : (t -> unit) option ref = ref None
  let set_sink s = sink := s

  let with_ ?(attrs = []) name f =
    if not !enabled_flag then f ()
    else begin
      Stdlib.incr seq;
      let sp =
        {
          sp_name = name;
          sp_attrs = attrs;
          sp_depth = !depth;
          sp_seq = !seq;
          sp_elapsed_ns = 0L;
        }
      in
      depth := !depth + 1;
      let t0 = Clock.now_ns () in
      let finish () =
        sp.sp_elapsed_ns <- Int64.sub (Clock.now_ns ()) t0;
        depth := !depth - 1;
        if !recording then buffer := sp :: !buffer;
        match !sink with Some emit -> emit sp | None -> ()
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let collect f =
    let saved_recording = !recording and saved_buffer = !buffer in
    recording := true;
    buffer := [];
    let finish () =
      let spans =
        List.sort (fun a b -> compare a.sp_seq b.sp_seq) !buffer
      in
      recording := saved_recording;
      buffer := saved_buffer;
      spans
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
        ignore (finish ());
        raise e

  let clear () =
    buffer := [];
    depth := 0

  let elapsed_ms sp = Int64.to_float sp.sp_elapsed_ns /. 1e6

  let aggregate spans =
    let order = ref [] in
    let acc : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt acc sp.sp_name with
        | Some cell ->
            let n, ms = !cell in
            cell := (n + 1, ms +. elapsed_ms sp)
        | None ->
            order := sp.sp_name :: !order;
            Hashtbl.add acc sp.sp_name (ref (1, elapsed_ms sp)))
      spans;
    List.rev_map
      (fun name ->
        let n, ms = !(Hashtbl.find acc name) in
        (name, n, ms))
      !order

  let to_string spans =
    match spans with
    | [] -> "(no spans)\n"
    | first :: _ ->
        let base = first.sp_depth in
        let buf = Buffer.create 256 in
        List.iter
          (fun sp ->
            let attrs =
              match sp.sp_attrs with
              | [] -> ""
              | kv ->
                  " ["
                  ^ String.concat ", "
                      (List.map (fun (k, v) -> k ^ "=" ^ v) kv)
                  ^ "]"
            in
            Buffer.add_string buf
              (Printf.sprintf "%s%-24s %10.3f ms%s\n"
                 (String.make (2 * Stdlib.max 0 (sp.sp_depth - base)) ' ')
                 sp.sp_name (elapsed_ms sp) attrs))
          spans;
        Buffer.contents buf
end

let reset () =
  Hashtbl.reset Counter.registry;
  Hashtbl.reset Histogram.registry;
  Span.clear ()

module Report = struct
  let sorted_values registry =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) registry [])
    |> List.map (Hashtbl.find registry)

  let to_text () =
    let buf = Buffer.create 512 in
    let counters = sorted_values Counter.registry in
    let hists = sorted_values Histogram.registry in
    if counters <> [] then begin
      Buffer.add_string buf "counters:\n";
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  %-32s %d\n" (Counter.name c) (Counter.value c)))
        counters
    end;
    if hists <> [] then begin
      Buffer.add_string buf
        "histograms (count / mean / p50 / p95 / p99 / max, ms):\n";
      List.iter
        (fun h ->
          Buffer.add_string buf
            (Printf.sprintf "  %-32s %6d  %8.3f %8.3f %8.3f %8.3f %8.3f\n"
               (Histogram.name h) (Histogram.count h) (Histogram.mean h)
               (Histogram.p50 h) (Histogram.p95 h) (Histogram.p99 h)
               (Histogram.max_value h)))
        hists
    end;
    if Buffer.length buf = 0 then "(no metrics recorded)\n"
    else Buffer.contents buf

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let json_float f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else Printf.sprintf "%.6g" f

  let to_json () =
    let obj fields = "{" ^ String.concat "," fields ^ "}" in
    let field k v = Printf.sprintf "\"%s\":%s" (json_escape k) v in
    let counters =
      List.map
        (fun c -> field (Counter.name c) (string_of_int (Counter.value c)))
        (sorted_values Counter.registry)
    in
    let hists =
      List.map
        (fun h ->
          field (Histogram.name h)
            (obj
               [
                 field "count" (string_of_int (Histogram.count h));
                 field "sum" (json_float (Histogram.sum h));
                 field "min" (json_float (Histogram.min_value h));
                 field "mean" (json_float (Histogram.mean h));
                 field "p50" (json_float (Histogram.p50 h));
                 field "p95" (json_float (Histogram.p95 h));
                 field "p99" (json_float (Histogram.p99 h));
                 field "max" (json_float (Histogram.max_value h));
               ]))
        (sorted_values Histogram.registry)
    in
    obj
      [
        field "counters" (obj counters);
        field "histograms" (obj hists);
      ]
end
