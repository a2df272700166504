(** Engine observability: monotonic timers, labeled counters, latency
    histograms, and hierarchical spans with a pluggable sink.

    All state is process-global (the engine is single-connection and
    single-threaded). Instrumentation is {e zero-cost when disabled}: every
    entry point checks {!enabled} first and touches neither the clock nor
    the registries when it is off — benchmarks flip the switch once at
    startup.

    Metrics (counters / histograms) accumulate from process start
    until {!reset}. Span {e retention} is separate: spans are always timed
    and handed to the sink when enabled, but are only kept in memory inside
    {!Span.collect} (or when an explicit sink is installed), so long-running
    processes do not accumulate unbounded trace buffers. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop every registered counter and histogram, and any buffered
    spans. Instances obtained before the reset are detached: they keep
    working but no longer appear in reports. *)

module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic clock (CLOCK_MONOTONIC), nanoseconds from an arbitrary
      origin. Never jumps backwards, unlike [Unix.gettimeofday]. *)

  val since_ms : int64 -> float
  (** Milliseconds elapsed since an earlier {!now_ns} reading. *)

  val time_ms : (unit -> 'a) -> 'a * float
  (** Run the thunk and return its result with the elapsed wall-clock
      milliseconds (measured even when observability is disabled — this is
      the harness-facing timer, not an instrumentation point). *)
end

module Counter : sig
  type t

  val create : ?help:string -> string -> t
  (** Find-or-create the counter registered under [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
  val find : string -> t option
end

module Histogram : sig
  type t

  val create : ?help:string -> string -> t
  (** Find-or-create the histogram registered under [name]. Values are
      unit-free; engine latency histograms store milliseconds. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val min_value : t -> float
  val max_value : t -> float
  val mean : t -> float

  val percentile : t -> float -> float
  (** Nearest-rank percentile over the recorded samples ([p] in [0..100]);
      [0.] when empty. Raw samples are retained up to a fixed cap (65536);
      beyond it count/sum/min/max stay exact and percentiles describe the
      retained prefix. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float
  val name : t -> string
  val find : string -> t option
end

(** {2 Name-based conveniences} (find-or-create then operate) *)

val incr : string -> unit
val add : string -> int -> unit
val observe : string -> float -> unit

val counter_value : string -> int
(** Current value of a registered counter, [0] if it was never created. *)

module Span : sig
  (** Hierarchical timed regions. [with_] nests: a span started while
      another is open records a larger depth, so a collected batch renders
      as a tree. *)

  type t = {
    sp_name : string;
    sp_attrs : (string * string) list;
    sp_depth : int;  (** nesting depth at start (absolute) *)
    sp_seq : int;  (** global start order — sort key for preorder *)
    mutable sp_elapsed_ns : int64;
  }

  val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** Time the thunk as a span. The span is completed (and re-raised
      through) on exception. When observability is disabled this is just
      [f ()]. *)

  val set_sink : (t -> unit) option -> unit
  (** Install a callback invoked with every completed span (streaming
      export). Independent of {!collect} buffering. *)

  val collect : (unit -> 'a) -> 'a * t list
  (** Run the thunk with span retention on; return the spans completed
      during it, in start (preorder) order. Nests: an inner [collect] steals
      nothing from the outer one. *)

  val elapsed_ms : t -> float

  val aggregate : t list -> (string * int * float) list
  (** Per-name [(name, count, total ms)], in first-seen order. *)

  val to_string : t list -> string
  (** Render a collected batch as an indented tree with timings. *)
end

module Report : sig
  val to_text : unit -> string
  (** Every registered counter and histogram, sorted by name. *)

  val to_json : unit -> string
  (** Same content as a single JSON object:
      [{"counters":{...},"histograms":{...}}]. *)
end
