(** Nested-span cost-attribution profiler: one call tree, three metrics.

    {!span} pushes a frame on a per-simulation stack, runs its function,
    and pops the frame — exception-safe, like {!Trace.span}. Each frame
    records three costs accrued while it is on the stack: virtual cycles
    charged to the clock, host nanoseconds from an injected monotonic
    source, and OCaml words allocated ([Gc.counters]: minor + major -
    promoted). They aggregate into a call tree with call counts and
    cumulative/self values per node, plus a bounded ring of raw span
    events for timeline export.

    The profiler never charges the clock: a profiled run spends exactly
    the same simulated cycles as an unprofiled one. The virtual exports
    ({!to_json}, {!to_chrome_json}, {!to_collapsed}, {!pp},
    {!top_spans} with the default metric) never read the host fields,
    so they stay byte-identical across hosts; {!host_to_json} and
    {!pp_host} carry the host view. Host-ns deltas are clamped
    non-negative; allocated-words deltas are deterministic for a fixed
    binary, workload and starting heap — which is why bench-diff can
    gate on words but only report nanoseconds.

    Components reach the machine's profiler through their {!Trace.t}
    (see {!Trace.prof_span}); the {!disabled} sentinel makes every
    operation a no-op that allocates nothing, so instrumentation needs
    no optional plumbing. *)

type node = {
  name : string;
  calls : int;  (** completed spans at this path *)
  cum : int;  (** cycles charged while this span (or a child) was innermost *)
  self : int;  (** [cum] minus the children's cumulative cycles *)
  ns : int;  (** cumulative host nanoseconds under this path *)
  self_ns : int;  (** [ns] minus the children's *)
  words : int;  (** cumulative allocated words under this path *)
  self_words : int;  (** [words] minus the children's *)
  children : node list;  (** sorted by name *)
}

type metric = [ `Cycles | `Ns | `Words ]
(** What a ranking or collapsed export measures: self cycles, self host
    ns or self allocated words. *)

type self_sample = {
  at_ns : int;  (** host ns since create/reset *)
  heap_words : int;
  top_heap_words : int;
  minor_collections : int;
  major_collections : int;
  rss_kb : int;  (** 0 unless an RSS reader was injected *)
}

type t

val create :
  clock:Clock.t -> now_ns:(unit -> int) -> ?rss_kb:(unit -> int) -> ?events_capacity:int ->
  unit -> t
(** A live profiler reading virtual cycles from [clock] and host time
    from [now_ns] (monotonic nanoseconds preferred; a non-monotonic
    source is safe but loses precision to clamping). Costs incurred
    before creation are outside its scope. [rss_kb] supplies
    resident-set readings for {!sample_self}. [events_capacity]
    (default 8192) bounds the span-event ring used by
    {!to_chrome_json}; the call tree is exact regardless. Raises
    [Invalid_argument] if [events_capacity <= 0]. *)

val disabled : t
(** Shared no-op sentinel: {!span} just runs its function. *)

val enabled : t -> bool

val depth : t -> int
(** Current span-stack depth (0 when idle). *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. Cycles, host ns
    and allocated words accrued during [f] go to the span (and,
    transitively, its ancestors). If [f] raises, the frame is popped
    and the costs up to the raise are still attributed before the
    exception propagates. On {!disabled} it just runs [f].

    Bookkeeping allocates a small constant number of words per call
    (measurement points and the stack frame). The frame is allocated
    after the entry reading, so it counts toward the span's own words;
    the rest counts toward the enclosing span. Both scale with the call
    counts. *)

val reset : t -> unit
(** Drop the tree, events and self samples and restart attribution now.
    The stack must be empty (spans in flight are discarded). *)

val sample_self : t -> unit
(** Record one simulator self-gauge sample (OCaml heap words, GC
    collection counts, RSS if a reader was injected) into a bounded
    series. Callers sample at workload top-of-loop. No-op on
    {!disabled}. *)

val self_samples : t -> self_sample list
(** Retained self-gauge samples, oldest first (bounded; oldest dropped). *)

val self_recorded : t -> int

(** {1 Results} *)

val tree : t -> node list
(** Call-tree roots, sorted by name. *)

val flatten : t -> (string * node) list
(** Every node with its [";"]-joined path, DFS order. *)

val top_spans : ?k:int -> ?by:metric -> t -> (string * node) list
(** The [k] (default 10) paths with the largest self value of [by]
    (default [`Cycles]), descending; ties break by path name. *)

val total : ?by:metric -> t -> int
(** Cycles, host ns or allocated words (default [`Cycles]) since the
    profiler was created/reset. *)

val attributed : ?by:metric -> t -> int
(** The part of {!total} covered by completed root spans. *)

val unattributed : ?by:metric -> t -> int
(** [total - attributed], floored at 0: costs incurred while no span
    was active. *)

val attributed_fraction : ?by:metric -> t -> float
(** Attributed / total; 1.0 when nothing was measured. *)

val ns_per_vcycle : node -> float
(** Host nanoseconds per simulated cycle under a path; 0.0 when no
    cycles elapsed. *)

val events_recorded : t -> int
val events_dropped : t -> int

(** {1 Exporters} *)

val to_json : t -> Json.t
(** Cycle attribution summary plus the full call tree (deterministic). *)

val to_chrome_json : t -> Json.t
(** Chrome trace-event JSON (chrome://tracing, Perfetto, speedscope):
    complete events on one thread, virtual cycles as microseconds. *)

val to_collapsed : ?by:metric -> t -> string
(** Collapsed-stack text for flamegraph.pl / speedscope: one
    ["a;b;c value"] line per path with a non-zero self value of [by]
    (default [`Cycles]), plus an explicit ["(unattributed)"] line for
    costs outside any span. *)

val pp : Format.formatter -> t -> unit
(** Human-readable cycle tree with the attribution summary. *)

val host_to_json : t -> Json.t
(** Host attribution: ns and words summaries, a GC block (scoped word
    deltas + current heap state), the self-gauge summary, and the full
    call tree with per-path [vcycles]. Word counts, call counts and
    vcycles are deterministic; ns values are not. *)

val pp_host : Format.formatter -> t -> unit
(** Human-readable host-cost tree: self ns, self words, ns per cycle. *)
