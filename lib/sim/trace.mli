(** Structured tracing over the virtual clock.

    A [Trace.t] holds a bounded ring buffer of events (operation name, start
    and end cycle, operand size, outcome string) and a per-operation latency
    {!Histogram.t}, so experiments can report p50/p99/max latency per
    operation rather than flat counts.

    Components store a trace field defaulting to {!disabled}, a shared no-op
    sentinel: recording into it does nothing, and {!span} just runs its
    function. Costs charged to the clock never depend on whether tracing is
    enabled.

    Recording allocates nothing once an operation's histogram exists: the
    ring stores each field in its own preallocated array, and {!events}
    rebuilds {!event} records from those arrays on read. *)

type event = {
  seq : int;  (** monotonic sequence number: emission order, never reused *)
  op : string;  (** operation name, e.g. "tlb_lookup" *)
  core : int;  (** core the event was recorded on *)
  start : int;  (** virtual cycle when the op began *)
  finish : int;  (** virtual cycle when the op ended *)
  arg : int;  (** operand size (bytes, pages, refs...); 0 if n/a *)
  outcome : string;  (** "ok", "hit", "miss", "minor", "raised", ... *)
}

type t

val create : clock:Clock.t -> ?capacity:int -> unit -> t
(** A live trace reading timestamps from [clock]. [capacity] (default 4096)
    bounds the event ring; older events are dropped, histograms keep every
    sample. Raises [Invalid_argument] if [capacity <= 0]. *)

val disabled : t
(** Shared no-op sentinel: never records, safe to use from any component. *)

val profile : t -> Profile.t
(** The span-tree profiler attached to this trace — {!Profile.disabled}
    until {!attach_profile}. *)

val attach_profile : t -> Profile.t -> unit
(** Attach a profiler so every component sharing this trace starts
    attributing spans. Raises [Invalid_argument] on {!disabled} (the
    sentinel is shared machine-wide). *)

val prof_span : t -> string -> (unit -> 'a) -> 'a
(** [prof_span t name f] is [Profile.span (profile t) name f]: the one
    combinator every instrumented hot path uses, so each span carries
    virtual cycles, host ns and allocated words on a single stack. With
    no profiler attached it just runs [f] and allocates nothing. *)

val faults : t -> Fault_inject.t
(** The fault-injection plane attached to this trace —
    {!Fault_inject.disabled} until {!attach_faults}. Components consult
    it at named sites with [Fault_inject.fires (Trace.faults trace)
    ~site]; with no plane attached that is a single always-false branch. *)

val attach_faults : t -> Fault_inject.t -> unit
(** Attach a fault plane so every component sharing this trace starts
    consulting it, and wire its reporter to record a ["fault_inject"]
    trace event (outcome = site name) on each injection. Raises
    [Invalid_argument] on {!disabled}. *)

val causal : t -> Causal.t
(** The cross-core causal plane attached to this trace —
    {!Causal.disabled} until {!attach_causal}. Components emit graph
    nodes/edges and cycle shares through it; with no plane attached
    every call is a cheap no-op. *)

val attach_causal : t -> Causal.t -> unit
(** Attach a causal plane so every component sharing this trace starts
    emitting cross-core edges. Raises [Invalid_argument] on
    {!disabled}. *)

val current_core : t -> int
(** The core currently stamped onto recorded events (default 0). *)

val set_core : t -> int -> unit
(** Set the core stamped onto subsequent events. The kernel brackets
    each syscall with this; components below it inherit the stamp.
    No-op on {!disabled} (the sentinel is shared). *)

val enabled : t -> bool
val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded, including ones the ring has since dropped. *)

val dropped : t -> int
(** Events evicted from the ring by wraparound. *)

val record :
  t -> op:string -> start:int -> arg:int -> ?outcome:string -> ?core:int -> unit -> unit
(** Record one event ending now; latency [now - start] feeds the per-op
    histogram. [arg] is the event's payload (0 when it has none); it is
    required because an optional argument bound to a computed value
    costs a [Some] cell per event. [outcome] defaults to "ok". [core]
    overrides the {!current_core} stamp (components acting on a remote
    core's behalf pass it explicitly). No-op on {!disabled}. *)

val span : t -> op:string -> ?arg:int -> ?outcome:('a -> string) -> (unit -> 'a) -> 'a
(** [span t ~op f] runs [f], charging the clock with whatever [f] itself
    charges, and records one event covering it. [outcome] maps the result to
    an outcome string (default "ok"); an exception records outcome "raised"
    and re-raises. On {!disabled} it just runs [f]. *)

val events : t -> event list
(** Retained events, oldest first, rebuilt from the ring on each call. *)

val latency : t -> string -> Histogram.t option
(** Latency histogram for one operation, if it ever recorded. *)

val ops : t -> (string * Histogram.t) list
(** All per-operation histograms, sorted by operation name. *)

val reset : t -> unit

val to_json : ?events_limit:int -> t -> Json.t
(** Export: capacity/recorded/dropped, per-op histogram summaries, and the
    retained events (newest [events_limit] of them, default all retained).
    Each op summary carries a [recorded] count (events ever recorded for
    that op) and an [in_ring] count (events still retained by the ring),
    so per-op dropped-event skew is visible: [recorded - in_ring] events
    of that op were evicted by wraparound. *)

val chrome_events : t -> Json.t list
(** Retained events as Chrome trace-event "X" slices, one track per
    core, sorted by (start cycle, sequence number) so equal-cycle events
    export in a deterministic order. *)

val pp : Format.formatter -> t -> unit
