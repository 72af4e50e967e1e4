(** Frame zeroing service.

    Reusing memory requires erasing it for security (§4.1 of the paper).
    Three strategies are modelled:

    - {b eager}: zero the frame at reuse time — linear in size, the
      baseline behaviour;
    - {b background}: keep a pool of pre-zeroed frames filled during idle
      time, so allocation-time handout is O(1);
    - {b bulk erase}: a constant-time device-level erase of a whole
      contiguous extent (the "new technique" the paper calls for). *)

type t
(** The pending (dirty) and zeroed pools are FIFOs kept in growable
    [int] rings: frames are handed out in the order they were put in,
    and once a ring has grown to its high-water mark, putting, laundering
    and taking frames allocate nothing. *)

val create : Phys_mem.t -> t

val put_dirty : t -> Frame.t -> unit
(** Hand one freed frame to the engine; it becomes pending until zeroed. *)

val put_dirty_range : t -> first:Frame.t -> count:int -> unit
(** [put_dirty] each of the [count] frames from [first] upwards, in
    ascending order. *)

val no_frame : Frame.t
(** What {!take_zeroed} returns when the pool is empty ([-1], never a
    frame). *)

val take_zeroed : t -> Frame.t
(** Pop the oldest pre-zeroed frame in O(1); {!no_frame} when the pool
    is empty. *)

val background_step : t -> budget_frames:int -> int
(** Zero up to [budget_frames] pending frames, oldest first (charging the
    full linear zeroing cost to the clock, as the work is real — just off
    the critical path), and move them to the zeroed pool. Returns the
    number of frames zeroed. Its "background_zero" profiler span is
    built only when a profiler is attached. *)

val eager_zero : t -> Frame.t -> unit
(** Zero one frame right now, charging linear cost. Its "zeroing"
    profiler span is built only when a profiler is attached. *)

val bulk_erase : t -> first:Frame.t -> count:int -> unit
(** Device-level erase of [count] contiguous frames at constant simulated
    cost (one command latency), regardless of [count]. Contents are
    cleared. Bumps "bulk_erase_cmds". *)

val pending : t -> int
(** Frames waiting to be zeroed. *)

val available : t -> int
(** Pre-zeroed frames ready for O(1) handout. *)
