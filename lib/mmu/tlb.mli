(** Set-associative translation lookaside buffer.

    Tags are (ASID, virtual page number, page size); each set is a fixed
    array of ways with per-slot LRU clocks, so lookup, fill and eviction
    are O(ways) with no allocation. The default geometry approximates a
    Haswell-class L2 STLB: 128 sets, 8 ways, 1024 entries.

    One [t] models the TLB of one physical core and is shared (PCID-style)
    by every address space scheduled there; [asid] scopes lookups and
    invalidations to one address space, while {!flush} drops everything. *)

type t

val create :
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  ?trace:Sim.Trace.t ->
  ?sets:int ->
  ?ways:int ->
  unit ->
  t
(** [trace] (default {!Sim.Trace.disabled}) records lookup, shootdown and
    flush events. *)

val capacity : t -> int

type slot = private {
  mutable valid : bool;
  mutable asid : int;
  mutable tag : int;  (** VA with the in-page bits of [size] cleared *)
  mutable size : Page_size.t;
  mutable pfn : Physmem.Frame.t;
  mutable prot : Prot.t;
  mutable used : int;  (** LRU tick of the last touch *)
}
(** One way of one set: the TLB's own storage, readable but not writable
    from outside. A slot is reused by later fills and invalidations, so
    read what you need from it before the next call that changes this
    TLB. *)

val no_slot : slot
(** What {!lookup} returns on a miss; compare with [==]. Never valid and
    never stored in a set. *)

val lookup : t -> asid:int -> va:int -> slot
(** Probe; charges the hit cost and bumps "tlb_hit" on success or
    "tlb_miss" on failure (no walk is performed — callers decide how to
    refill, see {!Mmu}). Returns the matching slot, or {!no_slot} on a
    miss. Allocates nothing, hit or miss, unless a profiler is attached
    to the trace (then its "tlb_lookup" span). *)

val insert :
  t -> asid:int -> va:int -> pfn:Physmem.Frame.t -> prot:Prot.t -> size:Page_size.t -> unit
(** Fill after a walk, evicting the set's LRU entry if full. Each
    eviction of a live entry bumps "tlb_evictions"; re-filling an
    already-resident page or taking a free slot does not. Allocates
    nothing.

    [asid] is a required argument of {!lookup} and [insert], the two
    per-access entry points: an optional one would cost a [Some] cell
    per call. *)

val invalidate_page : t -> asid:int -> va:int -> unit
(** Drop any entry of [asid] covering [va] (all page sizes probed);
    charges the shootdown cost and bumps "tlb_shootdown". Allocates
    nothing unless a profiler is attached: it runs per page on the
    madvise, CoW and release paths, so [asid] is required like
    {!lookup}'s. *)

val invalidate_range : t -> ?asid:int -> va:int -> len:int -> unit -> unit
(** Shoot down every entry of [asid] overlapping the range. For a range
    of n pages below the full-flush threshold this issues n per-page
    INVLPGs — n shootdown charges and "tlb_shootdown" += n, whether or
    not the pages are resident; at 33+ pages the whole TLB (all ASIDs) is
    flushed instead (one charge), as Linux does. *)

val flush : t -> unit
(** Full flush, all ASIDs; charges one shootdown and bumps "tlb_flush". *)

val entry_count : t -> int

val shootdowns : t -> int
(** This TLB's contribution to the global "tlb_shootdown" stat. Across
    all cores of a machine the sum must equal the stat — [Os.Check]
    enforces the reconciliation. *)

val flushes : t -> int
(** This TLB's contribution to the global "tlb_flush" stat. *)

val iter :
  t ->
  (asid:int -> va:int -> size:Page_size.t -> pfn:Physmem.Frame.t -> prot:Prot.t -> unit) ->
  unit
(** Visit every valid entry ([va] is the size-aligned tag). Host-side
    introspection for the invariant checker: no cost is charged and no
    LRU state is touched. *)

val clear : t -> unit
(** Host-side reset (crash recovery): drop every entry with no cycle
    charge and no stat bumps, keeping the occupancy gauge correct. *)

val full_flush_threshold_pages : int
(** Ranges of at least this many pages are invalidated with one full
    flush rather than per-page INVLPGs (Linux's tlb_single_page_flush
    ceiling: 33). *)
