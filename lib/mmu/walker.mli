(** Hardware page-table walker cost model.

    On a TLB miss the walker issues one memory reference per radix level
    down to the leaf. Under virtualization each of those guest references
    itself requires a nested walk of the host table, giving the
    [(g+1)*(h+1) - 1] reference count the paper cites: 24 references for
    4-level-on-4-level and up to 35 for 5-level-on-5-level. *)

type mode = Native | Virtualized of int
(** [Virtualized h]: nested paging with an [h]-level host table. *)

val refs_for_walk : guest_levels:int -> leaf_depth:int -> mode:mode -> int
(** Memory references to resolve one miss whose leaf sits at [leaf_depth]
    (root = 0; a 4 KiB leaf in a 4-level table is at depth 3 and costs 4
    native references). *)

val walk :
  trace:Sim.Trace.t ->
  clock:Sim.Clock.t ->
  stats:Sim.Stats.t ->
  table:Page_table.t ->
  mode:mode ->
  va:int ->
  Page_table.leaf
(** Resolve [va] to its leaf, in one descent of the table. Charges one
    full DRAM reference for the leaf PTE and a cache-hit cost for each
    upper-level access (modelling page-walk caches); bumps "walk_refs"
    by the raw reference count. Sets the leaf's accessed bit. Raises
    [Not_found] for an unmapped address, after charging the walk to the
    hole (the hardware walked every level to find it). [trace] records
    a "page_walk" event with the reference count as [arg] (pass
    {!Sim.Trace.disabled} for none: [trace] is required because an
    optional argument would cost a [Some] cell per walk). Allocates
    nothing, leaf or hole, unless a profiler is attached to [trace]
    (then its "page_walk" span). *)
