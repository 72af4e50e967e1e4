(** The persistent store as a subject of {!O1mem.Chaos.explore}, and
    the "store" fault plan for {!Kv}. *)

val explore_store : ?keys:int -> ?txns:int -> ?seed:int -> unit -> O1mem.Chaos.report
(** Preload [keys] (default 6, min 4) objects, checkpoint, then run
    [txns] (default 3) mixed put/delete/grow/root transactions, crashing
    at every clwb/sfence/WAL boundary of the burst and at every durable
    boundary of the recovery that follows the complete workload. The
    completed burst, before any crash, must be the final mirror.
    Invariants per clean crash: recovery ran the store hook, the
    recovered state is exactly the committed prefix (the mirror after
    [acked] commits, or [acked]+1 when the crash fell between
    commit-record durability and the acknowledgement), the cross-layer
    {!Os.Check} passes, and the store still serves fresh writes with a
    clean {!Kv.verify}. Two damage arms, ["torn"] (torn lines) and
    ["flip"] (bit flips), then damage sampled boundaries: losses are
    permitted but must be {e detected} (truncation or EIO — an arm that
    detects nothing is a violation), and any value the store returns
    must be one the workload actually wrote. *)

val run_plan : ?seed:int -> ?rounds:int -> unit -> O1mem.Chaos.plan_outcome
(** The "store" plan: probabilistic injection at [store_alloc] /
    [store_commit] / [store_apply] while [rounds] (default 12)
    transactions run, a mid-plan crash/recover, then an over-WAL-capacity
    commit that must degrade to a typed [ENOSPC] with no partial state.
    [retried] counts defragment-and-retry allocation saves
    ("store_alloc_retry"); [checks] merges {!Os.Check.run} with
    {!Kv.verify} and is empty on success. *)
