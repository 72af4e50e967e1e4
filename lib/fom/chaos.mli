(** Crash-at-every-step exploration and named fault plans.

    {!explore} answers "does it survive?" exhaustively for any
    persistent component described as a {!Subject}; {!explore_wal},
    {!explore_fs} and [Store.Chaos.explore_store] are such subjects.
    Pass 0 runs the workload to completion with the ["durable_step"]
    site unarmed: the evaluation count enumerates every clwb/sfence
    boundary. Then one replay per boundary arms [On_nth k], loses power
    exactly there, recovers and applies the subject's oracle; the same
    seed makes the k-th replay identical to pass 0 up to the crash. The
    explorer also crashes {e inside} recovery, once at every boundary
    that recovery after the complete workload crosses.

    {!run_plan} is the sustained-pressure side: probabilistic injection
    across a named set of sites while a mixed VM + FOM workload runs,
    counting typed degradations (ENOMEM / ENOSPC), reclaim retries and
    OOMs, with a final {!Os.Check} verdict. *)

type report = {
  steps : int;  (** durable-step boundaries in the workload's window *)
  fences : int;  (** sfences pass 0 crosses in the window *)
  crashes : int;  (** workload replays: one per boundary, plus the damage arms' *)
  recovery_steps : int;  (** boundaries recovery crosses; each is crashed once *)
  detections : (string * int) list;  (** losses detected per damage arm *)
  violations : string list;  (** empty = every recovery was consistent *)
}

type damage = { label : string; site : string; p : float }
(** A damage arm: [site] fires with probability [p] while the workload
    runs, and power fails at every [steps/4]-th window boundary [k],
    replayed with seed [seed + 997 * k]. An arm that detects nothing
    retries at every [steps/8]-th boundary with [min 0.9 (3p)] and seed
    [seed + 1009 * k]; still nothing is a violation (["<label> arm: ..."]). *)

(** A persistent component under test. The explorer owns the passes,
    arming [On_nth], catching {!Sim.Fault_inject.Injected_crash} and
    the violations. *)
module type Subject = sig
  type t  (** one machine plus the workload's progress on it *)

  val create : seed:int -> t
  (** A fresh machine, fault plane seeded [seed]; crosses no durable step. *)

  val plane : t -> Sim.Fault_inject.t
  val stats : t -> Sim.Stats.t  (** where "sfence" is counted *)

  val run : t -> mark:(unit -> unit) -> unit
  (** The deterministic workload, until done or until the armed
      ["durable_step"] raises. [mark ()] opens the explored window; a
      workload that never calls it is explored from the start. *)

  val recover : t -> unit
  (** Power loss, then recovery. If it raises
      {!Sim.Fault_inject.Injected_crash}, the explorer calls it again. *)

  val check : t -> fail:(string -> unit) -> unit
  (** The oracle after a clean crash: the recovered state is the
      committed prefix, plus the subject's invariants. After the whole
      workload that prefix is everything, i.e. one clean recovery. *)

  val damage : damage list

  val check_damaged : t -> fail:(string -> unit) -> int
  (** The oracle after a damage-arm crash: losses are allowed, silently
      wrong data is not. Returns the losses detected. *)
end

val explore : (module Subject) -> seed:int -> report
(** Violations read ["step k: ..."] (k = 0 for pass 0 and the arms) or
    ["recovery step j: ..."]. A window with no boundary, and a replay
    whose crash never fires, are violations too. *)

val report_to_json : report -> Sim.Json.t
(** [steps], [fences], [crashes], ["<label>_detections"] per arm, and
    the violation count. *)

val machine : seed:int -> Os.Kernel.t * Fom.t * Sim.Fault_inject.t
(** 8 MiB DRAM + 8 MiB NVM, four cores, a plane seeded [seed] attached. *)

val explore_wal : ?records:int -> ?seed:int -> unit -> report
(** Append [records] (default 6) deterministic records to a bare WAL on
    a standalone NVM machine. Invariants per crash: acknowledged appends
    survive (recovery may keep one more, durable but unacknowledged
    record), the recovered log is a byte-exact prefix of the attempted
    log, and it accepts further appends. WAL recovery writes nothing,
    so [recovery_steps] is 0. *)

val explore_fs : ?files:int -> ?seed:int -> unit -> report
(** Allocate [files] (default 5) FOM regions — alternating persistent
    named files and volatile temporaries — on a full kernel + FOM
    machine. Invariants per crash: persistent files whose write
    completed survive intact, volatile files are gone, masters are
    pruned iff their file died (kept + dropped = count at the crash, a
    second prune finds nothing), {!Os.Check} passes, and the recovered
    machine still allocates. *)

(** {1 Named fault plans} *)

type plan_outcome = {
  plan : string;
  seed : int;
  sites : (string * int * int) list;
      (** (site, evaluations, injected) for every consulted site *)
  injected_total : int;
  enomem : int;  (** operations that degraded to a typed ENOMEM *)
  enospc : int;  (** operations that degraded to a typed ENOSPC *)
  retried : int;  (** allocations saved by the reclaim-then-retry pass *)
  reclaimed_frames : int;
  ooms : int;  (** allocations that still failed after reclaim *)
  checks : Os.Check.violation list;
}

val plans : string list
(** ["alloc"] (frame-allocation failures + forced zero-cache misses),
    ["nvm"] (torn lines, bit flips, partial WAL flushes), ["quota"]
    (refused quota charges), ["tlb"] (lost shootdown acks), ["all"]. *)

val plan_expects_violations : string -> bool
(** The tlb-bearing plans deliberately break TLB coherence; the
    invariant checker {e finding} those stale entries is their pass
    condition. *)

val run_guarded :
  plan:string -> seed:int -> retried:string ->
  (Os.Kernel.t -> Fom.t -> Sim.Fault_inject.t -> ((unit -> unit) -> unit) -> Os.Check.violation list) ->
  plan_outcome
(** Runs [body kernel fom plane guard] on a fresh {!machine}; [body]
    returns the invariant violations. [guard f] counts a typed ENOMEM or
    ENOSPC that [f] raises; anything else propagates. [retried] names
    the stat reported as [retried]. *)

val run_plan : ?seed:int -> ?rounds:int -> plan:string -> unit -> plan_outcome
(** Run the named plan over [rounds] (default 16) iterations of a mixed
    anonymous-VM + FOM workload. Operations may only fail with typed
    {!Sim.Errno.Error}s — anything else escaping is a bug and
    propagates. Raises [Invalid_argument] on an unknown plan name. *)
