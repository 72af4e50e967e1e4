(** Persistence primitives for the NVM region.

    Models the clwb/sfence discipline persistent-memory file systems such
    as PMFS use: stores to NVM only become durable once flushed and
    fenced. Tracks in-flight (unflushed) lines so crash tests can verify
    durability reasoning. *)

type t

val create : Phys_mem.t -> t

val write_persistent : t -> addr:int -> string -> unit
(** Store to NVM and remember the touched cache lines as unflushed. *)

val write_persistent_sub : t -> addr:int -> string -> pos:int -> len:int -> unit
(** {!write_persistent} of [s]'s bytes [[pos, pos + len)], charged
    exactly as {!Phys_mem.write_sub}. *)

val flush : t -> addr:int -> len:int -> unit
(** Flush the covered cache lines (clwb): charges one NVM write per line
    and marks them durable. Consults the fault plane attached to the
    memory's trace: ["nvm_torn_line"] leaves the first dirty line
    unflushed, ["nvm_bit_flip"] corrupts one bit of a flushed line, and
    ["durable_step"] raises {!Sim.Fault_inject.Injected_crash} after the
    batch (one durable-step boundary per flush call).

    Each line's durable image is a 64-byte buffer that later flushes
    refill in place (and a bit flip flips in place), so a flush
    allocates only the image of a line it has never flushed before. *)

val fence : t -> unit
(** Store fence (sfence): charges a small fixed cost; after a fence,
    previously flushed lines are guaranteed durable. Each fence is a
    ["durable_step"] boundary for the crash explorer. *)

val unflushed_lines : t -> int
(** Lines written through {!write_persistent} but not yet flushed. *)

val crash : t -> unit
(** Power failure. DRAM vanishes (delegates to {!Phys_mem.crash}); NVM
    lines that were written but never flushed are torn: they revert to
    their last flushed image (zeros if never flushed), modelling the loss
    of data stuck in the cache hierarchy. *)

val mem : t -> Phys_mem.t
(** The physical memory this persistence domain wraps. *)
