module Frame = Physmem.Frame
module Phys_mem = Physmem.Phys_mem

type config = {
  dram_bytes : int;
  nvm_bytes : int;
  levels : int;
  walk_mode : Hw.Walker.mode;
  reclaim_policy : Reclaim.policy;
  cores : int;
  numa_nodes : int;
  tlb_sets : int;
  tlb_ways : int;
  range_tlb_entries : int;
  fs_erase : Fs.Memfs.erase_policy;
  swap_backing : [ `Device | `Pmfs ];
  aslr : bool;
  cost_model : Sim.Cost_model.t;
  trace_capacity : int;
}

let default_config =
  {
    dram_bytes = Sim.Units.gib 1;
    nvm_bytes = Sim.Units.gib 4;
    levels = 4;
    walk_mode = Hw.Walker.Native;
    reclaim_policy = Reclaim.Clock;
    cores = 1;
    numa_nodes = 1;
    tlb_sets = 128;
    tlb_ways = 8;
    range_tlb_entries = 32;
    fs_erase = Fs.Memfs.Eager_zero;
    swap_backing = `Device;
    aslr = false;
    cost_model = Sim.Cost_model.default;
    trace_capacity = 4096;
  }

type t = {
  config : config;
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  mem : Phys_mem.t;
  smp : Hw.Smp.t;
  sched : Sched.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;
  zero : Physmem.Zero_engine.t;
  zcache : Alloc.Zero_cache.t;
  swap : Swap.t;
  reclaim : Reclaim.t;
  tmpfs : Fs.Memfs.t;
  pmfs : Fs.Memfs.t option;
  procs : (int, Proc.t) Hashtbl.t;
  mutable next_pid : int;
  userfault : Userfault.t;
  aslr_rng : Sim.Rng.t;
  fault_ctx : Fault.ctx; (* built once: every fault and frame allocation reads it *)
  mutable busy_depth : int; (* re-entrancy guard for [on_core] *)
  (* The outermost [on_core] frame: its core, the trace core it
     replaced, and its start cycle. *)
  mutable outer_core : int;
  mutable outer_prev_core : int;
  mutable outer_start : int;
}

let buddy_max_order = 10

let create ?(config = default_config) () =
  let clock = Sim.Clock.create config.cost_model in
  let stats = Sim.Stats.create () in
  let trace = Sim.Trace.create ~clock ~capacity:config.trace_capacity () in
  let mem =
    Phys_mem.create ~clock ~stats ~trace ~dram_bytes:config.dram_bytes
      ~nvm_bytes:config.nvm_bytes ~numa_nodes:config.numa_nodes ()
  in
  let smp =
    Hw.Smp.create ~clock ~stats ~trace ~cores:config.cores ~numa_nodes:config.numa_nodes
      ~tlb_sets:config.tlb_sets ~tlb_ways:config.tlb_ways
      ~range_tlb_entries:config.range_tlb_entries ()
  in
  let sched = Sched.create ~cores:config.cores in
  let dram_frames = Phys_mem.dram_frames mem in
  (* DRAM layout: the low half is the buddy-managed anonymous pool
     (rounded to the buddy's block size); the rest backs tmpfs. *)
  let block = 1 lsl buddy_max_order in
  let anon_frames = Sim.Units.round_down (dram_frames / 2) ~align:block in
  if anon_frames = 0 then invalid_arg "Kernel.create: DRAM too small";
  let tmpfs_frames = dram_frames - anon_frames in
  if tmpfs_frames = 0 then invalid_arg "Kernel.create: no room for tmpfs";
  let buddy =
    Alloc.Buddy.create ~mem ~first:0 ~count:anon_frames ~max_order:buddy_max_order ()
  in
  let tmpfs =
    Fs.Memfs.create ~mem ~first:anon_frames ~count:tmpfs_frames ~mode:Fs.Memfs.Tmpfs
      ~erase:config.fs_erase ()
  in
  let pmfs =
    if config.nvm_bytes > 0 then
      Some
        (Fs.Memfs.create ~mem ~first:dram_frames
           ~count:(Phys_mem.nvm_frames mem)
           ~mode:Fs.Memfs.Pmfs ~erase:config.fs_erase ())
    else None
  in
  let meta = Page_meta.create ~clock ~stats ~frames:(Phys_mem.total_frames mem) in
  let zero = Physmem.Zero_engine.create mem in
  let zcache = Alloc.Zero_cache.create ~mem ~engine:zero () in
  let swap =
    let backing =
      match (config.swap_backing, pmfs) with
      | `Pmfs, Some fs -> Swap.Swapfile fs
      | `Pmfs, None -> invalid_arg "Kernel.create: swap_backing `Pmfs needs NVM"
      | `Device, _ -> Swap.Device
    in
    Swap.create ~mem ~backing ()
  in
  let reclaim =
    Reclaim.create ~mem ~meta ~buddy ~swap ~zero ~policy:config.reclaim_policy
  in
  {
    config;
    clock;
    stats;
    trace;
    mem;
    smp;
    sched;
    meta;
    buddy;
    zero;
    zcache;
    swap;
    reclaim;
    tmpfs;
    pmfs;
    procs = Hashtbl.create 16;
    next_pid = 1;
    userfault = Userfault.create ();
    aslr_rng = Sim.Rng.create ~seed:0x51ed;
    fault_ctx = { Fault.mem; meta; buddy; swap; zero; zcache; reclaim = Some reclaim };
    busy_depth = 0;
    outer_core = 0;
    outer_prev_core = 0;
    outer_start = 0;
  }

let config t = t.config
let smp t = t.smp
let sched t = t.sched
let clock t = t.clock
let stats t = t.stats
let trace t = t.trace
let mem t = t.mem
let page_meta t = t.meta
let buddy t = t.buddy
let zero_engine t = t.zero
let zero_cache t = t.zcache
let swap t = t.swap
let reclaim t = t.reclaim
let tmpfs t = t.tmpfs
let pmfs t = t.pmfs

let userfault t = t.userfault

let fault_ctx t = t.fault_ctx

let background_zero t ~budget_frames = Alloc.Zero_cache.refill t.zcache ~budget_frames

let charge_boot t = Page_meta.init_range t.meta ~first:0 ~count:(Phys_mem.total_frames t.mem)

let charge t c = Sim.Clock.charge t.clock c
let model t = Sim.Clock.model t.clock
let pspan t name f = Sim.Trace.prof_span t.trace name f

let charge_syscall t =
  charge t (model t).Sim.Cost_model.syscall;
  Sim.Stats.incr t.stats "syscall";
  (* Syscall entry doubles as the gauge-sampling heartbeat. *)
  Sim.Stats.sample t.stats ~now:(Sim.Clock.now t.clock)

let causal t = Sim.Trace.causal t.trace

(* Cycle attribution: everything a syscall spends on [proc]'s behalf
   (translation, fault handling, shootdown IPIs, file work) is billed to
   the core the process runs on, the trace core stamp is set for the
   duration, and physical accesses resolve NUMA locality against that
   core's node. Re-entrant kernel paths (mlock faulting pages in via
   [access]) bill only at the outermost frame. *)
let enter_core t proc =
  t.busy_depth <- 1;
  let core = proc.Proc.core in
  t.outer_core <- core;
  t.outer_prev_core <- Sim.Trace.current_core t.trace;
  Sim.Trace.set_core t.trace core;
  Phys_mem.set_accessor_node t.mem (Hw.Smp.numa_node_of_core t.smp core);
  t.outer_start <- Sim.Clock.now t.clock

let leave_core t =
  t.busy_depth <- 0;
  Sim.Trace.set_core t.trace t.outer_prev_core;
  Hw.Smp.add_busy t.smp t.outer_core (Sim.Clock.now t.clock - t.outer_start)

let on_core t proc f =
  if t.busy_depth > 0 then f ()
  else begin
    enter_core t proc;
    match f () with
    | v ->
      leave_core t;
      v
    | exception e ->
      leave_core t;
      raise e
  end

let alloc_pt_frame t () = Fault.raw_frame_exn ~what:"page-table frame" (fault_ctx t)

let create_process t ?(range_translations = false) () =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let range_table =
    if range_translations then
      Some (Hw.Range_table.create ~clock:t.clock ~stats:t.stats ~trace:t.trace ())
    else None
  in
  let mmap_base =
    if t.config.aslr then
      (* 16 bits of entropy at 2 MiB granularity, clear of the fixed windows. *)
      Some (0x2000_0000_0000 + (Sim.Rng.int t.aslr_rng (1 lsl 16) * Sim.Units.huge_2m))
    else None
  in
  let aspace =
    Address_space.create ~clock:t.clock ~stats:t.stats ~trace:t.trace ~levels:t.config.levels
      ~alloc_pt_frame:(alloc_pt_frame t) ?range_table ~mode:t.config.walk_mode ~smp:t.smp
      ~asid:pid ?mmap_base ()
  in
  (* Round-robin placement: the pid is the ASID tagging this address
     space's entries in whichever core's TLBs it warms. *)
  let core = Sched.pick t.sched ~affinity:(-1) in
  Hw.Mmu.set_core (Address_space.mmu aspace) core;
  let c = causal t in
  let spawn =
    Sim.Causal.emit c
      ~core:(Sim.Trace.current_core t.trace)
      ~op:"spawn"
      ~detail:(Printf.sprintf "pid%d" pid)
      ()
  in
  let place = Sim.Causal.emit c ~core ~op:"sched_place" ~detail:(Printf.sprintf "pid%d" pid) () in
  Sim.Causal.link c ~src:spawn ~dst:place ~kind:"sched";
  let p = Proc.create ~pid ~aspace ~core ~affinity:(-1) () in
  Hashtbl.replace t.procs pid p;
  p

let migrate t proc ~core =
  if core < 0 || core >= Hw.Smp.cores t.smp then invalid_arg "Kernel.migrate: no such core";
  if proc.Proc.affinity land (1 lsl core) = 0 then
    invalid_arg "Kernel.migrate: core not in affinity mask";
  if core <> proc.Proc.core then begin
    pspan t "migrate" @@ fun () ->
    let c = causal t in
    let detail = Printf.sprintf "pid%d" proc.Proc.pid in
    let out = Sim.Causal.emit c ~core:proc.Proc.core ~op:"migrate_out" ~detail () in
    let start = Sim.Clock.now t.clock in
    charge t (model t).Sim.Cost_model.scheduler;
    Sim.Stats.incr t.stats "migration";
    proc.Proc.core <- core;
    Hw.Mmu.set_core (Address_space.mmu proc.Proc.aspace) core;
    let in_ = Sim.Causal.emit c ~core ~op:"migrate_in" ~detail () in
    Sim.Causal.link c ~src:out ~dst:in_ ~kind:"migrate";
    (* The placement work runs on the destination core. *)
    let cycles = Sim.Clock.now t.clock - start in
    Sim.Causal.attribute c ~core ~share:Sim.Causal.Sched ~cycles;
    Hw.Smp.add_busy t.smp core cycles
  end

let process_count t = Hashtbl.length t.procs
let processes t = t.procs

(* Release one mapped page during munmap/exit teardown. *)
let release_page t (vma : Vma.t) ~page_va (leaf : Hw.Page_table.leaf) =
  let pfn = leaf.Hw.Page_table.pfn in
  Page_meta.dec_mapcount t.meta pfn;
  Page_meta.put_page t.meta pfn;
  match vma.Vma.backing with
  | Vma.Anon ->
    ignore page_va;
    if Page_meta.mapcount t.meta pfn = 0 then
      Physmem.Zero_engine.put_dirty t.zero [ pfn ]
  | Vma.File _ ->
    (* File frames belong to the file system; nothing to free here. *)
    ()

(* Tear down one VMA already removed from its address space: per-page
   release (the baseline's linear unmap cost), with the TLB invalidation
   deferred into [batch] — the mmu_gather pattern. *)
let teardown_vma t (vma : Vma.t) ~table ~batch =
  let pages = vma.Vma.len / Sim.Units.page_size in
  for i = 0 to pages - 1 do
    let page_va = vma.Vma.start + (i * Sim.Units.page_size) in
    match Hw.Page_table.find_leaf table ~va:page_va with
    | leaf when leaf.Hw.Page_table.size = Hw.Page_size.Small ->
      release_page t vma ~page_va leaf;
      Hw.Page_table.unmap_page table ~va:page_va
    | leaf ->
      (* Huge leaf: unmap once at its base. *)
      let span = Hw.Page_size.bytes leaf.Hw.Page_table.size in
      if Sim.Units.is_aligned page_va ~align:span then begin
        release_page t vma ~page_va leaf;
        Hw.Page_table.unmap_page table ~va:page_va
      end
    | exception Not_found -> ()
  done;
  Hw.Tlb_batch.add batch ~va:vma.Vma.start ~len:vma.Vma.len;
  match vma.Vma.backing with
  | Vma.File { fs; ino; _ } -> Fs.Memfs.close_file fs ino
  | Vma.Anon -> ()

let munmap t proc ~va ~len =
  on_core t proc @@ fun () ->
  pspan t "munmap" @@ fun () ->
  charge_syscall t;
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let removed = Address_space.remove_range aspace ~start:va ~len in
  let batch = Hw.Tlb_batch.create (Address_space.mmu aspace) in
  List.iter (fun vma -> teardown_vma t vma ~table ~batch) removed;
  (* One shootdown pass for the whole span, VMA count notwithstanding. *)
  Hw.Tlb_batch.flush batch

let exit_process t proc =
  on_core t proc @@ fun () ->
  pspan t "exit" @@ fun () ->
  charge_syscall t;
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let lo = ref max_int and hi = ref min_int in
  Address_space.iter_vmas aspace (fun (v : Vma.t) ->
      lo := min !lo v.Vma.start;
      hi := max !hi (v.Vma.start + v.Vma.len));
  if !lo < !hi then begin
    (* One range removal spanning every VMA, then one batched flush: exit
       pays O(1) shootdowns no matter how fragmented the address space. *)
    let removed = Address_space.remove_range aspace ~start:!lo ~len:(!hi - !lo) in
    let batch = Hw.Tlb_batch.create (Address_space.mmu aspace) in
    List.iter (fun vma -> teardown_vma t vma ~table ~batch) removed;
    Hw.Tlb_batch.flush batch
  end;
  proc.Proc.alive <- false;
  Hashtbl.remove t.procs proc.Proc.pid

let reset_after_crash t =
  (* Power failure: every process dies with no orderly teardown, and all
     DRAM-resident kernel state (struct pages, reclaim lists, userfault
     registrations, TLBs) is gone. Host-side, no cost — the machine is
     off. Buddy/file-system/zero-cache state is left alone: persistent
     page tables and file extents are exactly what recovery reuses. *)
  Hashtbl.iter (fun _ p -> p.Proc.alive <- false) t.procs;
  Hashtbl.reset t.procs;
  Userfault.clear t.userfault;
  Reclaim.clear t.reclaim;
  Page_meta.reset_after_crash t.meta;
  (* Every core's TLBs lost power with the machine; host-side clear keeps
     the occupancy gauges consistent with zero (the post-recovery
     invariant checker walks these TLBs, so they must not carry pre-crash
     entries for dead address spaces). *)
  Hw.Smp.clear t.smp;
  Sim.Stats.set_gauge t.stats "tlb_entries" 0;
  Sim.Stats.set_gauge t.stats "range_tlb_entries" 0;
  Sim.Stats.set_gauge t.stats "zero_cache_depth" (Alloc.Zero_cache.depth t.zcache)

let register_if_anon t proc ~va =
  let aspace = proc.Proc.aspace in
  match Address_space.find_vma aspace ~va with
  | Some { Vma.backing = Vma.Anon; _ } -> (
    match Hw.Page_table.find_leaf (Address_space.page_table aspace) ~va with
    | leaf ->
      Reclaim.register t.reclaim ~pid:proc.Proc.pid ~aspace ~va
        ~pfn:leaf.Hw.Page_table.pfn
    | exception Not_found -> ())
  | _ -> ()

let mmap_anon t proc ~len ~prot ~populate =
  on_core t proc @@ fun () ->
  pspan t "mmap" @@ fun () ->
  charge_syscall t;
  if len <= 0 then invalid_arg "Kernel.mmap_anon: empty mapping";
  let len = Sim.Units.round_up len ~align:Sim.Units.page_size in
  let aspace = proc.Proc.aspace in
  let va = Address_space.alloc_va aspace ~len ~align:Sim.Units.page_size in
  let vma = Vma.make ~start:va ~len ~prot ~backing:Vma.Anon ~share:Vma.Private in
  vma.Vma.populated <- populate;
  Address_space.insert_vma aspace vma;
  if populate then begin
    let ctx = fault_ctx t in
    let pages = len / Sim.Units.page_size in
    for i = 0 to pages - 1 do
      let page_va = va + (i * Sim.Units.page_size) in
      Fault.populate_anon_page ctx ~aspace ~va:page_va ~prot;
      register_if_anon t proc ~va:page_va
    done
  end;
  va

let mmap_file t proc ~fs ~path ~prot ~share ~populate ?len ?(offset = 0) () =
  on_core t proc @@ fun () ->
  pspan t "mmap" @@ fun () ->
  charge_syscall t;
  let ino =
    match Fs.Memfs.lookup fs path with
    | Some ino -> ino
    | None -> invalid_arg ("Kernel.mmap_file: no such file: " ^ path)
  in
  let node = Fs.Memfs.inode fs ino in
  if not (Hw.Prot.subset prot ~of_:node.Fs.Inode.prot) then
    invalid_arg "Kernel.mmap_file: file permission denied";
  let file_len = node.Fs.Inode.size in
  let len =
    match len with
    | Some l -> Sim.Units.round_up l ~align:Sim.Units.page_size
    | None -> Sim.Units.round_up (max 0 (file_len - offset)) ~align:Sim.Units.page_size
  in
  if len = 0 then invalid_arg "Kernel.mmap_file: empty mapping";
  Fs.Memfs.open_file fs ino;
  let aspace = proc.Proc.aspace in
  let va = Address_space.alloc_va aspace ~len ~align:Sim.Units.page_size in
  let vma =
    Vma.make ~start:va ~len ~prot ~backing:(Vma.File { fs; ino; file_offset = offset }) ~share
  in
  vma.Vma.populated <- populate;
  Address_space.insert_vma aspace vma;
  if populate then begin
    let ctx = fault_ctx t in
    let pages = len / Sim.Units.page_size in
    for i = 0 to pages - 1 do
      let page_va = va + (i * Sim.Units.page_size) in
      Fault.populate_file_page ctx ~aspace ~vma ~va:page_va
    done
  end;
  va

let mprotect t proc ~va ~len ~prot =
  on_core t proc @@ fun () ->
  pspan t "mprotect" @@ fun () ->
  charge_syscall t;
  let aspace = proc.Proc.aspace in
  (match Address_space.find_vma aspace ~va with
  | Some vma -> vma.Vma.prot <- prot
  | None -> invalid_arg "Kernel.mprotect: unmapped");
  ignore (Hw.Page_table.protect_range (Address_space.page_table aspace) ~va ~len ~prot);
  Hw.Mmu.invalidate_range (Address_space.mmu aspace) ~va ~len

let context_switch t ~from_ ~to_ ~asids =
  pspan t "context_switch" @@ fun () ->
  let c = causal t in
  let out =
    Sim.Causal.emit c ~core:from_.Proc.core ~op:"switch_out"
      ~detail:(Printf.sprintf "pid%d" from_.Proc.pid) ()
  in
  let start = Sim.Clock.now t.clock in
  charge t (model t).Sim.Cost_model.scheduler;
  Sim.Stats.incr t.stats "context_switch";
  if not asids then Hw.Mmu.flush_tlbs (Address_space.mmu to_.Proc.aspace);
  let in_ =
    Sim.Causal.emit c ~core:to_.Proc.core ~op:"switch_in"
      ~detail:(Printf.sprintf "pid%d" to_.Proc.pid) ()
  in
  Sim.Causal.link c ~src:out ~dst:in_ ~kind:"sched";
  let cycles = Sim.Clock.now t.clock - start in
  Sim.Causal.attribute c ~core:to_.Proc.core ~share:Sim.Causal.Sched ~cycles;
  Hw.Smp.add_busy t.smp to_.Proc.core cycles

let madvise_dontneed t proc ~va ~len =
  on_core t proc @@ fun () ->
  pspan t "madvise" @@ fun () ->
  charge_syscall t;
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let released = ref 0 in
  let pages = Sim.Units.pages_of_bytes len in
  for i = 0 to pages - 1 do
    let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size + (i * Sim.Units.page_size) in
    match (Address_space.find_vma aspace ~va:page_va, Hw.Page_table.lookup table ~va:page_va) with
    | Some { Vma.backing = Vma.Anon; _ }, Some (_, leaf)
      when leaf.Hw.Page_table.size = Hw.Page_size.Small ->
      let pfn = leaf.Hw.Page_table.pfn in
      Hw.Page_table.unmap_page table ~va:page_va;
      Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
      Page_meta.dec_mapcount t.meta pfn;
      Page_meta.put_page t.meta pfn;
      if Page_meta.mapcount t.meta pfn = 0 then Physmem.Zero_engine.put_dirty t.zero [ pfn ];
      incr released
    | _ -> ()
  done;
  Sim.Stats.add t.stats "madvise_released" !released;
  !released

(* Deliver a fault to a user handler: trap, switch to the handler task,
   run it, install the page via the UFFDIO_COPY path, switch back. *)
let handle_userfault t proc ~va ~write ~prot ~(handler : Userfault.handler) =
  pspan t "userfault" @@ fun () ->
  let aspace = proc.Proc.aspace in
  let m = model t in
  charge t m.Sim.Cost_model.fault_trap;
  charge t (2 * m.Sim.Cost_model.scheduler);
  Sim.Stats.incr t.stats "userfault";
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  match handler ~va ~write with
  | Userfault.Sigbus -> raise (Fault.Segfault va)
  | Userfault.Zero_page | Userfault.Provide _ as r ->
    charge_syscall t (* UFFDIO_COPY / UFFDIO_ZEROPAGE *);
    let ctx = fault_ctx t in
    let pfn = Fault.fresh_zero_frame ctx in
    (match r with
    | Userfault.Provide content ->
      Phys_mem.write t.mem ~addr:(Frame.to_addr pfn)
        (String.sub content 0 (min (String.length content) Sim.Units.page_size))
    | Userfault.Zero_page | Userfault.Sigbus -> ());
    Hw.Page_table.map_page (Address_space.page_table aspace) ~va:page_va ~pfn ~prot
      ~size:Hw.Page_size.Small;
    Page_meta.get_page t.meta pfn;
    Page_meta.inc_mapcount t.meta pfn

let user_page_release t proc ~va =
  let aspace = proc.Proc.aspace in
  let table = Address_space.page_table aspace in
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  match Hw.Page_table.lookup table ~va:page_va with
  | None -> None
  | Some (_, leaf) ->
    let pfn = leaf.Hw.Page_table.pfn in
    Hw.Page_table.unmap_page table ~va:page_va;
    Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
    Page_meta.dec_mapcount t.meta pfn;
    Page_meta.put_page t.meta pfn;
    Physmem.Zero_engine.put_dirty t.zero [ pfn ];
    Sim.Stats.incr t.stats "userfault_evict";
    Some pfn

let rec access_inner t proc ~va ~write =
  if Sim.Profile.enabled (Sim.Trace.profile t.trace) then
    pspan t "access" (fun () -> access_unprofiled t proc ~va ~write)
  else access_unprofiled t proc ~va ~write

and access_unprofiled t proc ~va ~write =
  let aspace = proc.Proc.aspace in
  match Hw.Mmu.access (Address_space.mmu aspace) ~mem:t.mem ~va ~write with
  | Ok () -> ()
  | Error _ -> (
    match Hw.Page_table.find_leaf (Address_space.page_table aspace) ~va with
    | _ -> kernel_fault t proc ~va ~write
    | exception Not_found -> (
      match Userfault.find t.userfault ~pid:proc.Proc.pid ~va with
      | Some (handler, prot) ->
        (* Missing page in a registered range: user-level paging. *)
        handle_userfault t proc ~va ~write ~prot ~handler;
        access_inner t proc ~va ~write
      | None -> kernel_fault t proc ~va ~write))

and kernel_fault t proc ~va ~write =
  let aspace = proc.Proc.aspace in
  (match Fault.handle t.fault_ctx ~aspace ~pid:proc.Proc.pid ~va ~write with
  | Fault.Major -> (
    (* The page came back from swap with real contents: keep it dirty so
       a later eviction writes it out again. *)
    match Hw.Page_table.find_leaf (Address_space.page_table aspace) ~va with
    | leaf -> leaf.Hw.Page_table.dirty <- true
    | exception Not_found -> ())
  | Fault.Minor -> ());
  register_if_anon t proc ~va;
  access_inner t proc ~va ~write

(* [on_core] specialised to the per-page entry point, so an access
   allocates no closure. *)
let access t proc ~va ~write =
  if t.busy_depth > 0 then access_inner t proc ~va ~write
  else begin
    enter_core t proc;
    match access_inner t proc ~va ~write with
    | () -> leave_core t
    | exception e ->
      leave_core t;
      raise e
  end

let access_range t proc ~va ~len ~write ~stride =
  if stride <= 0 then invalid_arg "Kernel.access_range: bad stride";
  let count = ref 0 in
  let cursor = ref va in
  while !cursor < va + len do
    access t proc ~va:!cursor ~write;
    incr count;
    cursor := !cursor + stride
  done;
  !count

let mlock t proc ~va ~len =
  on_core t proc @@ fun () ->
  pspan t "mlock" @@ fun () ->
  charge_syscall t;
  let aspace = proc.Proc.aspace in
  let pages = Sim.Units.pages_of_bytes len in
  for i = 0 to pages - 1 do
    let page_va = va + (i * Sim.Units.page_size) in
    (* Fault the page in if needed, then pin it. *)
    access t proc ~va:page_va ~write:false;
    match Hw.Page_table.lookup (Address_space.page_table aspace) ~va:page_va with
    | Some (_, leaf) ->
      let pfn = leaf.Hw.Page_table.pfn in
      Page_meta.get_page t.meta pfn;
      Page_meta.set_flag t.meta pfn Page_meta.Pinned true;
      Page_meta.set_flag t.meta pfn Page_meta.Mlocked true;
      Page_meta.set_flag t.meta pfn Page_meta.Unevictable true
    | None -> assert false
  done;
  Sim.Stats.add t.stats "mlocked_pages" pages

let read_syscall t proc ~fs ~ino ~off ~len =
  on_core t proc @@ fun () ->
  pspan t "read" @@ fun () ->
  charge_syscall t;
  let data = Fs.Memfs.read_file fs ino ~off ~len in
  let n = Bytes.length data in
  (* Copy into the user buffer. *)
  charge t (Sim.Cost_model.copy_cost (model t) ~bytes:n);
  n
