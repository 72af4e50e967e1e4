exception Segfault of int

type ctx = {
  mem : Physmem.Phys_mem.t;
  meta : Page_meta.t;
  buddy : Alloc.Buddy.t;
  swap : Swap.t;
  zero : Physmem.Zero_engine.t;
  zcache : Alloc.Zero_cache.t;
  reclaim : Reclaim.t option;
}

type kind = Minor | Major

let clock ctx = Physmem.Phys_mem.clock ctx.mem
let stats ctx = Physmem.Phys_mem.stats ctx.mem
let model ctx = Sim.Clock.model (clock ctx)
let faults ctx = Sim.Trace.faults (Physmem.Phys_mem.trace ctx.mem)

(* The kernel's frame source, with the injection site in front: when
   "frame_alloc_fail" fires the buddy pretends to be empty, pushing the
   caller down its degradation path. *)
let buddy_alloc ctx ~order =
  if Sim.Fault_inject.fires (faults ctx) ~site:Sim.Fault_inject.site_frame_alloc_fail then None
  else Alloc.Buddy.alloc ctx.buddy ~order

(* A frame with unspecified contents: buddy first; when the buddy is dry
   the memory may be sitting in the zero engine — dirty (freed but not
   yet laundered: zero one on demand) or already laundered into its
   zeroed pool (the reclaim-then-retry pass parks frames there) — rather
   than OOM. *)
let raw_frame ctx =
  match buddy_alloc ctx ~order:0 with
  | Some pfn -> Some pfn
  | None ->
    ignore (Physmem.Zero_engine.background_step ctx.zero ~budget_frames:1);
    Physmem.Zero_engine.take_zeroed ctx.zero

(* Graceful degradation: a failed allocation gets exactly one
   reclaim-then-retry pass before the typed OOM surfaces. *)
let with_reclaim_retry ctx alloc =
  match alloc ctx with
  | Some _ as got -> got
  | None -> (
    match ctx.reclaim with
    | None -> None
    | Some r ->
      Sim.Stats.incr (stats ctx) "alloc_retry_reclaim";
      let trace = Physmem.Phys_mem.trace ctx.mem in
      let causal = Sim.Trace.causal trace in
      let core = Sim.Trace.current_core trace in
      let stall = Sim.Causal.emit causal ~core ~op:"alloc_stall" () in
      let got = Reclaim.scan r ~target_frames:8 in
      if got > 0 then Sim.Stats.add (stats ctx) "alloc_reclaimed_frames" got;
      (* Reclaimed frames land in the zero engine's dirty queue; launder
         enough of them for the retry to see clean memory. *)
      ignore (Physmem.Zero_engine.background_step ctx.zero ~budget_frames:(max 1 got));
      let wake = Sim.Causal.emit causal ~core ~op:"reclaim_wake" ~detail:(string_of_int got) () in
      Sim.Causal.link causal ~src:stall ~dst:wake ~kind:"reclaim";
      alloc ctx)

let oom ctx what =
  Sim.Stats.incr (stats ctx) "alloc_oom";
  Sim.Errno.fail Sim.Errno.ENOMEM what

let raw_frame_exn ?(what = "raw frame") ctx =
  match with_reclaim_retry ctx raw_frame with
  | Some pfn -> pfn
  | None -> oom ctx what

let fresh_zero_frame_once ctx =
  (* Prefer the pre-zeroed cache, then the engine's own pool (both O(1));
     fall back to allocate + eager zero. *)
  match Alloc.Zero_cache.take ctx.zcache ~order:0 with
  | Some pfn -> Some pfn
  | None -> (
    match Physmem.Zero_engine.take_zeroed ctx.zero with
    | Some pfn -> Some pfn
    | None -> (
      match buddy_alloc ctx ~order:0 with
      | Some pfn ->
        Physmem.Zero_engine.eager_zero ctx.zero pfn;
        Some pfn
      | None -> raw_frame ctx (* laundered on demand: already zero *)))

let fresh_zero_frame ctx =
  match with_reclaim_retry ctx fresh_zero_frame_once with
  | Some pfn -> pfn
  | None -> oom ctx "zero frame"

let install ctx aspace ~va ~pfn ~prot =
  Hw.Page_table.map_page (Address_space.page_table aspace)
    ~va:(Sim.Units.round_down va ~align:Sim.Units.page_size)
    ~pfn ~prot ~size:Hw.Page_size.Small;
  Page_meta.get_page ctx.meta pfn;
  Page_meta.inc_mapcount ctx.meta pfn;
  Page_meta.set_flag ctx.meta pfn Page_meta.Uptodate true;
  (* NUMA placement accounting: did the faulting core get a frame from
     its own domain? (Every install funnels through here.) *)
  if Physmem.Phys_mem.numa_nodes ctx.mem > 1 then
    Sim.Stats.incr (stats ctx)
      (if Physmem.Phys_mem.node_of_frame ctx.mem pfn = Physmem.Phys_mem.accessor_node ctx.mem
       then "numa_local_alloc"
       else "numa_remote_alloc")

let populate_anon_page ctx ~aspace ~va ~prot =
  let pfn = fresh_zero_frame ctx in
  Page_meta.set_flag ctx.meta pfn Page_meta.Swapbacked true;
  install ctx aspace ~va ~pfn ~prot

let file_frame_of (vma : Vma.t) ~va =
  match vma.Vma.backing with
  | Vma.Anon -> invalid_arg "Fault.file_frame_of: anonymous VMA"
  | Vma.File { fs; ino; _ } -> (
    let page = Vma.file_page_of_va vma ~va in
    let node = Fs.Memfs.inode fs ino in
    match Fs.Extent_tree.lookup (Fs.Inode.extents node) ~page with
    | Some pfn -> pfn
    | None -> raise (Segfault va) (* access beyond EOF *))

let populate_file_page ctx ~aspace ~(vma : Vma.t) ~va =
  let pfn = file_frame_of vma ~va in
  let prot =
    match vma.Vma.share with
    | Vma.Shared -> vma.Vma.prot
    | Vma.Private ->
      (* Map read-only so a later write takes a CoW fault. *)
      { vma.Vma.prot with Hw.Prot.write = false }
  in
  install ctx aspace ~va ~pfn ~prot

let cow ctx aspace ~va ~(old_leaf : Hw.Page_table.leaf) ~prot ~anon_backing =
  let table = Address_space.page_table aspace in
  let old_pfn = old_leaf.Hw.Page_table.pfn in
  (* No zeroing needed: the copy below overwrites the whole page. *)
  let pfn = raw_frame_exn ctx in
  (* Copy the old page's contents. *)
  let content =
    Physmem.Phys_mem.read ctx.mem ~addr:(Physmem.Frame.to_addr old_pfn) ~len:Sim.Units.page_size
  in
  Physmem.Phys_mem.write ctx.mem ~addr:(Physmem.Frame.to_addr pfn) (Bytes.to_string content);
  let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
  Hw.Page_table.unmap_page table ~va:page_va;
  Page_meta.dec_mapcount ctx.meta old_pfn;
  Page_meta.put_page ctx.meta old_pfn;
  (* A CoW'd anonymous frame with no mappings left is dead: recycle it.
     File frames stay — the file system owns them. *)
  if anon_backing && Page_meta.mapcount ctx.meta old_pfn = 0 then
    Physmem.Zero_engine.put_dirty ctx.zero [ old_pfn ];
  Hw.Mmu.invalidate_page (Address_space.mmu aspace) ~va:page_va;
  install ctx aspace ~va:page_va ~pfn ~prot;
  Sim.Stats.incr (stats ctx) "cow_fault"

let handle_inner ctx ~aspace ~pid ~va ~write =
  Sim.Clock.charge (clock ctx) (model ctx).Sim.Cost_model.fault_trap;
  Sim.Stats.incr (stats ctx) "page_fault";
  match Address_space.find_vma aspace ~va with
  | None -> raise (Segfault va)
  | Some vma ->
    if not (Hw.Prot.allows vma.Vma.prot ~write ~exec:false) then raise (Segfault va);
    let table = Address_space.page_table aspace in
    let page_va = Sim.Units.round_down va ~align:Sim.Units.page_size in
    (match Hw.Page_table.find_leaf table ~va with
    | leaf ->
      (* Mapped but the access faulted: protection. Legal only as CoW. *)
      if
        write
        && (not leaf.Hw.Page_table.prot.Hw.Prot.write)
        && vma.Vma.prot.Hw.Prot.write
        && vma.Vma.share = Vma.Private
      then begin
        let anon_backing = vma.Vma.backing = Vma.Anon in
        cow ctx aspace ~va ~old_leaf:leaf ~prot:vma.Vma.prot ~anon_backing;
        Sim.Stats.incr (stats ctx) "minor_fault";
        Minor
      end
      else raise (Segfault va)
    | exception Not_found -> (
      match vma.Vma.backing with
      | Vma.Anon ->
        if Swap.contains ctx.swap ~key:(pid, page_va) then begin
          (* Major fault: bring the page back from the device. *)
          let pfn = raw_frame_exn ctx in
          let ok = Swap.swap_in ctx.swap ~key:(pid, page_va) ~pfn in
          assert ok;
          Page_meta.set_flag ctx.meta pfn Page_meta.Swapbacked true;
          install ctx aspace ~va ~pfn ~prot:vma.Vma.prot;
          Sim.Stats.incr (stats ctx) "major_fault";
          Major
        end
        else begin
          populate_anon_page ctx ~aspace ~va ~prot:vma.Vma.prot;
          Sim.Stats.incr (stats ctx) "minor_fault";
          Minor
        end
      | Vma.File _ ->
        populate_file_page ctx ~aspace ~vma ~va;
        Sim.Stats.incr (stats ctx) "minor_fault";
        Minor))

let handle_unprofiled ctx trace ~aspace ~pid ~va ~write =
  let start = Sim.Clock.now (clock ctx) in
  match handle_inner ctx ~aspace ~pid ~va ~write with
  | kind ->
    Sim.Trace.record trace ~op:"fault_handle" ~start
      ~outcome:(match kind with Minor -> "minor" | Major -> "major")
      ();
    kind
  | exception Segfault va ->
    Sim.Trace.record trace ~op:"fault_handle" ~start ~outcome:"segfault" ();
    raise (Segfault va)

let handle ctx ~aspace ~pid ~va ~write =
  let trace = Physmem.Phys_mem.trace ctx.mem in
  let result =
    (* The span closure is built only when a profiler is attached. *)
    if Sim.Profile.enabled (Sim.Trace.profile trace) then
      Sim.Trace.prof_span trace "fault" (fun () ->
          handle_unprofiled ctx trace ~aspace ~pid ~va ~write)
    else handle_unprofiled ctx trace ~aspace ~pid ~va ~write
  in
  Sim.Stats.sample (stats ctx) ~now:(Sim.Clock.now (clock ctx));
  result
