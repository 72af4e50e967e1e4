(* The PR-3 fast paths: mmu_gather-style batched shootdowns, the
   pre-zeroed frame cache, and the O(1) data-structure rewrites (TLB slot
   arrays, interval-map range TLB). *)

open Helpers
module K = Os.Kernel

let page = Sim.Units.page_size

(* ------------------------- batched shootdowns ---------------------- *)

(* n pages spread over k VMAs tear down with exactly one batch: below the
   full-flush threshold that is one INVLPG per page, and never one
   shootdown pass per VMA. *)
let test_batch_invlpg_accounting () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let vmas = 4 and pages_per_vma = 4 in
  for i = 0 to vmas - 1 do
    (* Alternate protections so adjacent VMAs never merge. *)
    let prot = if i land 1 = 0 then Hw.Prot.rw else Hw.Prot.r in
    ignore (K.mmap_anon k p ~len:(pages_per_vma * page) ~prot ~populate:true)
  done;
  let stats = K.stats k in
  let batches0 = Sim.Stats.get stats "tlb_batch" in
  let shoot0 = Sim.Stats.get stats "tlb_shootdown" in
  let flush0 = Sim.Stats.get stats "tlb_flush" in
  K.exit_process k p;
  check_int "one batch for the whole exit" 1 (Sim.Stats.get stats "tlb_batch" - batches0);
  check_int "batch pages = total pages" (vmas * pages_per_vma)
    (Sim.Stats.get stats "tlb_batch_pages");
  check_int "16 pages < threshold: per-page INVLPGs" (vmas * pages_per_vma)
    (Sim.Stats.get stats "tlb_shootdown" - shoot0);
  check_int "no full flush below threshold" 0 (Sim.Stats.get stats "tlb_flush" - flush0)

let test_batch_full_flush_above_threshold () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  for i = 0 to 3 do
    let prot = if i land 1 = 0 then Hw.Prot.rw else Hw.Prot.r in
    ignore (K.mmap_anon k p ~len:(16 * page) ~prot ~populate:true)
  done;
  let stats = K.stats k in
  let shoot0 = Sim.Stats.get stats "tlb_shootdown" in
  let flush0 = Sim.Stats.get stats "tlb_flush" in
  K.exit_process k p;
  (* 64 pages >= 33: the batch degenerates to one full flush. *)
  check_int "one full flush" 1 (Sim.Stats.get stats "tlb_flush" - flush0);
  check_int "no per-page shootdowns" 0 (Sim.Stats.get stats "tlb_shootdown" - shoot0);
  check_int "one batch" 1 (Sim.Stats.get stats "tlb_batch")

let test_batch_empty_is_free () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let mmu = Os.Address_space.mmu p.Os.Proc.aspace in
  let before = Sim.Clock.now (K.clock k) in
  let b = Hw.Tlb_batch.create mmu in
  Hw.Tlb_batch.flush b;
  check_int "empty flush charges nothing" 0 (Sim.Clock.elapsed (K.clock k) ~since:before);
  check_int "no batch counted" 0 (Sim.Stats.get (K.stats k) "tlb_batch")

(* FOM process exit gathers every region's shootdown into one batch. *)
let test_fom_exit_single_batch () =
  let kernel, fom = mk_fom () in
  let p = K.create_process kernel () in
  for _ = 1 to 3 do
    ignore (O1mem.Fom.alloc fom p ~len:(Sim.Units.mib 2) ~prot:Hw.Prot.rw ())
  done;
  let stats = K.stats kernel in
  let batches0 = Sim.Stats.get stats "tlb_batch" in
  O1mem.Fom.exit_process fom p;
  check_int "one batch for 3 regions" 1 (Sim.Stats.get stats "tlb_batch" - batches0)

(* -------------------------- zeroed-frame cache --------------------- *)

let test_zero_cache_hit_miss () =
  let mem = mk_mem () in
  let engine = Physmem.Zero_engine.create mem in
  let zc = Alloc.Zero_cache.create ~mem ~engine () in
  let stats = Physmem.Phys_mem.stats mem in
  check_bool "empty cache misses" true (Alloc.Zero_cache.take zc ~order:0 = None);
  check_int "miss counted" 1 (Sim.Stats.get stats "zero_cache_miss");
  Physmem.Zero_engine.put_dirty engine 5;
  Physmem.Zero_engine.put_dirty engine 6;
  check_int "refill launders both" 2 (Alloc.Zero_cache.refill zc ~budget_frames:8);
  check_int "available" 2 (Alloc.Zero_cache.available zc ~order:0);
  let clock = Physmem.Phys_mem.clock mem in
  let before = Sim.Clock.now clock in
  check_bool "hit" true (Alloc.Zero_cache.take zc ~order:0 <> None);
  check_int "hit charges the O(1) pop"
    Sim.Cost_model.default.Sim.Cost_model.zero_cache_pop
    (Sim.Clock.elapsed clock ~since:before);
  check_int "hit counted" 1 (Sim.Stats.get stats "zero_cache_hit");
  check_bool "second hit" true (Alloc.Zero_cache.take zc ~order:0 <> None);
  (* Exhausted again: back to misses, no crash. *)
  check_bool "exhausted" true (Alloc.Zero_cache.take zc ~order:0 = None);
  check_int "misses" 2 (Sim.Stats.get stats "zero_cache_miss");
  check_bool "unknown order misses" true (Alloc.Zero_cache.take zc ~order:99 = None)

(* Fault path: populate works with an empty cache (eager fallback), and
   hits the cache once background zeroing has run. *)
let test_fault_path_uses_cache () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let stats = K.stats k in
  let len = 8 * page in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true in
  check_int "cold populate: all misses" 8 (Sim.Stats.get stats "zero_cache_miss");
  check_int "no hits yet" 0 (Sim.Stats.get stats "zero_cache_hit");
  K.munmap k p ~va ~len;
  (* The 8 freed frames are dirty; launder them into the cache. *)
  check_int "background zero" 8 (K.background_zero k ~budget_frames:32);
  ignore (K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:true);
  check_int "warm populate: all hits" 8 (Sim.Stats.get stats "zero_cache_hit")

(* --------------------------- TLB evictions ------------------------- *)

let test_tlb_evictions_counter () =
  let clock, stats = mk_env () in
  let tlb = Hw.Tlb.create ~clock ~stats ~sets:1 ~ways:2 () in
  let ins va = Hw.Tlb.insert tlb ~asid:0 ~va ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small in
  ins 0;
  ins page;
  check_int "fills are not evictions" 0 (Sim.Stats.get stats "tlb_evictions");
  ins (2 * page);
  check_int "capacity eviction counted" 1 (Sim.Stats.get stats "tlb_evictions");
  ins (2 * page);
  check_int "refill of resident page is free" 1 (Sim.Stats.get stats "tlb_evictions");
  check_int "entry count stable" 2 (Hw.Tlb.entry_count tlb)

(* ------------------- range TLB vs the linear model ----------------- *)

(* Reference: the pre-rewrite list implementation (MRU-first, overlap
   eviction on insert, LRU tail drop at capacity). The interval-map
   version must be observationally identical. *)
module Linear_model = struct
  type t = { capacity : int; mutable entries : Hw.Range_table.entry list }

  let create capacity = { capacity; entries = [] }

  let lookup t ~va =
    let hit =
      List.find_opt
        (fun (e : Hw.Range_table.entry) -> va >= e.base && va < e.base + e.limit)
        t.entries
    in
    (match hit with
    | Some e -> t.entries <- e :: List.filter (fun x -> x != e) t.entries
    | None -> ());
    hit

  let overlaps (a : Hw.Range_table.entry) (b : Hw.Range_table.entry) =
    a.base < b.base + b.limit && b.base < a.base + a.limit

  let insert t e =
    let without = List.filter (fun x -> not (overlaps x e)) t.entries in
    let trimmed =
      if List.length without >= t.capacity then
        List.filteri (fun i _ -> i < t.capacity - 1) without
      else without
    in
    t.entries <- e :: trimmed

  let invalidate t ~base =
    t.entries <- List.filter (fun (e : Hw.Range_table.entry) -> e.base <> base) t.entries

  let entry_count t = List.length t.entries
end

type rtlb_op = Insert of int * int | Lookup of int | Invalidate of int

let rtlb_op_gen =
  (* Small grid so inserts overlap and collide often. *)
  QCheck2.Gen.(
    oneof
      [
        map2 (fun b l -> Insert (b * 4096, (1 + l) * 4096)) (int_bound 15) (int_bound 3);
        map (fun v -> Lookup (v * 4096)) (int_bound 19);
        map (fun b -> Invalidate (b * 4096)) (int_bound 15);
      ])

let prop_range_tlb_vs_linear_model =
  qtest "range tlb == linear reference" QCheck2.Gen.(list_size (int_bound 60) rtlb_op_gen)
    (fun ops ->
      let clock, stats = mk_env () in
      let rtlb = Hw.Range_tlb.create ~clock ~stats ~entries:4 () in
      let model = Linear_model.create 4 in
      List.iter
        (fun op ->
          match op with
          | Insert (base, limit) ->
            let e = { Hw.Range_table.base; limit; offset = base * 2; prot = Hw.Prot.rw } in
            Hw.Range_tlb.insert rtlb e;
            Linear_model.insert model e
          | Lookup va ->
            let a = Hw.Range_tlb.lookup rtlb ~va () in
            let b = Linear_model.lookup model ~va in
            if a <> b then
              QCheck2.Test.fail_reportf "lookup %d diverged (va=%d)" va
                (match a with Some e -> e.Hw.Range_table.base | None -> -1)
          | Invalidate base ->
            Hw.Range_tlb.invalidate rtlb ~base ();
            Linear_model.invalidate model ~base)
        ops;
      Hw.Range_tlb.entry_count rtlb = Linear_model.entry_count model)

(* ------------------------- extent truncate ------------------------- *)

let test_truncate_boundary_only () =
  let t = Fs.Extent_tree.create () in
  (* Three separate extents (non-mergeable frame runs). *)
  Fs.Extent_tree.append t ~start:0 ~count:4;
  Fs.Extent_tree.append t ~start:100 ~count:4;
  Fs.Extent_tree.append t ~start:200 ~count:4;
  (* Cut through the middle extent. *)
  let cut = Fs.Extent_tree.truncate_to t ~pages:6 in
  check_int "pages after cut" 6 (Fs.Extent_tree.pages t);
  check_int "two pieces cut" 2 (List.length cut);
  (match cut with
  | [ tail; whole ] ->
    check_int "tail logical" 6 tail.Fs.Extent.logical;
    check_int "tail start" 102 tail.Fs.Extent.start;
    check_int "tail count" 2 tail.Fs.Extent.count;
    check_int "whole logical" 8 whole.Fs.Extent.logical;
    check_int "whole count" 4 whole.Fs.Extent.count
  | _ -> Alcotest.fail "expected [tail; whole]");
  (* The kept side still translates. *)
  check_bool "kept head intact" true (Fs.Extent_tree.lookup t ~page:5 = Some 101);
  check_bool "cut side gone" true (Fs.Extent_tree.lookup t ~page:6 = None);
  (* Truncate exactly on an extent boundary: nothing straddles. *)
  let cut2 = Fs.Extent_tree.truncate_to t ~pages:4 in
  check_int "boundary cut piece" 1 (List.length cut2);
  check_int "boundary pages" 4 (Fs.Extent_tree.pages t)

(* ---------------------- hot-path allocation budgets ---------------- *)

(* Exact words per call (see [Helpers.words]), so these budgets hold at
   any minor-heap size. Optional arguments are passed as literals: a
   literal [Some] is a static constant, so what is measured is the
   callee's own allocation. *)

let check_zero what per_call =
  check_bool (Printf.sprintf "%s: %.2f words/call = 0" what per_call) true (per_call = 0.)

let check_budget what ~budget per_call =
  check_bool
    (Printf.sprintf "%s: %.1f words <= %d" what per_call budget)
    true
    (per_call <= float_of_int budget)

let test_trace_stats_alloc_free () =
  let clock, stats = mk_env () in
  let trace = Sim.Trace.create ~clock ~capacity:64 () in
  let record () = Sim.Trace.record trace ~op:"op" ~start:0 ~arg:7 ~outcome:"hit" () in
  record ();
  check_zero "Trace.record" (words_per_call record);
  Sim.Stats.incr stats "c";
  check_zero "Stats.incr" (words_per_call (fun () -> Sim.Stats.incr stats "c"));
  check_zero "Stats.add" (words_per_call (fun () -> Sim.Stats.add stats "c" 3));
  Sim.Stats.add_gauge stats "g" 1;
  check_zero "Stats.add_gauge" (words_per_call (fun () -> Sim.Stats.add_gauge stats "g" 1));
  let h = Sim.Histogram.create () in
  check_zero "Histogram.observe" (words_per_call (fun () -> Sim.Histogram.observe h 1234))

let test_tlb_miss_alloc_free () =
  let clock, stats = mk_env () in
  let trace = Sim.Trace.create ~clock ~capacity:64 () in
  let tlb = Hw.Tlb.create ~clock ~stats ~trace () in
  let miss () = ignore (Hw.Tlb.lookup tlb ~asid:1 ~va:(64 * page)) in
  miss ();
  check_zero "Tlb.lookup miss" (words_per_call miss)

let test_tlb_hit_alloc_free () =
  let clock, stats = mk_env () in
  let trace = Sim.Trace.create ~clock ~capacity:64 () in
  let tlb = Hw.Tlb.create ~clock ~stats ~trace () in
  Hw.Tlb.insert tlb ~asid:1 ~va:(64 * page) ~pfn:9 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  let hit () = ignore (Hw.Tlb.lookup tlb ~asid:1 ~va:((64 * page) + 8)) in
  hit ();
  check_int "hits" 1 (Sim.Stats.get stats "tlb_hit");
  check_zero "Tlb.lookup hit" (words_per_call hit)

let test_walk_alloc_free () =
  let pt, clock, stats = mk_page_table () in
  let trace = Sim.Trace.create ~clock ~capacity:64 () in
  Hw.Page_table.map_page pt ~va:page ~pfn:3 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  let walk va () =
    match Hw.Walker.walk ~trace ~clock ~stats ~table:pt ~mode:Hw.Walker.Native ~va with
    | _ -> ()
    | exception Not_found -> ()
  in
  let leaf = walk (page + 8) and hole = walk (9 * page) in
  leaf ();
  hole ();
  check_zero "Walker.walk, leaf" (words_per_call leaf);
  check_zero "Walker.walk, hole" (words_per_call hole);
  check_int "every walk counted" 2002 (Sim.Stats.get stats "page_walks")

let test_find_vma_cache_hit_alloc_free () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:(4 * page) ~prot:Hw.Prot.rw ~populate:false in
  let aspace = p.Os.Proc.aspace in
  let find () = ignore (Os.Address_space.find_vma aspace ~va:(va + (3 * page))) in
  find ();
  check_bool "found" true (Os.Address_space.find_vma aspace ~va <> None);
  check_zero "Address_space.find_vma, cache hit" (words_per_call find)

(* Once both rings have grown, a frame's whole trip through the engine —
   freed, laundered, handed out — allocates nothing. *)
let test_zero_engine_ring_alloc_free () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  let trip () =
    Physmem.Zero_engine.put_dirty z 7;
    ignore (Physmem.Zero_engine.background_step z ~budget_frames:1);
    ignore (Physmem.Zero_engine.take_zeroed z)
  in
  Physmem.Zero_engine.put_dirty_range z ~first:100 ~count:64;
  ignore (Physmem.Zero_engine.background_step z ~budget_frames:64);
  trip ();
  check_zero "Zero_engine put_dirty + background_step + take_zeroed" (words_per_call trip);
  check_int "pool kept" 64 (Physmem.Zero_engine.available z)

(* The order-0 free list holds 64 blocks: choosing the smallest costs a
   scan, but the scan allocates nothing per block. What remains is the
   returned [Some] and the one closure [Hashtbl.fold] builds per call. *)
let test_buddy_alloc_budget () =
  let mem = mk_mem () in
  let buddy = Alloc.Buddy.create ~mem ~first:0 ~count:1024 ~merge:false () in
  let frames = List.init 128 (fun _ -> Option.get (Alloc.Buddy.alloc buddy ~order:0)) in
  List.iteri (fun i pfn -> if i land 1 = 0 then Alloc.Buddy.free buddy pfn ~order:0) frames;
  check_int "64 free order-0 blocks" 64 (Alloc.Buddy.free_blocks_per_order buddy).(0);
  let bias =
    let w0 = words () in
    words () -. w0
  in
  let w0 = words () in
  let pfn = Alloc.Buddy.alloc buddy ~order:0 in
  let used = words () -. w0 -. bias in
  check_bool "smallest start frame" true (pfn = Some 0);
  check_budget "Buddy.alloc ~order:0 over 64 free blocks" ~budget:8 used

let test_access_tlb_hit_budget ~budget () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:page ~prot:Hw.Prot.rw ~populate:true in
  let hit () = K.access k p ~va ~write:true in
  hit ();
  check_budget "Kernel.access, TLB hit" ~budget (words_per_call hit)

(* Per page of one call over [pages] pages. *)
let words_per_page ~pages f =
  let w0 = words () in
  f ();
  (words () -. w0) /. float_of_int pages

let test_first_touch_fault_budget ~budget () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let pages = 256 in
  let len = pages * page in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  let per_page =
    words_per_page ~pages (fun () ->
        ignore (K.access_range k p ~va ~len ~write:true ~stride:page))
  in
  check_int "every page faulted" pages (Sim.Stats.get (K.stats k) "page_fault");
  check_budget "first-touch fault, per page" ~budget per_page

let test_munmap_budget ~budget () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let pages = 256 in
  let len = pages * page in
  let va = K.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (K.access_range k p ~va ~len ~write:true ~stride:page);
  let per_page = words_per_page ~pages (fun () -> K.munmap k p ~va ~len) in
  check_int "every PTE cleared" pages (Sim.Stats.get (K.stats k) "pte_clear");
  check_budget "munmap, per page" ~budget per_page

(* With no other core caching the address space, a shootdown is one
   local INVLPG: no IPI handler is built, no span opened unprofiled. *)
let test_invalidate_page_alloc_free () =
  let k = mk_kernel () in
  let p = K.create_process k () in
  let va = K.mmap_anon k p ~len:page ~prot:Hw.Prot.rw ~populate:true in
  K.access k p ~va ~write:true;
  let mmu = Os.Address_space.mmu p.Os.Proc.aspace in
  let shootdowns = Sim.Stats.get (K.stats k) "tlb_shootdown" in
  let inval () = Hw.Mmu.invalidate_page mmu ~va in
  inval ();
  check_zero "Mmu.invalidate_page, one core" (words_per_call inval);
  check_int "every call counted" 1001 (Sim.Stats.get (K.stats k) "tlb_shootdown" - shootdowns)

(* -------------------- durable-path allocation budgets --------------- *)

let nvm_base mem = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem)

(* A flush refills the line's durable image in place: once a line has
   been flushed, writing and flushing it again keeps nothing new but the
   unflushed-line entry. *)
let test_nvm_flush_budget () =
  let mem = mk_mem () in
  let nvm = Physmem.Nvm.create mem in
  let addr = nvm_base mem + 128 in
  let line = String.make 64 'x' in
  let step () =
    Physmem.Nvm.write_persistent nvm ~addr line;
    Physmem.Nvm.flush nvm ~addr ~len:64
  in
  step ();
  check_budget "Nvm.write_persistent + flush, line flushed before" ~budget:10
    (words_per_call step)

(* The second pass over a log whose lines were all flushed in the first:
   an append keeps its record and the unflushed-line entries, nothing
   else. *)
let test_wal_append_budget () =
  let mem = mk_mem () in
  let nvm = Physmem.Nvm.create mem in
  let n = 200 and payload = String.make 200 'p' in
  let wal = Fs.Wal.create ~nvm ~base:(nvm_base mem) ~capacity:(n * 256) in
  let append () = ignore (Fs.Wal.append wal payload) in
  for _ = 1 to n do
    append ()
  done;
  Fs.Wal.reset wal;
  check_budget "Wal.append, 200-byte payload" ~budget:50 (words_per_call ~n append);
  check_int "every append landed" n (Fs.Wal.entry_count wal)

let mk_kv ?manifest_bytes () =
  let kernel, fom = mk_fom () in
  let proc = K.create_process kernel () in
  Store.Kv.create fom proc ?manifest_bytes ~name:"/kv" ()

let test_kv_get_budget () =
  let st = mk_kv () in
  let v = String.make 160 'v' in
  ignore (Store.Kv.begin_txn st);
  Store.Kv.put st "key" v;
  Store.Kv.commit st;
  let get () = ignore (Store.Kv.get st "key") in
  get ();
  check_budget "Kv.get, 160-byte value" ~budget:60 (words_per_call get)

let test_kv_commit_budget () =
  let st = mk_kv () in
  let v = String.make 160 'v' in
  let txn () =
    ignore (Store.Kv.begin_txn st);
    Store.Kv.put st "key" v;
    Store.Kv.commit st
  in
  txn ();
  check_budget "begin_txn + put + commit, 160-byte value" ~budget:360
    (words_per_call ~n:200 txn)

(* A checkpoint writes one snapshot of the whole index: per key it keeps
   only that key's share of the snapshot record. *)
let test_kv_checkpoint_budget () =
  let keys = 4096 in
  let st = mk_kv ~manifest_bytes:(Sim.Units.mib 1) () in
  for batch = 0 to (keys / 64) - 1 do
    ignore (Store.Kv.begin_txn st);
    for i = 0 to 63 do
      Store.Kv.put st (Printf.sprintf "key%05d" ((batch * 64) + i)) "value"
    done;
    Store.Kv.commit st
  done;
  check_int "store holds every key" keys (Store.Kv.object_count st);
  (* Both manifest halves have been written once. *)
  Store.Kv.checkpoint st;
  Store.Kv.checkpoint st;
  let w0 = words () in
  Store.Kv.checkpoint st;
  let per_key = (words () -. w0) /. float_of_int keys in
  check_budget "Kv.checkpoint, per key of 4096" ~budget:20 per_key

let suite =
  [
    Alcotest.test_case "batch: n pages, k VMAs, 1 batch (INVLPG)" `Quick
      test_batch_invlpg_accounting;
    Alcotest.test_case "batch: full flush above threshold" `Quick
      test_batch_full_flush_above_threshold;
    Alcotest.test_case "batch: empty flush is free" `Quick test_batch_empty_is_free;
    Alcotest.test_case "batch: FOM exit flushes once" `Quick test_fom_exit_single_batch;
    Alcotest.test_case "zero cache: hit/miss/exhaustion" `Quick test_zero_cache_hit_miss;
    Alcotest.test_case "zero cache: fault path fallback + warm hits" `Quick
      test_fault_path_uses_cache;
    Alcotest.test_case "tlb: eviction counter" `Quick test_tlb_evictions_counter;
    prop_range_tlb_vs_linear_model;
    Alcotest.test_case "extent tree: truncate touches only the boundary" `Quick
      test_truncate_boundary_only;
    Alcotest.test_case "alloc: trace, stats, histogram record 0 words" `Quick
      test_trace_stats_alloc_free;
    Alcotest.test_case "alloc: TLB miss 0 words" `Quick test_tlb_miss_alloc_free;
    Alcotest.test_case "alloc: access on a TLB hit <= 40 words" `Quick
      (test_access_tlb_hit_budget ~budget:40);
    Alcotest.test_case "alloc: first-touch fault <= 220 words/page" `Quick
      (test_first_touch_fault_budget ~budget:220);
    Alcotest.test_case "alloc: munmap <= 25 words/page" `Quick (test_munmap_budget ~budget:25);
    Alcotest.test_case "alloc: NVM rewrite + flush <= 10 words" `Quick test_nvm_flush_budget;
    Alcotest.test_case "alloc: WAL append <= 50 words" `Quick test_wal_append_budget;
    Alcotest.test_case "alloc: store get <= 60 words" `Quick test_kv_get_budget;
    Alcotest.test_case "alloc: store put transaction <= 360 words" `Quick test_kv_commit_budget;
    Alcotest.test_case "alloc: store checkpoint <= 20 words/key" `Quick test_kv_checkpoint_budget;
    (* The baseline fault path's budgets, tightened from the cases above
       once it allocated only what it keeps. *)
    Alcotest.test_case "alloc: access on a TLB hit <= 4 words" `Quick
      (test_access_tlb_hit_budget ~budget:4);
    Alcotest.test_case "alloc: first-touch fault <= 110 words/page" `Quick
      (test_first_touch_fault_budget ~budget:110);
    Alcotest.test_case "alloc: munmap <= 4 words/page" `Quick (test_munmap_budget ~budget:4);
    Alcotest.test_case "alloc: TLB hit 0 words" `Quick test_tlb_hit_alloc_free;
    Alcotest.test_case "alloc: page walk, leaf and hole, 0 words" `Quick test_walk_alloc_free;
    Alcotest.test_case "alloc: find_vma cache hit 0 words" `Quick
      test_find_vma_cache_hit_alloc_free;
    Alcotest.test_case "alloc: zero-engine ring trip 0 words" `Quick
      test_zero_engine_ring_alloc_free;
    Alcotest.test_case "alloc: buddy order-0 alloc <= 8 words" `Quick test_buddy_alloc_budget;
    Alcotest.test_case "alloc: TLB shootdown on one core 0 words" `Quick
      test_invalidate_page_alloc_free;
  ]
