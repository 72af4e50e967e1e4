open Helpers
module PT = Hw.Page_table
module Btree = Hw.Btree

let test_prot () =
  check_bool "rw allows write" true (Hw.Prot.allows Hw.Prot.rw ~write:true ~exec:false);
  check_bool "r denies write" false (Hw.Prot.allows Hw.Prot.r ~write:true ~exec:false);
  check_bool "rx allows exec" true (Hw.Prot.allows Hw.Prot.rx ~write:false ~exec:true);
  check_bool "r subset rw" true (Hw.Prot.subset Hw.Prot.r ~of_:Hw.Prot.rw);
  check_bool "rw not subset r" false (Hw.Prot.subset Hw.Prot.rw ~of_:Hw.Prot.r);
  check_string "pp" "rw-" (Format.asprintf "%a" Hw.Prot.pp Hw.Prot.rw)

let test_page_size () =
  check_int "small" 4096 (Hw.Page_size.bytes Hw.Page_size.Small);
  check_int "2m frames" 512 (Hw.Page_size.frames Hw.Page_size.Huge_2m);
  check_int "1g frames" (512 * 512) (Hw.Page_size.frames Hw.Page_size.Huge_1g);
  check_bool "largest 1g" true
    (Hw.Page_size.largest_for ~addr:0 ~len:(Sim.Units.gib 2) = Hw.Page_size.Huge_1g);
  check_bool "largest 2m" true
    (Hw.Page_size.largest_for ~addr:Sim.Units.huge_2m ~len:(Sim.Units.mib 4) = Hw.Page_size.Huge_2m);
  check_bool "unaligned falls to small" true
    (Hw.Page_size.largest_for ~addr:4096 ~len:(Sim.Units.gib 2) = Hw.Page_size.Small)

let test_pt_map_lookup () =
  let pt, _, _ = mk_page_table () in
  check_int "va bits" 48 (PT.va_bits pt);
  PT.map_page pt ~va:0x1000 ~pfn:42 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  (match PT.lookup pt ~va:0x1234 with
  | Some (pa, leaf) ->
    check_int "translated" ((42 * 4096) + 0x234) pa;
    check_bool "prot" true (Hw.Prot.equal leaf.PT.prot Hw.Prot.rw)
  | None -> Alcotest.fail "expected mapping");
  check_bool "unmapped va" true (PT.lookup pt ~va:0x5000 = None)

let test_pt_counts_and_prune () =
  let pt, _, _ = mk_page_table () in
  check_int "root only" 1 (PT.node_count pt);
  PT.map_page pt ~va:0x1000 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  (* Root + 3 interior nodes for a 4-level walk. *)
  check_int "path created" 4 (PT.node_count pt);
  check_int "one pte" 1 (PT.pte_count pt);
  check_int "metadata" (4 * 4096) (PT.metadata_bytes pt);
  PT.unmap_page pt ~va:0x1000;
  check_int "pruned back to root" 1 (PT.node_count pt);
  check_int "no ptes" 0 (PT.pte_count pt)

let test_pt_double_map_rejected () =
  let pt, _, _ = mk_page_table () in
  PT.map_page pt ~va:0 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  Alcotest.check_raises "remap" (Invalid_argument "Page_table.map_page: already mapped") (fun () ->
      PT.map_page pt ~va:0 ~pfn:2 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small)

let test_pt_huge_pages () =
  let pt, _, _ = mk_page_table () in
  PT.map_page pt ~va:Sim.Units.huge_2m ~pfn:512 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Huge_2m;
  (match PT.lookup pt ~va:(Sim.Units.huge_2m + 12345) with
  | Some (pa, leaf) ->
    check_int "huge translation" ((512 * 4096) + 12345) pa;
    check_bool "leaf size" true (leaf.PT.size = Hw.Page_size.Huge_2m)
  | None -> Alcotest.fail "expected huge mapping");
  (* A 2 MiB leaf occupies a depth-2 slot: only root + 2 interior nodes. *)
  check_int "shallower path" 3 (PT.node_count pt)

let test_pt_map_range_mixed () =
  let pt, _, _ = mk_page_table () in
  (* 4 MiB range starting 2M-aligned, physically 2M-aligned: two 2M leaves. *)
  let n = PT.map_range pt ~va:Sim.Units.huge_2m ~pfn:512 ~len:(Sim.Units.mib 4) ~prot:Hw.Prot.rw ~huge:true in
  check_int "two huge leaves" 2 n;
  (* Unaligned length tail uses small pages. *)
  let pt2, _, _ = mk_page_table () in
  let n2 = PT.map_range pt2 ~va:0 ~pfn:0 ~len:(Sim.Units.mib 2 + Sim.Units.kib 8) ~prot:Hw.Prot.rw ~huge:true in
  check_int "one huge + two small" 3 n2

let test_pt_map_range_small () =
  let pt, _, _ = mk_page_table () in
  let n = PT.map_range pt ~va:0 ~pfn:0 ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~huge:false in
  check_int "16 ptes" 16 n;
  check_int "16 found" 16 (PT.pte_count pt)

let test_pt_unmap_range () =
  let pt, _, _ = mk_page_table () in
  ignore (PT.map_range pt ~va:0 ~pfn:0 ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw ~huge:false);
  let n = PT.unmap_range pt ~va:0 ~len:(Sim.Units.kib 32) in
  check_int "8 cleared" 8 n;
  check_int "8 left" 8 (PT.pte_count pt)

let test_pt_protect_range () =
  let pt, _, _ = mk_page_table () in
  ignore (PT.map_range pt ~va:0 ~pfn:0 ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~huge:false);
  let n = PT.protect_range pt ~va:0 ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.r in
  check_int "4 ptes touched" 4 n;
  match PT.lookup pt ~va:0 with
  | Some (_, leaf) -> check_bool "now read-only" true (Hw.Prot.equal leaf.PT.prot Hw.Prot.r)
  | None -> Alcotest.fail "mapping lost"

let test_pt_iter_leaves_order () =
  let pt, _, _ = mk_page_table () in
  ignore (PT.map_range pt ~va:Sim.Units.huge_2m ~pfn:0 ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ~huge:false);
  let vas = ref [] in
  PT.iter_leaves pt (fun va _ -> vas := va :: !vas);
  let vas = List.rev !vas in
  check_int "four leaves" 4 (List.length vas);
  check_bool "ascending" true (List.sort compare vas = vas);
  check_int "first at base" Sim.Units.huge_2m (List.nth vas 0)

let test_pt_five_levels () =
  let pt, _, _ = mk_page_table ~levels:5 () in
  check_int "57-bit space" 57 (PT.va_bits pt);
  let big_va = 1 lsl 50 in
  PT.map_page pt ~va:big_va ~pfn:7 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  (match PT.lookup pt ~va:big_va with
  | Some (pa, _) -> check_int "translates" (7 * 4096) pa
  | None -> Alcotest.fail "expected mapping");
  check_int "five-level path" 5 (PT.node_count pt)

let test_pt_share_subtree () =
  let a, _, _ = mk_page_table () in
  let b, _, _ = mk_page_table () in
  let base = Sim.Units.huge_2m * 7 in
  ignore (PT.map_range a ~va:base ~pfn:0 ~len:Sim.Units.huge_2m ~prot:Hw.Prot.rw ~huge:false);
  let nodes_b_before = PT.node_count b in
  PT.share_subtree ~src:a ~src_va:base ~dst:b ~dst_va:base ~depth:3;
  (match PT.lookup b ~va:(base + 8192) with
  | Some (pa, _) -> check_int "shared translation" 8192 pa
  | None -> Alcotest.fail "graft did not translate");
  check_bool "b gained only path nodes" true (PT.node_count b - nodes_b_before <= 3);
  check_bool "shared flag" true (PT.is_shared_at b ~va:base ~depth:3);
  (* Changes through a are visible through b (same physical nodes). *)
  ignore (PT.protect_range a ~va:base ~len:4096 ~prot:Hw.Prot.r);
  (match PT.lookup b ~va:base with
  | Some (_, leaf) -> check_bool "write-protect visible via b" true (Hw.Prot.equal leaf.PT.prot Hw.Prot.r)
  | None -> Alcotest.fail "lost");
  PT.unshare b ~va:base ~depth:3;
  check_bool "b no longer translates" true (PT.lookup b ~va:base = None);
  (match PT.lookup a ~va:base with
  | Some _ -> ()
  | None -> Alcotest.fail "a must keep its mapping")

let test_pt_share_alignment_checks () =
  let a, _, _ = mk_page_table () in
  let b, _, _ = mk_page_table () in
  ignore (PT.map_range a ~va:0 ~pfn:0 ~len:Sim.Units.huge_2m ~prot:Hw.Prot.rw ~huge:false);
  Alcotest.check_raises "unaligned dst"
    (Invalid_argument "Page_table.share_subtree: VAs not aligned to subtree span") (fun () ->
      PT.share_subtree ~src:a ~src_va:0 ~dst:b ~dst_va:4096 ~depth:3)

let test_pt_shared_node_not_pruned () =
  let a, _, _ = mk_page_table () in
  let b, _, _ = mk_page_table () in
  ignore (PT.map_range a ~va:0 ~pfn:0 ~len:(Sim.Units.kib 8) ~prot:Hw.Prot.rw ~huge:false);
  PT.share_subtree ~src:a ~src_va:0 ~dst:b ~dst_va:0 ~depth:3;
  (* Unmapping the leaves through a must not free the node b points at. *)
  ignore (PT.unmap_range a ~va:0 ~len:(Sim.Units.kib 8));
  check_bool "b sees the (now empty) shared subtree without crash" true (PT.lookup b ~va:0 = None);
  (* Remap through a: b sees it again via the same shared node. *)
  PT.map_page a ~va:0 ~pfn:99 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  match PT.lookup b ~va:0 with
  | Some (pa, _) -> check_int "shared node reused" (99 * 4096) pa
  | None -> Alcotest.fail "shared node was pruned"

let test_ensure_node () =
  let pt, _, _ = mk_page_table () in
  PT.ensure_node pt ~va:0 ~depth:3;
  check_int "path pre-created" 4 (PT.node_count pt);
  PT.ensure_node pt ~va:0 ~depth:3;
  check_int "idempotent" 4 (PT.node_count pt)

(* Walker *)

let test_walk_ref_counts () =
  check_int "native 4K in 4-level" 4
    (Hw.Walker.refs_for_walk ~guest_levels:4 ~leaf_depth:3 ~mode:Hw.Walker.Native);
  check_int "native 2M leaf" 3
    (Hw.Walker.refs_for_walk ~guest_levels:4 ~leaf_depth:2 ~mode:Hw.Walker.Native);
  check_int "virtualized 4-on-4 = 24" 24
    (Hw.Walker.refs_for_walk ~guest_levels:4 ~leaf_depth:3 ~mode:(Hw.Walker.Virtualized 4));
  check_int "virtualized 5-on-5 = 35" 35
    (Hw.Walker.refs_for_walk ~guest_levels:5 ~leaf_depth:4 ~mode:(Hw.Walker.Virtualized 5))

let test_walk_charges_and_access_bit () =
  let pt, clock, stats = mk_page_table () in
  PT.map_page pt ~va:0x1000 ~pfn:3 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  let before = Sim.Clock.now clock in
  (match Hw.Walker.walk ~clock ~stats ~table:pt ~mode:Hw.Walker.Native ~va:0x1000 () with
  | Some (pa, leaf) ->
    check_int "pa" (3 * 4096) pa;
    check_bool "accessed set" true leaf.PT.accessed
  | None -> Alcotest.fail "walk failed");
  let m = Sim.Cost_model.default in
  check_int "leaf from DRAM, upper levels from walk caches"
    (m.Sim.Cost_model.mem_ref_dram + (3 * m.Sim.Cost_model.cache_ref))
    (Sim.Clock.elapsed clock ~since:before);
  check_int "stat" 4 (Sim.Stats.get stats "walk_refs")

(* TLB *)

let mk_tlb () =
  let clock, stats = mk_env () in
  (Hw.Tlb.create ~clock ~stats ~sets:4 ~ways:2 (), clock, stats)

let test_tlb_hit_miss () =
  let tlb, _, stats = mk_tlb () in
  check_bool "cold miss" true (Hw.Tlb.lookup tlb ~va:0x1000 () = None);
  Hw.Tlb.insert tlb ~va:0x1000 ~pfn:5 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  (match Hw.Tlb.lookup tlb ~va:0x1234 () with
  | Some (pfn, _, size) ->
    check_int "pfn" 5 pfn;
    check_bool "size" true (size = Hw.Page_size.Small)
  | None -> Alcotest.fail "expected hit");
  check_int "one miss" 1 (Sim.Stats.get stats "tlb_miss");
  check_int "one hit" 1 (Sim.Stats.get stats "tlb_hit")

let test_tlb_lru_eviction () =
  let tlb, _, _ = mk_tlb () in
  (* Fill one set beyond capacity: vpns congruent mod 4. *)
  let va i = i * 4 * 4096 in
  Hw.Tlb.insert tlb ~va:(va 0) ~pfn:0 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  Hw.Tlb.insert tlb ~va:(va 1) ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  ignore (Hw.Tlb.lookup tlb ~va:(va 0) ());
  (* va0 is MRU; inserting a third evicts va1. *)
  Hw.Tlb.insert tlb ~va:(va 2) ~pfn:2 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  check_bool "va0 survives" true (Hw.Tlb.lookup tlb ~va:(va 0) () <> None);
  check_bool "va1 evicted" true (Hw.Tlb.lookup tlb ~va:(va 1) () = None)

let test_tlb_huge_entry () =
  let tlb, _, _ = mk_tlb () in
  Hw.Tlb.insert tlb ~va:Sim.Units.huge_2m ~pfn:512 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Huge_2m ();
  (* One entry covers the whole 2 MiB. *)
  check_bool "start" true (Hw.Tlb.lookup tlb ~va:Sim.Units.huge_2m () <> None);
  check_bool "middle" true (Hw.Tlb.lookup tlb ~va:(Sim.Units.huge_2m + Sim.Units.mib 1) () <> None);
  check_bool "past end" true (Hw.Tlb.lookup tlb ~va:(2 * Sim.Units.huge_2m) () = None)

let test_tlb_invalidate () =
  let tlb, _, _ = mk_tlb () in
  Hw.Tlb.insert tlb ~va:0x1000 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  Hw.Tlb.insert tlb ~va:0x2000 ~pfn:2 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  Hw.Tlb.invalidate_page tlb ~va:0x1000 ();
  check_bool "gone" true (Hw.Tlb.lookup tlb ~va:0x1000 () = None);
  check_bool "other survives" true (Hw.Tlb.lookup tlb ~va:0x2000 () <> None);
  Hw.Tlb.invalidate_range tlb ~va:0 ~len:(Sim.Units.mib 1) ();
  check_bool "range cleared" true (Hw.Tlb.lookup tlb ~va:0x2000 () = None);
  Hw.Tlb.insert tlb ~va:0x3000 ~pfn:3 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  Hw.Tlb.flush tlb;
  check_int "flush empties" 0 (Hw.Tlb.entry_count tlb)

let test_tlb_invalidate_range_accounting () =
  let tlb, clock, stats = mk_tlb () in
  let per_page = Sim.Cost_model.shootdown_cost Sim.Cost_model.default in
  (* 2 resident pages inside an 8-page range: one INVLPG per page in the
     range, resident or not — never one up-front plus one per eviction. *)
  Hw.Tlb.insert tlb ~va:0x1000 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  Hw.Tlb.insert tlb ~va:0x3000 ~pfn:3 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  let t0 = Sim.Clock.now clock and s0 = Sim.Stats.get stats "tlb_shootdown" in
  Hw.Tlb.invalidate_range tlb ~va:0 ~len:(8 * Sim.Units.page_size) ();
  check_int "8-page range charges 8 INVLPGs" (8 * per_page) (Sim.Clock.now clock - t0);
  check_int "counter counts INVLPGs, not evictions" 8 (Sim.Stats.get stats "tlb_shootdown" - s0);
  check_int "resident entries dropped" 0 (Hw.Tlb.entry_count tlb);
  (* A fully non-resident range must charge and count the same way. *)
  let t1 = Sim.Clock.now clock and s1 = Sim.Stats.get stats "tlb_shootdown" in
  Hw.Tlb.invalidate_range tlb ~va:(Sim.Units.mib 1) ~len:(4 * Sim.Units.page_size) ();
  check_int "non-resident range still charges per page" (4 * per_page) (Sim.Clock.now clock - t1);
  check_int "non-resident range still counts per page" 4 (Sim.Stats.get stats "tlb_shootdown" - s1)

let test_tlb_invalidate_range_full_flush () =
  let tlb, clock, stats = mk_tlb () in
  Hw.Tlb.insert tlb ~va:0x1000 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
  let t0 = Sim.Clock.now clock in
  Hw.Tlb.invalidate_range tlb ~va:0 ~len:(33 * Sim.Units.page_size) ();
  check_int "33+ pages cost one full flush, not 33 INVLPGs"
    (Sim.Cost_model.shootdown_cost Sim.Cost_model.default)
    (Sim.Clock.now clock - t0);
  check_int "flush counted" 1 (Sim.Stats.get stats "tlb_flush");
  check_int "no per-page shootdowns counted" 0 (Sim.Stats.get stats "tlb_shootdown");
  check_int "emptied" 0 (Hw.Tlb.entry_count tlb)

(* Range table and range TLB *)

let mk_rt () =
  let clock, stats = mk_env () in
  (Hw.Range_table.create ~clock ~stats (), clock, stats)

let test_range_table_lookup () =
  let rt, _, _ = mk_rt () in
  Hw.Range_table.insert rt ~base:0x10000 ~limit:(Sim.Units.mib 64) ~offset:(-0x10000) ~prot:Hw.Prot.rw;
  (match Hw.Range_table.lookup rt ~va:0x10000 with
  | Some e -> check_int "offset translate" 0 (0x10000 + e.Hw.Range_table.offset)
  | None -> Alcotest.fail "expected entry");
  check_bool "middle covered" true (Hw.Range_table.lookup rt ~va:(0x10000 + Sim.Units.mib 32) <> None);
  check_bool "past end" true (Hw.Range_table.lookup rt ~va:(0x10000 + Sim.Units.mib 64) = None);
  check_int "metadata 32B per entry" 32 (Hw.Range_table.metadata_bytes rt)

let test_range_table_overlap_rejected () =
  let rt, _, _ = mk_rt () in
  Hw.Range_table.insert rt ~base:0 ~limit:(Sim.Units.mib 1) ~offset:0 ~prot:Hw.Prot.rw;
  Alcotest.check_raises "overlap" (Invalid_argument "Range_table.insert: overlapping range")
    (fun () ->
      Hw.Range_table.insert rt ~base:(Sim.Units.kib 512) ~limit:(Sim.Units.mib 1) ~offset:0
        ~prot:Hw.Prot.rw)

let test_range_table_remove () =
  let rt, _, _ = mk_rt () in
  Hw.Range_table.insert rt ~base:0 ~limit:4096 ~offset:42 ~prot:Hw.Prot.r;
  let e = Hw.Range_table.remove rt ~base:0 in
  check_int "returned entry" 42 e.Hw.Range_table.offset;
  check_int "empty" 0 (Hw.Range_table.entry_count rt);
  Alcotest.check_raises "missing" Not_found (fun () -> ignore (Hw.Range_table.remove rt ~base:0))

let test_range_tlb_lru_and_shootdown () =
  let clock, stats = mk_env () in
  let rtlb = Hw.Range_tlb.create ~clock ~stats ~entries:2 () in
  let e base = { Hw.Range_table.base; limit = 4096; offset = 0; prot = Hw.Prot.rw } in
  Hw.Range_tlb.insert rtlb (e 0);
  Hw.Range_tlb.insert rtlb (e 4096);
  ignore (Hw.Range_tlb.lookup rtlb ~va:0 ());
  Hw.Range_tlb.insert rtlb (e 8192);
  check_bool "MRU kept" true (Hw.Range_tlb.lookup rtlb ~va:0 () <> None);
  check_bool "LRU evicted" true (Hw.Range_tlb.lookup rtlb ~va:4096 () = None);
  Hw.Range_tlb.invalidate rtlb ~base:0 ();
  check_bool "shootdown" true (Hw.Range_tlb.lookup rtlb ~va:0 () = None);
  check_int "misses counted" 2 (Sim.Stats.get stats "range_tlb_miss")

let test_range_tlb_insert_overlap_evicts () =
  let clock, stats = mk_env () in
  let rtlb = Hw.Range_tlb.create ~clock ~stats ~entries:4 () in
  let e ~base ~limit ~offset = { Hw.Range_table.base; limit; offset; prot = Hw.Prot.rw } in
  Hw.Range_tlb.insert rtlb (e ~base:0 ~limit:(Sim.Units.kib 8) ~offset:0);
  (* Overlaps the first entry's tail under a different base: the stale entry
     must be evicted or a lookup in the overlap could return either. *)
  Hw.Range_tlb.insert rtlb (e ~base:Sim.Units.page_size ~limit:(Sim.Units.kib 8) ~offset:100);
  check_int "overlapping entry evicted" 1 (Hw.Range_tlb.entry_count rtlb);
  (match Hw.Range_tlb.lookup rtlb ~va:Sim.Units.page_size () with
  | Some hit -> check_int "fresh entry wins in the overlap" 100 hit.Hw.Range_table.offset
  | None -> Alcotest.fail "expected range TLB hit");
  check_bool "va only the stale entry covered now misses" true
    (Hw.Range_tlb.lookup rtlb ~va:0 () = None);
  Hw.Range_tlb.insert rtlb (e ~base:(Sim.Units.mib 1) ~limit:Sim.Units.page_size ~offset:7);
  check_int "disjoint entries coexist" 2 (Hw.Range_tlb.entry_count rtlb)

(* PTE bit-level encoding *)

let test_pte_roundtrip () =
  let e =
    Hw.Pte.encode ~present:true ~pfn:0x1234 ~prot:Hw.Prot.rw ~accessed:true ~dirty:false
      ~huge:false
  in
  check_bool "present" true (Hw.Pte.present e);
  check_int "pfn" 0x1234 (Hw.Pte.pfn e);
  check_bool "write" true (Hw.Pte.prot e).Hw.Prot.write;
  check_bool "nx" false (Hw.Pte.prot e).Hw.Prot.exec;
  check_bool "accessed" true (Hw.Pte.accessed e);
  check_bool "clean" false (Hw.Pte.dirty e);
  let e = Hw.Pte.set_dirty e true in
  check_bool "dirty now" true (Hw.Pte.dirty e);
  check_bool "not present decodes" true (Hw.Pte.to_leaf Hw.Pte.not_present = None);
  Alcotest.check_raises "pfn too wide" (Invalid_argument "Pte.encode: PFN out of 40 bits")
    (fun () ->
      ignore
        (Hw.Pte.encode ~present:true ~pfn:(1 lsl 40) ~prot:Hw.Prot.r ~accessed:false
           ~dirty:false ~huge:false))

let prop_pte_leaf_roundtrip =
  qtest "leaf -> PTE -> leaf round-trips" ~count:100
    QCheck2.Gen.(quad (int_bound 0xFFFFF) bool bool bool)
    (fun (pfn, w, x, huge) ->
      let leaf =
        {
          Hw.Page_table.pfn;
          prot = { Hw.Prot.read = true; write = w; exec = x };
          accessed = huge (* arbitrary reuse of the generator's bits *);
          dirty = w;
          size = (if huge then Hw.Page_size.Huge_2m else Hw.Page_size.Small);
        }
      in
      match Hw.Pte.to_leaf (Hw.Pte.of_leaf leaf) with
      | None -> false
      | Some l ->
        l.Hw.Page_table.pfn = pfn
        && Hw.Prot.equal l.Hw.Page_table.prot leaf.Hw.Page_table.prot
        && l.Hw.Page_table.accessed = leaf.Hw.Page_table.accessed
        && l.Hw.Page_table.dirty = leaf.Hw.Page_table.dirty
        && l.Hw.Page_table.size = leaf.Hw.Page_table.size)

(* B-tree (the range table's index) *)

let test_btree_basics () =
  let b = Btree.create () in
  check_int "empty" 0 (Btree.cardinal b);
  check_int "height 1" 1 (Btree.height b);
  for i = 0 to 99 do
    Btree.insert b ~key:(i * 2) (i * 10)
  done;
  check_int "cardinal" 100 (Btree.cardinal b);
  check_bool "height grew" true (Btree.height b >= 2);
  check_bool "invariants" true (Btree.check_invariants b);
  check_bool "find hit" true (Btree.find b ~key:42 = Some 210);
  check_bool "find miss" true (Btree.find b ~key:43 = None);
  check_bool "last_leq exact" true (Btree.find_last_leq b ~key:42 = Some (42, 210));
  check_bool "last_leq between" true (Btree.find_last_leq b ~key:43 = Some (42, 210));
  check_bool "last_leq below-all" true (Btree.find_last_leq b ~key:(-1) = None);
  check_bool "first_gt" true (Btree.find_first_gt b ~key:42 = Some (44, 220));
  check_bool "first_gt above-all" true (Btree.find_first_gt b ~key:1000 = None);
  Alcotest.check_raises "duplicate" (Invalid_argument "Btree.insert: duplicate key") (fun () ->
      Btree.insert b ~key:42 0)

let test_btree_iter_sorted () =
  let b = Btree.create () in
  let rng = Sim.Rng.create ~seed:5 in
  let keys = ref [] in
  for _ = 1 to 200 do
    let k = Sim.Rng.int rng 100_000 in
    if Btree.find b ~key:k = None then begin
      Btree.insert b ~key:k k;
      keys := k :: !keys
    end
  done;
  let seen = ref [] in
  Btree.iter b (fun k _ -> seen := k :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check (list int)) "ascending" (List.sort compare !keys) seen

let test_btree_delete_all () =
  let b = Btree.create () in
  for i = 0 to 499 do
    Btree.insert b ~key:i i
  done;
  (* Delete in an adversarial order: evens ascending, odds descending. *)
  for i = 0 to 249 do
    check_bool "removed even" true (Btree.remove b ~key:(i * 2) = Some (i * 2));
    check_bool "inv" true (Btree.check_invariants b)
  done;
  let i = ref 499 in
  while !i >= 1 do
    check_bool "removed odd" true (Btree.remove b ~key:!i = Some !i);
    i := !i - 2
  done;
  check_int "empty again" 0 (Btree.cardinal b);
  check_bool "remove missing" true (Btree.remove b ~key:7 = None)

let prop_btree_vs_map_model =
  qtest "btree agrees with a Map reference under random ops" ~count:60
    QCheck2.Gen.(list_size (int_range 10 300) (pair (int_bound 500) bool))
    (fun ops ->
      let b = Btree.create () in
      let m = ref [] (* assoc list model *) in
      List.iter
        (fun (k, ins) ->
          if ins then (
            if not (List.mem_assoc k !m) then begin
              Btree.insert b ~key:k (k * 3);
              m := (k, k * 3) :: !m
            end)
          else begin
            let expect = List.assoc_opt k !m in
            let got = Btree.remove b ~key:k in
            if got <> expect then failwith "remove mismatch";
            m := List.remove_assoc k !m
          end)
        ops;
      Btree.check_invariants b
      && Btree.cardinal b = List.length !m
      && List.for_all (fun (k, v) -> Btree.find b ~key:k = Some v) !m
      && (let probe = List.init 50 (fun i -> i * 11) in
          List.for_all
            (fun k ->
              let model_leq =
                List.filter (fun (k', _) -> k' <= k) !m
                |> List.sort (fun (a, _) (b, _) -> compare b a)
                |> function [] -> None | x :: _ -> Some x
              in
              Btree.find_last_leq b ~key:k = model_leq)
            probe))

(* Mmu front end *)

let mk_mmu ?range_table () =
  let pt, clock, stats = mk_page_table () in
  (Hw.Mmu.create ~clock ~stats ~table:pt ?range_table (), pt, clock, stats)

let test_mmu_translate_via_pt () =
  let mmu, pt, _, stats = mk_mmu () in
  PT.map_page pt ~va:0x1000 ~pfn:9 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  (match Hw.Mmu.translate mmu ~va:0x1010 ~write:false ~exec:false with
  | Ok pa -> check_int "pa" ((9 * 4096) + 0x10) pa
  | Error _ -> Alcotest.fail "expected translation");
  check_int "first access misses" 1 (Sim.Stats.get stats "tlb_miss");
  (match Hw.Mmu.translate mmu ~va:0x1020 ~write:false ~exec:false with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "expected hit");
  check_int "second hits" 1 (Sim.Stats.get stats "tlb_hit")

let test_mmu_protection_fault () =
  let mmu, pt, _, _ = mk_mmu () in
  PT.map_page pt ~va:0 ~pfn:1 ~prot:Hw.Prot.r ~size:Hw.Page_size.Small;
  check_bool "write to ro" true
    (Hw.Mmu.translate mmu ~va:0 ~write:true ~exec:false = Error Hw.Mmu.Protection);
  check_bool "unmapped" true
    (Hw.Mmu.translate mmu ~va:0x100000 ~write:false ~exec:false = Error Hw.Mmu.Not_mapped)

let test_mmu_dirty_bit_on_write () =
  let mmu, pt, _, _ = mk_mmu () in
  PT.map_page pt ~va:0 ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
  ignore (Hw.Mmu.translate mmu ~va:0 ~write:false ~exec:false);
  (match PT.lookup pt ~va:0 with
  | Some (_, leaf) -> check_bool "clean after read" false leaf.PT.dirty
  | None -> Alcotest.fail "lost");
  ignore (Hw.Mmu.translate mmu ~va:0 ~write:true ~exec:false);
  match PT.lookup pt ~va:0 with
  | Some (_, leaf) -> check_bool "dirty after write" true leaf.PT.dirty
  | None -> Alcotest.fail "lost"

let test_mmu_range_path () =
  let clock, stats = mk_env () in
  let rt = Hw.Range_table.create ~clock ~stats () in
  let next = ref 0 in
  let pt = PT.create ~clock ~stats ~levels:4 ~alloc_frame:(fun () -> incr next; !next) in
  let mmu = Hw.Mmu.create ~clock ~stats ~table:pt ~range_table:rt () in
  Hw.Range_table.insert rt ~base:0x100000 ~limit:(Sim.Units.gib 1) ~offset:(-0x100000) ~prot:Hw.Prot.rw;
  (match Hw.Mmu.translate mmu ~va:(0x100000 + 777) ~write:true ~exec:false with
  | Ok pa -> check_int "range translation" 777 pa
  | Error _ -> Alcotest.fail "range path failed");
  check_int "one range walk" 1 (Sim.Stats.get stats "range_walks");
  ignore (Hw.Mmu.translate mmu ~va:(0x100000 + Sim.Units.mib 500) ~write:false ~exec:false);
  check_int "second access hits range TLB" 1 (Sim.Stats.get stats "range_tlb_hit")

let prop_pt_map_lookup_roundtrip =
  qtest "map/lookup round-trips over random pages" ~count:60
    QCheck2.Gen.(list_size (int_range 1 30) (int_bound 100_000))
    (fun vpns ->
      let pt, _, _ = mk_page_table () in
      let vpns = List.sort_uniq compare vpns in
      List.iteri
        (fun i vpn ->
          PT.map_page pt ~va:(vpn * 4096) ~pfn:(i + 1) ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small)
        vpns;
      List.for_all
        (fun vpn ->
          match PT.lookup pt ~va:(vpn * 4096) with Some (pa, _) -> pa mod 4096 = 0 | None -> false)
        vpns
      && PT.pte_count pt = List.length vpns)

let prop_pt_unmap_all_prunes =
  qtest "unmapping everything prunes to the root" ~count:40
    QCheck2.Gen.(list_size (int_range 1 20) (int_bound 50_000))
    (fun vpns ->
      let pt, _, _ = mk_page_table () in
      let vpns = List.sort_uniq compare vpns in
      List.iter
        (fun vpn -> PT.map_page pt ~va:(vpn * 4096) ~pfn:1 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small)
        vpns;
      List.iter (fun vpn -> PT.unmap_page pt ~va:(vpn * 4096)) vpns;
      PT.node_count pt = 1 && PT.pte_count pt = 0)

(* Differential check of pruning: interleaved maps and unmaps on
   clustered VAs (so paths share interior nodes) against a reference set
   of mapped pages, compared after every op. A 4 KiB leaf needs the
   interior nodes at depths 1..3 named by the VA prefixes above bits 39,
   30 and 21, so the table must own exactly one root plus one node per
   distinct prefix among the mapped pages. *)
let clustered_vpn_gen =
  QCheck2.Gen.(
    map
      (fun (a, b, c, d) -> (((((a * 512) + b) * 512) + c) * 512) + d)
      (quad (int_bound 1) (int_bound 1) (int_bound 2) (int_bound 7)))

let expected_nodes mapped =
  let prefixes = Hashtbl.create 16 in
  List.iter
    (fun vpn ->
      let va = vpn * 4096 in
      List.iter (fun shift -> Hashtbl.replace prefixes (shift, va lsr shift) ()) [ 39; 30; 21 ])
    mapped;
  1 + Hashtbl.length prefixes

let pt_agrees pt mapped ~universe =
  PT.pte_count pt = List.length mapped
  && PT.node_count pt = expected_nodes mapped
  && List.for_all
       (fun vpn ->
         let va = vpn * 4096 in
         match (PT.find_leaf pt ~va, PT.lookup pt ~va) with
         | leaf, Some (pa, leaf') ->
           List.mem vpn mapped && leaf == leaf' && leaf.PT.pfn = vpn + 1 && pa = (vpn + 1) * 4096
         | _, None -> false
         | exception Not_found -> (not (List.mem vpn mapped)) && PT.lookup pt ~va = None)
       universe

let prop_pt_prune_vs_reference =
  qtest "page table pruning matches a reference set" ~count:100
    QCheck2.Gen.(list_size (int_range 1 120) (pair bool clustered_vpn_gen))
    (fun ops ->
      let pt, _, _ = mk_page_table () in
      let universe = List.sort_uniq compare (List.map snd ops) in
      let mapped = ref [] in
      List.for_all
        (fun (map, vpn) ->
          let va = vpn * 4096 and is_mapped = List.mem vpn !mapped in
          let legal = map <> is_mapped in
          let raised =
            match
              if map then PT.map_page pt ~va ~pfn:(vpn + 1) ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small
              else PT.unmap_page pt ~va
            with
            | () -> false
            | exception Invalid_argument _ -> true
          in
          if legal then
            mapped := if map then vpn :: !mapped else List.filter (( <> ) vpn) !mapped;
          raised = not legal && pt_agrees pt !mapped ~universe)
        ops)

(* Pages under a node grafted into a second table, unmapped one by one
   through either table in any order: the shared node and every path to
   it survive, even once its last leaf is gone, and it still serves both
   tables afterwards. *)
let prop_pt_shared_node_survives_unmaps =
  qtest "unmapping a shared node's last leaf never frees it" ~count:60
    QCheck2.Gen.(list_size (int_range 1 24) (pair bool (int_bound 511)))
    (fun picks ->
      let a, _, stats_a = mk_page_table () in
      let b, _, stats_b = mk_page_table () in
      let base = Sim.Units.huge_2m * 3 in
      let pages = List.sort_uniq compare (List.map snd picks) in
      List.iter
        (fun p ->
          PT.map_page a ~va:(base + (p * 4096)) ~pfn:(p + 1) ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small)
        pages;
      PT.share_subtree ~src:a ~src_va:base ~dst:b ~dst_va:base ~depth:3;
      let nodes_a = PT.node_count a and nodes_b = PT.node_count b in
      let unmapped = Hashtbl.create 16 in
      let each_unmap_keeps_nodes =
        List.for_all
          (fun (via_a, p) ->
            if not (Hashtbl.mem unmapped p) then begin
              Hashtbl.replace unmapped p ();
              PT.unmap_page (if via_a then a else b) ~va:(base + (p * 4096))
            end;
            PT.node_count a = nodes_a
            && PT.node_count b = nodes_b
            && PT.is_shared_at b ~va:base ~depth:3
            && PT.pte_count a = PT.pte_count b)
          picks
      in
      PT.map_page b ~va:base ~pfn:77 ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small;
      each_unmap_keeps_nodes
      && PT.pte_count a = 1
      && (PT.find_leaf a ~va:base).PT.pfn = 77
      && Sim.Stats.get stats_a "pt_node_free" = 0
      && Sim.Stats.get stats_b "pt_node_free" = 0)

let prop_tlb_inclusion =
  qtest "whatever the TLB returns matches the page table" ~count:40
    QCheck2.Gen.(list_size (int_range 1 50) (int_bound 2000))
    (fun vpns ->
      let mmu, pt, _, _ = mk_mmu () in
      List.iter
        (fun vpn ->
          if PT.lookup pt ~va:(vpn * 4096) = None then
            PT.map_page pt ~va:(vpn * 4096) ~pfn:(vpn + 1) ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small)
        vpns;
      List.for_all
        (fun vpn ->
          match Hw.Mmu.translate mmu ~va:(vpn * 4096) ~write:false ~exec:false with
          | Ok pa -> pa = (vpn + 1) * 4096
          | Error _ -> false)
        (vpns @ vpns))

(* Model-based: TLB against a reference LRU model *)

let prop_tlb_vs_lru_model =
  qtest "TLB agrees with an LRU reference model" ~count:40
    QCheck2.Gen.(list_size (int_range 20 200) (int_bound 31))
    (fun vpns ->
      (* A 1-set, 4-way TLB is a pure 4-entry LRU: model it with a list. *)
      let clock, stats = mk_env () in
      let tlb = Hw.Tlb.create ~clock ~stats ~sets:1 ~ways:4 () in
      let model = ref [] (* MRU first, max 4 *) in
      List.for_all
        (fun vpn ->
          let va = vpn * Sim.Units.page_size in
          let model_hit = List.mem vpn !model in
          let tlb_hit = Hw.Tlb.lookup tlb ~va () <> None in
          (if model_hit then model := vpn :: List.filter (( <> ) vpn) !model
           else begin
             Hw.Tlb.insert tlb ~va ~pfn:vpn ~prot:Hw.Prot.rw ~size:Hw.Page_size.Small ();
             model := vpn :: List.filteri (fun i _ -> i < 3) (List.filter (( <> ) vpn) !model)
           end);
          tlb_hit = model_hit)
        vpns)

(* Model-based: single-level cache against an LRU reference *)

let prop_cache_vs_lru_model =
  qtest "cache agrees with an LRU reference model" ~count:40
    QCheck2.Gen.(list_size (int_range 20 200) (int_bound 7))
    (fun line_ids ->
      let clock, stats = mk_env () in
      (* One set, 4 ways, 64B lines: addresses i*SETS*64 all map to set 0
         — with sets=1 any line index works. *)
      let cache =
        Physmem.Cache_hier.create ~clock ~stats
          ~levels:[ { Physmem.Cache_hier.name = "c"; size_bytes = 256; ways = 4; latency = 1 } ]
          ()
      in
      let model = ref [] in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let model_hit = List.mem line !model in
          let outcome = Physmem.Cache_hier.access cache ~addr ~write:false in
          (if model_hit then model := line :: List.filter (( <> ) line) !model
           else
             model := line :: List.filteri (fun i _ -> i < 3) (List.filter (( <> ) line) !model));
          (outcome = Physmem.Cache_hier.Hit 0) = model_hit)
        line_ids)

let suite =
  [
    Alcotest.test_case "prot: allow/subset/pp" `Quick test_prot;
    Alcotest.test_case "page sizes: geometry" `Quick test_page_size;
    Alcotest.test_case "page table: map/lookup" `Quick test_pt_map_lookup;
    Alcotest.test_case "page table: node accounting + pruning" `Quick test_pt_counts_and_prune;
    Alcotest.test_case "page table: double map rejected" `Quick test_pt_double_map_rejected;
    Alcotest.test_case "page table: huge pages" `Quick test_pt_huge_pages;
    Alcotest.test_case "page table: map_range picks page sizes" `Quick test_pt_map_range_mixed;
    Alcotest.test_case "page table: map_range small" `Quick test_pt_map_range_small;
    Alcotest.test_case "page table: unmap_range" `Quick test_pt_unmap_range;
    Alcotest.test_case "page table: protect_range" `Quick test_pt_protect_range;
    Alcotest.test_case "page table: iter_leaves ordered" `Quick test_pt_iter_leaves_order;
    Alcotest.test_case "page table: 5-level mode" `Quick test_pt_five_levels;
    Alcotest.test_case "page table: subtree sharing (Fig 3)" `Quick test_pt_share_subtree;
    Alcotest.test_case "page table: share alignment enforced" `Quick test_pt_share_alignment_checks;
    Alcotest.test_case "page table: shared nodes never pruned" `Quick test_pt_shared_node_not_pruned;
    Alcotest.test_case "page table: ensure_node" `Quick test_ensure_node;
    Alcotest.test_case "walker: reference counts (incl. 24/35)" `Quick test_walk_ref_counts;
    Alcotest.test_case "walker: charges and accessed bit" `Quick test_walk_charges_and_access_bit;
    Alcotest.test_case "tlb: hit/miss" `Quick test_tlb_hit_miss;
    Alcotest.test_case "tlb: LRU eviction" `Quick test_tlb_lru_eviction;
    Alcotest.test_case "tlb: huge-page entries" `Quick test_tlb_huge_entry;
    Alcotest.test_case "tlb: invalidate/flush" `Quick test_tlb_invalidate;
    Alcotest.test_case "tlb: invalidate_range charges per page" `Quick
      test_tlb_invalidate_range_accounting;
    Alcotest.test_case "tlb: invalidate_range full-flush path" `Quick
      test_tlb_invalidate_range_full_flush;
    Alcotest.test_case "pte: bit-level encoding" `Quick test_pte_roundtrip;
    prop_pte_leaf_roundtrip;
    Alcotest.test_case "btree: basics" `Quick test_btree_basics;
    Alcotest.test_case "btree: iteration sorted" `Quick test_btree_iter_sorted;
    Alcotest.test_case "btree: adversarial deletion" `Quick test_btree_delete_all;
    prop_btree_vs_map_model;
    Alcotest.test_case "range table: insert/lookup" `Quick test_range_table_lookup;
    Alcotest.test_case "range table: overlap rejected" `Quick test_range_table_overlap_rejected;
    Alcotest.test_case "range table: remove" `Quick test_range_table_remove;
    Alcotest.test_case "range tlb: LRU + shootdown" `Quick test_range_tlb_lru_and_shootdown;
    Alcotest.test_case "range tlb: insert evicts overlaps" `Quick
      test_range_tlb_insert_overlap_evicts;
    Alcotest.test_case "mmu: translate via page table + TLB fill" `Quick test_mmu_translate_via_pt;
    Alcotest.test_case "mmu: faults" `Quick test_mmu_protection_fault;
    Alcotest.test_case "mmu: dirty bit on write" `Quick test_mmu_dirty_bit_on_write;
    Alcotest.test_case "mmu: range translation path" `Quick test_mmu_range_path;
    prop_tlb_vs_lru_model;
    prop_cache_vs_lru_model;
    prop_pt_map_lookup_roundtrip;
    prop_pt_unmap_all_prunes;
    prop_tlb_inclusion;
    prop_pt_prune_vs_reference;
    prop_pt_shared_node_survives_unmaps;
  ]
