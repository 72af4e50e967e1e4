type flag =
  | Locked
  | Referenced
  | Uptodate
  | Dirty
  | Lru
  | Active
  | Slab_page
  | Reserved
  | Private
  | Writeback
  | Head
  | Swapcache
  | Swapbacked
  | Mappedtodisk
  | Reclaim
  | Unevictable
  | Mlocked
  | Pinned

let bit_of = function
  | Locked -> 0
  | Referenced -> 1
  | Uptodate -> 2
  | Dirty -> 3
  | Lru -> 4
  | Active -> 5
  | Slab_page -> 6
  | Reserved -> 7
  | Private -> 8
  | Writeback -> 9
  | Head -> 10
  | Swapcache -> 11
  | Swapbacked -> 12
  | Mappedtodisk -> 13
  | Reclaim -> 14
  | Unevictable -> 15
  | Mlocked -> 16
  | Pinned -> 17

type page = { mutable flags : int; mutable refcount : int; mutable mapcount : int }

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  frames : int;
  pages : (int, page) Hashtbl.t;
}

let bytes_per_page = 64

let create ~clock ~stats ~frames = { clock; stats; frames; pages = Hashtbl.create 1024 }

let frames t = t.frames

let page t pfn =
  if pfn < 0 || pfn >= t.frames then invalid_arg "Page_meta: frame out of range";
  try Hashtbl.find t.pages pfn
  with Not_found ->
    let p = { flags = 0; refcount = 0; mapcount = 0 } in
    Hashtbl.add t.pages pfn p;
    p

let charge_meta t =
  Sim.Clock.charge t.clock 8;
  Sim.Stats.incr t.stats "struct_page_update"

let get_flag t pfn f = page t pfn |> fun p -> p.flags land (1 lsl bit_of f) <> 0

let set_flag t pfn f v =
  charge_meta t;
  let p = page t pfn in
  let mask = 1 lsl bit_of f in
  p.flags <- (if v then p.flags lor mask else p.flags land lnot mask)

let refcount t pfn = (page t pfn).refcount

let get_page t pfn =
  charge_meta t;
  let p = page t pfn in
  p.refcount <- p.refcount + 1

let put_page t pfn =
  charge_meta t;
  let p = page t pfn in
  if p.refcount <= 0 then invalid_arg "Page_meta.put_page: refcount underflow";
  p.refcount <- p.refcount - 1

let mapcount t pfn = (page t pfn).mapcount

(* Mapcount 0 -> 1 / 1 -> 0 transitions are the machine-wide choke point
   for residency: a frame is resident iff some address space maps it. *)
let inc_mapcount t pfn =
  charge_meta t;
  let p = page t pfn in
  p.mapcount <- p.mapcount + 1;
  if p.mapcount = 1 then Sim.Stats.add_gauge t.stats "resident_pages" 1

let dec_mapcount t pfn =
  charge_meta t;
  let p = page t pfn in
  if p.mapcount <= 0 then invalid_arg "Page_meta.dec_mapcount: underflow";
  p.mapcount <- p.mapcount - 1;
  if p.mapcount = 0 then Sim.Stats.add_gauge t.stats "resident_pages" (-1)

let init_range t ~first ~count =
  if first < 0 || count < 0 || first + count > t.frames then
    invalid_arg "Page_meta.init_range: out of range";
  let model = Sim.Clock.model t.clock in
  Sim.Clock.charge t.clock (count * model.Sim.Cost_model.struct_page_init);
  Sim.Stats.add t.stats "struct_page_init" count

let metadata_bytes t = t.frames * bytes_per_page

let reset_after_crash t =
  (* struct pages live in DRAM: a crash reinitializes them all. The
     residency gauge must follow, or post-crash observability reports
     mappings of processes that no longer exist. *)
  Hashtbl.reset t.pages;
  Sim.Stats.set_gauge t.stats "resident_pages" 0

let iter_counts t f =
  Hashtbl.iter (fun pfn p -> f pfn ~refcount:p.refcount ~mapcount:p.mapcount) t.pages

let resident_pages t =
  Hashtbl.fold (fun _ p acc -> if p.mapcount > 0 then acc + 1 else acc) t.pages 0
