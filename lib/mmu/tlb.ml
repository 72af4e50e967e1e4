(* Each set is a fixed array of [ways] slots with a per-slot LRU clock:
   lookup, insert and eviction are all O(ways) array scans with no list
   allocation — the O(1) hot path the rest of the simulator leans on.

   Entries are ASID-tagged (PCID-style): one physical TLB per core is
   shared by every address space scheduled there, and invalidations are
   scoped to one ASID while a full flush drops everything. *)
type slot = {
  mutable valid : bool;
  mutable asid : int;
  mutable tag : int;
  mutable size : Page_size.t;
  mutable pfn : Physmem.Frame.t;
  mutable prot : Prot.t;
  mutable used : int; (* global tick of last touch; smallest = LRU *)
}

type t = {
  clock : Sim.Clock.t;
  stats : Sim.Stats.t;
  trace : Sim.Trace.t;
  sets : int;
  ways : int;
  data : slot array array;
  mutable tick : int;
  (* Local mirrors of the global "tlb_shootdown" / "tlb_flush" counters:
     every bump of the shared stat bumps these by the same amount, so the
     per-core sums must reconcile with the machine-wide stat (Os.Check
     enforces it). *)
  mutable shootdowns : int;
  mutable flushes : int;
}

let create ~clock ~stats ?(trace = Sim.Trace.disabled) ?(sets = 128) ?(ways = 8) () =
  if sets <= 0 || ways <= 0 || not (Sim.Units.is_power_of_two sets) then
    invalid_arg "Tlb.create: sets must be a positive power of two";
  let mk_slot _ =
    { valid = false; asid = 0; tag = 0; size = Page_size.Small; pfn = 0; prot = Prot.r; used = 0 }
  in
  {
    clock;
    stats;
    trace;
    sets;
    ways;
    data = Array.init sets (fun _ -> Array.init ways mk_slot);
    tick = 0;
    shootdowns = 0;
    flushes = 0;
  }

let capacity t = t.sets * t.ways
let shootdowns t = t.shootdowns
let flushes t = t.flushes

let model t = Sim.Clock.model t.clock
let pspan t name f = Sim.Trace.prof_span t.trace name f

(* Occupancy gauge: per-core TLBs share the machine Stats, so the
   gauge is maintained with deltas and reads as aggregate live entries. *)
let gauge_delta t d = if d <> 0 then Sim.Stats.add_gauge t.stats "tlb_entries" d

let touch t =
  t.tick <- t.tick + 1;
  t.tick

(* Tag = VA with in-page bits cleared for the entry's page size; the set
   index mixes in the size so different sizes coexist predictably. *)
let tag_of va size = Sim.Units.round_down va ~align:(Page_size.bytes size)

let set_of t va size =
  let vpn = va / Page_size.bytes size in
  (vpn lxor (Page_size.bytes size lsr 12)) land (t.sets - 1)

(* Returned by [find_slot] when nothing matches, instead of an option
   that would allocate on every hit. Never valid, never stored. *)
let no_slot =
  { valid = false; asid = 0; tag = 0; size = Page_size.Small; pfn = 0; prot = Prot.r; used = 0 }

let rec first_match set ~asid ~tag size i =
  if i = Array.length set then no_slot
  else
    let s = set.(i) in
    if s.valid && s.asid = asid && s.tag = tag && s.size = size then s
    else first_match set ~asid ~tag size (i + 1)

let find_slot t ~asid va size =
  first_match t.data.(set_of t va size) ~asid ~tag:(tag_of va size) size 0

(* The first slot matching [va] at any page size, smallest size first. *)
let find_any t ~asid va =
  let s = find_slot t ~asid va Page_size.Small in
  if s != no_slot then s
  else
    let s = find_slot t ~asid va Page_size.Huge_2m in
    if s != no_slot then s else find_slot t ~asid va Page_size.Huge_1g

let lookup_unprofiled t ~asid ~va =
  let start = Sim.Clock.now t.clock in
  Sim.Clock.charge t.clock (model t).Sim.Cost_model.tlb_hit;
  let s = find_any t ~asid va in
  if s != no_slot then begin
    s.used <- touch t;
    Sim.Stats.incr t.stats "tlb_hit";
    Sim.Trace.record t.trace ~op:"tlb_lookup" ~start ~outcome:"hit" ();
    Some (s.pfn, s.prot, s.size)
  end
  else begin
    Sim.Stats.incr t.stats "tlb_miss";
    Sim.Trace.record t.trace ~op:"tlb_lookup" ~start ~outcome:"miss" ();
    None
  end

(* The span closure is built only when a profiler is attached. *)
let lookup t ?(asid = 0) ~va () =
  if Sim.Profile.enabled (Sim.Trace.profile t.trace) then
    pspan t "tlb_lookup" (fun () -> lookup_unprofiled t ~asid ~va)
  else lookup_unprofiled t ~asid ~va

let insert t ?(asid = 0) ~va ~pfn ~prot ~size () =
  let set = t.data.(set_of t va size) in
  let tag = tag_of va size in
  (* Reuse a matching or invalid slot; otherwise evict the LRU slot. *)
  let victim = ref set.(0) in
  let exception Found in
  (try
     for i = 0 to t.ways - 1 do
       let s = set.(i) in
       if s.valid && s.asid = asid && s.tag = tag && s.size = size then begin
         victim := s;
         raise Found
       end;
       if not s.valid then begin
         if !victim.valid then victim := s
       end
       else if !victim.valid && s.used < !victim.used then victim := s
     done
   with Found -> ());
  let s = !victim in
  if s.valid && not (s.asid = asid && s.tag = tag && s.size = size) then
    Sim.Stats.incr t.stats "tlb_evictions";
  if not s.valid then gauge_delta t 1;
  s.valid <- true;
  s.asid <- asid;
  s.tag <- tag;
  s.size <- size;
  s.pfn <- pfn;
  s.prot <- prot;
  s.used <- touch t

let count_shootdown t n =
  Sim.Stats.add t.stats "tlb_shootdown" n;
  t.shootdowns <- t.shootdowns + n

let drop_slot t ~asid va size =
  let s = find_slot t ~asid va size in
  if s != no_slot then begin
    s.valid <- false;
    gauge_delta t (-1)
  end

let invalidate_page t ?(asid = 0) ~va () =
  pspan t "tlb_shootdown" @@ fun () ->
  let start = Sim.Clock.now t.clock in
  Sim.Clock.charge t.clock (Sim.Cost_model.shootdown_cost (model t));
  count_shootdown t 1;
  drop_slot t ~asid va Page_size.Small;
  drop_slot t ~asid va Page_size.Huge_2m;
  drop_slot t ~asid va Page_size.Huge_1g;
  Sim.Trace.record t.trace ~op:"tlb_shootdown" ~start ~arg:1 ()

let iter t f =
  Array.iter
    (fun set ->
      Array.iter
        (fun s ->
          if s.valid then f ~asid:s.asid ~va:s.tag ~size:s.size ~pfn:s.pfn ~prot:s.prot)
        set)
    t.data

let entry_count t =
  Array.fold_left
    (fun acc set -> Array.fold_left (fun acc s -> if s.valid then acc + 1 else acc) acc set)
    0 t.data

let clear t =
  gauge_delta t (-entry_count t);
  Array.iter (fun set -> Array.iter (fun s -> s.valid <- false) set) t.data

let flush t =
  pspan t "tlb_flush" @@ fun () ->
  let start = Sim.Clock.now t.clock in
  let had = entry_count t in
  Sim.Clock.charge t.clock (Sim.Cost_model.shootdown_cost (model t));
  Sim.Stats.incr t.stats "tlb_flush";
  t.flushes <- t.flushes + 1;
  clear t;
  Sim.Trace.record t.trace ~op:"tlb_flush" ~start ~arg:had ()

(* Beyond this many pages Linux stops issuing per-page INVLPGs and just
   flushes the whole TLB. *)
let full_flush_threshold_pages = 33

let invalidate_range t ?(asid = 0) ~va ~len () =
  let pages = Sim.Units.pages_of_bytes len in
  if pages >= full_flush_threshold_pages then flush t
  else begin
    pspan t "tlb_shootdown" @@ fun () ->
    let start = Sim.Clock.now t.clock in
    (* One INVLPG per page in the range, resident or not — same cost and
       stat accounting as [invalidate_page], applied n times. *)
    Sim.Clock.charge t.clock (pages * Sim.Cost_model.shootdown_cost (model t));
    count_shootdown t pages;
    let lo = va and hi = va + len in
    Array.iter
      (fun set ->
        Array.iter
          (fun s ->
            if s.valid && s.asid = asid then begin
              let e_lo = s.tag and e_hi = s.tag + Page_size.bytes s.size in
              if not (e_hi <= lo || e_lo >= hi) then begin
                s.valid <- false;
                gauge_delta t (-1)
              end
            end)
          set)
      t.data;
    Sim.Trace.record t.trace ~op:"tlb_shootdown" ~start ~arg:pages ()
  end
