open Helpers
module PM = Physmem.Phys_mem
module Frame = Physmem.Frame

let test_frame_arith () =
  check_int "to_addr" 8192 (Frame.to_addr 2);
  check_int "of_addr" 2 (Frame.of_addr 8192);
  check_int "of_addr mid" 2 (Frame.of_addr 8200);
  check_int "offset" 8 (Frame.offset_in_frame 8200)

let test_create_validation () =
  let clock, stats = mk_env () in
  Alcotest.check_raises "unaligned dram" (Invalid_argument "Phys_mem.create: dram_bytes not page-aligned")
    (fun () -> ignore (PM.create ~clock ~stats ~dram_bytes:4097 ~nvm_bytes:0 ()));
  Alcotest.check_raises "empty" (Invalid_argument "Phys_mem.create: empty machine") (fun () ->
      ignore (PM.create ~clock ~stats ~dram_bytes:0 ~nvm_bytes:0 ()))

let test_regions () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  check_int "total frames" 2048 (PM.total_frames mem);
  check_int "dram frames" 1024 (PM.dram_frames mem);
  check_int "nvm frames" 1024 (PM.nvm_frames mem);
  check_bool "dram region" true (PM.region_of_frame mem 0 = PM.Dram);
  check_bool "nvm region" true (PM.region_of_frame mem 1024 = PM.Nvm);
  check_bool "valid" true (PM.valid_frame mem 2047);
  check_bool "invalid" false (PM.valid_frame mem 2048)

let test_read_write_bytes () =
  let mem = mk_mem () in
  check_bool "initially zero" true (PM.read_byte mem 1000 = '\000');
  PM.write_byte mem 1000 'A';
  check_bool "written" true (PM.read_byte mem 1000 = 'A');
  PM.write_byte mem 1000 '\000';
  check_bool "rewritten to zero" true (PM.read_byte mem 1000 = '\000');
  check_int "no residue stored" 0 (PM.resident_bytes mem)

let test_bulk_read_write () =
  let mem = mk_mem () in
  PM.write mem ~addr:4096 "hello world";
  let b = PM.read mem ~addr:4096 ~len:11 in
  check_string "round trip" "hello world" (Bytes.to_string b);
  let partial = PM.read mem ~addr:4100 ~len:5 in
  check_string "offset read" "o wor" (Bytes.to_string partial)

let test_access_charges () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let clock = PM.clock mem in
  let model = Sim.Clock.model clock in
  let before = Sim.Clock.now clock in
  PM.touch mem 0;
  check_int "dram touch cost" model.Sim.Cost_model.mem_ref_dram (Sim.Clock.elapsed clock ~since:before);
  let before = Sim.Clock.now clock in
  PM.write_byte mem (Frame.to_addr 1024) 'x';
  check_int "nvm write cost" model.Sim.Cost_model.mem_ref_nvm_write
    (Sim.Clock.elapsed clock ~since:before);
  check_int "stats dram_read" 1 (Sim.Stats.get (PM.stats mem) "dram_read");
  check_int "stats nvm_write" 1 (Sim.Stats.get (PM.stats mem) "nvm_write")

let test_bulk_charges_per_line () =
  let mem = mk_mem () in
  let clock = PM.clock mem in
  let model = Sim.Clock.model clock in
  let before = Sim.Clock.now clock in
  ignore (PM.read mem ~addr:0 ~len:256);
  (* Streaming: one full-latency line + bandwidth cost for the rest. *)
  check_int "first-line latency + stream"
    (model.Sim.Cost_model.mem_ref_dram + Sim.Cost_model.copy_cost model ~bytes:256)
    (Sim.Clock.elapsed clock ~since:before)

let test_zero_frame () =
  let mem = mk_mem () in
  PM.write mem ~addr:8192 "dirty";
  check_bool "frame dirty" false (PM.frame_is_zero mem 2);
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  PM.zero_frame mem 2;
  check_bool "frame clean" true (PM.frame_is_zero mem 2);
  check_int "zeroing charged" 1024 (Sim.Clock.elapsed clock ~since:before);
  check_int "bytes_zeroed stat" 4096 (Sim.Stats.get (PM.stats mem) "bytes_zeroed")

let test_out_of_range () =
  let mem = mk_mem ~dram:(Sim.Units.mib 1) ~nvm:0 () in
  Alcotest.check_raises "read oob" (Invalid_argument "Phys_mem: address out of range") (fun () ->
      ignore (PM.read_byte mem (Sim.Units.mib 1)))

let test_crash_drops_dram_keeps_nvm () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  PM.write mem ~addr:0 "volatile";
  let nvm_addr = Frame.to_addr 1024 in
  PM.write mem ~addr:nvm_addr "durable";
  PM.crash mem;
  check_string "dram lost" (String.make 8 '\000') (Bytes.to_string (PM.read mem ~addr:0 ~len:8));
  check_string "nvm kept" "durable" (Bytes.to_string (PM.read mem ~addr:nvm_addr ~len:7))

let test_discard_no_cost () =
  let mem = mk_mem () in
  PM.write mem ~addr:4096 "x";
  let clock = PM.clock mem in
  let before = Sim.Clock.now clock in
  PM.discard_frame mem 1;
  check_int "free of charge" 0 (Sim.Clock.elapsed clock ~since:before);
  check_bool "cleared" true (PM.frame_is_zero mem 1)

(* A frame written only inside one cache line holds a line buffer, not a
   4 KiB page: one byte in each of many fresh frames stays far below the
   ~520 words a page buffer costs. *)
let test_one_byte_frames_stay_small () =
  let frames = 1000 in
  let mem = mk_mem ~dram:(Sim.Units.mib 8) ~nvm:0 () in
  let before = words () in
  for pfn = 0 to frames - 1 do
    PM.write_byte mem (Frame.to_addr pfn + 100) 'x'
  done;
  let per_frame = (words () -. before) /. float_of_int frames in
  check_int "one byte per frame" frames (PM.resident_bytes mem);
  check_bool (Printf.sprintf "%.1f words per frame < 64" per_frame) true (per_frame < 64.)

(* Zero engine *)

let test_zero_engine_pool () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  check_int "pool empty" Physmem.Zero_engine.no_frame (Physmem.Zero_engine.take_zeroed z);
  PM.write mem ~addr:(Frame.to_addr 5) "junk";
  Physmem.Zero_engine.put_dirty z 5;
  Physmem.Zero_engine.put_dirty z 6;
  check_int "pending" 2 (Physmem.Zero_engine.pending z);
  check_int "zeroed two" 2 (Physmem.Zero_engine.background_step z ~budget_frames:10);
  check_int "available" 2 (Physmem.Zero_engine.available z);
  check_bool "frame 5 clean" true (PM.frame_is_zero mem 5);
  check_int "handout" 5 (Physmem.Zero_engine.take_zeroed z)

let test_zero_engine_budget () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  Physmem.Zero_engine.put_dirty_range z ~first:1 ~count:4;
  check_int "partial" 3 (Physmem.Zero_engine.background_step z ~budget_frames:3);
  check_int "left pending" 1 (Physmem.Zero_engine.pending z)

(* The engine's two rings against two [Queue]s: same handout order, same
   depths, across ring growth and wrap-around. *)
type zop = Put of int | Put_range of int * int | Step of int | Take

let prop_zero_engine_vs_queues =
  let gen =
    QCheck2.Gen.(
      list_size (int_bound 300)
        (frequency
           [
             (4, map (fun f -> Put f) (int_bound 999));
             (1, map2 (fun f n -> Put_range (f, n)) (int_bound 999) (int_bound 40));
             (3, map (fun b -> Step b) (int_bound 12));
             (4, return Take);
           ]))
  in
  qtest "zero engine rings == queue model" ~count:200 gen (fun ops ->
      let z = Physmem.Zero_engine.create (mk_mem ()) in
      let dirty = Queue.create () and zeroed = Queue.create () in
      List.iter
        (fun op ->
          (match op with
          | Put f ->
            Physmem.Zero_engine.put_dirty z f;
            Queue.add f dirty
          | Put_range (first, count) ->
            Physmem.Zero_engine.put_dirty_range z ~first ~count;
            for f = first to first + count - 1 do
              Queue.add f dirty
            done
          | Step budget_frames ->
            let n = Physmem.Zero_engine.background_step z ~budget_frames in
            let want = min budget_frames (Queue.length dirty) in
            for _ = 1 to want do
              Queue.add (Queue.pop dirty) zeroed
            done;
            if n <> want then QCheck2.Test.fail_reportf "step zeroed %d, model %d" n want
          | Take ->
            let got = Physmem.Zero_engine.take_zeroed z in
            let want =
              match Queue.take_opt zeroed with Some f -> f | None -> Physmem.Zero_engine.no_frame
            in
            if got <> want then QCheck2.Test.fail_reportf "took %d, model %d" got want);
          if Physmem.Zero_engine.pending z <> Queue.length dirty then
            QCheck2.Test.fail_reportf "pending %d, model %d" (Physmem.Zero_engine.pending z)
              (Queue.length dirty);
          if Physmem.Zero_engine.available z <> Queue.length zeroed then
            QCheck2.Test.fail_reportf "available %d, model %d" (Physmem.Zero_engine.available z)
              (Queue.length zeroed))
        ops;
      (* Drain both: the tails must match too. *)
      ignore (Physmem.Zero_engine.background_step z ~budget_frames:max_int);
      Queue.transfer dirty zeroed;
      Queue.fold (fun ok f -> ok && Physmem.Zero_engine.take_zeroed z = f) true zeroed
      && Physmem.Zero_engine.take_zeroed z = Physmem.Zero_engine.no_frame)

let test_bulk_erase_constant_cost () =
  let mem = mk_mem () in
  let z = Physmem.Zero_engine.create mem in
  for i = 0 to 63 do
    PM.write mem ~addr:(Frame.to_addr i) "payload"
  done;
  let clock = PM.clock mem in
  let t1 =
    let before = Sim.Clock.now clock in
    Physmem.Zero_engine.bulk_erase z ~first:0 ~count:1;
    Sim.Clock.elapsed clock ~since:before
  in
  for i = 0 to 63 do
    PM.write mem ~addr:(Frame.to_addr i) "payload"
  done;
  let t64 =
    let before = Sim.Clock.now clock in
    Physmem.Zero_engine.bulk_erase z ~first:0 ~count:64;
    Sim.Clock.elapsed clock ~since:before
  in
  check_int "erase cost independent of size" t1 t64;
  check_bool "all clean" true (PM.frame_is_zero mem 63)

(* NVM persistence primitives *)

let test_nvm_flush_fence () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let nvm = Physmem.Nvm.create mem in
  let addr = Frame.to_addr 1024 in
  Physmem.Nvm.write_persistent nvm ~addr "important";
  check_bool "unflushed lines" true (Physmem.Nvm.unflushed_lines nvm > 0);
  Physmem.Nvm.flush nvm ~addr ~len:9;
  Physmem.Nvm.fence nvm;
  check_int "all flushed" 0 (Physmem.Nvm.unflushed_lines nvm);
  Physmem.Nvm.crash nvm;
  check_string "durable after crash" "important"
    (Bytes.to_string (PM.read mem ~addr ~len:9))

let test_nvm_torn_write () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let nvm = Physmem.Nvm.create mem in
  let addr = Frame.to_addr 1024 in
  Physmem.Nvm.write_persistent nvm ~addr "lost";
  (* no flush *)
  Physmem.Nvm.crash nvm;
  check_string "unflushed data torn" (String.make 4 '\000')
    (Bytes.to_string (PM.read mem ~addr ~len:4))

(* A line flushed again and again keeps one image buffer, refilled at
   each flush: a crash reverts to the latest flushed contents, and the
   image outlives the crash. *)
let test_nvm_reflush_latest_image () =
  let mem = mk_mem ~dram:(Sim.Units.mib 4) ~nvm:(Sim.Units.mib 4) () in
  let nvm = Physmem.Nvm.create mem in
  let addr = Frame.to_addr 1024 in
  let store s ~flush =
    Physmem.Nvm.write_persistent nvm ~addr s;
    if flush then Physmem.Nvm.flush nvm ~addr ~len:(String.length s)
  in
  store "first" ~flush:true;
  store "second" ~flush:true;
  store "third!" ~flush:false;
  Physmem.Nvm.crash nvm;
  check_string "latest flushed image" "second" (Bytes.to_string (PM.peek mem ~addr ~len:6));
  store "fourth" ~flush:false;
  Physmem.Nvm.crash nvm;
  check_string "image survives a crash" "second" (Bytes.to_string (PM.peek mem ~addr ~len:6))

(* [read_into] and [write_sub] charge exactly what [read] and [write]
   charge for the same range, and touch only their buffer range. *)
let test_sub_ranges_charge_alike () =
  let addr = Frame.to_addr 3 - 100 and s = String.init 300 (fun i -> Char.chr (65 + (i mod 26))) in
  (* Clock and counters after [f] on a fresh machine holding [s] at [addr]. *)
  let charged f =
    let mem = mk_mem () in
    PM.restore_range mem ~addr s;
    f mem;
    (Sim.Clock.now (PM.clock mem), Sim.Stats.to_json (PM.stats mem))
  in
  check_bool "write_sub charges as write" true
    (charged (fun mem -> PM.write mem ~addr (String.sub s 20 200))
    = charged (fun mem -> PM.write_sub mem ~addr s ~pos:20 ~len:200));
  let buf = Bytes.make 260 '.' in
  check_bool "read_into charges as read" true
    (charged (fun mem -> ignore (PM.read mem ~addr ~len:200))
    = charged (fun mem -> PM.read_into mem ~addr ~len:200 buf ~pos:30));
  check_string "read_into fills only its range"
    (String.make 30 '.' ^ String.sub s 0 200 ^ String.make 30 '.')
    (Bytes.to_string buf);
  let mem = mk_mem () in
  PM.write_sub mem ~addr s ~pos:20 ~len:200;
  check_string "write_sub stores its range" (String.sub s 20 200)
    (Bytes.to_string (PM.peek mem ~addr ~len:200));
  check_string "nothing past it" "\000" (Bytes.to_string (PM.peek mem ~addr:(addr + 200) ~len:1));
  Alcotest.check_raises "read_into past the buffer"
    (Invalid_argument "Phys_mem.read_into: buffer range") (fun () ->
      PM.read_into mem ~addr ~len:200 buf ~pos:61);
  Alcotest.check_raises "write_sub past the string"
    (Invalid_argument "Phys_mem.write_sub: buffer range") (fun () ->
      PM.write_sub mem ~addr s ~pos:101 ~len:200)

(* Differential check of [Nvm] against a reference model: the current
   bytes of an NVM window plus each line's last flushed 64-byte image.
   The window straddles a frame boundary; writes straddle lines and
   include zero runs, flushes cover partial ranges, and a small window
   makes the same line flush again and again with new contents. *)

let nvm_lines = 8
let nvm_window = nvm_lines * 64

type nvm_op = N_write of int * string | N_flush of int * int | N_crash

let show_nvm_op = function
  | N_write (o, s) -> Printf.sprintf "write %d %S" o s
  | N_flush (o, n) -> Printf.sprintf "flush %d %d" o n
  | N_crash -> "crash"

let nvm_op_gen =
  let open QCheck2.Gen in
  let off = oneof [ oneofl [ 0; 63; 64; 255; 256; nvm_window - 1 ]; int_bound (nvm_window - 1) ] in
  let run = map2 (fun o n -> (o, min n (nvm_window - o))) off (int_range 1 150) in
  (* All zeros, or letters with every fifth byte zero. *)
  let text =
    map2
      (fun (o, n) k ->
        let c i =
          if k = 0 || (i + k) mod 5 = 0 then '\000' else Char.chr (97 + (((3 * i) + k) mod 26))
        in
        (o, String.init n c))
      run (int_bound 7)
  in
  frequency
    [
      (4, map (fun (o, s) -> N_write (o, s)) text);
      (3, map (fun (o, n) -> N_flush (o, n)) run);
      (1, pure N_crash);
    ]

type nvm_model = { cur : Bytes.t; image : string option array; dirty : bool array }

let lines_of o n f =
  for l = o / 64 to (o + n - 1) / 64 do
    f l
  done

let nvm_apply nvm base m = function
  | N_write (o, s) ->
    Physmem.Nvm.write_persistent nvm ~addr:(base + o) s;
    Bytes.blit_string s 0 m.cur o (String.length s);
    lines_of o (String.length s) (fun l -> m.dirty.(l) <- true)
  | N_flush (o, n) ->
    Physmem.Nvm.flush nvm ~addr:(base + o) ~len:n;
    lines_of o n (fun l ->
        if m.dirty.(l) then begin
          m.image.(l) <- Some (Bytes.sub_string m.cur (l * 64) 64);
          m.dirty.(l) <- false
        end)
  | N_crash ->
    Physmem.Nvm.crash nvm;
    Array.iteri
      (fun l d ->
        if d then
          Bytes.blit_string
            (Option.value m.image.(l) ~default:(String.make 64 '\000'))
            0 m.cur (l * 64) 64;
        m.dirty.(l) <- false)
      m.dirty

let prop_nvm_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"nvm == reference model under generated ops"
       ~print:(fun ops -> String.concat "; " (List.map show_nvm_op ops))
       QCheck2.Gen.(list_size (int_range 1 40) nvm_op_gen)
       (fun ops ->
         let mem = mk_mem ~dram:(Sim.Units.mib 1) ~nvm:(Sim.Units.mib 1) () in
         let nvm = Physmem.Nvm.create mem in
         let base = Frame.to_addr (PM.dram_frames mem + 1) - 256 in
         let m =
           {
             cur = Bytes.make nvm_window '\000';
             image = Array.make nvm_lines None;
             dirty = Array.make nvm_lines false;
           }
         in
         List.for_all
           (fun op ->
             nvm_apply nvm base m op;
             Bytes.equal (PM.peek mem ~addr:base ~len:nvm_window) m.cur
             && Physmem.Nvm.unflushed_lines nvm
                = Array.fold_left (fun n d -> if d then n + 1 else n) 0 m.dirty)
           ops))

(* Cache hierarchy *)

let mk_cached_mem () =
  let mem = mk_mem () in
  let cache =
    Physmem.Cache_hier.create ~clock:(PM.clock mem) ~stats:(PM.stats mem) ()
  in
  PM.attach_cache mem cache;
  (mem, cache)

let test_cache_hit_after_miss () =
  let mem, _ = mk_cached_mem () in
  let clock = PM.clock mem in
  let cold =
    let b = Sim.Clock.now clock in
    PM.touch mem 4096;
    Sim.Clock.elapsed clock ~since:b
  in
  let warm =
    let b = Sim.Clock.now clock in
    PM.touch mem 4096;
    Sim.Clock.elapsed clock ~since:b
  in
  check_bool "cold miss pays memory" true (cold > 80);
  check_int "warm hit is L1 latency" 4 warm;
  check_int "one llc miss" 1 (Sim.Stats.get (PM.stats mem) "llc_miss");
  check_int "one l1 hit" 1 (Sim.Stats.get (PM.stats mem) "l1_hit")

let test_cache_same_line_shares () =
  let mem, _ = mk_cached_mem () in
  PM.touch mem 0;
  (* Byte 63 is in the same 64B line: hits. *)
  PM.touch mem 63;
  check_int "same line hits" 1 (Sim.Stats.get (PM.stats mem) "l1_hit");
  (* Byte 64 is the next line: misses. *)
  PM.touch mem 64;
  check_int "next line misses" 2 (Sim.Stats.get (PM.stats mem) "llc_miss")

let test_cache_capacity_spill_to_l2 () =
  let mem, _ = mk_cached_mem () in
  (* Touch 64 KiB of distinct lines: twice the 32 KiB L1. *)
  let lines = 1024 in
  for i = 0 to lines - 1 do
    PM.touch mem (i * 64)
  done;
  (* Second pass: the early lines fell out of L1 but fit in L2. *)
  Sim.Stats.reset (PM.stats mem);
  for i = 0 to lines - 1 do
    PM.touch mem (i * 64)
  done;
  check_int "no LLC misses on re-scan" 0 (Sim.Stats.get (PM.stats mem) "llc_miss");
  check_bool "some L2 hits" true (Sim.Stats.get (PM.stats mem) "l2_hit" > 0)

let test_cache_dirty_writeback_counted () =
  let clock, stats = mk_env () in
  (* A tiny 1-set cache so evictions are immediate. *)
  let cache =
    Physmem.Cache_hier.create ~clock ~stats
      ~levels:[ { Physmem.Cache_hier.name = "t"; size_bytes = 128; ways = 2; latency = 1 } ]
      ()
  in
  ignore (Physmem.Cache_hier.access cache ~addr:0 ~write:true);
  ignore (Physmem.Cache_hier.access cache ~addr:64 ~write:false);
  check_int "no writeback yet" 0 (Sim.Stats.get stats "cache_writeback");
  (* Third distinct line evicts the dirty LRU line (addr 0). *)
  ignore (Physmem.Cache_hier.access cache ~addr:128 ~write:false);
  check_int "dirty victim written back" 1 (Sim.Stats.get stats "cache_writeback")

let test_cache_flush () =
  let mem, cache = mk_cached_mem () in
  PM.touch mem 0;
  check_bool "resident" true (Physmem.Cache_hier.line_count cache > 0);
  Physmem.Cache_hier.flush cache;
  check_int "empty after flush" 0 (Physmem.Cache_hier.line_count cache);
  Sim.Stats.reset (PM.stats mem);
  PM.touch mem 0;
  check_int "cold again" 1 (Sim.Stats.get (PM.stats mem) "llc_miss")

let test_cache_detach_restores_flat_cost () =
  let mem, _ = mk_cached_mem () in
  PM.touch mem 0;
  PM.detach_cache mem;
  let clock = PM.clock mem in
  let b = Sim.Clock.now clock in
  PM.touch mem 0;
  check_int "flat DRAM latency again" 80 (Sim.Clock.elapsed clock ~since:b)

(* Properties *)

let prop_write_read_roundtrip =
  qtest "bulk write/read round-trips" ~count:100
    QCheck2.Gen.(pair (int_bound 10_000) (string_size ~gen:printable (int_range 1 200)))
    (fun (addr, s) ->
      let mem = mk_mem () in
      PM.write mem ~addr s;
      Bytes.to_string (PM.read mem ~addr ~len:(String.length s)) = s)

let prop_zero_then_read_zero =
  qtest "zero_range clears everything" ~count:50
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 500))
    (fun (addr, len) ->
      let mem = mk_mem () in
      PM.write mem ~addr (String.make len 'z');
      PM.zero_range mem ~addr ~len;
      Bytes.to_string (PM.read mem ~addr ~len) = String.make len '\000')

(* Differential check: generated op sequences on a 16-frame machine
   (8 DRAM + 8 NVM) against a flat [Bytes] reference. Addresses cluster
   on a few lines at the frame edges, so single-byte writes land in
   line buffers and later writes to other lines of the same frame
   promote them to pages. *)

let diff_frames = 16
let diff_space = diff_frames * Sim.Units.page_size

type op =
  | Write_byte of int * char
  | Write of int * string
  | Restore of int * string
  | Zero_range of int * int
  | Discard_range of int * int
  | Zero_frame of int
  | Discard_frame of int
  | Crash

let show_op = function
  | Write_byte (a, c) -> Printf.sprintf "write_byte %d %C" a c
  | Write (a, s) -> Printf.sprintf "write %d (%d bytes)" a (String.length s)
  | Restore (a, s) -> Printf.sprintf "restore %d (%d bytes)" a (String.length s)
  | Zero_range (a, n) -> Printf.sprintf "zero_range %d %d" a n
  | Discard_range (a, n) -> Printf.sprintf "discard_range %d %d" a n
  | Zero_frame f -> Printf.sprintf "zero_frame %d" f
  | Discard_frame f -> Printf.sprintf "discard_frame %d" f
  | Crash -> "crash"

let op_gen =
  let open QCheck2.Gen in
  let addr =
    map3
      (fun pfn line off -> (pfn * Sim.Units.page_size) + (line * 64) + off)
      (int_bound (diff_frames - 1))
      (oneof [ oneofl [ 0; 1; 62; 63 ]; int_bound 63 ])
      (oneof [ oneofl [ 0; 63 ]; int_bound 63 ])
  in
  let byte = frequency [ (1, pure '\000'); (3, char_range 'a' 'z') ] in
  let len = frequency [ (4, int_range 1 130); (1, int_range 1 (Sim.Units.page_size + 200)) ] in
  let run = map (fun (a, n) -> (a, min n (diff_space - a))) (pair addr len) in
  (* Mixed bytes (about one in four zero), all zeros, or one nonzero
     byte then zeros. *)
  let text =
    map2
      (fun (a, n) k ->
        let c i =
          match k with
          | 0 -> '\000'
          | 1 -> if i = 0 then 'q' else '\000'
          | _ -> if ((i * 7) + k) mod 4 = 0 then '\000' else Char.chr (97 + ((i + k) mod 26))
        in
        (a, String.init n c))
      run (int_bound 5)
  in
  frequency
    [
      (6, map2 (fun a c -> Write_byte (a, c)) addr byte);
      (3, map (fun (a, s) -> Write (a, s)) text);
      (2, map (fun (a, s) -> Restore (a, s)) text);
      (2, map (fun (a, n) -> Zero_range (a, n)) run);
      (2, map (fun (a, n) -> Discard_range (a, n)) run);
      (1, map (fun f -> Zero_frame f) (int_bound (diff_frames - 1)));
      (1, map (fun f -> Discard_frame f) (int_bound (diff_frames - 1)));
      (1, pure Crash);
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 1 40) op_gen)

let apply mem ref_ op =
  let page = Sim.Units.page_size in
  match op with
  | Write_byte (a, c) ->
    PM.write_byte mem a c;
    Bytes.set ref_ a c
  | Write (a, s) ->
    PM.write mem ~addr:a s;
    Bytes.blit_string s 0 ref_ a (String.length s)
  | Restore (a, s) ->
    PM.restore_range mem ~addr:a s;
    Bytes.blit_string s 0 ref_ a (String.length s)
  | Zero_range (a, n) ->
    PM.zero_range mem ~addr:a ~len:n;
    Bytes.fill ref_ a n '\000'
  | Discard_range (a, n) ->
    PM.discard_range mem ~addr:a ~len:n;
    Bytes.fill ref_ a n '\000'
  | Zero_frame f ->
    PM.zero_frame mem f;
    Bytes.fill ref_ (f * page) page '\000'
  | Discard_frame f ->
    PM.discard_frame mem f;
    Bytes.fill ref_ (f * page) page '\000'
  | Crash ->
    PM.crash mem;
    Bytes.fill ref_ 0 (PM.dram_frames mem * page) '\000'

(* Nonzero bytes of frame [f] in the reference. *)
let frame_nonzero ref_ f =
  let n = ref 0 in
  for a = f * Sim.Units.page_size to ((f + 1) * Sim.Units.page_size) - 1 do
    if Bytes.unsafe_get ref_ a <> '\000' then incr n
  done;
  !n

let agrees mem ref_ =
  let nonzero = Array.init diff_frames (frame_nonzero ref_) in
  Bytes.equal (PM.peek mem ~addr:0 ~len:diff_space) ref_
  && PM.resident_bytes mem = Array.fold_left ( + ) 0 nonzero
  && Array.for_all Fun.id (Array.mapi (fun f n -> PM.frame_is_zero mem f = (n = 0)) nonzero)

let mk_diff_mem () =
  let half = diff_space / 2 in
  mk_mem ~dram:half ~nvm:half ()

let prop_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"phys_mem == flat bytes under generated ops"
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ops_gen
       (fun ops ->
         let mem = mk_diff_mem () and ref_ = Bytes.make diff_space '\000' in
         List.for_all
           (fun op ->
             apply mem ref_ op;
             agrees mem ref_)
           ops))

(* A frame's buffer shape as the Phys_mem header describes it, replayed
   on the reference: no buffer, one line at a frame offset, or a page. *)
type shape = Absent | Line of int | Page

(* Count the line->page promotions a sequence causes: a frame-sized piece
   of a write that carries a nonzero byte and does not fit in the frame's
   one-line buffer. *)
let promotions ops =
  let page = Sim.Units.page_size in
  let ref_ = Bytes.make diff_space '\000' and shape = Array.make diff_frames Absent in
  let mem = mk_diff_mem () in
  let count = ref 0 in
  let cover a n =
    let in_line l = a >= l && a + n <= l + 64 in
    let f = a / page in
    match shape.(f) with
    | Absent -> shape.(f) <- (if in_line (a / 64 * 64) then Line (a / 64 * 64) else Page)
    | Line l when not (in_line l) ->
      incr count;
      shape.(f) <- Page
    | Line _ | Page -> ()
  in
  let rec store a s =
    let n = min (String.length s) (page - (a mod page)) in
    if n > 0 then begin
      if String.exists (( <> ) '\000') (String.sub s 0 n) then cover a n;
      store (a + n) (String.sub s n (String.length s - n))
    end
  in
  List.iter
    (fun op ->
      (match op with
      | Write_byte (a, c) -> store a (String.make 1 c)
      | Write (a, s) | Restore (a, s) -> store a s
      | _ -> ());
      apply mem ref_ op;
      for f = 0 to diff_frames - 1 do
        if frame_nonzero ref_ f = 0 then shape.(f) <- Absent
      done)
    ops;
  !count

let test_generator_promotes () =
  let rand = Random.State.make [| 2017 |] in
  let seqs = QCheck2.Gen.generate ~rand ~n:100 ops_gen in
  let total = List.fold_left (fun n ops -> n + promotions ops) 0 seqs in
  check_bool "generated sequences promote line buffers to pages" true (total > 0)

let suite =
  [
    Alcotest.test_case "frame: address arithmetic" `Quick test_frame_arith;
    Alcotest.test_case "phys_mem: create validation" `Quick test_create_validation;
    Alcotest.test_case "phys_mem: regions" `Quick test_regions;
    Alcotest.test_case "phys_mem: byte read/write" `Quick test_read_write_bytes;
    Alcotest.test_case "phys_mem: bulk read/write" `Quick test_bulk_read_write;
    Alcotest.test_case "phys_mem: access costs by region" `Quick test_access_charges;
    Alcotest.test_case "phys_mem: bulk streaming charge" `Quick test_bulk_charges_per_line;
    Alcotest.test_case "phys_mem: zero_frame" `Quick test_zero_frame;
    Alcotest.test_case "phys_mem: out of range" `Quick test_out_of_range;
    Alcotest.test_case "phys_mem: crash semantics" `Quick test_crash_drops_dram_keeps_nvm;
    Alcotest.test_case "phys_mem: discard is free" `Quick test_discard_no_cost;
    Alcotest.test_case "phys_mem: one-byte frames stay small" `Quick test_one_byte_frames_stay_small;
    Alcotest.test_case "zero_engine: background pool" `Quick test_zero_engine_pool;
    Alcotest.test_case "zero_engine: budget respected" `Quick test_zero_engine_budget;
    Alcotest.test_case "zero_engine: bulk erase is O(1)" `Quick test_bulk_erase_constant_cost;
    Alcotest.test_case "nvm: flush+fence durability" `Quick test_nvm_flush_fence;
    Alcotest.test_case "nvm: torn unflushed write" `Quick test_nvm_torn_write;
    Alcotest.test_case "nvm: re-flush keeps the latest image" `Quick test_nvm_reflush_latest_image;
    Alcotest.test_case "phys_mem: sub-range read/write charge alike" `Quick
      test_sub_ranges_charge_alike;
    prop_nvm_differential;
    Alcotest.test_case "cache: miss then hit" `Quick test_cache_hit_after_miss;
    Alcotest.test_case "cache: line granularity" `Quick test_cache_same_line_shares;
    Alcotest.test_case "cache: L1 spill caught by L2" `Quick test_cache_capacity_spill_to_l2;
    Alcotest.test_case "cache: dirty write-back counted" `Quick test_cache_dirty_writeback_counted;
    Alcotest.test_case "cache: flush" `Quick test_cache_flush;
    Alcotest.test_case "cache: detach restores flat cost" `Quick test_cache_detach_restores_flat_cost;
    prop_write_read_roundtrip;
    prop_zero_then_read_zero;
    prop_differential;
    Alcotest.test_case "phys_mem: generator reaches promotion" `Quick test_generator_promotes;
    prop_zero_engine_vs_queues;
  ]
