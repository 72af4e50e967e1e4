let fence_cycles = 100

type t = {
  mem : Phys_mem.t;
  unflushed : (int, unit) Hashtbl.t;
  (* Last flushed 64-byte image of every line ever flushed: what the
     media holds. Unflushed stores live only in the (volatile) cache
     hierarchy, so a crash reverts their lines to this image. A line's
     buffer is created at its first flush and refilled in place after. *)
  durable : (int, Bytes.t) Hashtbl.t;
}

let create mem = { mem; unflushed = Hashtbl.create 64; durable = Hashtbl.create 64 }

let line_of addr = addr / 64

let write_persistent_sub t ~addr s ~pos ~len =
  Phys_mem.write_sub t.mem ~addr s ~pos ~len;
  if len > 0 then
    for line = line_of addr to line_of (addr + len - 1) do
      Hashtbl.replace t.unflushed line ()
    done

let write_persistent t ~addr s = write_persistent_sub t ~addr s ~pos:0 ~len:(String.length s)

let snapshot_line t line =
  let addr = line * 64 in
  if Phys_mem.valid_frame t.mem (Frame.of_addr addr) then
    match Hashtbl.find t.durable line with
    | image -> Phys_mem.read_into t.mem ~addr ~len:64 image ~pos:0
    | exception Not_found -> Hashtbl.add t.durable line (Phys_mem.read t.mem ~addr ~len:64)

let faults t = Sim.Trace.faults (Phys_mem.trace t.mem)

(* An injected media fault: flip one bit of the just-snapshotted durable
   line image, on the media and in the snapshot, so the corruption both
   is live immediately and survives a crash. *)
let corrupt_line t plane line =
  match Hashtbl.find_opt t.durable line with
  | None -> ()
  | Some image ->
    let i = Sim.Fault_inject.rand_int plane (Bytes.length image) in
    let bit = Sim.Fault_inject.rand_int plane 8 in
    Bytes.set image i (Char.chr (Char.code (Bytes.get image i) lxor (1 lsl bit)));
    Phys_mem.restore_range t.mem ~addr:(line * 64) (Bytes.unsafe_to_string image)

let flush t ~addr ~len =
  if len > 0 then begin
    let plane = faults t in
    let first = line_of addr and last = line_of (addr + len - 1) in
    (* Torn line: the first dirty line of this flush silently stays in the
       cache hierarchy — a later crash reverts it. *)
    let first =
      if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_nvm_torn_line then first + 1
      else first
    in
    let model = Sim.Clock.model (Phys_mem.clock t.mem) in
    for line = first to last do
      if Hashtbl.mem t.unflushed line then begin
        Hashtbl.remove t.unflushed line;
        snapshot_line t line;
        if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_nvm_bit_flip then
          corrupt_line t plane line;
        Sim.Clock.charge (Phys_mem.clock t.mem) model.Sim.Cost_model.mem_ref_nvm_write;
        Sim.Stats.incr (Phys_mem.stats t.mem) "clwb"
      end
    done;
    (* One durable-step boundary per clwb batch: power can fail here. *)
    if Sim.Fault_inject.fires plane ~site:Sim.Fault_inject.site_durable_step then
      raise (Sim.Fault_inject.Injected_crash "clwb")
  end

let fence t =
  Sim.Clock.charge (Phys_mem.clock t.mem) fence_cycles;
  Sim.Stats.incr (Phys_mem.stats t.mem) "sfence";
  if Sim.Fault_inject.fires (faults t) ~site:Sim.Fault_inject.site_durable_step then
    raise (Sim.Fault_inject.Injected_crash "sfence")

let unflushed_lines t = Hashtbl.length t.unflushed

let crash t =
  (* Unflushed NVM lines were still in the volatile cache hierarchy:
     the media reverts to the last flushed image (zeros if never
     flushed). *)
  Hashtbl.iter
    (fun line () ->
      let addr = line * 64 in
      if Phys_mem.valid_frame t.mem (Frame.of_addr addr) then begin
        Phys_mem.discard_range t.mem ~addr ~len:64;
        match Hashtbl.find_opt t.durable line with
        | Some image -> Phys_mem.restore_range t.mem ~addr (Bytes.unsafe_to_string image)
        | None -> ()
      end)
    t.unflushed;
  Hashtbl.reset t.unflushed;
  Phys_mem.crash t.mem

let mem t = t.mem
