let marker = '\xC3'
let header_bytes = 12
let blank_header = String.make header_bytes '\000'
let marker_record = String.make 1 marker

type t = {
  nvm : Physmem.Nvm.t;
  base : int;
  capacity : int;
  mutable cursor : int; (* offset of the next record *)
  mutable records : string list; (* newest first *)
  mutable last_recovery : recovery_detail option;
  mutable scratch : Bytes.t; (* header + payload of the record being appended *)
}

and trunc =
  | Bad_header
  | Bad_marker
  | Bad_checksum

and recovery_detail = {
  valid_records : int;
  scanned_bytes : int;
  truncated : trunc option;
}

(* Adler-ish rolling checksum of [s]'s bytes [[pos, pos + len)], 32 bits,
   never zero (zero means "blank"). *)
let checksum_sub s pos len =
  let a = ref 1 and b = ref 0 in
  for i = pos to pos + len - 1 do
    a := (!a + Char.code s.[i]) mod 65521;
    b := (!b + !a) mod 65521
  done;
  let v = (!b lsl 16) lor !a in
  if v = 0 then 1 else v

let checksum s = checksum_sub s 0 (String.length s)

let record_span payload_len = header_bytes + payload_len + 1

let make ~nvm ~base ~capacity =
  { nvm; base; capacity; cursor = 0; records = []; last_recovery = None; scratch = Bytes.empty }

let create ~nvm ~base ~capacity =
  let mem = Physmem.Nvm.mem nvm in
  if Physmem.Phys_mem.region_of_frame mem (Physmem.Frame.of_addr base) <> Physmem.Phys_mem.Nvm
  then invalid_arg "Wal.create: base not in the NVM region";
  if capacity < record_span 1 then invalid_arg "Wal.create: capacity too small";
  make ~nvm ~base ~capacity

(* [t.scratch] filled with the record's header and payload: length,
   payload checksum, then a CRC over those 8 bytes. A torn or
   bit-flipped header fails its own CRC instead of being trusted as a
   length field pointing into garbage. *)
let frame t payload =
  let len = String.length payload in
  let n = header_bytes + len in
  if Bytes.length t.scratch < n then t.scratch <- Bytes.create (max n (2 * Bytes.length t.scratch));
  let b = t.scratch in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Int32.of_int (checksum payload));
  Bytes.set_int32_le b 8 (Int32.of_int (checksum_sub (Bytes.unsafe_to_string b) 0 8));
  Bytes.blit_string payload 0 b header_bytes len

type error = Wal_full

let append ?(durable = true) t payload =
  if payload = "" then invalid_arg "Wal.append: empty record";
  let span = record_span (String.length payload) in
  if t.cursor + span > t.capacity then Error Wal_full
  else begin
    let addr = t.base + t.cursor in
    (* 1. Header + payload — plus a blank header right after the record,
       durable BEFORE the commit marker. A reset only blanks the log's
       head, so stale records from before it survive further out; without
       the blank, a recovery scan that happens to land on one of their
       boundaries would replay pre-reset transactions as if they were
       the newest. With it, any scan that accepts this record stops. *)
    frame t payload;
    Physmem.Nvm.write_persistent_sub t.nvm ~addr (Bytes.unsafe_to_string t.scratch) ~pos:0
      ~len:(header_bytes + String.length payload);
    let blank_tail = t.cursor + span + header_bytes <= t.capacity in
    if blank_tail then Physmem.Nvm.write_persistent t.nvm ~addr:(addr + span) blank_header;
    if durable then begin
      let full_len = header_bytes + String.length payload in
      (* Injected buggy flush loop: only the first half of the record's
         bytes are flushed before the fence; a crash tears the rest. *)
      let flush_len =
        if
          Sim.Fault_inject.fires
            (Sim.Trace.faults (Physmem.Phys_mem.trace (Physmem.Nvm.mem t.nvm)))
            ~site:Sim.Fault_inject.site_wal_partial_flush
        then full_len / 2
        else full_len
      in
      if blank_tail then Physmem.Nvm.flush t.nvm ~addr:(addr + span) ~len:header_bytes;
      Physmem.Nvm.flush t.nvm ~addr ~len:flush_len;
      Physmem.Nvm.fence t.nvm
    end;
    (* 2. Commit marker, strictly after the payload is durable. *)
    let marker_addr = addr + header_bytes + String.length payload in
    Physmem.Nvm.write_persistent t.nvm ~addr:marker_addr marker_record;
    if durable then begin
      Physmem.Nvm.flush t.nvm ~addr:marker_addr ~len:1;
      Physmem.Nvm.fence t.nvm
    end;
    t.cursor <- t.cursor + span;
    t.records <- payload :: t.records;
    Ok ()
  end

let append_exn ?durable t payload =
  match append ?durable t payload with
  | Ok () -> ()
  | Error Wal_full -> Sim.Errno.fail Sim.Errno.ENOSPC "Wal.append"

let entries t = List.rev t.records
let entry_count t = List.length t.records
let used_bytes t = t.cursor
let capacity t = t.capacity
let recovery_detail t = t.last_recovery

let recover_gen ~read ~nvm ~base ~capacity =
  let mem = Physmem.Nvm.mem nvm in
  let read ~addr ~len = Bytes.to_string (read mem ~addr ~len) in
  let read_le32 addr = Int32.to_int (Bytes.get_int32_le (Bytes.of_string (read ~addr ~len:4)) 0) land 0xFFFFFFFF in
  let t = make ~nvm ~base ~capacity in
  let stop = ref None in
  let rec scan off =
    if off + header_bytes + 1 > capacity then ()
    else begin
      let hdr = read ~addr:(base + off) ~len:header_bytes in
      if hdr = blank_header then ()
        (* blank header: clean end of log *)
      else begin
        let len = read_le32 (base + off) in
        let cksum = read_le32 (base + off + 4) in
        let hcrc = read_le32 (base + off + 8) in
        if
          hcrc <> checksum_sub hdr 0 8
          || len <= 0 || cksum = 0
          || off + record_span len > capacity
        then stop := Some Bad_header
        else begin
          let payload = read ~addr:(base + off + header_bytes) ~len in
          let mark = (read ~addr:(base + off + header_bytes + len) ~len:1).[0] in
          if mark <> marker then stop := Some Bad_marker
          else if checksum payload <> cksum then stop := Some Bad_checksum
          else begin
            t.records <- payload :: t.records;
            t.cursor <- off + record_span len;
            scan (off + record_span len)
          end
        end
      end
    end
  in
  scan 0;
  t.last_recovery <-
    Some { valid_records = List.length t.records; scanned_bytes = t.cursor; truncated = !stop };
  t

let recover ~nvm ~base ~capacity = recover_gen ~read:Physmem.Phys_mem.read ~nvm ~base ~capacity

let recover_host ~nvm ~base ~capacity =
  recover_gen ~read:Physmem.Phys_mem.peek ~nvm ~base ~capacity

let reset t =
  (* Zero the first header durably: recovery then sees an empty log. *)
  Physmem.Nvm.write_persistent t.nvm ~addr:t.base blank_header;
  Physmem.Nvm.flush t.nvm ~addr:t.base ~len:header_bytes;
  Physmem.Nvm.fence t.nvm;
  t.cursor <- 0;
  t.records <- [];
  t.last_recovery <- None
