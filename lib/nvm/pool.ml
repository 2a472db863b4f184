let line_size = 64

(* Both byte images are page tables: arrays of fixed-size pages.  An
   absent page is [zero_page], shared by every pool and never written,
   so it reads as zeros.  A cache page is materialised by the first
   store into it, a media page by the first line persisted into it.
   Host memory therefore follows the bytes a run touches, not the
   reserved capacity. *)
let page_bits = 12

let page_size = 1 lsl page_bits

let page_mask = page_size - 1

let lines_per_page = page_size / line_size

let dirty_bytes_per_page = lines_per_page / 8

let zero_page = Bytes.make page_size '\000'

type t = {
  id : int;
  index : int; (* machine-local: names the pool's lines in the cost model *)
  name : string;
  machine : Machine.t;
  dev : Device.t;
  numa : int;
  volatile : bool;
  cache : Bytes.t array;
  media : Bytes.t array; (* empty for volatile pools *)
  dirty : Bytes.t; (* bitset, one bit per 64B line (8 bytes per page) *)
  staged_by : (int, int) Hashtbl.t;
      (* line -> thread that staged it with no store since and whose
         fence has not applied it yet; that pending fence will persist
         the current content, so the thread's own re-flushes of the
         line can be elided (FliT).  In-flight lines only: a store, a
         crash or the applying fence drops the entry. *)
  capacity : int;
}

let round_up x align = (x + align - 1) / align * align

(* The page of [img] holding [off], materialised for a store. *)
let page_w img off =
  let i = off lsr page_bits in
  let pg = img.(i) in
  if pg != zero_page then pg
  else begin
    let pg = Bytes.make page_size '\000' in
    img.(i) <- pg;
    pg
  end

let resident_pages img =
  Array.fold_left (fun n pg -> if pg != zero_page then n + 1 else n) 0 img

(* [n]-byte little-endian access that may straddle a page boundary. *)
let rec get_le img off n =
  if n = 0 then 0
  else
    Bytes.get_uint8 img.(off lsr page_bits) (off land page_mask)
    lor (get_le img (off + 1) (n - 1) lsl 8)

let rec set_le img off n v =
  if n > 0 then begin
    Bytes.set_uint8 (page_w img off) (off land page_mask) (v land 0xFF);
    set_le img (off + 1) (n - 1) (v lsr 8)
  end

(* Page-by-page copies; the first step covers a same-page range whole. *)
let rec blit_out img off buf pos len =
  if len > 0 then begin
    let o = off land page_mask in
    let n = min len (page_size - o) in
    Bytes.blit img.(off lsr page_bits) o buf pos n;
    blit_out img (off + n) buf (pos + n) (len - n)
  end

let rec blit_in s pos img off len =
  if len > 0 then begin
    let o = off land page_mask in
    let n = min len (page_size - o) in
    Bytes.blit_string s pos (page_w img off) o n;
    blit_in s (pos + n) img (off + n) (len - n)
  end

(* Absent pages are already zero: nothing to materialise. *)
let rec zero_range img off len =
  if len > 0 then begin
    let o = off land page_mask in
    let n = min len (page_size - o) in
    let pg = img.(off lsr page_bits) in
    if pg != zero_page then Bytes.fill pg o n '\000';
    zero_range img (off + n) (len - n)
  end

let rec compare_in_page pg base len s slen i =
  if i >= len || i >= slen then compare len slen
  else
    let c = Char.compare (Bytes.unsafe_get pg (base + i)) (String.unsafe_get s i) in
    if c <> 0 then c else compare_in_page pg base len s slen (i + 1)

let rec compare_paged img off len s slen i =
  if i >= len || i >= slen then compare len slen
  else
    let p = off + i in
    let c =
      Char.compare
        (Bytes.unsafe_get img.(p lsr page_bits) (p land page_mask))
        (String.unsafe_get s i)
    in
    if c <> 0 then c else compare_paged img off len s slen (i + 1)

let rec words_equal a b pos len =
  len <= 0
  || (Bytes.get_int64_ne a pos : int64) = Bytes.get_int64_ne b pos
     && words_equal a b (pos + 8) (len - 8)

let is_zero b pos len =
  let rec go i = i >= len || (Bytes.unsafe_get b (pos + i) = '\000' && go (i + 1)) in
  go 0

(* Byte offset of [line] within its page. *)
let line_pos line = (line * line_size) land page_mask

(* Copy one 64B line from [src] at [src_pos] into the media image. *)
let persist_line t src src_pos line =
  Bytes.blit src src_pos (page_w t.media (line * line_size)) (line_pos line) line_size

let line_page img line = img.((line * line_size) lsr page_bits)

let line_string img line = Bytes.sub_string (line_page img line) (line_pos line) line_size

let line_dirty t line =
  Bytes.get_uint8 t.dirty (line lsr 3) land (1 lsl (line land 7)) <> 0

let create machine ?(volatile = false) ~name ~numa ~capacity () =
  let capacity = round_up (max capacity 256) 256 in
  let pages = (capacity + page_size - 1) / page_size in
  let id, index = Machine.fresh_pool_id machine in
  let pool =
    {
      id;
      index;
      name;
      machine;
      dev = Machine.device machine numa;
      numa;
      volatile;
      cache = Array.make pages zero_page;
      media = (if volatile then [||] else Array.make pages zero_page);
      dirty = Bytes.make (pages * dirty_bytes_per_page) '\000';
      staged_by = Hashtbl.create 64;
      capacity;
    }
  in
  let reset_line_state () =
    Hashtbl.reset pool.staged_by;
    Bytes.fill pool.dirty 0 (Bytes.length pool.dirty) '\000'
  in
  Machine.register_pool_view machine
    {
      Machine.pv_id = pool.id;
      pv_name = name;
      pv_capacity = capacity;
      pv_volatile = volatile;
      pv_media =
        (fun () ->
          if volatile then Bytes.empty
          else begin
            let img = Bytes.make capacity '\000' in
            blit_out pool.media 0 img 0 capacity;
            img
          end);
      pv_restore =
        (fun img ->
          if volatile then Array.fill pool.cache 0 pages zero_page
          else begin
            if Bytes.length img <> capacity then
              invalid_arg
                (Printf.sprintf "Pool %s: restore image %d bytes, capacity %d"
                   name (Bytes.length img) capacity);
            for i = 0 to pages - 1 do
              let pos = i lsl page_bits in
              let n = min page_size (capacity - pos) in
              if is_zero img pos n then begin
                pool.media.(i) <- zero_page;
                pool.cache.(i) <- zero_page
              end
              else begin
                let pg = Bytes.make page_size '\000' in
                Bytes.blit img pos pg 0 n;
                pool.media.(i) <- pg;
                pool.cache.(i) <- Bytes.copy pg
              end
            done
          end;
          reset_line_state ());
    };
  let on_crash mode =
    if volatile then Array.fill pool.cache 0 pages zero_page
    else begin
      (match mode with
      | Machine.Strict -> ()
      | Machine.Flaky (p, rng) ->
          (* Un-fenced dirty lines may have been evicted to the media
             by the cache at any point: persist each with prob. p.
             Only pages holding a dirty line are visited, in line
             order, so the draws match a line-by-line scan. *)
          for i = 0 to pages - 1 do
            if Bytes.get_int64_ne pool.dirty (i * dirty_bytes_per_page) <> 0L then
              for line = i * lines_per_page to ((i + 1) * lines_per_page) - 1 do
                if line_dirty pool line && Des.Rng.float rng < p then
                  persist_line pool pool.cache.(i) (line_pos line) line
              done
          done);
      (* cache := media, in place: reuse resident cache pages, copy
         pages resident in media alone, drop the rest *)
      for i = 0 to pages - 1 do
        let m = pool.media.(i) and c = pool.cache.(i) in
        if m == zero_page then pool.cache.(i) <- zero_page
        else if c == zero_page then pool.cache.(i) <- Bytes.copy m
        else Bytes.blit m 0 c 0 page_size
      done
    end;
    reset_line_state ()
  in
  Machine.on_crash machine on_crash;
  pool

let id t = t.id

let name t = t.name

let numa t = t.numa

let capacity t = t.capacity

let machine t = t.machine

(* Machine-wide line / XPLine ids: the pool's machine-local index in
   the high bits keeps pools disjoint while keeping in-pool adjacency
   (for the prefetcher).  The global [id] would make the simulated
   cache depend on the pools earlier machines created. *)
let gline t off = (t.index lsl 40) lor (off lsr 6)

let mark_dirty t off =
  let line = off lsr 6 in
  let idx = line lsr 3 in
  let bit = 1 lsl (line land 7) in
  let byte = Bytes.get_uint8 t.dirty idx in
  if byte land bit = 0 then Bytes.set_uint8 t.dirty idx (byte lor bit)

let clear_dirty t line =
  let idx = line lsr 3 in
  let bit = 1 lsl (line land 7) in
  let byte = Bytes.get_uint8 t.dirty idx in
  if byte land bit <> 0 then Bytes.set_uint8 t.dirty idx (byte land lnot bit)

(* Charge the cost of touching the line containing [off].  Writes take
   the same miss path as reads (read-for-ownership). *)
let touch_line t off =
  let profile = Machine.profile t.machine in
  let g = gline t off in
  if Machine.cache_access t.machine g then
    Des.Sched.charge profile.Config.cache_hit_cost
  else if t.volatile then Des.Sched.charge profile.Config.dram_latency
  else if Des.Sched.running () then begin
    let start = Machine.now t.machine in
    let completion =
      Device.read t.dev ~now:start ~xpline:(g lsr 2)
        ~from_numa:(Des.Sched.current_numa ())
    in
    Des.Sched.delay (completion -. start)
  end
  else
    ignore (Device.read t.dev ~now:0.0 ~xpline:(g lsr 2) ~from_numa:t.numa)

(* Logical (program-requested) byte accounting feeds the FH1/FH2
   amplification rates: media traffic over logical traffic.  Volatile
   pools are excluded — amplification is an NVM phenomenon. *)
let touch_range_k t off len ~write =
  if not (off >= 0 && len >= 0 && off + len <= t.capacity) then
    invalid_arg
      (Printf.sprintf "Pool %s: access [%d, %d) outside capacity %d" t.name off
         (off + len) t.capacity);
  if (not t.volatile) && len > 0 then begin
    let s = Machine.stats t.machine in
    if write then s.Stats.logical_write_bytes <- s.Stats.logical_write_bytes + len
    else s.Stats.logical_read_bytes <- s.Stats.logical_read_bytes + len
  end;
  (* [len > 0]: an empty range touches no line (at offset 0 the upper
     bound would wrap to a huge line number) *)
  if len > 0 then
    for line = off lsr 6 to (off + len - 1) lsr 6 do
      touch_line t (line lsl 6)
    done

let touch_range t off len = touch_range_k t off len ~write:false

let touch_range_write t off len =
  touch_range_k t off len ~write:true;
  if len > 0 then
    for line = off lsr 6 to (off + len - 1) lsr 6 do
      mark_dirty t (line lsl 6);
      (* A (possible) store invalidates the staged-snapshot elision. *)
      if Hashtbl.length t.staged_by > 0 then Hashtbl.remove t.staged_by line
    done

(* Report a store to every line under [off, off+len) to the machine's
   persist-event listeners.  A line's content is copied only if a
   listener forces it. *)
let record_store t off len =
  if Machine.listening t.machine && (not t.volatile) && len > 0 then begin
    let tid = Des.Sched.current_id () in
    for line = off lsr 6 to (off + len - 1) lsr 6 do
      Machine.emit t.machine
        (Machine.Store { tid; pool = t.id; line; data = lazy (line_string t.cache line) })
    done
  end

let read_u8 t off =
  touch_range t off 1;
  Bytes.get_uint8 t.cache.(off lsr page_bits) (off land page_mask)

let write_u8 t off v =
  touch_range_write t off 1;
  Bytes.set_uint8 (page_w t.cache off) (off land page_mask) v;
  record_store t off 1

let read_u16 t off =
  touch_range t off 2;
  let o = off land page_mask in
  if o <= page_size - 2 then Bytes.get_uint16_le t.cache.(off lsr page_bits) o
  else get_le t.cache off 2

let write_u16 t off v =
  touch_range_write t off 2;
  let o = off land page_mask in
  if o <= page_size - 2 then Bytes.set_uint16_le (page_w t.cache off) o v
  else set_le t.cache off 2 v;
  record_store t off 2

let read_u32 t off =
  touch_range t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then
    Int32.to_int (Bytes.get_int32_le t.cache.(off lsr page_bits) o) land 0xFFFFFFFF
  else get_le t.cache off 4

let write_u32 t off v =
  touch_range_write t off 4;
  let o = off land page_mask in
  if o <= page_size - 4 then Bytes.set_int32_le (page_w t.cache off) o (Int32.of_int v)
  else set_le t.cache off 4 v;
  record_store t off 4

(* 8-byte accesses are aligned, so never straddle a page. *)
let read_int64 t off =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B read at %d" t.name off);
  touch_range t off 8;
  Bytes.get_int64_le t.cache.(off lsr page_bits) (off land page_mask)

let write_int64 t off v =
  if off land 7 <> 0 then
    invalid_arg (Printf.sprintf "Pool %s: unaligned 8B write at %d" t.name off);
  touch_range_write t off 8;
  Bytes.set_int64_le (page_w t.cache off) (off land page_mask) v;
  record_store t off 8

let read_int t off = Int64.to_int (read_int64 t off)

let write_int t off v = write_int64 t off (Int64.of_int v)

let read_string t off len =
  touch_range t off len;
  let o = off land page_mask in
  (* [len > 0]: an empty read may sit at [capacity], past the last page *)
  if len > 0 && o + len <= page_size then Bytes.sub_string t.cache.(off lsr page_bits) o len
  else begin
    let buf = Bytes.create len in
    blit_out t.cache off buf 0 len;
    Bytes.unsafe_to_string buf
  end

let write_string t off s =
  let len = String.length s in
  if len > 0 then begin
    touch_range_write t off len;
    blit_in s 0 t.cache off len;
    record_store t off len
  end

let blit_to_bytes t off buf pos len =
  touch_range t off len;
  blit_out t.cache off buf pos len

let fill_zero t off len =
  if len > 0 then begin
    touch_range_write t off len;
    zero_range t.cache off len;
    record_store t off len
  end

let compare_string t off len s =
  touch_range t off len;
  let o = off land page_mask in
  if len > 0 && o + len <= page_size then
    compare_in_page t.cache.(off lsr page_bits) o len s (String.length s) 0
  else compare_paged t.cache off len s (String.length s) 0

(* A line never straddles a page; two absent pages are equal. *)
let lines_equal t line =
  let c = line_page t.cache line and m = line_page t.media line in
  c == m || words_equal c m (line_pos line) line_size

(* eADR: the store itself is durable; the dirty line drains to the
   media in the background, consuming write bandwidth but never
   blocking the program. *)
let eadr_drain t off =
  let g = gline t off in
  if Des.Sched.running () then begin
    let start = Machine.now t.machine in
    ignore
      (Device.write t.dev ~now:start ~xpline:(g lsr 2) ~bytes:64
         ~from_numa:(Des.Sched.current_numa ()))
  end
  else ignore (Device.write t.dev ~now:0.0 ~xpline:(g lsr 2) ~bytes:64 ~from_numa:t.numa);
  let line = off lsr 6 in
  persist_line t (line_page t.cache line) (line_pos line) line;
  clear_dirty t line;
  if Machine.listening t.machine then
    Machine.emit t.machine (Machine.Drain { pool = t.id; line; data = line_string t.media line })

(* Report an effective clwb to the listeners, with the snapshot it
   staged (none when elided, or on eADR). *)
let record_clwb t line snapshot =
  if Machine.listening t.machine then
    Machine.emit t.machine
      (Machine.Clwb
         {
           tid = Des.Sched.current_id ();
           pool = t.id;
           line;
           staged = Option.map Bytes.to_string snapshot;
         })

(* FliT-style flush tracking: a clwb is redundant when the line is
   already clean on media (cache == media), or when the calling thread
   itself staged the line and has not stored to it since (its pending
   fence persists exactly the current content).  A line staged by a
   {e different} thread is not redundant: that thread's fence may
   never come.  Redundant clwbs are always counted in
   [Stats.flushes_elided]; whether they are actually {e elided} —
   skipping staging, write-queue occupancy and the media write, which
   perturbs fence batching and hence the whole simulated schedule — is
   the machine's [flush_elision] switch (off by default, keeping the
   schedule bit-identical to a tracking-free build).  Elided clwbs
   still satisfy the persistence obligation, so they are reported to
   the listeners (with no snapshot); faulted (dropped) clwbs are not —
   they model a missing call.  The fault counter ticks only for
   executed clwbs so mutation indices keep targeting real flushes. *)
let clwb t off =
  if (Machine.profile t.machine).Config.eadr then begin
    if not t.volatile then begin
      let line = off lsr 6 in
      let redundant = lines_equal t line in
      if redundant then begin
        let stats = Machine.stats t.machine in
        stats.Stats.flushes_elided <- stats.Stats.flushes_elided + 1
      end;
      if redundant && Machine.flush_elision t.machine then clear_dirty t line
      else eadr_drain t off;
      record_clwb t line None
    end
  end
  else if not t.volatile then begin
    let line = off lsr 6 in
    let tid = Des.Sched.current_id () in
    let redundant =
      lines_equal t line
      || match Hashtbl.find_opt t.staged_by line with Some owner -> owner = tid | None -> false
    in
    if redundant && Machine.flush_elision t.machine then begin
      let stats = Machine.stats t.machine in
      stats.Stats.flushes_elided <- stats.Stats.flushes_elided + 1;
      if lines_equal t line then clear_dirty t line;
      (* The saving is the write-path work.  The instruction still
         issues (the tracking check costs a few ns, folded into the
         same charge) and still invalidates the line (FH4: clwb
         invalidates whether or not the line was dirty), so the CPU
         and cache-side timing stays comparable to an unelided run. *)
      Des.Sched.charge (Machine.profile t.machine).Config.clwb_cpu_cost;
      record_clwb t line None;
      Machine.cache_invalidate t.machine (gline t off)
    end
    else if not (Machine.flush_faulted t.machine) then begin
      let stats0 = Machine.stats t.machine in
      if redundant then
        stats0.Stats.flushes_elided <- stats0.Stats.flushes_elided + 1;
      let stats = Machine.stats t.machine in
      stats.Stats.flushes <- stats.Stats.flushes + 1;
      let profile = Machine.profile t.machine in
      Des.Sched.charge profile.Config.clwb_cpu_cost;
      let snapshot = Bytes.sub (line_page t.cache line) (line_pos line) line_size in
      let apply () =
        persist_line t snapshot 0 line;
        if lines_equal t line then clear_dirty t line;
        (* Applied with no store since: the line is clean, so
           [lines_equal] now answers for the entry.  A newer staging
           by another thread is kept. *)
        match Hashtbl.find_opt t.staged_by line with
        | Some owner when owner = tid -> Hashtbl.remove t.staged_by line
        | Some _ | None -> ()
      in
      let g = gline t off in
      Machine.stage t.machine
        { Machine.pool_id = t.id; dev = t.dev; xpline = g lsr 2; apply };
      Hashtbl.replace t.staged_by line tid;
      record_clwb t line (Some snapshot);
      (* Current-generation clwb invalidates the line (FH4). *)
      Machine.cache_invalidate t.machine g
    end
  end

let flush_range t off len =
  if not t.volatile && len > 0 then begin
    let first = off lsr 6 and last = (off + len - 1) lsr 6 in
    for line = first to last do
      clwb t (line lsl 6)
    done
  end

let fence t = Machine.fence t.machine

let persist t off len =
  flush_range t off len;
  fence t

let media_read_int t off =
  assert (not t.volatile);
  Int64.to_int (Bytes.get_int64_le t.media.(off lsr page_bits) (off land page_mask))

let line_is_dirty t off = (not t.volatile) && line_dirty t (off lsr 6)

let cas_int t off ~expected v =
  assert (off land 7 = 0);
  touch_range_write t off 8;
  let cur = Int64.to_int (Bytes.get_int64_le t.cache.(off lsr page_bits) (off land page_mask)) in
  if cur = expected then begin
    Bytes.set_int64_le (page_w t.cache off) (off land page_mask) (Int64.of_int v);
    record_store t off 8;
    true
  end
  else false

let resident_bytes t = (resident_pages t.cache + resident_pages t.media) * page_size

let staged_lines t = Hashtbl.length t.staged_by
