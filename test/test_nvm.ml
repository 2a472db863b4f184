(* Tests for the simulated NVM: persistence semantics, crash model,
   cost-model behaviours the paper's findings rely on (FH1-FH5). *)

module Machine = Nvm.Machine
module Pool = Nvm.Pool
module Stats = Nvm.Stats

let make_machine ?protocol () = Machine.create ?protocol ~numa_count:2 ()

let make_pool ?(capacity = 1 lsl 20) ?volatile machine =
  Pool.create machine ?volatile ~name:"test" ~numa:0 ~capacity ()

(* The pool's page size: accesses at [page * k - small] straddle a page
   boundary. *)
let page = 4096

let test_rw_roundtrip () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_u8 p 3 0xAB;
  Pool.write_u16 p 10 0xBEEF;
  Pool.write_u32 p 20 0xDEADBEE;
  Pool.write_int p 32 123456789;
  Pool.write_int64 p 40 (-1L);
  Pool.write_string p 100 "hello nvm";
  Alcotest.(check int) "u8" 0xAB (Pool.read_u8 p 3);
  Alcotest.(check int) "u16" 0xBEEF (Pool.read_u16 p 10);
  Alcotest.(check int) "u32" 0xDEADBEE (Pool.read_u32 p 20);
  Alcotest.(check int) "int" 123456789 (Pool.read_int p 32);
  Alcotest.(check int64) "int64" (-1L) (Pool.read_int64 p 40);
  Alcotest.(check string) "string" "hello nvm" (Pool.read_string p 100 9)

let test_compare_string () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_string p 0 "abcdef";
  Alcotest.(check int) "equal" 0 (Pool.compare_string p 0 6 "abcdef");
  Alcotest.(check bool) "less" true (Pool.compare_string p 0 6 "abcdeg" < 0);
  Alcotest.(check bool) "greater" true (Pool.compare_string p 0 6 "abcdee" > 0);
  Alcotest.(check bool) "prefix shorter" true (Pool.compare_string p 0 6 "abcdefg" < 0);
  Alcotest.(check bool) "prefix longer" true (Pool.compare_string p 0 6 "abc" > 0)

let test_persist_survives_strict_crash () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Pool.persist p 0 8;
  Pool.write_int p 64 99 (* dirty, never flushed *);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "persisted survives" 42 (Pool.read_int p 0);
  Alcotest.(check int) "unflushed lost" 0 (Pool.read_int p 64)

let test_clwb_without_fence_lost_strict () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Pool.clwb p 0;
  (* no fence *)
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "clwb without fence not durable" 0 (Pool.read_int p 0)

let test_flaky_crash_probabilistic () =
  let m = make_machine () in
  let p = make_pool m in
  for i = 0 to 99 do
    Pool.write_int p (i * 64) (i + 1)
  done;
  let rng = Des.Rng.create ~seed:5L in
  Machine.crash m (Machine.Flaky (0.5, rng));
  let survived = ref 0 in
  for i = 0 to 99 do
    if Pool.read_int p (i * 64) = i + 1 then incr survived
  done;
  Alcotest.(check bool) "some survived" true (!survived > 10);
  Alcotest.(check bool) "some lost" true (!survived < 90)

(* A persist whose byte range straddles a 64B line boundary must flush
   both lines — an off-by-one in the first/last line computation would
   leave the tail line volatile. *)
let test_persist_straddles_line () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_string p 56 "straddles-a-line";
  let before = (Machine.stats m).Stats.flushes in
  Pool.persist p 56 16;
  Alcotest.(check int) "two lines flushed" 2 ((Machine.stats m).Stats.flushes - before);
  Machine.crash m Machine.Strict;
  Alcotest.(check string) "straddling value survives" "straddles-a-line"
    (Pool.read_string p 56 16)

let test_flush_range_zero_len () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 9;
  let before = (Machine.stats m).Stats.flushes in
  Pool.flush_range p 0 0;
  Pool.persist p 0 0;
  Alcotest.(check int) "zero-length flushes nothing" 0
    ((Machine.stats m).Stats.flushes - before);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "zero-length persists nothing" 0 (Pool.read_int p 0)

let test_persist_end_of_pool () =
  let capacity = 1 lsl 16 in
  let m = make_machine () in
  let p = make_pool ~capacity m in
  Pool.write_int p (capacity - 8) 4242;
  Pool.persist p (capacity - 8) 8 (* last 8 bytes: must not run past the pool *);
  Pool.flush_range p (capacity - 64) 64;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "last line survives" 4242 (Pool.read_int p (capacity - 8))

(* One line flushed twice in a row with no intervening store: the
   second clwb is redundant and must be counted as elidable — and with
   elision off (the default) still executed. *)
let test_flush_tracking_counts_redundant () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  let s = Machine.stats m in
  let flushes = s.Stats.flushes and elided = s.Stats.flushes_elided in
  Pool.persist p 0 8;
  Alcotest.(check int) "redundant clwb counted as elidable" (elided + 1)
    s.Stats.flushes_elided;
  Alcotest.(check int) "still executed with elision off" (flushes + 1) s.Stats.flushes;
  Machine.set_flush_elision m true;
  Pool.persist p 0 8;
  Alcotest.(check int) "skipped with elision on" (flushes + 1) s.Stats.flushes;
  Alcotest.(check int) "and still counted" (elided + 2) s.Stats.flushes_elided;
  (* After a fresh store the line is genuinely dirty again. *)
  Pool.write_int p 0 2;
  Pool.persist p 0 8;
  Alcotest.(check int) "dirty line not elided" (flushes + 2) s.Stats.flushes;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "value durable throughout" 2 (Pool.read_int p 0)

(* The corner cases the in-flight-only tracking table must keep. *)
let test_flush_tracking_lifetime () =
  let m = make_machine () in
  let p = make_pool m in
  let s = Machine.stats m in
  Pool.write_int p 0 1;
  Pool.clwb p 0;
  Alcotest.(check int) "staged" 1 (Pool.staged_lines p);
  let elided = s.Stats.flushes_elided in
  Pool.clwb p 0;
  Alcotest.(check int) "same-thread re-clwb before the fence is redundant" (elided + 1)
    s.Stats.flushes_elided;
  Pool.fence p;
  Alcotest.(check int) "the applying fence drops the entry" 0 (Pool.staged_lines p);
  Pool.clwb p 0;
  Alcotest.(check int) "after the fence: redundant through the clean line" (elided + 2)
    s.Stats.flushes_elided;
  Pool.fence p;
  (* a store between clwb and fence: the fence persists the old snapshot *)
  Pool.write_int p 0 2;
  Pool.clwb p 0;
  Pool.write_int p 0 3;
  Alcotest.(check int) "a store drops the entry" 0 (Pool.staged_lines p);
  Pool.fence p;
  let flushes = s.Stats.flushes in
  Pool.clwb p 0;
  Alcotest.(check int) "next clwb is not redundant" (elided + 2) s.Stats.flushes_elided;
  Alcotest.(check int) "and is executed" (flushes + 1) s.Stats.flushes;
  Pool.fence p;
  Alcotest.(check int) "latest value persisted" 3 (Pool.media_read_int p 0)

(* Thread A stages a line, thread B stages it again, A fences: B's
   staging is newer than the snapshot A's fence applies, so it stays
   until B's own fence. *)
let test_flush_tracking_other_thread_survives () =
  let m = make_machine () in
  let p = make_pool m in
  let sched = Des.Sched.create () in
  let after_a = ref (-1) and after_b = ref (-1) in
  Des.Sched.spawn sched ~name:"a" (fun () ->
      Pool.write_int p 0 1;
      Pool.clwb p 0;
      Des.Sched.delay 2e-6;
      Pool.fence p;
      after_a := Pool.staged_lines p);
  Des.Sched.spawn sched ~name:"b" (fun () ->
      Des.Sched.delay 1e-6;
      Pool.clwb p 0;
      Des.Sched.delay 10e-6;
      Pool.fence p;
      after_b := Pool.staged_lines p);
  Des.Sched.run sched;
  Alcotest.(check int) "B's staging survives A's fence" 1 !after_a;
  Alcotest.(check int) "B's fence drops it" 0 !after_b;
  Alcotest.(check int) "durable" 1 (Pool.media_read_int p 0)

(* Thread B stages value 1, A stores 2 and persists it, then B's later
   fence applies B's older snapshot: the media is stale again.  A's next
   clwb must not count as redundant, or elision would skip the flush
   that makes 2 durable. *)
let test_flush_tracking_stale_apply () =
  let m = make_machine () in
  let p = make_pool m in
  Machine.set_flush_elision m true;
  let s = Machine.stats m in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"b" (fun () ->
      Pool.write_int p 0 1;
      Pool.clwb p 0;
      Des.Sched.delay 10e-6;
      Pool.fence p);
  Des.Sched.spawn sched ~name:"a" (fun () ->
      Des.Sched.delay 1e-6;
      Pool.write_int p 0 2;
      Pool.persist p 0 8;
      Des.Sched.delay 20e-6;
      Alcotest.(check int) "B's fence wrote its older snapshot" 1 (Pool.media_read_int p 0);
      let elided = s.Stats.flushes_elided in
      Pool.persist p 0 8;
      Alcotest.(check int) "re-clwb not redundant" elided s.Stats.flushes_elided);
  Des.Sched.run sched;
  Alcotest.(check int) "latest value durable" 2 (Pool.media_read_int p 0)

let test_flush_tracking_bounded () =
  let m = make_machine () in
  let p = make_pool m in
  for i = 0 to 9_999 do
    Pool.write_int p (i * 64) i;
    Pool.clwb p (i * 64);
    Pool.fence p
  done;
  Alcotest.(check int) "no applied line stays tracked" 0 (Pool.staged_lines p);
  Alcotest.(check int) "last line durable" 9_999 (Pool.media_read_int p (9_999 * 64))

(* Empty accesses touch no line: at offset 0 the line range used to
   wrap to ~2^57 lines, at an unaligned offset it charged one line. *)
let test_empty_access_charges_nothing () =
  let m = make_machine () in
  let p = make_pool m in
  let before = Stats.snapshot (Machine.stats m) in
  List.iter
    (fun off ->
      Alcotest.(check string) "empty read" "" (Pool.read_string p off 0);
      Alcotest.(check int) "empty compare" 0 (Pool.compare_string p off 0 "");
      Pool.blit_to_bytes p off (Bytes.create 0) 0 0;
      Pool.write_string p off "";
      Pool.fill_zero p off 0)
    [ 0; 100; Pool.capacity p ];
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "no cache access" 0 (d.Stats.cache_hits + d.Stats.cache_misses);
  Alcotest.(check int) "no logical bytes" 0
    (d.Stats.logical_read_bytes + d.Stats.logical_write_bytes);
  Alcotest.(check int) "nothing materialised" 0 (Pool.resident_bytes p)

let test_flaky_p1_persists_all_dirty () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 7;
  let rng = Des.Rng.create ~seed:5L in
  Machine.crash m (Machine.Flaky (1.0, rng));
  Alcotest.(check int) "dirty line evicted to media" 7 (Pool.read_int p 0);
  Alcotest.(check int) "in the media image" 7 (Pool.media_read_int p 0);
  (* the survivor materialised one media page, rebuilt as one cache page *)
  Alcotest.(check int) "cache and media page" (2 * page) (Pool.resident_bytes p)

let test_overwrite_after_clwb () =
  (* The clwb snapshot is what the fence persists; later stores to the
     same line need their own flush. *)
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 1;
  Pool.clwb p 0;
  Pool.write_int p 0 2;
  Pool.fence p;
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "snapshot value persisted" 1 (Pool.read_int p 0)

let test_volatile_pool_lost_on_crash () =
  let m = make_machine () in
  let p = make_pool ~volatile:true m in
  Pool.write_int p 0 42;
  Pool.persist p 0 8 (* no-op flush on DRAM *);
  Pool.write_string p (page - 4) "dram-only" (* straddles a page *);
  Machine.crash m Machine.Strict;
  Alcotest.(check int) "dram wiped" 0 (Pool.read_int p 0);
  Alcotest.(check string) "both pages wiped" (String.make 9 '\000')
    (Pool.read_string p (page - 4) 9);
  Alcotest.(check int) "nothing resident" 0 (Pool.resident_bytes p)

let test_media_read_int () =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Alcotest.(check int) "not yet in media" 0 (Pool.media_read_int p 0);
  Alcotest.(check bool) "line dirty" true (Pool.line_is_dirty p 0);
  Pool.persist p 0 8;
  Alcotest.(check int) "in media after persist" 42 (Pool.media_read_int p 0);
  Alcotest.(check bool) "line clean" false (Pool.line_is_dirty p 0)

let test_flush_counts () =
  let m = make_machine () in
  let p = make_pool m in
  let before = Stats.snapshot (Machine.stats m) in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  let d = Stats.diff (Machine.stats m) before in
  Alcotest.(check int) "one clwb" 1 d.Stats.flushes;
  Alcotest.(check int) "one sfence" 1 d.Stats.fences

let test_write_combining_groups_xpline () =
  (* Flushing 4 lines of one XPLine then fencing must produce a single
     full (non-RMW) media write; a single line flush is a partial RMW
     write (FH1 write amplification). *)
  let m = make_machine () in
  let p = make_pool m in
  let dev_stats = Nvm.Device.stats (Machine.device m 0) in
  let before = Stats.snapshot dev_stats in
  for line = 0 to 3 do
    Pool.write_int p (line * 64) 1;
    Pool.clwb p (line * 64)
  done;
  Pool.fence p;
  let d = Stats.diff dev_stats before in
  Alcotest.(check int) "one media write" 1 d.Stats.media_writes;
  Alcotest.(check int) "no rmw read" 0 d.Stats.rmw_reads;
  let before = Stats.snapshot dev_stats in
  Pool.write_int p 1024 1;
  Pool.persist p 1024 8;
  let d = Stats.diff dev_stats before in
  Alcotest.(check int) "partial write" 1 d.Stats.media_writes;
  Alcotest.(check int) "rmw amplification" 1 d.Stats.rmw_reads

let run_in_sim f =
  let sched = Des.Sched.create () in
  let result = ref None in
  Des.Sched.spawn sched ~name:"t" (fun () -> result := Some (f sched));
  Des.Sched.run sched;
  Option.get !result

let test_sequential_read_faster_than_random () =
  (* FH3: sequential reads exploit the read buffer and prefetcher.
     Both patterns touch 4096 (mostly) distinct lines; the random one
     draws from a 16MB region so CPU cache reuse is negligible. *)
  let time_pattern sequential =
    run_in_sim (fun sched ->
        let m = make_machine () in
        let p = make_pool ~capacity:(1 lsl 24) m in
        let rng = Des.Rng.create ~seed:3L in
        let start = Des.Sched.now sched in
        for i = 0 to 4095 do
          let off =
            if sequential then i * 64 else Des.Rng.int rng (1 lsl 18) * 64
          in
          ignore (Pool.read_int p off)
        done;
        Des.Sched.delay 0.0;
        Des.Sched.now sched -. start)
  in
  let seq = time_pattern true and rand = time_pattern false in
  Alcotest.(check bool)
    (Printf.sprintf "sequential (%.2e) at least 2x faster than random (%.2e)" seq rand)
    true
    (seq *. 2.0 < rand)

let test_cache_hits_are_cheap () =
  let first, second =
    run_in_sim (fun sched ->
        let m = make_machine () in
        let p = make_pool m in
        let t0 = Des.Sched.now sched in
        ignore (Pool.read_int p 0);
        Des.Sched.delay 0.0;
        let t1 = Des.Sched.now sched in
        ignore (Pool.read_int p 0);
        Des.Sched.delay 0.0;
        let t2 = Des.Sched.now sched in
        (t1 -. t0, t2 -. t1))
  in
  Alcotest.(check bool) "second access is a cache hit" true (second *. 5.0 < first)

(* Slot placement: a line's CPU-cache and XPBuffer slot depend on its
   pool, so lines at equal offsets in different pools do not evict each
   other, while any 4096 consecutive lines of one pool still fill the
   4096-slot cache without a conflict. *)
let second_pass_hits m reads =
  List.iter (fun (p, off) -> ignore (Pool.read_int p off)) reads;
  let before = Stats.snapshot (Machine.stats m) in
  List.iter (fun (p, off) -> ignore (Pool.read_int p off)) reads;
  (Stats.diff (Machine.stats m) before).Stats.cache_hits

let make_pools m n = List.init n (fun _ -> make_pool m)

let test_cache_slots_see_the_pool () =
  List.iter
    (fun pools ->
      let m = make_machine () in
      let reads =
        List.concat_map
          (fun p -> List.init 64 (fun line -> (p, line * 64)))
          (make_pools m pools)
      in
      Alcotest.(check int)
        (Printf.sprintf "64 lines x %d pools hit" pools)
        (64 * pools) (second_pass_hits m reads))
    [ 4; 8 ];
  let m = make_machine () in
  let p = make_pool m in
  Alcotest.(check int) "4096 consecutive lines of one pool hit" 4096
    (second_pass_hits m (List.init 4096 (fun line -> (p, line * 64))))

let test_xpbuffer_slots_see_the_pool () =
  (* Stride 2 keeps the prefetcher out: no miss follows its predecessor
     XPLine. *)
  let m = make_machine () in
  let dev_stats = Nvm.Device.stats (Machine.device m 0) in
  let xplines =
    List.concat_map
      (fun p -> List.init 8 (fun i -> (p, i * 2 * 256)))
      (make_pools m 4)
  in
  List.iter (fun (p, off) -> ignore (Pool.read_int p off)) xplines;
  let before = Stats.snapshot dev_stats in
  List.iter (fun (p, off) -> ignore (Pool.read_int p (off + 64))) xplines;
  let d = Stats.diff dev_stats before in
  Alcotest.(check int) "line 1 of each XPLine: buffer hits" 32 d.Stats.buffer_hits;
  Alcotest.(check int) "no media reads" 0 d.Stats.media_reads

let test_directory_protocol_generates_writes () =
  (* FH5: under the directory protocol, remote reads write directory
     state to the media; under snoop they do not. *)
  let remote_reads protocol =
    run_in_sim (fun _sched ->
        let m = make_machine ~protocol () in
        let p = make_pool m in
        ignore p;
        (* Thread on NUMA 1 reads pool on NUMA 0. *)
        m)
    |> ignore
  in
  ignore remote_reads;
  let run protocol =
    let m = Machine.create ~protocol ~numa_count:2 () in
    let p = Pool.create m ~name:"remote" ~numa:0 ~capacity:(1 lsl 20) () in
    let sched = Des.Sched.create () in
    Des.Sched.spawn sched ~numa:1 ~name:"remote-reader" (fun () ->
        let rng = Des.Rng.create ~seed:11L in
        for _ = 1 to 2048 do
          ignore (Pool.read_int p (Des.Rng.int rng (1 lsl 14) * 64))
        done);
    Des.Sched.run sched;
    Nvm.Device.stats (Machine.device m 0)
  in
  let dir = run Nvm.Config.Directory and snoop = run Nvm.Config.Snoop in
  Alcotest.(check bool) "directory writes present" true (dir.Stats.dir_writes > 1000);
  Alcotest.(check int) "snoop: none" 0 snoop.Stats.dir_writes;
  Alcotest.(check bool) "dir write traffic comparable to reads" true
    (Stats.total_write_bytes dir * 2 > Stats.total_read_bytes dir / 2)

let test_local_reads_no_directory_writes () =
  let m = Machine.create ~protocol:Nvm.Config.Directory ~numa_count:2 () in
  let p = Pool.create m ~name:"local" ~numa:0 ~capacity:(1 lsl 20) () in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~numa:0 ~name:"local-reader" (fun () ->
      for i = 0 to 1023 do
        ignore (Pool.read_int p (i * 64))
      done);
  Des.Sched.run sched;
  let stats = Nvm.Device.stats (Machine.device m 0) in
  Alcotest.(check int) "no directory writes for local reads" 0 stats.Stats.dir_writes

let test_bandwidth_saturation () =
  (* GC1: aggregate throughput saturates as readers contend for the
     device channels. *)
  let elapsed_with threads =
    let m = make_machine () in
    let p = Pool.create m ~name:"bw" ~numa:0 ~capacity:(1 lsl 22) () in
    let sched = Des.Sched.create () in
    for t = 0 to threads - 1 do
      Des.Sched.spawn sched ~numa:0 ~name:(Printf.sprintf "r%d" t) (fun () ->
          let rng = Des.Rng.create ~seed:(Int64.of_int (t + 1)) in
          for _ = 1 to 2048 do
            ignore (Pool.read_int p (Des.Rng.int rng (1 lsl 16) * 64))
          done)
    done;
    Des.Sched.run sched;
    Des.Sched.now sched
  in
  let t1 = elapsed_with 1 and t64 = elapsed_with 64 in
  (* 64 threads do 64x the work; with ~16 channels the elapsed time
     must grow (bandwidth bound), but far less than 64x. *)
  Alcotest.(check bool) "more threads take longer" true (t64 > t1 *. 1.5);
  Alcotest.(check bool) "but scale via parallel channels" true (t64 < t1 *. 32.0)

let test_read_write_asymmetry () =
  (* FH2: writes are slower than reads. *)
  let m = make_machine () in
  let p = make_pool m in
  let read_time =
    run_in_sim (fun sched ->
        let start = Des.Sched.now sched in
        ignore (Pool.read_int p (1 lsl 16));
        Des.Sched.delay 0.0;
        Des.Sched.now sched -. start)
  in
  let write_time =
    run_in_sim (fun sched ->
        let start = Des.Sched.now sched in
        Pool.write_int p (1 lsl 17) 1;
        Pool.persist p (1 lsl 17) 8;
        Des.Sched.now sched -. start)
  in
  Alcotest.(check bool)
    (Printf.sprintf "persist (%.2e) slower than read (%.2e)" write_time read_time)
    true
    (write_time > read_time *. 1.5)

let test_stats_roundtrip () =
  let s = Stats.create () in
  s.Stats.media_reads <- 10;
  s.Stats.media_read_bytes <- 2560;
  let snap = Stats.snapshot s in
  s.Stats.media_reads <- 15;
  let d = Stats.diff s snap in
  Alcotest.(check int) "diff" 5 d.Stats.media_reads;
  Stats.add snap d;
  Alcotest.(check int) "add" 15 snap.Stats.media_reads;
  Stats.reset s;
  Alcotest.(check int) "reset" 0 s.Stats.media_reads

let test_config_bandwidths () =
  let open Nvm.Config in
  Alcotest.(check bool) "default read bw ~ tens of GB/s" true
    (read_bandwidth dcpmm > 10e9 && read_bandwidth dcpmm < 100e9);
  Alcotest.(check bool) "write bw below read bw" true
    (write_bandwidth dcpmm < read_bandwidth dcpmm);
  Alcotest.(check bool) "low-bw machine ~3x lower" true
    (read_bandwidth dcpmm_low_bw *. 2.5 < read_bandwidth dcpmm)

(* ---------- sparse paged images ---------- *)

let test_cross_page_accessors () =
  let m = make_machine () in
  let p = make_pool m in
  let b = 3 * page in
  Alcotest.(check int) "absent u16 reads zero" 0 (Pool.read_u16 p (b - 1));
  Alcotest.(check int) "absent u32 reads zero" 0 (Pool.read_u32 p (b - 2));
  Pool.write_u16 p (b - 1) 0xBEEF;
  Alcotest.(check int) "u16 across pages" 0xBEEF (Pool.read_u16 p (b - 1));
  Alcotest.(check int) "low byte before the boundary" 0xEF (Pool.read_u8 p (b - 1));
  Alcotest.(check int) "high byte after it" 0xBE (Pool.read_u8 p b);
  List.iter
    (fun d ->
      let off = b + page - d in
      Pool.write_u32 p off 0xDEADBEEF;
      Alcotest.(check int) (Printf.sprintf "u32 at page end - %d" d) 0xDEADBEEF
        (Pool.read_u32 p off))
    [ 1; 2; 3 ];
  let s = "0123456789" in
  Pool.write_string p (b - 5) s;
  Alcotest.(check string) "read_string across pages" s (Pool.read_string p (b - 5) 10);
  let buf = Bytes.make 12 '.' in
  Pool.blit_to_bytes p (b - 5) buf 1 10;
  Alcotest.(check string) "blit_to_bytes across pages" ".0123456789." (Bytes.to_string buf);
  Alcotest.(check int) "compare equal" 0 (Pool.compare_string p (b - 5) 10 s);
  Alcotest.(check bool) "differs after the boundary" true
    (Pool.compare_string p (b - 5) 10 "0123456799" < 0);
  Alcotest.(check bool) "differs before the boundary" true
    (Pool.compare_string p (b - 5) 10 "0113456789" > 0);
  Alcotest.(check bool) "longer probe" true (Pool.compare_string p (b - 5) 10 (s ^ "x") < 0);
  Pool.fill_zero p (b - 3) 6;
  Alcotest.(check string) "fill_zero across pages" "01\000\000\000\000\000\00089"
    (Pool.read_string p (b - 5) 10);
  (* a string spanning three pages *)
  let long = String.init (page + 200) (fun i -> Char.chr (33 + (i mod 90))) in
  Pool.write_string p (b + page - 100) long;
  Alcotest.(check string) "string over three pages" long
    (Pool.read_string p (b + page - 100) (String.length long));
  Alcotest.(check int) "compare over three pages" 0
    (Pool.compare_string p (b + page - 100) (String.length long) long);
  Pool.persist p (b + page - 100) (String.length long);
  Machine.crash m Machine.Strict;
  Alcotest.(check string) "persisted across pages" long
    (Pool.read_string p (b + page - 100) (String.length long));
  let cap = Pool.capacity p in
  Alcotest.(check string) "empty read at capacity" "" (Pool.read_string p cap 0);
  Alcotest.(check int) "empty compare at capacity" 0 (Pool.compare_string p cap 0 "")

let test_read_only_materialises_nothing () =
  let m = make_machine () in
  let p = make_pool ~capacity:(1 lsl 30) m in
  let mib = 1 lsl 20 in
  for i = 0 to 1023 do
    Alcotest.(check int) "reads zero" 0 (Pool.read_int p (i * mib))
  done;
  Alcotest.(check int) "u16 across pages" 0 (Pool.read_u16 p (page - 1));
  Alcotest.(check string) "string across pages" (String.make 16 '\000')
    (Pool.read_string p (page - 8) 16);
  Alcotest.(check bool) "compare" true (Pool.compare_string p (page - 8) 16 "a" < 0);
  Pool.blit_to_bytes p (page - 8) (Bytes.create 16) 0 16;
  Alcotest.(check bool) "failed cas" false (Pool.cas_int p 64 ~expected:1 2);
  Pool.fill_zero p (page - 8) 16;
  Alcotest.(check int) "nothing materialised" 0 (Pool.resident_bytes p);
  Pool.write_u8 p (512 * mib) 1;
  Alcotest.(check int) "one cache page" page (Pool.resident_bytes p);
  Pool.persist p (512 * mib) 1;
  Alcotest.(check int) "plus one media page" (2 * page) (Pool.resident_bytes p)

(* Page 0 holds a persisted line and an unflushed one; page 2 was
   stored to but never flushed, so no crash keeps it. *)
let crash_keeps_persisted_lines mode =
  let m = make_machine () in
  let p = make_pool m in
  Pool.write_int p 0 42;
  Pool.persist p 0 8;
  Pool.write_int p 128 7;
  Pool.write_int p (2 * page) 9;
  Alcotest.(check int) "resident before" (3 * page) (Pool.resident_bytes p);
  Machine.crash m mode;
  Alcotest.(check int) "persisted line kept" 42 (Pool.read_int p 0);
  Alcotest.(check int) "unflushed line dropped" 0 (Pool.read_int p 128);
  Alcotest.(check int) "unflushed page dropped" 0 (Pool.read_int p (2 * page));
  Alcotest.(check int) "only the persisted page is resident" (2 * page)
    (Pool.resident_bytes p);
  Alcotest.(check bool) "clean after crash" false (Pool.line_is_dirty p 128)

let test_strict_crash_keeps_persisted () = crash_keeps_persisted_lines Machine.Strict

let test_flaky_crash_keeps_persisted () =
  crash_keeps_persisted_lines (Machine.Flaky (0.0, Des.Rng.create ~seed:1L))

(* After a crash every cache page equals its media page, and a page
   absent from the media is absent from the cache.  Page 3 is resident
   in the media alone (a clwb of a never-written line persists zeros). *)
let crash_rebuilds_cache mode =
  let m = make_machine () in
  let p = make_pool m in
  let v = List.find (fun v -> v.Machine.pv_id = Pool.id p) (Machine.pool_views m) in
  Pool.write_int p 0 1;
  Pool.persist p 0 8;
  Pool.write_int p 64 2;
  Pool.write_int p page 3;
  Pool.write_int p (2 * page) 4;
  Pool.persist p (2 * page) 8;
  Pool.write_int p (2 * page) 5;
  Pool.persist p (3 * page) 8;
  Pool.write_int p (4 * page + 128) 6;
  Machine.crash m mode;
  let media = v.Machine.pv_media () in
  Alcotest.(check bool) "cache image = media image" true
    (String.equal (Pool.read_string p 0 (Pool.capacity p)) (Bytes.to_string media));
  let media_pages = ref 0 in
  for i = 0 to (Pool.capacity p / page) - 1 do
    if not (Bytes.equal (Bytes.sub media (i * page) page) (Bytes.make page '\000')) then
      incr media_pages
  done;
  (* page 3 holds zeros in both images, so count it by hand *)
  Alcotest.(check int) "cache pages = media pages" (2 * (!media_pages + 1) * page)
    (Pool.resident_bytes p)

let test_strict_crash_rebuilds_cache () = crash_rebuilds_cache Machine.Strict

let test_flaky_crash_rebuilds_cache () =
  crash_rebuilds_cache (Machine.Flaky (0.5, Des.Rng.create ~seed:3L))

(* The rebuild reuses resident cache pages: crashing a pool with 256
   pages resident in both images allocates less than one page. *)
let test_crash_rebuilds_in_place () =
  let m = make_machine () in
  let pages = 256 in
  let p = make_pool ~capacity:(pages * page) m in
  for i = 0 to pages - 1 do
    Pool.write_int p (i * page) (i + 1);
    Pool.persist p (i * page) 8;
    Pool.write_int p ((i * page) + 64) 7
  done;
  Alcotest.(check int) "both images resident" (2 * pages * page) (Pool.resident_bytes p);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  Machine.crash m Machine.Strict;
  let allocated = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check bool)
    (Printf.sprintf "crash allocated %.0f major words" allocated)
    true
    (allocated < float_of_int (page / 8));
  Alcotest.(check int) "persisted kept" pages (Pool.read_int p ((pages - 1) * page));
  Alcotest.(check int) "unflushed dropped" 0 (Pool.read_int p 64)

let pool_view m p =
  List.find (fun v -> v.Machine.pv_id = Pool.id p) (Machine.pool_views m)

let test_media_image_roundtrip () =
  let m = make_machine () in
  (* not a page multiple: the last page is partial *)
  let capacity = (1 lsl 20) + 256 in
  let p = make_pool ~capacity m in
  let v = pool_view m p in
  Pool.write_string p (page - 3) "persisted";
  Pool.persist p (page - 3) 9;
  Pool.write_int p (capacity - 8) 77;
  Pool.persist p (capacity - 8) 8;
  let img = v.Machine.pv_media () in
  Alcotest.(check int) "dense image" capacity (Bytes.length img);
  Alcotest.(check string) "image bytes" "persisted" (Bytes.sub_string img (page - 3) 9);
  Pool.write_int p (3 * page) 1 (* unflushed *);
  Pool.write_string p (page - 3) "scribbled";
  v.Machine.pv_restore img;
  Alcotest.(check string) "restored" "persisted" (Pool.read_string p (page - 3) 9);
  Alcotest.(check int) "restored tail" 77 (Pool.read_int p (capacity - 8));
  Alcotest.(check int) "unflushed gone" 0 (Pool.read_int p (3 * page));
  Alcotest.(check bool) "clean" false (Pool.line_is_dirty p (page - 3));
  Pool.write_string p (page - 3) "unflushed";
  Alcotest.(check bool) "stores after a restore stay off the media" true
    (Bytes.equal img (v.Machine.pv_media ()));
  v.Machine.pv_restore (Bytes.make capacity '\000');
  Alcotest.(check int) "zero image: nothing resident" 0 (Pool.resident_bytes p);
  Alcotest.check_raises "restore size checked"
    (Invalid_argument
       (Printf.sprintf "Pool test: restore image %d bytes, capacity %d" 8 capacity))
    (fun () -> v.Machine.pv_restore (Bytes.make 8 '\000'))

(* Random store/clwb/fence/crash sequences against a dense two-image
   model of the ADR persistence rules. *)
type pool_op =
  | Op_string of int * string
  | Op_u16 of int * int
  | Op_u32 of int * int
  | Op_int of int * int
  | Op_zero of int * int
  | Op_clwb of int
  | Op_fence
  | Op_crash

let model_capacity = (2 * page) + 256

let pp_pool_op = function
  | Op_string (o, s) -> Printf.sprintf "string %d %S" o s
  | Op_u16 (o, v) -> Printf.sprintf "u16 %d %d" o v
  | Op_u32 (o, v) -> Printf.sprintf "u32 %d %d" o v
  | Op_int (o, v) -> Printf.sprintf "int %d %d" o v
  | Op_zero (o, n) -> Printf.sprintf "zero %d %d" o n
  | Op_clwb o -> Printf.sprintf "clwb %d" o
  | Op_fence -> "fence"
  | Op_crash -> "crash"

let pool_op_gen =
  let open QCheck.Gen in
  (* offsets cluster around page boundaries so accesses straddle them *)
  let off len =
    oneof
      [
        int_bound (model_capacity - len);
        map2
          (fun k d -> max 0 (min (model_capacity - len) ((k * page) + d)))
          (int_range 1 2) (int_range (-80) 80);
      ]
  in
  frequency
    [
      ( 3,
        int_range 1 100 >>= fun len ->
        map2 (fun o s -> Op_string (o, s)) (off len) (string_size ~gen:printable (return len)) );
      (2, map2 (fun o v -> Op_u16 (o, v)) (off 2) (int_bound 0xFFFF));
      (2, map2 (fun o v -> Op_u32 (o, v)) (off 4) (int_bound 0x3FFFFFFF));
      (2, map2 (fun o v -> Op_int (o land lnot 7, v)) (off 8) nat);
      (1, int_range 1 100 >>= fun len -> map (fun o -> Op_zero (o, len)) (off len));
      (3, map (fun o -> Op_clwb o) (off 1));
      (2, return Op_fence);
      (1, return Op_crash);
    ]

let test_paged_pool_model =
  QCheck.Test.make ~name:"pool: paged images agree with a dense model" ~count:150
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_pool_op ops))
       QCheck.Gen.(list_size (int_range 1 60) pool_op_gen))
    (fun ops ->
      let m = make_machine () in
      let p = make_pool ~capacity:model_capacity m in
      let v = pool_view m p in
      let cache = Bytes.make model_capacity '\000' in
      let media = Bytes.make model_capacity '\000' in
      let staged = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Op_string (o, s) ->
              Pool.write_string p o s;
              Bytes.blit_string s 0 cache o (String.length s)
          | Op_u16 (o, x) ->
              Pool.write_u16 p o x;
              Bytes.set_uint16_le cache o x
          | Op_u32 (o, x) ->
              Pool.write_u32 p o x;
              Bytes.set_int32_le cache o (Int32.of_int x)
          | Op_int (o, x) ->
              Pool.write_int p o x;
              Bytes.set_int64_le cache o (Int64.of_int x)
          | Op_zero (o, n) ->
              Pool.fill_zero p o n;
              Bytes.fill cache o n '\000'
          | Op_clwb o ->
              Pool.clwb p o;
              let base = o land lnot 63 in
              staged := (base, Bytes.sub cache base 64) :: !staged
          | Op_fence ->
              Pool.fence p;
              List.iter (fun (base, snap) -> Bytes.blit snap 0 media base 64) (List.rev !staged);
              staged := []
          | Op_crash ->
              Machine.crash m Machine.Strict;
              Bytes.blit media 0 cache 0 model_capacity;
              staged := []);
          Pool.read_string p 0 model_capacity = Bytes.to_string cache
          && Bytes.equal (v.Machine.pv_media ()) media)
        ops)

let suite =
  [
    Alcotest.test_case "pool: typed read/write roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "pool: compare_string" `Quick test_compare_string;
    Alcotest.test_case "crash: persist survives strict" `Quick
      test_persist_survives_strict_crash;
    Alcotest.test_case "crash: clwb without fence lost" `Quick
      test_clwb_without_fence_lost_strict;
    Alcotest.test_case "crash: flaky is probabilistic" `Quick
      test_flaky_crash_probabilistic;
    Alcotest.test_case "crash: flaky p=1 evicts dirty" `Quick
      test_flaky_p1_persists_all_dirty;
    Alcotest.test_case "crash: clwb snapshots its line" `Quick test_overwrite_after_clwb;
    Alcotest.test_case "persist: straddles a 64B line" `Quick test_persist_straddles_line;
    Alcotest.test_case "persist: zero-length is a no-op" `Quick test_flush_range_zero_len;
    Alcotest.test_case "persist: end of pool" `Quick test_persist_end_of_pool;
    Alcotest.test_case "flush tracking: redundant clwbs" `Quick
      test_flush_tracking_counts_redundant;
    Alcotest.test_case "crash: volatile pool wiped" `Quick test_volatile_pool_lost_on_crash;
    Alcotest.test_case "pool: media image inspection" `Quick test_media_read_int;
    Alcotest.test_case "stats: flush/fence counts" `Quick test_flush_counts;
    Alcotest.test_case "device: write combining (FH3)" `Quick
      test_write_combining_groups_xpline;
    Alcotest.test_case "device: sequential beats random (FH3)" `Quick
      test_sequential_read_faster_than_random;
    Alcotest.test_case "machine: cpu cache hits cheap" `Quick test_cache_hits_are_cheap;
    Alcotest.test_case "machine: cache slots see the pool" `Quick
      test_cache_slots_see_the_pool;
    Alcotest.test_case "device: xpbuffer slots see the pool" `Quick
      test_xpbuffer_slots_see_the_pool;
    Alcotest.test_case "device: directory coherence writes (FH5)" `Quick
      test_directory_protocol_generates_writes;
    Alcotest.test_case "device: local reads have no dir writes" `Quick
      test_local_reads_no_directory_writes;
    Alcotest.test_case "device: bandwidth saturation (GC1)" `Quick
      test_bandwidth_saturation;
    Alcotest.test_case "device: read/write asymmetry (FH2)" `Quick
      test_read_write_asymmetry;
    Alcotest.test_case "stats: snapshot/diff/add/reset" `Quick test_stats_roundtrip;
    Alcotest.test_case "config: bandwidth presets" `Quick test_config_bandwidths;
    Alcotest.test_case "pool: accessors straddle pages" `Quick test_cross_page_accessors;
    Alcotest.test_case "pool: reads materialise nothing" `Quick
      test_read_only_materialises_nothing;
    Alcotest.test_case "crash: strict keeps persisted pages only" `Quick
      test_strict_crash_keeps_persisted;
    Alcotest.test_case "crash: flaky keeps persisted pages only" `Quick
      test_flaky_crash_keeps_persisted;
    Alcotest.test_case "pool: media image roundtrip" `Quick test_media_image_roundtrip;
    Alcotest.test_case "flush tracking: entry lifetime" `Quick test_flush_tracking_lifetime;
    Alcotest.test_case "flush tracking: other thread's staging survives" `Quick
      test_flush_tracking_other_thread_survives;
    Alcotest.test_case "flush tracking: stale snapshot needs a new flush" `Quick
      test_flush_tracking_stale_apply;
    Alcotest.test_case "flush tracking: applied lines leave the table" `Quick
      test_flush_tracking_bounded;
    Alcotest.test_case "pool: empty accesses charge nothing" `Quick
      test_empty_access_charges_nothing;
    Alcotest.test_case "crash: strict rebuilds cache = media" `Quick
      test_strict_crash_rebuilds_cache;
    Alcotest.test_case "crash: flaky rebuilds cache = media" `Quick
      test_flaky_crash_rebuilds_cache;
    Alcotest.test_case "crash: cache rebuilt in place" `Quick test_crash_rebuilds_in_place;
    QCheck_alcotest.to_alcotest test_paged_pool_model;
  ]
