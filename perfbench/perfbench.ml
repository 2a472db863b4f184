(* perfbench: one measured run of one benchmark workload in this
   process, printed as one JSON line.

   Simulated results depend on process history (pool ids are
   process-global; see README.md), so every measured run is its own
   process: run.py spawns this executable once per repetition, per
   svc ladder rate and per traced run, and aggregates what they print.

     perfbench.exe ycsb-a|ycsb-c-str --seed N --ops N [--trace FILE]
     perfbench.exe svc-a-open --seed N --ops N --rate MOPS [--trace FILE]
     perfbench.exe ycsb-a ... --repeat N   (in-process repeats; drift probe)

   Every layer is measured from outside, by timing and counting around
   the public calls made here; nothing under lib/ is instrumented for
   the benchmark.  With --trace the run also installs an Obs.Span
   recorder (no sampler), records its own spans around every call into
   a layer and writes them to FILE at exit. *)

module Tree = Pactree.Tree
module Index = Baselines.Index_intf
module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset
module Sched = Des.Sched
module Store = Svc.Store
module Engine = Svc.Engine

let wall = Unix.gettimeofday

let threads = 28

let numa_count = 2

(* The calling simulated thread's effective clock: the scheduler clock
   plus charges not yet folded into it by a delay. *)
let clock sched = Sched.now sched +. Sched.pending_charge ()

module Latency = Workload.Latency

(* Every latency is recorded (the sample rate is 1, so the rng is never
   drawn from). *)
let new_latency () = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed:0L)

let merged lats =
  let m = new_latency () in
  List.iter (fun src -> Latency.merge ~dst:m ~src) lats;
  m

(* [name_n], [name_p50_us], [name_p99_us] plus the highest percentile
   that still has at least ten samples beyond it. *)
let latency_fields name lat =
  let n = Latency.count lat in
  let us p = Latency.percentile lat p *. 1e6 in
  let top =
    List.find_opt (fun p -> float n *. (1.0 -. (p /. 100.0)) >= 10.0) [ 99.99; 99.9; 99.0 ]
  in
  [
    (name ^ "_n", float n);
    (name ^ "_p50_us", us 50.0);
    (name ^ "_p99_us", us 99.0);
    (name ^ "_top_pct", Option.value top ~default:0.0);
    (name ^ "_top_us", match top with Some p -> us p | None -> 0.0);
  ]

(* ---------- host-time attribution (traced runs) ----------

   Simulated threads are effect-handler coroutines on one host thread
   and block only inside layer calls, so host time between two call
   boundaries of any thread is attributed as follows: an interval
   ending at a call's exit belongs to that call's layer (it may include
   DES dispatch and other threads' code that ran while the call was
   blocked); an interval ending at a call's entry belongs to neither
   (the benchmark loop and DES outside layer calls). *)
module Host = struct
  let gen = 0

  let lookup = 1

  let insert = 2

  let acc = Array.make 3 0.0

  let calls = Array.make 3 0

  let last = ref 0.0

  let on = ref false

  let call tag f =
    if not !on then f ()
    else begin
      last := wall ();
      let r = f () in
      let t = wall () in
      acc.(tag) <- acc.(tag) +. (t -. !last);
      calls.(tag) <- calls.(tag) + 1;
      last := t;
      r
    end
end

(* ---------- the benchmark's own spans (traced runs) ----------

   Rows kept in memory, newest first, and written as TSV at exit.
   Spans of one op share its request id [rid]. *)
module Trace = struct
  let names =
    [| "load"; "phase"; "recover"; "workload.next"; "index.lookup"; "index.insert"; "svc.engine.run" |]

  let load = 0

  let phase = 1

  let recover = 2

  let next = 3

  let lookup = 4

  let insert = 5

  let engine_run = 6

  type row = {
    id : int;
    name : int;
    rid : int;
    parent : int;
    tid : int;
    sim0 : float;
    mutable sim1 : float;
    host0 : float;
    mutable host1 : float;
  }

  let rows = ref []

  let count = ref 0

  let on = ref false

  let t0 = wall ()

  (* host clock for span rows; not read at all in untraced runs *)
  let host () = if !on then wall () else 0.0

  let last_rid = ref 0

  (* request id for the spans of one op *)
  let fresh_rid () =
    incr last_rid;
    !last_rid

  let add ~name ~rid ~parent ~sim0 ~sim1 ~host0 ~host1 =
    if not !on then -1
    else begin
      let id = !count in
      incr count;
      rows :=
        {
          id;
          name;
          rid;
          parent;
          tid = Sched.current_id ();
          sim0;
          sim1;
          host0 = host0 -. t0;
          host1 = host1 -. t0;
        }
        :: !rows;
      id
    end

  (* a root span whose end is filled in by [close] *)
  let open_ ~name ~sim0 = add ~name ~rid:(-1) ~parent:(-1) ~sim0 ~sim1:sim0 ~host0:(wall ()) ~host1:t0

  let close id ~sim1 =
    if id >= 0 then begin
      let r = List.find (fun r -> r.id = id) !rows in
      r.sim1 <- sim1;
      r.host1 <- wall () -. t0
    end

  let write path =
    let oc = open_out path in
    output_string oc
      "id\tname\trid\tparent\ttid\tsim_start_s\tsim_end_s\thost_start_s\thost_end_s\n";
    List.iter
      (fun r ->
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%.9f\t%.9f\t%.6f\t%.6f\n" r.id names.(r.name) r.rid
          r.parent r.tid r.sim0 r.sim1 r.host0 r.host1)
      (List.rev !rows);
    close_out oc
end

(* ---------- per-run measurement helpers ---------- *)

let peak_rss_bytes () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> kb * 1024)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let pool_reserved_mb machine =
  List.fold_left (fun acc v -> acc + v.Nvm.Machine.pv_capacity) 0 (Nvm.Machine.pool_views machine)
  |> float
  |> fun b -> b /. 1e6

let alloc_words (s : Gc.stat) = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* PACTree introspection counters, as one snapshot. *)
type tree_counts = {
  splits : int;
  retries : int;
  restarts : int;
  jumps : int array;
  allocs : int;
  alloc_bytes : int;
}

let tree_counts trees =
  List.fold_left
    (fun c t ->
      let s = Tree.stats t and a = Tree.art_stats t in
      let h1 = Pmalloc.Heap.stats (Tree.data_heap t)
      and h2 = Pmalloc.Heap.stats (Tree.search_heap t) in
      let j = Tree.jump_histogram t in
      {
        splits = c.splits + s.Tree.splits;
        retries = c.retries + s.Tree.reader_retries;
        restarts = c.restarts + a.Pactree.Art.restarts;
        jumps = Array.mapi (fun i x -> x + if i < Array.length j then j.(i) else 0) c.jumps;
        allocs = c.allocs + h1.Pmalloc.Heap.allocs + h2.Pmalloc.Heap.allocs;
        alloc_bytes = c.alloc_bytes + h1.Pmalloc.Heap.alloc_bytes + h2.Pmalloc.Heap.alloc_bytes;
      })
    { splits = 0; retries = 0; restarts = 0; jumps = Array.make 16 0; allocs = 0; alloc_bytes = 0 }
    trees

(* Sim-clock phase shares from the Obs.Span collapsed stacks.  Op time
   is the sum of the benchmark's own op-span durations; stacks rooted
   at the background updater's log_replay are reported separately, and
   a bare flush_wait under svc_batch is the redo-log fence (svc, not
   index, time). *)
let phase_shares span ~op_seconds =
  let op = Hashtbl.create 16 and replay = ref 0.0 and batch = ref 0.0 in
  List.iter
    (fun (stack, s) ->
      let parts = String.split_on_char ';' stack in
      let parts =
        match parts with
        | "svc_batch" :: rest ->
            batch := !batch +. s;
            if rest = [ "flush_wait" ] then [] else rest
        | p -> p
      in
      match parts with
      | [] | ("recovery" | "svc_queue") :: _ -> ()
      | "log_replay" :: _ -> replay := !replay +. s
      | _ ->
          let leaf = List.nth parts (List.length parts - 1) in
          Hashtbl.replace op leaf (s +. Option.value ~default:0.0 (Hashtbl.find_opt op leaf)))
    (Obs.Span.collapsed span);
  let pct p =
    let s = Option.value ~default:0.0 (Hashtbl.find_opt op p) in
    if op_seconds > 0.0 then 100.0 *. s /. op_seconds else 0.0
  in
  let covered = Hashtbl.fold (fun _ s acc -> acc +. s) op 0.0 in
  ( [
    ("pactree.trie_search_pct", pct "trie_search");
    ("pactree.dnode_scan_pct", pct "dnode_scan");
    ("pactree.dnode_insert_pct", pct "dnode_insert");
    ("pactree.smo_pct", pct "smo");
    ("pmalloc.alloc_pct", pct "alloc");
    ("nvm.flush_wait_pct", pct "flush_wait");
    ( "pactree.unattributed_pct",
      if op_seconds > 0.0 then 100.0 *. (op_seconds -. covered) /. op_seconds else 0.0 );
    ("pactree.log_replay_ms", !replay *. 1e3);
  ],
  !batch )

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-op NVM traffic of a whole-phase counter diff. *)
let nvm_fields (d : Nvm.Stats.t) ops =
  let per x = ratio (float x) (float ops) in
  let pct a b = 100.0 *. ratio (float a) (float b) in
  [
    ("nvm.flushes_per_op", per d.flushes);
    ("nvm.fences_per_op", per d.fences);
    ("nvm.flushes_elided_per_op", per d.flushes_elided);
    ("nvm.media_read_bytes_per_op", per (Nvm.Stats.total_read_bytes d));
    ("nvm.read_amp", Nvm.Stats.read_amplification d);
    ("nvm.media_write_bytes_per_op", per (Nvm.Stats.total_write_bytes d));
    ("nvm.rmw_read_bytes_per_op", per d.rmw_read_bytes);
    ("nvm.xpbuffer_hit_pct", pct d.buffer_hits (d.buffer_hits + d.media_reads));
    ("nvm.cpu_cache_hit_pct", pct d.cache_hits (d.cache_hits + d.cache_misses));
    ("nvm.remote_access_pct", pct d.remote_accesses (d.cache_hits + d.cache_misses));
  ]

let tree_fields (b : tree_counts) (a : tree_counts) ops =
  let per_kop x = ratio (float x) (float ops /. 1000.0) in
  let hops = Array.mapi (fun i x -> x - b.jumps.(i)) a.jumps in
  let n = Array.fold_left ( + ) 0 hops in
  let sum = ref 0 in
  Array.iteri (fun i x -> sum := !sum + (i * x)) hops;
  [
    ("pactree.splits_per_kop", per_kop (a.splits - b.splits));
    ("pactree.reader_retries_per_kop", per_kop (a.retries - b.retries));
    ("pactree.art_restarts_per_kop", per_kop (a.restarts - b.restarts));
    ("pactree.jump_hops_mean", ratio (float !sum) (float n));
    ("pmalloc.allocs_per_kop", per_kop (a.allocs - b.allocs));
    ("pmalloc.alloc_bytes_per_op", ratio (float (a.alloc_bytes - b.alloc_bytes)) (float ops));
  ]

(* What one process reports: [sim] fields are deterministic for a seed
   in a fresh process, [host] fields are host-clock measurements,
   [layer] fields come from the traced run only. *)
type report = {
  mutable sim : (string * float) list;
  mutable host : (string * float) list;
  mutable layer : (string * float) list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let new_report () = { sim = []; host = []; layer = []; attempted = 0; failed = 0; errors = [] }

let fail r n msg =
  r.failed <- r.failed + n;
  if List.length r.errors < 20 then r.errors <- msg :: r.errors

(* One line of JSON: Obs.Json's emitter, with its line breaks removed
   (strings are escaped, so none is inside a value). *)
let print_report ~workload ~seed r =
  let fields l = Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) l) in
  Obs.Json.Obj
    [
      ("workload", Obs.Json.String workload);
      ("seed", Obs.Json.Int seed);
      ("attempted", Obs.Json.Int r.attempted);
      ("failed", Obs.Json.Int r.failed);
      ("errors", Obs.Json.List (List.rev_map (fun e -> Obs.Json.String e) r.errors));
      ("sim", fields r.sim);
      ("host", fields r.host);
      ("layer", fields r.layer);
    ]
  |> Obs.Json.to_string
  |> String.split_on_char '\n'
  |> List.map String.trim
  |> String.concat " "
  |> print_endline

(* ---------- YCSB workloads (closed loop, 28 clients) ---------- *)

type ycsb = { kind : Keyset.kind; mix : Ycsb.mix; theta : float }

(* The value stored under every key, so lookups are checkable without
   an oracle table. *)
let value_of_key k = Hashtbl.hash k land 0x3FFF_FFFF

(* Load-A on [threads] clients with the updater running: every key of
   the keyset once, client [i] inserting key indexes [i + seed], [i +
   seed + threads], ... (mod [threads]); so the seed varies the
   interleaving and NUMA placement but not the loaded key set.  Every
   insert's latency lands in [lat].  Returns the simulated end time. *)
let load ~machine ~tree ~spec ~keys ~seed ~lat =
  let index = Baselines.Pactree_index.wrap tree in
  let sched = Sched.create () in
  let op_overhead = (Nvm.Machine.profile machine).Nvm.Config.op_overhead in
  Sched.spawn sched ~name:"service" (fun () ->
      Tree.reset_shutdown tree;
      Tree.updater_loop tree);
  let live = ref threads in
  for i = 0 to threads - 1 do
    Sched.spawn sched ~numa:(i mod numa_count) ~name:(Printf.sprintf "worker%d" i) (fun () ->
        let j = ref ((i + seed) mod threads) in
        while !j < keys do
          let k = Keyset.key spec.kind !j in
          let t0 = clock sched in
          Sched.charge op_overhead;
          Index.insert index k (value_of_key k);
          Latency.record lat (clock sched -. t0);
          j := !j + threads
        done;
        Sched.delay 0.0;
        decr live;
        if !live = 0 then Tree.request_shutdown tree)
  done;
  Sched.run sched;
  Sched.now sched

let run_ycsb ~spec ~keys ~ops ~seed ~tracing ~check_invariants =
  let r = new_report () in
  let seed64 = Int64.of_int seed in
  (* ----- set-up: machine, tree, load ----- *)
  let t_setup = Sys.time () in
  let machine = Nvm.Machine.create ~numa_count () in
  let scale = Experiments.Scale.make ~keys ~ops ~thread_counts:[] in
  let tree =
    Tree.create machine
      ~cfg:
        {
          Tree.default_config with
          key_inline = Keyset.key_inline spec.kind;
          data_capacity = scale.Experiments.Scale.data_capacity;
          search_capacity = scale.Experiments.Scale.search_capacity;
        }
      ()
  in
  let load_lat = new_latency () in
  let load_id = Trace.open_ ~name:Trace.load ~sim0:0.0 in
  let load_before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  let start = load ~machine ~tree ~spec ~keys ~seed ~lat:load_lat in
  let load_nvm = Nvm.Stats.diff (Nvm.Machine.total_stats machine) load_before in
  Trace.close load_id ~sim1:start;
  let setup_s = Sys.time () -. t_setup in
  (* ----- measured phase ----- *)
  let index = Baselines.Pactree_index.wrap tree in
  let span = Obs.Span.create ~machine () in
  if tracing then Obs.Span.install span;
  Host.on := tracing;
  let op_overhead = (Nvm.Machine.profile machine).Nvm.Config.op_overhead in
  let lookups = new_latency () and inserts = new_latency () in
  let wrong = ref 0 and op_seconds = ref 0.0 in
  let inserted = Array.make threads 0 and ends = Array.make threads start in
  let counts0 = tree_counts [ tree ] in
  let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  let phase_nvm = ref before and backlog_at_crash = ref 0 in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () and wall0 = wall () in
  let cpu1 = ref cpu0 and wall1 = ref wall0 in
  let phase_id = Trace.open_ ~name:Trace.phase ~sim0:start in
  let sched = Sched.create ~start () in
  Sched.spawn sched ~name:"service" (fun () ->
      Tree.reset_shutdown tree;
      Tree.updater_loop tree);
  let live = ref threads in
  for i = 0 to threads - 1 do
    let per_thread = (ops / threads) + if i < ops mod threads then 1 else 0 in
    Sched.spawn sched ~numa:(i mod numa_count) ~name:(Printf.sprintf "worker%d" i) (fun () ->
        let stream =
          Ycsb.create ~mix:spec.mix ~kind:spec.kind ~loaded:keys ~theta:spec.theta ~seed:seed64
            ~thread:i ~threads
        in
        for _ = 1 to per_thread do
          let rid = Trace.fresh_rid () in
          let h0 = Trace.host () in
          let g0 = clock sched in
          let op = Host.call Host.gen (fun () -> Ycsb.next stream) in
          let t0 = clock sched in
          ignore
            (Trace.add ~name:Trace.next ~rid ~parent:phase_id ~sim0:g0 ~sim1:t0 ~host0:h0
               ~host1:(Trace.host ()));
          let h1 = Trace.host () in
          Sched.charge op_overhead;
          let name =
            match op with
            | Ycsb.Lookup k ->
                let v = Host.call Host.lookup (fun () -> Index.lookup index k) in
                if v <> Some (value_of_key k) then incr wrong;
                Latency.record lookups (clock sched -. t0);
                Trace.lookup
            | Ycsb.Insert_new (k, _) ->
                Host.call Host.insert (fun () -> Index.insert index k (value_of_key k));
                inserted.(i) <- inserted.(i) + 1;
                Latency.record inserts (clock sched -. t0);
                Trace.insert
            | Ycsb.Upsert _ | Ycsb.Scan _ -> invalid_arg "unexpected op in benchmark mix"
          in
          let t1 = clock sched in
          op_seconds := !op_seconds +. (t1 -. t0);
          ignore
            (Trace.add ~name ~rid ~parent:phase_id ~sim0:t0 ~sim1:t1 ~host0:h1
               ~host1:(Trace.host ()))
        done;
        ends.(i) <- clock sched;
        decr live;
        if !live = 0 then begin
          (* end of the measured phase: the last client's completion.
             Crash before the updater drains its backlog. *)
          cpu1 := Sys.time ();
          wall1 := wall ();
          phase_nvm := Nvm.Stats.snapshot (Nvm.Machine.total_stats machine);
          backlog_at_crash := Tree.smo_backlog tree;
          Sched.abort_all sched;
          Nvm.Machine.crash machine Nvm.Machine.Strict
        end)
  done;
  Sched.run sched;
  let gc1 = Gc.quick_stat () in
  Host.on := false;
  if tracing then Obs.Span.uninstall span;
  let phase_end = Array.fold_left Float.max start ends in
  Trace.close phase_id ~sim1:phase_end;
  let counts1 = tree_counts [ tree ] in
  let nvm = Nvm.Stats.diff !phase_nvm before in
  let n_inserted = Array.fold_left ( + ) 0 inserted in
  (* ----- recovery on the simulated clock ----- *)
  let rec_start = Float.max phase_end (Sched.now sched) in
  let rec_id = Trace.open_ ~name:Trace.recover ~sim0:rec_start in
  let rsched = Sched.create ~start:rec_start () in
  let replayed = ref 0 and rec_end = ref rec_start in
  Sched.spawn rsched ~name:"recovery" (fun () ->
      replayed := Tree.recover tree;
      Sched.delay 0.0;
      rec_end := clock rsched);
  Sched.run rsched;
  Trace.close rec_id ~sim1:!rec_end;
  let peak_rss = peak_rss_bytes () in
  (* ----- correctness and durability gate ----- *)
  r.attempted <- ops;
  if !wrong > 0 then fail r !wrong (Printf.sprintf "%d lookups of loaded keys missed or wrong" !wrong);
  (* Tree.check_invariants reads the whole SMO log per data node (~12 s
     host at 200k keys), so run.py asks for it in one process per run *)
  if check_invariants then (
    match Tree.check_invariants tree with
    | _ -> ()
    | exception e -> fail r 1 ("invariants after recovery: " ^ Printexc.to_string e));
  let pairs = Tree.to_list tree in
  let card = List.length pairs in
  if card <> keys + n_inserted || Tree.cardinal tree <> card then
    fail r (abs (keys + n_inserted - card))
      (Printf.sprintf "cardinality %d after recovery, expected %d loaded + %d inserted" card keys
         n_inserted);
  let bad = List.length (List.filter (fun (k, v) -> v <> value_of_key k) pairs) in
  if bad > 0 then fail r bad (Printf.sprintf "%d keys hold a wrong value after recovery" bad);
  let rec unordered n = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        unordered (if Pactree.Key.compare a b >= 0 then n + 1 else n) rest
    | _ -> n
  in
  let unordered = unordered 0 pairs in
  if unordered > 0 then fail r unordered (Printf.sprintf "%d data-layer keys out of order" unordered);
  let lost = ref 0 in
  Array.iteri
    (fun i n ->
      for j = 0 to n - 1 do
        let k = Keyset.key spec.kind (keys + i + (j * threads)) in
        if Tree.lookup tree k <> Some (value_of_key k) then incr lost
      done)
    inserted;
  if !lost > 0 then fail r !lost (Printf.sprintf "%d acknowledged inserts lost after crash" !lost);
  (* ----- report ----- *)
  let elapsed = phase_end -. start in
  let insert_lat = if n_inserted > 0 then inserts else load_lat in
  let write_amp =
    if n_inserted > 0 then Nvm.Stats.write_amplification nvm
    else Nvm.Stats.write_amplification load_nvm
  in
  r.sim <-
    [
      ("sim_mops", float ops /. elapsed /. 1e6);
      ("write_amp", write_amp);
      ("recover_ms", (!rec_end -. rec_start) *. 1e3);
      ("elapsed_ms", elapsed *. 1e3);
      ("inserted", float n_inserted);
      ("pactree.smo_backlog_at_crash", float !backlog_at_crash);
      ("pactree.recover_replayed", float !replayed);
      ("nvm.pool_reserved_mb", pool_reserved_mb machine);
    ]
    @ latency_fields "lookup" lookups
    @ latency_fields "insert" insert_lat
    @ latency_fields "op" (merged [ lookups; inserts ])
    @ nvm_fields nvm ops
    @ tree_fields counts0 counts1 ops;
  let phase_cpu = !cpu1 -. cpu0 in
  r.host <-
    [
      ("setup_s", setup_s);
      ("host_us_per_op", phase_cpu /. float ops *. 1e6);
      ("host_bytes_per_key", float peak_rss /. float keys);
      ("host.alloc_words_per_op", (alloc_words gc1 -. alloc_words gc0) /. float ops);
      ("host.major_gcs", float (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ];
  if tracing then begin
    let shares, _ = phase_shares span ~op_seconds:!op_seconds in
    let layer_s = Host.acc.(Host.gen) +. Host.acc.(Host.lookup) +. Host.acc.(Host.insert) in
    r.layer <-
      shares
      @ [
          ("workload.gen_ns_per_op", ratio Host.acc.(Host.gen) (float Host.calls.(Host.gen)) *. 1e9);
          ( "pactree.lookup_host_us",
            ratio Host.acc.(Host.lookup) (float Host.calls.(Host.lookup)) *. 1e6 );
          ( "pactree.insert_host_us",
            ratio Host.acc.(Host.insert) (float Host.calls.(Host.insert)) *. 1e6 );
          ("des.host_us_per_op", (!wall1 -. wall0 -. layer_s) /. float ops *. 1e6);
        ]
  end;
  r

(* ---------- svc-a-open: sharded store, open-loop Poisson ---------- *)

let svc_shards = 4

(* Index adapter that times every call the shard workers make (sim
   latency on the calling thread's effective clock, host time, spans)
   and checks lookups of loaded keys against [expect]. *)
module Timed = struct
  type t = {
    inner : Index.index;
    lookups : Latency.t;
    inserts : Latency.t;
    expect : (string, int) Hashtbl.t;
    mutable recording : bool;
    mutable wrong : int;
    mutable op_seconds : float;
    mutable parent : int;
  }

  let name = "timed"

  let time t lat trace_name f =
    if not t.recording then f ()
    else
      match Sched.self () with
      | None -> f ()
      | Some sched ->
          let h0 = Trace.host () and t0 = clock sched in
          let r = f () in
          let t1 = clock sched in
          Latency.record lat (t1 -. t0);
          t.op_seconds <- t.op_seconds +. (t1 -. t0);
          ignore
            (Trace.add ~name:trace_name ~rid:(Trace.fresh_rid ()) ~parent:t.parent ~sim0:t0 ~sim1:t1 ~host0:h0
               ~host1:(Trace.host ()));
          r

  let insert t k v =
    time t t.inserts Trace.insert (fun () ->
        Host.call Host.insert (fun () -> Index.insert t.inner k v))

  let lookup t k =
    time t t.lookups Trace.lookup (fun () ->
        let v = Host.call Host.lookup (fun () -> Index.lookup t.inner k) in
        (if t.recording then
           match Hashtbl.find_opt t.expect k with
           | Some e when v <> Some e -> t.wrong <- t.wrong + 1
           | _ -> ());
        v)

  let update t = Index.update t.inner

  let delete t = Index.delete t.inner

  let scan t = Index.scan t.inner
end

let run_svc ~keys ~ops ~seed ~rate ~tracing ~check_invariants =
  let r = new_report () in
  let kind = Keyset.Int_keys in
  let seed64 = Int64.of_int seed in
  let expect = Hashtbl.create keys in
  for i = 0 to keys - 1 do
    Hashtbl.replace expect (Keyset.key kind i) i
  done;
  (* ----- set-up: machine, 4 PACTree shards, load ----- *)
  let t_setup = Sys.time () in
  let machine = Nvm.Machine.create ~numa_count () in
  let scale =
    Experiments.Scale.make ~keys:(((keys + ops) / svc_shards) + 1) ~ops ~thread_counts:[]
  in
  let trees = ref [] and timed = ref [] in
  let make_backend ~shard:_ ~numa:_ =
    let tree =
      Tree.create machine
        ~cfg:
          {
            Tree.default_config with
            data_capacity = scale.Experiments.Scale.data_capacity;
            search_capacity = scale.Experiments.Scale.search_capacity;
          }
        ()
    in
    let tm =
      {
        Timed.inner = Baselines.Pactree_index.wrap tree;
        lookups = new_latency ();
        inserts = new_latency ();
        expect;
        recording = false;
        wrong = 0;
        op_seconds = 0.0;
        parent = -1;
      }
    in
    trees := tree :: !trees;
    timed := tm :: !timed;
    {
      Store.b_index = Index.Index ((module Timed), tm);
      b_recover = (fun () -> ignore (Tree.recover tree : int));
      b_invariants = (fun () -> ignore (Tree.check_invariants tree : int));
      b_quiesce = (fun () -> Tree.drain_smo tree);
      b_service =
        Some
          {
            Workload.Runner.body =
              (fun () ->
                Tree.reset_shutdown tree;
                Tree.updater_loop tree);
            shutdown = (fun () -> Tree.request_shutdown tree);
          };
    }
  in
  let boundaries = Store.boundaries_for ~kind ~keys ~shards:svc_shards in
  let store = Store.create ~machine ~boundaries ~make_backend () in
  let load_id = Trace.open_ ~name:Trace.load ~sim0:0.0 in
  let start = Engine.load ~store ~kind ~keys () in
  Trace.close load_id ~sim1:start;
  let setup_s = Sys.time () -. t_setup in
  (* ----- the generator, replayed outside the simulation: the acked
     write set for the durability check, and its host cost ----- *)
  let config =
    {
      (Engine.default_config ~loaded:keys ~ops) with
      Engine.mode = Engine.Open_loop { rate = rate *. 1e6; process = Workload.Arrival.Poisson };
      seed = seed64;
    }
  in
  let writes = ref [] in
  let g0 = wall () in
  let stream =
    Ycsb.create ~mix:config.Engine.mix ~kind ~loaded:keys ~theta:config.Engine.theta ~seed:seed64
      ~thread:0 ~threads:1
  in
  let arrivals =
    Workload.Arrival.create ~process:Workload.Arrival.Poisson ~rate:(rate *. 1e6)
      (Des.Rng.create ~seed:(Int64.add seed64 7919L))
  in
  for _ = 1 to ops do
    ignore (Workload.Arrival.next_gap arrivals : float);
    match Ycsb.next stream with
    | Ycsb.Insert_new (k, v) | Ycsb.Upsert (k, v) -> writes := (k, v) :: !writes
    | Ycsb.Lookup _ | Ycsb.Scan _ -> ()
  done;
  let gen_s = wall () -. g0 in
  (* ----- measured phase ----- *)
  let obs = if tracing then Some (Obs.Recorder.create machine ()) else None in
  Host.on := tracing;
  let run_id = Trace.open_ ~name:Trace.engine_run ~sim0:start in
  List.iter
    (fun tm ->
      tm.Timed.recording <- true;
      tm.Timed.parent <- run_id)
    !timed;
  let counts0 = tree_counts !trees in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Sys.time () and wall0 = wall () in
  let res = Engine.run ~store ~config ~start ?obs () in
  let cpu1 = Sys.time () and wall1 = wall () in
  let gc1 = Gc.quick_stat () in
  Host.on := false;
  List.iter (fun tm -> tm.Timed.recording <- false) !timed;
  let run_end = start +. res.Engine.r_elapsed in
  Trace.close run_id ~sim1:run_end;
  let counts1 = tree_counts !trees in
  (* ----- crash and recovery on the simulated clock ----- *)
  Nvm.Machine.crash machine Nvm.Machine.Strict;
  let rec_id = Trace.open_ ~name:Trace.recover ~sim0:run_end in
  let rsched = Sched.create ~start:run_end () in
  let rec_end = ref run_end in
  Sched.spawn rsched ~name:"recovery" (fun () ->
      Store.recover store;
      Sched.delay 0.0;
      rec_end := clock rsched);
  Sched.run rsched;
  Trace.close rec_id ~sim1:!rec_end;
  let peak_rss = peak_rss_bytes () in
  (* ----- correctness and durability gate ----- *)
  r.attempted <- res.Engine.r_generated;
  let wrong = List.fold_left (fun acc tm -> acc + tm.Timed.wrong) 0 !timed in
  if wrong > 0 then fail r wrong (Printf.sprintf "%d lookups of loaded keys missed or wrong" wrong);
  if res.Engine.r_completed + res.Engine.r_rejected <> res.Engine.r_generated
     || res.Engine.r_generated <> ops
  then
    fail r 1
      (Printf.sprintf "completed %d + rejected %d <> generated %d (of %d)" res.Engine.r_completed
         res.Engine.r_rejected res.Engine.r_generated ops);
  if check_invariants then (
    match Store.invariants store with
    | () -> ()
    | exception e -> fail r 1 ("invariants after recovery: " ^ Printexc.to_string e));
  (* fresh keys are unique, so the ones present are exactly the acked
     writes: their number must match the engine's batched writes *)
  let found = ref 0 and bad = ref 0 in
  List.iter
    (fun (k, v) ->
      match Store.lookup store k with
      | Some v' when v' = v -> incr found
      | Some _ -> incr bad
      | None -> ())
    !writes;
  if !bad > 0 then fail r !bad (Printf.sprintf "%d written keys hold a wrong value" !bad);
  if !found <> res.Engine.r_batched_writes then
    fail r
      (abs (res.Engine.r_batched_writes - !found))
      (Printf.sprintf "%d of %d acknowledged writes readable after crash" !found
         res.Engine.r_batched_writes);
  let lost = ref 0 in
  Hashtbl.iter (fun k v -> if Store.lookup store k <> Some v then incr lost) expect;
  if !lost > 0 then fail r !lost (Printf.sprintf "%d loaded keys lost after crash" !lost);
  (* ----- report ----- *)
  let p99 l = Latency.percentile l 99.0 *. 1e6 in
  let completed = res.Engine.r_completed in
  r.sim <-
    [
      ("achieved_mops", res.Engine.r_throughput /. 1e6);
      ("rejected", float res.Engine.r_rejected);
      ("svc.queue_p99_us", p99 res.Engine.r_queue_lat);
      ("svc.service_p99_us", p99 res.Engine.r_service_lat);
      ( "svc.writes_per_batch",
        ratio (float res.Engine.r_batched_writes) (float res.Engine.r_batches) );
      ("svc.fences_per_op", ratio (float res.Engine.r_nvm.Nvm.Stats.fences) (float completed));
      ("svc.imbalance", Engine.imbalance res);
      ("write_amp", Nvm.Stats.write_amplification res.Engine.r_nvm);
      ("recover_ms", (!rec_end -. run_end) *. 1e3);
      ("elapsed_ms", res.Engine.r_elapsed *. 1e3);
      ("nvm.pool_reserved_mb", pool_reserved_mb machine);
    ]
    @ latency_fields "total" res.Engine.r_total_lat
    @ latency_fields "lookup" (merged (List.map (fun tm -> tm.Timed.lookups) !timed))
    @ latency_fields "insert" (merged (List.map (fun tm -> tm.Timed.inserts) !timed))
    @ nvm_fields res.Engine.r_nvm completed
    @ tree_fields counts0 counts1 completed;
  r.host <-
    [
      ("setup_s", setup_s);
      ("host_us_per_op", (cpu1 -. cpu0) /. float ops *. 1e6);
      ("host_bytes_per_key", float peak_rss /. float keys);
      ("host.alloc_words_per_op", (alloc_words gc1 -. alloc_words gc0) /. float ops);
      ("host.major_gcs", float (gc1.Gc.major_collections - gc0.Gc.major_collections));
      ("workload.gen_ns_per_op", gen_s /. float ops *. 1e9);
    ];
  (match obs with
  | Some o ->
      let op_seconds = List.fold_left (fun acc tm -> acc +. tm.Timed.op_seconds) 0.0 !timed in
      let shares, batch = phase_shares o.Obs.Recorder.span ~op_seconds in
      let workers = float (svc_shards * config.Engine.workers_per_shard) in
      let layer_s = Host.acc.(Host.lookup) +. Host.acc.(Host.insert) in
      r.layer <-
        shares
        @ [
            ("svc.batch_pct", 100.0 *. ratio batch (workers *. res.Engine.r_elapsed));
            ( "pactree.lookup_host_us",
              ratio Host.acc.(Host.lookup) (float Host.calls.(Host.lookup)) *. 1e6 );
            ( "pactree.insert_host_us",
              ratio Host.acc.(Host.insert) (float Host.calls.(Host.insert)) *. 1e6 );
            ("des.host_us_per_op", (wall1 -. wall0 -. layer_s) /. float ops *. 1e6);
          ]
  | None -> ());
  r

(* ---------- command line ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and ops = ref 0 and rate = ref 0.0 in
  let trace = ref "" and repeat = ref 1 and invariants = ref false in
  let spec =
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--ops", Arg.Set_int ops, "N measured operations (svc: requests per rate)");
      ("--rate", Arg.Set_float rate, "MOPS offered rate (svc-a-open)");
      ("--trace", Arg.Set_string trace, "FILE traced run: per-layer metrics, spans to FILE");
      ("--repeat", Arg.Set_int repeat, "N repeat the run in this process (drift probe)");
      ("--check-invariants", Arg.Set invariants, " also run the index invariant walk");
    ]
  in
  let usage = "perfbench.exe ycsb-a|ycsb-c-str|svc-a-open --seed N --ops N [options]" in
  Arg.parse spec (fun w -> workload := w) usage;
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  if !ops <= 0 then die "--ops must be positive";
  if !repeat < 1 then die "--repeat must be at least 1";
  let tracing = !trace <> "" in
  Trace.on := tracing;
  let run () =
    match !workload with
    | "ycsb-a" ->
        run_ycsb
          ~spec:{ kind = Keyset.Int_keys; mix = Ycsb.Workload_a; theta = 0.99 }
          ~keys:200_000
          ~ops:!ops ~seed:!seed ~tracing ~check_invariants:!invariants
    | "ycsb-c-str" ->
        run_ycsb
          ~spec:{ kind = Keyset.String_keys; mix = Ycsb.Workload_c; theta = 0.0 }
          ~keys:200_000
          ~ops:!ops ~seed:!seed ~tracing ~check_invariants:!invariants
    | "svc-a-open" ->
        if !rate <= 0.0 then die "svc-a-open needs --rate MOPS";
        run_svc
          ~keys:40_000
          ~ops:!ops ~seed:!seed ~rate:!rate ~tracing ~check_invariants:!invariants
    | w -> die (Printf.sprintf "unknown workload %S" w)
  in
  let failed = ref 0 in
  for _ = 1 to !repeat do
    let r = run () in
    print_report ~workload:!workload ~seed:!seed r;
    failed := !failed + r.failed
  done;
  if tracing then Trace.write !trace;
  if !failed > 0 then exit 1
