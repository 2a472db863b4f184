(* Tests for the sharded KV service layer (lib/svc): routing and
   cross-shard scans against a single-map oracle, group-commit
   durability (fence accounting, ring wrap, crash + replay),
   determinism of both the closed-loop runner and the open-loop
   engine, saturation-sweep shape, and crashmc sweeps driven through
   the store — including batched commits where a crash mid-batch may
   lose only the unacked tail. *)

module Key = Pactree.Key
module Store = Svc.Store
module Engine = Svc.Engine
module Kmap = Map.Make (struct
  type t = Key.t

  let compare = Key.compare
end)

module System = Baselines.System

(* [span]-keyspace store with equi-spaced boundaries. *)
let make_store ?(numa = 2) ?(shards = 3) ?(span = 1000) ?(log_entries = 64)
    ?(capacity = 1 lsl 18) () =
  let machine = Nvm.Machine.create ~numa_count:numa () in
  let boundaries =
    Array.init (shards - 1) (fun i -> Key.of_int ((i + 1) * span / shards))
  in
  Store.create ~machine ~boundaries
    ~make_backend:(fun ~shard:_ ~numa:_ ->
      System.make machine ~data_capacity:capacity ~search_capacity:capacity System.Fastfair)
    ~log_entries ()

(* ---------- routing + direct ops vs a map oracle ---------- *)

let test_store_ops_vs_oracle () =
  let store = make_store () in
  let rng = Des.Rng.create ~seed:11L in
  let model = ref Kmap.empty in
  for _ = 1 to 800 do
    let k = Key.of_int (Des.Rng.int rng 1000) in
    match Des.Rng.int rng 4 with
    | 0 ->
        let v = Des.Rng.int rng 1_000_000 in
        Store.insert store k v;
        model := Kmap.add k v !model
    | 1 ->
        let v = Des.Rng.int rng 1_000_000 in
        let updated = Store.update store k v in
        Alcotest.(check bool) "update hit agrees" (Kmap.mem k !model) updated;
        if updated then model := Kmap.add k v !model
    | 2 ->
        let deleted = Store.delete store k in
        Alcotest.(check bool) "delete hit agrees" (Kmap.mem k !model) deleted;
        model := Kmap.remove k !model
    | _ ->
        Alcotest.(check (option int))
          "lookup agrees" (Kmap.find_opt k !model) (Store.lookup store k)
  done;
  Kmap.iter
    (fun k v ->
      Alcotest.(check (option int))
        "surviving binding" (Some v) (Store.lookup store k))
    !model;
  (* routing actually spread the keys: every shard owns part of the map *)
  let per_shard = Array.make (Store.shard_count store) 0 in
  Kmap.iter
    (fun k _ ->
      let s = Store.shard_of_key store k in
      per_shard.(s) <- per_shard.(s) + 1)
    !model;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) (Printf.sprintf "shard %d non-empty" i) true (c > 0))
    per_shard

let test_cross_shard_scan () =
  let store = make_store () in
  let rng = Des.Rng.create ~seed:12L in
  let model = ref Kmap.empty in
  for _ = 1 to 700 do
    let k = Key.of_int (Des.Rng.int rng 1000) in
    let v = Des.Rng.int rng 1_000_000 in
    Store.insert store k v;
    model := Kmap.add k v !model
  done;
  let oracle_scan k n =
    Kmap.to_seq !model
    |> Seq.filter (fun (k', _) -> Key.compare k' k >= 0)
    |> Seq.take n |> List.of_seq
  in
  let kv = Alcotest.(pair string int) in
  (* starts in every shard; counts that straddle one and both
     boundaries (333 and 666), and one spanning the whole store *)
  List.iter
    (fun (start, n) ->
      let k = Key.of_int start in
      Alcotest.(check (list kv))
        (Printf.sprintf "scan(%d, %d)" start n)
        (oracle_scan k n) (Store.scan store k n))
    [
      (0, 10); (0, 1000); (300, 60); (300, 500); (650, 40); (900, 200); (999, 5);
      (500, 0);
    ]

(* ---------- group commit: durability, fences, ring wrap ---------- *)

let commit_all store writes ~batch =
  (* route writes like the engine does: group per shard, preserve order *)
  let per = Array.make (Store.shard_count store) [] in
  List.iter
    (fun w ->
      let k = match w with Store.Put (k, _) -> k | Store.Del k -> k in
      let s = Store.shard_of_key store k in
      per.(s) <- w :: per.(s))
    writes;
  Array.iteri
    (fun s ws ->
      let rec go = function
        | [] -> ()
        | ws ->
            let n = min batch (List.length ws) in
            let head = List.filteri (fun i _ -> i < n) ws in
            let tail = List.filteri (fun i _ -> i >= n) ws in
            Store.commit_batch store ~shard:s head;
            go tail
      in
      go (List.rev ws))
    per

let test_group_commit_crash_recovery () =
  let store = make_store ~numa:1 ~log_entries:16 () in
  let writes =
    List.init 200 (fun i ->
        if i mod 7 = 3 then Store.Del (Key.of_int (i - 1))
        else Store.Put (Key.of_int i, i * 10))
  in
  let acked = ref 0 in
  (* small ring (16) with 200 writes: exercises the ring-reuse
     checkpoint guard many times over *)
  List.iter
    (fun w ->
      let shard =
        Store.shard_of_key store (match w with Store.Put (k, _) | Store.Del k -> k)
      in
      Store.commit_batch store ~shard ~on_durable:(fun () -> incr acked) [ w ])
    (List.filteri (fun i _ -> i < 100) writes);
  commit_all store (List.filteri (fun i _ -> i >= 100) writes) ~batch:4;
  Alcotest.(check int) "every single-write batch acked" 100 !acked;
  Alcotest.(check bool) "ring wrap forced checkpoints" true
    (Store.checkpoint_fences store > 0);
  (* model of the final state *)
  let model =
    List.fold_left
      (fun m -> function
        | Store.Put (k, v) -> Kmap.add k v m
        | Store.Del k -> Kmap.remove k m)
      Kmap.empty writes
  in
  Nvm.Machine.crash (Store.machine store) Nvm.Machine.Strict;
  Store.recover store;
  Store.invariants store;
  Kmap.iter
    (fun k v ->
      Alcotest.(check (option int))
        (Printf.sprintf "key %d after crash" (Key.to_int k))
        (Some v) (Store.lookup store k))
    model;
  List.iter
    (function
      | Store.Del k when not (Kmap.mem k model) ->
          Alcotest.(check (option int))
            (Printf.sprintf "deleted key %d stays gone" (Key.to_int k))
            None (Store.lookup store k)
      | _ -> ())
    writes

let test_group_commit_fewer_fences () =
  let fences_with ~batch =
    let store = make_store ~numa:1 () in
    let writes = List.init 128 (fun i -> Store.Put (Key.of_int i, i)) in
    let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats (Store.machine store)) in
    commit_all store writes ~batch;
    (Nvm.Stats.diff (Nvm.Machine.total_stats (Store.machine store)) before)
      .Nvm.Stats.fences
  in
  let f1 = fences_with ~batch:1 and f8 = fences_with ~batch:8 in
  Alcotest.(check bool)
    (Printf.sprintf "batch=8 fences (%d) < batch=1 fences (%d)" f8 f1)
    true (f8 < f1);
  (* the log's own fences drop by the batching factor: at batch=1 each
     write pays a log fence, at batch=8 every eighth does.  Index-
     internal fences are identical across the two runs, so the total
     must shrink by at least 128 - 128/8 - (checkpoint slack). *)
  Alcotest.(check bool)
    (Printf.sprintf "saves at least 100 fences (saved %d)" (f1 - f8))
    true (f1 - f8 >= 100)

(* ---------- determinism ---------- *)

let check_latency_eq what l1 l2 =
  Alcotest.(check int) (what ^ ": sample count") (Workload.Latency.count l1)
    (Workload.Latency.count l2);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s: p%g" what q)
        (Workload.Latency.percentile l1 q)
        (Workload.Latency.percentile l2 q))
    [ 50.0; 99.0; 99.99 ]

let runner_once ?(keys = 2_000) ?(ops = 1_500) ?(threads = 4) sys =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale = Experiments.Scale.make ~keys ~ops ~thread_counts:[] in
  let s =
    System.make machine ~data_capacity:scale.Experiments.Scale.data_capacity
      ~search_capacity:scale.Experiments.Scale.search_capacity sys
  in
  Workload.Runner.run ~machine ~index:s.System.b_index ?service:s.System.b_service
    ~mix:Workload.Ycsb.Workload_a
    ~kind:Workload.Keyset.Int_keys ~loaded:keys ~ops ~threads ()

let test_runner_deterministic sys () =
  let r1 = runner_once sys and r2 = runner_once sys in
  Alcotest.(check (float 0.0)) "throughput" r1.Workload.Runner.throughput
    r2.Workload.Runner.throughput;
  Alcotest.(check (float 0.0)) "elapsed" r1.Workload.Runner.elapsed
    r2.Workload.Runner.elapsed;
  check_latency_eq "latency" r1.Workload.Runner.latency r2.Workload.Runner.latency;
  Alcotest.(check bool) "identical NVM traffic" true
    (Nvm.Stats.is_zero (Nvm.Stats.diff r1.Workload.Runner.nvm r2.Workload.Runner.nvm))

(* Every run builds a fresh machine, but pool ids are process-global:
   the second run's pools get different ids than the first's.  The
   simulated cost model must not see them (it names lines by the
   pool's index within its machine), or results drift with process
   history.  28 clients make fences group several XPLines, where the
   old id-based names changed the device's write order. *)
let test_runner_fresh_machine () =
  let once () =
    let r = runner_once ~keys:5_000 ~ops:3_000 ~threads:28 System.Pactree in
    (r.Workload.Runner.elapsed, r.Workload.Runner.nvm)
  in
  let e1, s1 = once () in
  let e2, s2 = once () in
  Alcotest.(check (float 0.0)) "simulated end time" e1 e2;
  Alcotest.(check bool) "identical NVM stats" true (Nvm.Stats.is_zero (Nvm.Stats.diff s1 s2))

let svc_cfg sys =
  let d = Experiments.Svc_run.default ~quick:true sys in
  { d with Experiments.Svc_run.shards = 2; keys = 2_000; ops = 1_200 }

let test_engine_deterministic sys () =
  let once () = Experiments.Svc_run.run_point (svc_cfg sys) ~rate:1e6 in
  let r1 = once () and r2 = once () in
  Alcotest.(check int) "generated" r1.Engine.r_generated r2.Engine.r_generated;
  Alcotest.(check int) "completed" r1.Engine.r_completed r2.Engine.r_completed;
  Alcotest.(check int) "rejected" r1.Engine.r_rejected r2.Engine.r_rejected;
  Alcotest.(check (float 0.0)) "elapsed" r1.Engine.r_elapsed r2.Engine.r_elapsed;
  Alcotest.(check (float 0.0)) "throughput" r1.Engine.r_throughput
    r2.Engine.r_throughput;
  Alcotest.(check (array int)) "per-shard completions" r1.Engine.r_shard_completed
    r2.Engine.r_shard_completed;
  Alcotest.(check int) "batches" r1.Engine.r_batches r2.Engine.r_batches;
  Alcotest.(check int) "batched writes" r1.Engine.r_batched_writes
    r2.Engine.r_batched_writes;
  check_latency_eq "queue" r1.Engine.r_queue_lat r2.Engine.r_queue_lat;
  check_latency_eq "service" r1.Engine.r_service_lat r2.Engine.r_service_lat;
  check_latency_eq "total" r1.Engine.r_total_lat r2.Engine.r_total_lat;
  Alcotest.(check bool) "identical NVM traffic" true
    (Nvm.Stats.is_zero (Nvm.Stats.diff r1.Engine.r_nvm r2.Engine.r_nvm))

(* ---------- saturation sweep shape ---------- *)

let test_sweep_shape () =
  let cfg = svc_cfg System.Fastfair in
  let points = Experiments.Svc_run.sweep cfg in
  (match Experiments.Svc_run.check_sweep points with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "sweep shape: %s" msg);
  match Obs.Svc_report.validate (Experiments.Svc_run.report cfg points) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "report schema: %s" msg

(* ---------- crashmc over the sharded store ---------- *)

let crashmc_store () =
  (* tiny pools: every materialised crash state blits every pool *)
  make_store ~numa:1 ~shards:2 ~span:1000 ~log_entries:16 ~capacity:(1 lsl 18) ()

let crashmc_sut store =
  {
    Crashmc.Sut.name = "svc-store[fastfair x2]";
    machine = Store.machine store;
    system =
      {
        System.b_index = Store.as_index store;
        b_recover = (fun () -> Store.recover store);
        b_invariants = (fun () -> Store.invariants store);
        b_quiesce = (fun () -> Store.quiesce store);
        b_service = None;
      };
  }

let seed () = Int64.to_int (Des.Rng.env_seed ~default:1L)

let run_crashmc ?batch ?apply store =
  let sut = crashmc_sut store in
  let r =
    Crashmc.Harness.run ~budget_per_point:16 ~max_states:2_500 ~seed:(seed ()) ?batch
      ?apply ~sut
      ~ops:(Crashmc.Harness.mixed_workload ~seed:(seed ()) 24)
      ()
  in
  if not (Crashmc.Harness.ok r) then
    Alcotest.failf "%a@.seed %d (override with PACTREE_SEED)" Crashmc.Harness.pp_report
      r (seed ())

let test_crashmc_direct () = run_crashmc (crashmc_store ())

(* Route a chunk of oracle ops through [commit_batch], grouped per
   shard in program order — the engine's batching, minus the DES. *)
let commit_ops_batched store chunk =
  let per = Array.make (Store.shard_count store) [] in
  List.iter
    (fun op ->
      let s = Store.shard_of_key store (Crashmc.Oracle.op_key op) in
      per.(s) <- op :: per.(s))
    chunk;
  Array.iteri
    (fun s ops ->
      match List.rev ops with
      | [] -> ()
      | ops ->
          Store.commit_batch store ~shard:s
            (List.map
               (function
                 | Crashmc.Oracle.Insert (k, v) -> Store.Put (k, v)
                 | Crashmc.Oracle.Delete k -> Store.Del k)
               ops))
    per

let test_crashmc_batched () =
  let store = crashmc_store () in
  run_crashmc ~batch:4 ~apply:(commit_ops_batched store) store

(* Double crash: log-entry lines of an interrupted batch persist
   independently (clwb, one fence per batch), so a crash image can
   hold entry seq N+k without N — past the replay truncation point.
   Recovery must scrub such ghosts: their seq is exactly one a future
   committed write will use, and an unscrubbed ghost would be replayed
   after a second crash, resurrecting an unacknowledged op over
   acknowledged state.

   The trace covers only the final batch, so the crash point before
   its log fence has exactly the four entry lines pending and a large
   budget sweeps their survivor combinations exhaustively — including
   every hole-then-survivor (ghost) pattern.  For each image: recover,
   snapshot, commit [j] fresh acknowledged writes, crash again,
   recover, and require the state to be exactly snapshot + the fresh
   writes.  [j] runs over 1..3 because a ghost at distance [d] past
   the replay tail is only reached by replay when exactly [d - 1]
   committed seqs precede it (fewer: replay stops at the hole; more:
   the ghost slot is overwritten). *)
let test_double_crash_no_ghost () =
  let store = make_store ~numa:1 ~shards:2 ~span:1000 ~log_entries:32 () in
  let machine = Store.machine store in
  let prior =
    List.init 24 (fun i -> Store.Put (Key.of_int (i * 41 mod 1000), i))
  in
  List.iter
    (fun w ->
      let k = match w with Store.Put (k, _) -> k | Store.Del k -> k in
      Store.commit_batch store ~shard:(Store.shard_of_key store k) [ w ])
    prior;
  (* final batch: 4 writes, all owned by shard 1 *)
  let batch_keys = List.map Key.of_int [ 600; 610; 620; 630 ] in
  let trace = Crashmc.Trace.start machine in
  Store.commit_batch store ~shard:1
    (List.mapi (fun i k -> Store.Put (k, 9000 + i)) batch_keys);
  Crashmc.Trace.stop trace;
  let history_keys =
    List.sort_uniq Key.compare
      (batch_keys
      @ List.map (function Store.Put (k, _) -> k | Store.Del k -> k) prior)
  in
  let fresh_keys = List.map Key.of_int [ 601; 611; 621 ] in
  let checked = ref 0 in
  ignore
    (Crashmc.Enum.iter ~budget_per_point:4096
       ~seed:(Int64.of_int (seed ()))
       ~trace
       ~f:(fun st ->
         incr checked;
         for j = 1 to 3 do
           st.Crashmc.Enum.restore ();
           Store.recover store;
           let snap = List.map (fun k -> (k, Store.lookup store k)) history_keys in
           List.iteri
             (fun i k ->
               if i < j then
                 Store.commit_batch store ~shard:1
                   [ Store.Put (k, 1_000_000 + (j * 10) + i) ])
             fresh_keys;
           Nvm.Machine.crash machine Nvm.Machine.Strict;
           Store.recover store;
           Store.invariants store;
           List.iteri
             (fun i k ->
               if i < j then
                 Alcotest.(check (option int))
                   (Printf.sprintf
                      "[at=%d %s j=%d] acked post-recovery write %d survives"
                      st.Crashmc.Enum.at st.Crashmc.Enum.label j (Key.to_int k))
                   (Some (1_000_000 + (j * 10) + i))
                   (Store.lookup store k))
             fresh_keys;
           List.iter
             (fun (k, v) ->
               Alcotest.(check (option int))
                 (Printf.sprintf "[at=%d %s j=%d] key %d unchanged by second crash"
                    st.Crashmc.Enum.at st.Crashmc.Enum.label j (Key.to_int k))
                 v (Store.lookup store k))
             snap
         done;
         if !checked >= 1600 then raise Crashmc.Enum.Stop)
       ()
      : Crashmc.Enum.stats);
  Alcotest.(check bool) "swept enough crash states" true (!checked >= 200)

let suite =
  [
    Alcotest.test_case "store: routed ops vs map oracle" `Quick
      test_store_ops_vs_oracle;
    Alcotest.test_case "store: cross-shard ordered scan" `Quick test_cross_shard_scan;
    Alcotest.test_case "store: group commit survives crash (ring wrap)" `Quick
      test_group_commit_crash_recovery;
    Alcotest.test_case "store: group commit reduces fences" `Quick
      test_group_commit_fewer_fences;
    Alcotest.test_case "runner: deterministic (pactree)" `Quick
      (test_runner_deterministic System.Pactree);
    Alcotest.test_case "runner: deterministic (fastfair)" `Quick
      (test_runner_deterministic System.Fastfair);
    Alcotest.test_case "runner: same result on a fresh machine" `Quick
      test_runner_fresh_machine;
    Alcotest.test_case "engine: deterministic (pactree)" `Quick
      (test_engine_deterministic System.Pactree);
    Alcotest.test_case "engine: deterministic (fastfair)" `Quick
      (test_engine_deterministic System.Fastfair);
    Alcotest.test_case "engine: saturation sweep shape" `Quick test_sweep_shape;
    Alcotest.test_case "crashmc: sharded store, direct ops" `Quick test_crashmc_direct;
    Alcotest.test_case "crashmc: sharded store, batched commits" `Quick
      test_crashmc_batched;
    Alcotest.test_case "crashmc: double crash replays no ghost entries" `Quick
      test_double_crash_no_ghost;
  ]
