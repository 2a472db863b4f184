module Ycsb = Workload.Ycsb
module Latency = Workload.Latency
module Arrival = Workload.Arrival
module Waitq = Des.Sched.Waitq

type admission = Reject | Block

let admission_name = function Reject -> "reject" | Block -> "block"

let admission_of_string = function
  | "reject" -> Ok Reject
  | "block" -> Ok Block
  | s -> Error (Printf.sprintf "unknown admission policy %S (reject|block)" s)

type mode =
  | Open_loop of { rate : float; process : Arrival.process }

type config = {
  mode : mode;
  ops : int;
  workers_per_shard : int;
  queue_capacity : int;
  admission : admission;
  max_batch : int;
  max_batch_delay : float;
  mix : Ycsb.mix;
  kind : Workload.Keyset.kind;
  loaded : int;
  theta : float;
  seed : int64;
}

let default_config ~loaded ~ops =
  {
    mode = Open_loop { rate = 2e6; process = Arrival.Poisson };
    ops;
    workers_per_shard = 2;
    queue_capacity = 64;
    admission = Reject;
    max_batch = 8;
    max_batch_delay = 2e-6;
    mix = Ycsb.Workload_a;
    kind = Workload.Keyset.Int_keys;
    loaded;
    theta = 0.99;
    seed = 42L;
  }

type result = {
  r_mode : mode;
  r_shards : int;
  r_generated : int;
  r_completed : int;
  r_rejected : int;
  r_elapsed : float;
  r_offered : float;
  r_throughput : float;
  r_queue_lat : Latency.t;
  r_service_lat : Latency.t;
  r_total_lat : Latency.t;
  r_shard_completed : int array;
  r_batches : int;
  r_batched_writes : int;
  r_nvm : Nvm.Stats.t;
}

let imbalance r =
  let n = Array.length r.r_shard_completed in
  if n = 0 then 1.0
  else begin
    let total = Array.fold_left ( + ) 0 r.r_shard_completed in
    let mx = Array.fold_left max 0 r.r_shard_completed in
    if total = 0 then 1.0 else float_of_int (mx * n) /. float_of_int total
  end

type req = {
  q_op : Ycsb.op;
  q_arrival : float;
  mutable q_deq : float;
}

type squeue = {
  items : req Queue.t;
  mutable closed : bool;
  nonempty : Waitq.t;
  nonfull : Waitq.t;
}

let key_of_op = function
  | Ycsb.Lookup k | Ycsb.Upsert (k, _) | Ycsb.Insert_new (k, _) | Ycsb.Scan (k, _) -> k

let write_of_op = function
  | Ycsb.Upsert (k, v) | Ycsb.Insert_new (k, v) -> Some (Store.Put (k, v))
  | Ycsb.Lookup _ | Ycsb.Scan _ -> None

(* ---------- bulk load ---------- *)

let load ~store ~kind ~keys () =
  let sched = Des.Sched.create () in
  let nshards = Store.shard_count store in
  (* route the whole keyset up front so each loader stays shard-local *)
  let per_shard = Array.make nshards [] in
  for i = keys - 1 downto 0 do
    let s = Store.shard_of_key store (Workload.Keyset.key kind i) in
    per_shard.(s) <- i :: per_shard.(s)
  done;
  let services = Store.services store in
  List.iter
    (fun (shard, svc) ->
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "svc%d" shard)
        (fun () -> svc.Workload.Runner.body ()))
    services;
  let live = ref nshards in
  let profile = Nvm.Machine.profile (Store.machine store) in
  for shard = 0 to nshards - 1 do
    Des.Sched.spawn sched
      ~numa:(Store.shard_numa store shard)
      ~name:(Printf.sprintf "loader%d" shard)
      (fun () ->
        List.iter
          (fun i ->
            Des.Sched.charge profile.Nvm.Config.op_overhead;
            Store.insert store (Workload.Keyset.key kind i) i)
          per_shard.(shard);
        Des.Sched.delay 0.0;
        decr live;
        if !live = 0 then
          List.iter (fun (_, svc) -> svc.Workload.Runner.shutdown ()) services)
  done;
  Des.Sched.run sched;
  Des.Sched.now sched

(* ---------- the engine ---------- *)

let run ~store ~config:cfg ?(start = 0.0) ?obs () =
  let machine = Store.machine store in
  let nshards = Store.shard_count store in
  let sched = Des.Sched.create ~start () in
  let profile = Nvm.Machine.profile machine in
  let queues =
    Array.init nshards (fun _ ->
        {
          items = Queue.create ();
          closed = false;
          nonempty = Waitq.create ();
          nonfull = Waitq.create ();
        })
  in
  let generated = ref 0 and rejected = ref 0 and completed = ref 0 in
  let shard_completed = Array.make nshards 0 in
  let batches = ref 0 and batched_writes = ref 0 in
  let mk_lat seed = Latency.create ~sample_rate:1.0 (Des.Rng.create ~seed) in
  let queue_lat = mk_lat 101L
  and service_lat = mk_lat 102L
  and total_lat = mk_lat 103L in
  (* effective clock of the calling simulated thread (incl. charges) *)
  let clock () = Des.Sched.now sched +. Des.Sched.pending_charge () in
  let live_workers = ref (nshards * cfg.workers_per_shard) in
  let services = Store.services store in
  (match obs with
  | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.spawn s sched
  | _ -> ());
  List.iter
    (fun (shard, svc) ->
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "svc%d" shard)
        (fun () -> svc.Workload.Runner.body ()))
    services;
  let finish ~shard ~t r =
    incr completed;
    shard_completed.(shard) <- shard_completed.(shard) + 1;
    Latency.record queue_lat (r.q_deq -. r.q_arrival);
    Latency.record service_lat (t -. r.q_deq);
    Latency.record total_lat (t -. r.q_arrival)
  in
  let on_all_workers_done () =
    (match obs with
    | Some { Obs.Recorder.sampler = Some s; _ } -> Obs.Sampler.stop s
    | _ -> ());
    List.iter (fun (_, svc) -> svc.Workload.Runner.shutdown ()) services
  in
  (* ----- shard workers ----- *)
  for shard = 0 to nshards - 1 do
    let q = queues.(shard) in
    for w = 0 to cfg.workers_per_shard - 1 do
      Des.Sched.spawn sched
        ~numa:(Store.shard_numa store shard)
        ~name:(Printf.sprintf "worker%d.%d" shard w)
        (fun () ->
          let drain limit =
            let rec go acc k =
              if k = 0 || Queue.is_empty q.items then List.rev acc
              else begin
                let r = Queue.pop q.items in
                r.q_deq <- clock ();
                go (r :: acc) (k - 1)
              end
            in
            let l = go [] limit in
            if l <> [] then Waitq.signal_all sched q.nonfull;
            l
          in
          let rec await () =
            if not (Queue.is_empty q.items) then true
            else if q.closed then false
            else begin
              Obs.Span.with_phase Obs.Span.Svc_queue (fun () ->
                  Waitq.wait q.nonempty);
              await ()
            end
          in
          let rec loop () =
            if await () then begin
              let batch = drain cfg.max_batch in
              let batch =
                (* under-full batch: wait (bounded) for stragglers *)
                let n = List.length batch in
                if n < cfg.max_batch && cfg.max_batch_delay > 0.0 && not q.closed
                then begin
                  Des.Sched.delay cfg.max_batch_delay;
                  batch @ drain (cfg.max_batch - n)
                end
                else batch
              in
              let writes, reads =
                List.partition (fun r -> write_of_op r.q_op <> None) batch
              in
              (match writes with
              | [] -> ()
              | _ ->
                  incr batches;
                  batched_writes := !batched_writes + List.length writes;
                  Des.Sched.charge
                    (float_of_int (List.length writes)
                    *. profile.Nvm.Config.op_overhead);
                  Obs.Span.with_phase Obs.Span.Svc_batch (fun () ->
                      Store.commit_batch store ~shard
                        ~on_durable:(fun () ->
                          (* ack point: durable since the batch's one
                             log fence and already applied to the
                             index, so acked writes are visible to
                             reads on any worker (read-your-writes) *)
                          Des.Sched.delay 0.0;
                          let t = Des.Sched.now sched in
                          List.iter (finish ~shard ~t) writes)
                        (List.filter_map (fun r -> write_of_op r.q_op) writes)));
              List.iter
                (fun r ->
                  Des.Sched.charge profile.Nvm.Config.op_overhead;
                  (match r.q_op with
                  | Ycsb.Lookup k -> ignore (Store.lookup store k : int option)
                  | Ycsb.Scan (k, n) ->
                      ignore (Store.scan store k n : (Pactree.Key.t * int) list)
                  | Ycsb.Upsert _ | Ycsb.Insert_new _ -> assert false);
                  Des.Sched.delay 0.0;
                  finish ~shard ~t:(Des.Sched.now sched) r)
                reads;
              loop ()
            end
          in
          loop ();
          decr live_workers;
          if !live_workers = 0 then on_all_workers_done ())
    done
  done;
  (* ----- load sources ----- *)
  let close_queues () =
    Array.iter
      (fun q ->
        q.closed <- true;
        Waitq.signal_all sched q.nonempty)
      queues
  in
  let submit op =
    let shard = Store.shard_of_key store (key_of_op op) in
    let q = queues.(shard) in
    let enqueue r =
      Queue.push r q.items;
      Waitq.signal_one sched q.nonempty
    in
    incr generated;
    let r = { q_op = op; q_arrival = clock (); q_deq = 0.0 } in
    if Queue.length q.items < cfg.queue_capacity then enqueue r
    else
      match cfg.admission with
      | Reject -> incr rejected
      | Block ->
          while Queue.length q.items >= cfg.queue_capacity do
            Waitq.wait q.nonfull
          done;
          enqueue r
  in
  let (Open_loop { rate; process }) = cfg.mode in
  Des.Sched.spawn sched ~numa:0 ~name:"source" (fun () ->
      let arr =
        Arrival.create ~process ~rate (Des.Rng.create ~seed:(Int64.add cfg.seed 7919L))
      in
      let stream =
        Ycsb.create ~mix:cfg.mix ~kind:cfg.kind ~loaded:cfg.loaded ~theta:cfg.theta
          ~seed:cfg.seed ~thread:0 ~threads:1
      in
      for _ = 1 to cfg.ops do
        Des.Sched.delay (Arrival.next_gap arr);
        submit (Ycsb.next stream)
      done;
      close_queues ());
  (match obs with Some o -> Obs.Span.install o.Obs.Recorder.span | None -> ());
  let before = Nvm.Stats.snapshot (Nvm.Machine.total_stats machine) in
  Fun.protect
    ~finally:(fun () ->
      match obs with Some o -> Obs.Span.uninstall o.Obs.Recorder.span | None -> ())
    (fun () -> Des.Sched.run sched);
  let elapsed = Des.Sched.now sched -. start in
  {
    r_mode = cfg.mode;
    r_shards = nshards;
    r_generated = !generated;
    r_completed = !completed;
    r_rejected = !rejected;
    r_elapsed = elapsed;
    r_offered = rate;
    r_throughput =
      (if elapsed > 0.0 then float_of_int !completed /. elapsed else 0.0);
    r_queue_lat = queue_lat;
    r_service_lat = service_lat;
    r_total_lat = total_lat;
    r_shard_completed = shard_completed;
    r_batches = !batches;
    r_batched_writes = !batched_writes;
    r_nvm = Nvm.Stats.diff (Nvm.Machine.total_stats machine) before;
  }

let pp_result ppf r =
  let p l q = Latency.percentile l q *. 1e6 in
  Format.fprintf ppf
    "@[<v>%s offered %.3f Mops/s -> %.3f Mops/s (%d/%d done, %d rejected, %.1f%% \
     loss)@,\
     latency us: queue p50 %.2f p99 %.2f | service p50 %.2f p99 %.2f | total p50 \
     %.2f p99 %.2f p99.99 %.2f@,\
     %d batches (%.2f writes/commit), shard imbalance %.2fx@]"
    (let (Open_loop { process; _ }) = r.r_mode in
     Arrival.process_name process)
    (r.r_offered /. 1e6) (r.r_throughput /. 1e6) r.r_completed r.r_generated
    r.r_rejected
    (if r.r_generated > 0 then
       100.0 *. float_of_int r.r_rejected /. float_of_int r.r_generated
     else 0.0)
    (p r.r_queue_lat 50.0) (p r.r_queue_lat 99.0) (p r.r_service_lat 50.0)
    (p r.r_service_lat 99.0) (p r.r_total_lat 50.0) (p r.r_total_lat 99.0)
    (p r.r_total_lat 99.99)
    r.r_batches
    (if r.r_batches > 0 then
       float_of_int r.r_batched_writes /. float_of_int r.r_batches
     else 0.0)
    (imbalance r)
