type crash_mode = Strict | Flaky of float * Des.Rng.t

type staged = {
  pool_id : int;
  dev : Device.t;
  xpline : int;
  apply : unit -> unit;
}

type trace_event =
  | Ev_store of { pool : int; line : int; data : string }
  | Ev_clwb of { tid : int; pool : int; line : int; data : string }
  | Ev_fence of { tid : int }
  | Ev_drain of { pool : int; line : int; data : string }

type persist_event =
  | Pe_store of { tid : int; pool : int; line : int }
  | Pe_clwb of { tid : int; pool : int; line : int }
  | Pe_fence of { tid : int }

type pool_view = {
  pv_id : int;
  pv_name : string;
  pv_capacity : int;
  pv_volatile : bool;
  pv_media : unit -> Bytes.t;
  pv_restore : Bytes.t -> unit;
}

type t = {
  profile : Config.profile;
  protocol : Config.protocol;
  devices : Device.t array;
  cpu_tags : int array; (* direct-mapped; -1 = invalid *)
  cpu_mask : int;
  staged : (int, staged list ref) Hashtbl.t; (* thread id -> reversed list *)
  stats : Stats.t;
  mutable next_pool_id : int;
  mutable crash_hooks : (crash_mode -> unit) list;
  mutable tracer : (trace_event -> unit) option;
  mutable persist_observer : (persist_event -> unit) option;
  mutable pool_views : pool_view list; (* reversed creation order *)
  mutable flush_fault : int option; (* drop the k-th clwb since set *)
  mutable flush_seen : int;
  mutable flush_elision : bool; (* skip redundant clwbs instead of just counting *)
  mutable wait_observer : (float -> unit) option;
      (* called with each fence's simulated stall, for phase attribution *)
}

let create ?(profile = Config.dcpmm) ?(protocol = Config.Snoop) ~numa_count () =
  let slots = 1 lsl profile.Config.cache_slots_log2 in
  {
    profile;
    protocol;
    devices = Array.init numa_count (fun numa -> Device.create profile ~protocol ~numa);
    cpu_tags = Array.make slots (-1);
    cpu_mask = slots - 1;
    staged = Hashtbl.create 64;
    stats = Stats.create ();
    next_pool_id = 0;
    crash_hooks = [];
    tracer = None;
    persist_observer = None;
    pool_views = [];
    flush_fault = None;
    flush_seen = 0;
    flush_elision = false;
    wait_observer = None;
  }

let set_wait_observer t f = t.wait_observer <- f

let set_tracer t f = t.tracer <- f

let tracer t = t.tracer

let set_persist_observer t f = t.persist_observer <- f

let persist_observer t = t.persist_observer

let register_pool_view t pv = t.pool_views <- pv :: t.pool_views

let pool_views t = List.rev t.pool_views

let set_flush_fault t k =
  t.flush_fault <- k;
  t.flush_seen <- 0

let flush_faulted t =
  match t.flush_fault with
  | None -> false
  | Some k ->
      let n = t.flush_seen in
      t.flush_seen <- n + 1;
      n = k

let flush_fault_fired t =
  match t.flush_fault with None -> false | Some k -> t.flush_seen > k

let set_flush_elision t b = t.flush_elision <- b

let flush_elision t = t.flush_elision

let profile t = t.profile

let protocol t = t.protocol

let numa_count t = Array.length t.devices

let device t numa = t.devices.(numa)

let stats t = t.stats

let total_stats t =
  let acc = Stats.snapshot t.stats in
  Array.iter (fun dev -> Stats.add acc (Device.stats dev)) t.devices;
  acc

let now _t = match Des.Sched.self () with Some s -> Des.Sched.now s | None -> 0.0

(* Pool ids are process-global so that persistent pointers (which
   embed the pool id) can be resolved through a global registry even
   when many machines coexist (tests, benchmarks).  The machine-local
   index names the pool inside the cost model (cache lines, XPLines),
   so a machine's simulated behaviour does not depend on how many
   pools the process created before it. *)
let global_pool_ids = ref 0

let fresh_pool_id t =
  let id = !global_pool_ids in
  incr global_pool_ids;
  let index = t.next_pool_id in
  t.next_pool_id <- index + 1;
  (id, index)

let cache_slot t gline = gline * 0x9E3779B1 land t.cpu_mask

let cache_access t gline =
  let slot = cache_slot t gline in
  if t.cpu_tags.(slot) = gline then begin
    t.stats.Stats.cache_hits <- t.stats.Stats.cache_hits + 1;
    true
  end
  else begin
    t.stats.Stats.cache_misses <- t.stats.Stats.cache_misses + 1;
    t.cpu_tags.(slot) <- gline;
    false
  end

let cache_invalidate t gline =
  let slot = cache_slot t gline in
  if t.cpu_tags.(slot) = gline then t.cpu_tags.(slot) <- -1

let stage t entry =
  let tid = Des.Sched.current_id () in
  match Hashtbl.find_opt t.staged tid with
  | Some r -> r := entry :: !r
  | None -> Hashtbl.add t.staged tid (ref [ entry ])

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

(* sfence: group the thread's staged flushes by XPLine (the XPBuffer's
   write combining), charge one media write per group — a full 256B
   write when 4 lines were flushed, a partial RMW write otherwise —
   and wait for the slowest.  Sequentially flushed nodes therefore
   persist much more cheaply than scattered single lines (FH3). *)
let fence t =
  if t.profile.Config.eadr then () (* persistent caches: nothing to order *)
  else begin
  t.stats.Stats.fences <- t.stats.Stats.fences + 1;
  Des.Sched.charge t.profile.Config.fence_base_cost;
  let tid = Des.Sched.current_id () in
  (match t.tracer with
  | Some emit -> emit (Ev_fence { tid })
  | None -> ());
  (match t.persist_observer with
  | Some emit -> emit (Pe_fence { tid })
  | None -> ());
  match Hashtbl.find_opt t.staged tid with
  | None -> ()
  | Some r ->
      let entries = List.rev !r in
      r := [];
      if entries <> [] then begin
        let groups : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
        let record e =
          let key = (Device.numa e.dev, e.xpline) in
          let count = try Hashtbl.find groups key with Not_found -> 0 in
          Hashtbl.replace groups key (count + 1)
        in
        List.iter record entries;
        if Des.Sched.running () then begin
          let start = now t in
          let from_numa = Des.Sched.current_numa () in
          (* sfence waits for WPQ acceptance (the persistent domain
             under ADR), not the media transfer; the channel stays
             booked, so saturation still back-pressures the fence. *)
          let fence_done = ref start in
          let issue (dev_numa, xpline) count =
            let bytes = min 256 (64 * count) in
            let dev = t.devices.(dev_numa) in
            let accepted, _completed =
              Device.write dev ~now:start ~xpline ~bytes ~from_numa
            in
            if accepted > !fence_done then fence_done := accepted
          in
          Hashtbl.iter issue groups;
          Des.Sched.delay (!fence_done -. start);
          match t.wait_observer with
          | Some observe -> observe (!fence_done -. start)
          | None -> ()
        end
        else begin
          (* Outside a simulation: account traffic without timing. *)
          let issue (dev_numa, xpline) count =
            let bytes = min 256 (64 * count) in
            let dev = t.devices.(dev_numa) in
            ignore (Device.write dev ~now:0.0 ~xpline ~bytes ~from_numa:dev_numa)
          in
          Hashtbl.iter issue groups
        end;
        List.iter (fun e -> e.apply ()) entries
      end
  end

let crash t mode =
  (* eADR: the CPU caches are persistent — every store survives. *)
  let mode = if t.profile.Config.eadr then Flaky (1.0, Des.Rng.create ~seed:0L) else mode in
  Hashtbl.reset t.staged;
  Array.fill t.cpu_tags 0 (Array.length t.cpu_tags) (-1);
  Array.iter Device.reset_buffers t.devices;
  List.iter (fun hook -> hook mode) t.crash_hooks
