module Key = Pactree.Key
module Index = Baselines.Index_intf
module Layout = Pobj.Layout

type backend = Baselines.System.t = {
  b_index : Index.index;
  b_recover : unit -> unit;
  b_invariants : unit -> unit;
  b_quiesce : unit -> unit;
  b_service : Workload.Runner.service option;
}

(* ---------- redo-log entry layout ----------

   One cache line per write so a single clwb covers the whole entry.
   The sequence word is stored LAST: any crash-surviving line snapshot
   carrying the expected sequence number therefore contains the
   complete payload, and a snapshot taken before the seq store shows a
   stale sequence (0, or the slot's previous tenant — which differs
   from the expected one by a multiple of the ring size) and stops
   replay. *)

let entry_l = Layout.create "svc_log_entry"

let f_seq = Layout.word entry_l "seq"

let f_op = Layout.u8 entry_l "op" (* 1 = put, 2 = del *)

let f_klen = Layout.u8 entry_l "klen"

let f_value = Layout.word ~at:16 entry_l "value"

let f_key = Layout.bytes ~at:24 entry_l "key" Key.max_len

let entry_size = Layout.seal ~size:64 entry_l

let meta_l = Layout.create "svc_log_meta"

let f_watermark = Layout.word meta_l "watermark"

let meta_size = Layout.seal ~size:64 meta_l

type shard = {
  s_id : int;
  s_numa : int;
  s_backend : backend;
  s_log : Nvm.Pool.t;
  s_entries : int;  (* ring capacity in entries *)
  mutable s_head : int;  (* next sequence number to append; seqs start at 1 *)
  mutable s_applied : int;  (* volatile watermark: last seq applied to the index *)
  mutable s_wm_floor : int;  (* watermark value known persisted (fenced) *)
  mutable s_ckpt_fences : int;
  s_mutex : Des.Sync.Mutex.t;
}

type t = {
  machine : Nvm.Machine.t;
  boundaries : Key.t array;
  shards : shard array;
}

type write = Put of Key.t * int | Del of Key.t

let machine t = t.machine

let shard_count t = Array.length t.shards

let shard_numa t i = t.shards.(i).s_numa

let checkpoint_fences t =
  Array.fold_left (fun acc s -> acc + s.s_ckpt_fences) 0 t.shards

let create ~machine ~boundaries ~make_backend ?(log_entries = 1024) () =
  if log_entries < 2 then invalid_arg "Svc.Store.create: log_entries < 2";
  Array.iteri
    (fun i b ->
      if i > 0 && Key.compare boundaries.(i - 1) b >= 0 then
        invalid_arg "Svc.Store.create: boundaries not strictly increasing")
    boundaries;
  let numa_count = Nvm.Machine.numa_count machine in
  let nshards = Array.length boundaries + 1 in
  let shards =
    Array.init nshards (fun i ->
        let numa = i mod numa_count in
        let backend = make_backend ~shard:i ~numa in
        let log =
          Nvm.Pool.create machine
            ~name:(Printf.sprintf "svc-log%d" i)
            ~numa
            ~capacity:(meta_size + (log_entries * entry_size))
            ()
        in
        {
          s_id = i;
          s_numa = numa;
          s_backend = backend;
          s_log = log;
          s_entries = log_entries;
          s_head = 1;
          s_applied = 0;
          s_wm_floor = 0;
          s_ckpt_fences = 0;
          s_mutex = Des.Sync.Mutex.create ();
        })
  in
  { machine; boundaries; shards }

(* ---------- routing ---------- *)

let shard_of_key t k =
  (* smallest i with k < boundaries.(i); shard i owns [b.(i-1), b.(i)) *)
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Key.compare t.boundaries.(mid) k <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let boundaries_for ~kind ~keys ~shards =
  if shards < 1 then invalid_arg "boundaries_for: shards < 1";
  if shards = 1 then [||]
  else begin
    let all = Array.init keys (fun i -> Workload.Keyset.key kind i) in
    Array.sort Key.compare all;
    Array.init (shards - 1) (fun i -> all.((i + 1) * keys / shards))
  end

let services t =
  Array.to_list t.shards
  |> List.filter_map (fun s ->
         match s.s_backend.b_service with
         | Some svc -> Some (s.s_id, svc)
         | None -> None)

(* ---------- direct (unbatched) operations ---------- *)

let insert t k v = Index.insert t.shards.(shard_of_key t k).s_backend.b_index k v

let lookup t k = Index.lookup t.shards.(shard_of_key t k).s_backend.b_index k

let update t k v = Index.update t.shards.(shard_of_key t k).s_backend.b_index k v

let delete t k = Index.delete t.shards.(shard_of_key t k).s_backend.b_index k

(* K-way merge of per-shard sorted runs.  Shard ranges are disjoint
   today, but the merge stays correct if they ever overlap (e.g. mid-
   rebalance); equal keys keep the first (lowest-shard) occurrence. *)
let kway_merge n runs =
  let runs = Array.of_list runs in
  let nruns = Array.length runs in
  let best () =
    let b = ref (-1) in
    for i = 0 to nruns - 1 do
      match runs.(i) with
      | [] -> ()
      | (k, _) :: _ -> (
          match !b with
          | -1 -> b := i
          | j ->
              let bk, _ = List.hd runs.(j) in
              if Key.compare k bk < 0 then b := i)
    done;
    !b
  in
  let rec go acc n =
    if n = 0 then List.rev acc
    else
      match best () with
      | -1 -> List.rev acc
      | i ->
          let ((k, _) as hd) = List.hd runs.(i) in
          runs.(i) <- List.tl runs.(i);
          (* drop duplicates of k at the head of other runs *)
          for j = 0 to nruns - 1 do
            match runs.(j) with
            | (k', _) :: tl when Key.equal k k' -> runs.(j) <- tl
            | _ -> ()
          done;
          go (hd :: acc) (n - 1)
  in
  go [] n

let scan t k n =
  if n <= 0 then []
  else begin
    let nshards = Array.length t.shards in
    let owner = shard_of_key t k in
    (* fetch successor shards only while the result can still grow *)
    let rec fetch acc total i =
      if total >= n || i >= nshards then List.rev acc
      else
        let run = Index.scan t.shards.(i).s_backend.b_index k n in
        fetch (run :: acc) (total + List.length run) (i + 1)
    in
    kway_merge n (fetch [] 0 owner)
  end

module Index_impl = struct
  type nonrec t = t

  let name = "svc-store"

  let insert = insert

  let lookup = lookup

  let update = update

  let delete = delete

  let scan = scan
end

let as_index t = Index.Index ((module Index_impl : Index.S with type t = t), t)

(* ---------- group commit ---------- *)

let slot_obj s slot = Pobj.make s.s_log (meta_size + (slot * entry_size))

let entry_obj s seq = slot_obj s ((seq - 1) mod s.s_entries)

let meta_obj s = Pobj.make s.s_log 0

let op_put = 1

let op_del = 2

let append s seq w =
  let o = entry_obj s seq in
  let key, code, value =
    match w with Put (k, v) -> (k, op_put, v) | Del k -> (k, op_del, 0)
  in
  (* plain stores, payload before seq, one clwb for the whole line *)
  Pobj.set_u8 o f_op code;
  Pobj.set_u8 o f_klen (String.length key);
  Pobj.set_int o f_value value;
  Pobj.write_string o (Layout.off f_key) key;
  Pobj.set_int o f_seq seq;
  Pobj.clwb o 0

let read_entry s seq =
  let o = entry_obj s seq in
  if Pobj.get_int o f_seq <> seq then None
  else
    let klen = Pobj.get_u8 o f_klen in
    if klen = 0 || klen > Key.max_len then None
    else
      let key = Pobj.read_string o (Layout.off f_key) klen in
      match Pobj.get_u8 o f_op with
      | c when c = op_put -> Some (Put (key, Pobj.get_int o f_value))
      | c when c = op_del -> Some (Del key)
      | _ -> None

let apply s w =
  let index = s.s_backend.b_index in
  match w with
  | Put (k, v) -> Index.insert index k v
  | Del k -> ignore (Index.delete index k : bool)

(* Store + flush the watermark; persistence normally rides the next
   batch's fence.  [checkpoint] adds the fence itself — used before
   ring reuse could clobber entries replay might still need, and at
   the end of recovery. *)
let put_watermark s wm =
  let o = meta_obj s in
  Pobj.set_int o f_watermark wm;
  Pobj.clwb o 0

let checkpoint s =
  put_watermark s s.s_applied;
  Nvm.Pool.fence s.s_log;
  s.s_ckpt_fences <- s.s_ckpt_fences + 1;
  s.s_wm_floor <- s.s_applied

let commit_batch t ~shard ?on_durable writes =
  let s = t.shards.(shard) in
  Des.Sync.Mutex.with_lock s.s_mutex (fun () ->
      match writes with
      | [] -> ( match on_durable with Some f -> f () | None -> ())
      | _ ->
          let n = List.length writes in
          if n > s.s_entries / 2 then
            invalid_arg "Svc.Store.commit_batch: batch exceeds half the log ring";
          (* ring-reuse guard: never overwrite an entry that a replay
             from the *persisted* watermark could still need *)
          if s.s_head + n - 1 - s.s_wm_floor > s.s_entries then checkpoint s;
          List.iter
            (fun w ->
              append s s.s_head w;
              s.s_head <- s.s_head + 1)
            writes;
          (* the one fence covering the whole batch: durability point *)
          Nvm.Pool.fence s.s_log;
          (* apply with the index's normal internal persistence before
             acknowledging, so an acked write is already visible to
             concurrent readers (read-your-writes at ack) *)
          List.iter (apply s) writes;
          s.s_applied <- s.s_head - 1;
          (match on_durable with Some f -> f () | None -> ());
          put_watermark s s.s_applied)

(* ---------- recovery / maintenance ---------- *)

let recover_shard s =
  s.s_backend.b_recover ();
  let wm = Pobj.get_int (meta_obj s) f_watermark in
  let rec replay seq =
    match read_entry s seq with
    | Some w ->
        apply s w;
        replay (seq + 1)
    | None -> seq - 1
  in
  let last = replay (wm + 1) in
  (* Scrub orphans past the replay tail.  Entry lines are clwb'd but
     only fenced once per batch, so a crashed in-flight batch can
     persist entry seq [last + k] without [last + k - 1] (k > 1).
     Such a ghost holds exactly the seq a future committed write will
     use: left in place, a second crash would replay it as if it were
     that write, resurrecting an unacknowledged op over acknowledged
     state.  Zeroing the seq word is enough — read_entry then treats
     the slot as never written.  The clwbs ride the checkpoint fence
     below. *)
  for slot = 0 to s.s_entries - 1 do
    let o = slot_obj s slot in
    if Pobj.get_int o f_seq > last then begin
      Pobj.set_int o f_seq 0;
      Pobj.clwb o 0
    end
  done;
  s.s_head <- last + 1;
  s.s_applied <- last;
  checkpoint s

let recover t = Array.iter recover_shard t.shards

let invariants t = Array.iter (fun s -> s.s_backend.b_invariants ()) t.shards

let quiesce t = Array.iter (fun s -> s.s_backend.b_quiesce ()) t.shards
