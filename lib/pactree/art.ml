(* PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree
   (paper §5.1).

   The trie maps prefix-free radix keys (see {!Key.to_radix}) to
   persistent payload pointers.  Leaves are tagged pointers stored
   directly in child slots: bit 0 set means "payload", clear means
   "inner node"; payload keys are recovered through [key_of_leaf].

   Concurrency is optimistic lock coupling over the paper's optimistic
   persistent version locks: readers validate node versions and
   restart on interference; writers lock the node (and its parent for
   structural changes).

   Crash consistency is log-free (§5.1(2)): new nodes are fully
   persisted before the single 8-byte pointer store that publishes
   them, and in-node child insertion persists the entry before the
   count/index store that makes it visible.  Structural replacements
   (grow/shrink/prefix splits) are copy-on-write committed by one
   atomic pointer swap.  A per-thread pending log (§5.1(3)) records
   allocations and retirements so recovery can free unreachable
   nodes. *)

module Pool = Nvm.Pool
module Pptr = Pmalloc.Pptr
module Heap = Pmalloc.Heap
module Layout = Pobj.Layout

exception Restart

type node = Pobj.obj = { pool : Pool.t; off : int }

type stats = {
  mutable restarts : int;
  mutable allocs : int; (* inner nodes allocated *)
  mutable retires : int; (* inner nodes retired (CoW) *)
}

type t = {
  heap : Heap.t;
  meta : Pool.t;
  mo : Pobj.obj; (* meta pool as an object, fields per [meta_l] *)
  mutable gen : int;
  key_of_leaf : Pptr.t -> string;
  epoch : Epoch.t;
  stats : stats;
}

(* Node header layout (shared by all four node types; the key/index
   and child arrays that follow are per-type, see the geometry
   tables below). *)
let hdr = Layout.create "art.node"

let f_lock = Layout.word ~transient:true hdr "lock"

let f_type = Layout.u8 hdr "type"

let f_plen = Layout.u8 hdr "plen"

let f_count = Layout.u16 hdr "count"

let f_prefix = Layout.bytes ~at:16 hdr "prefix" 16

let hdr_size = Layout.seal hdr

let off_lock = Layout.off f_lock

let off_type = Layout.off f_type

let off_plen = Layout.off f_plen

let off_count = Layout.off f_count

let off_prefix = Layout.off f_prefix

(* 16 stored prefix bytes cover e.g. the paper's "user<digits>" string
   keys without the reconstruct-via-leaf fallback. *)
let stored_prefix_max = Layout.field_size f_prefix

(* Per-type geometry: type 0 = Node4, 1 = Node16, 2 = Node48,
   3 = Node256. *)
let n4_keys = hdr_size (* Node16 keys share this offset *)

let n48_index = hdr_size

let children_off = [| 40; 48; 288; 32 |]

let capacity = [| 4; 16; 48; 256 |]

let node_size = [| 72; 176; 672; 2080 |]

(* Meta-pool layout: generation, root pointer, root lock, then the
   per-thread pending log. *)
let pending_threads = 256

let pending_slots = 8

let meta_l = Layout.create "art.meta"

let f_meta_gen = Layout.word ~at:8 meta_l "gen"

let f_meta_root = Layout.word meta_l "root"

let f_meta_rootlock = Layout.word ~transient:true meta_l "rootlock"

let f_pending =
  Layout.slots ~at:64 meta_l "pending" ~stride:8
    ~count:(pending_threads * pending_slots)

let meta_size = Layout.seal meta_l

let off_meta_root = Layout.off f_meta_root

let off_meta_rootlock = Layout.off f_meta_rootlock

let pending_off i slot =
  Layout.slot f_pending (((i land (pending_threads - 1)) * pending_slots) + slot)

(* ---------- node accessors ---------- *)

(* Optimistic traversal may speculatively dereference a pointer read
   from a slot that a concurrent writer is changing; such reads are
   discarded by version validation, but they must never fault.  A
   pointer that cannot possibly be a node triggers a restart. *)
let node_of ptr =
  let pool = Pmalloc.Registry.resolve ptr in
  let off = Pptr.off ptr in
  if off <= 0 || off + node_size.(0) > Pool.capacity pool || off land 7 <> 0 then
    raise Restart;
  { pool; off }

let set_count n c = Pobj.set_u16 n f_count c

let lockh n = { Vlock.pool = n.pool; off = n.off + off_lock }

(* Read a node's version for optimistic use; a retired (obsolete) node
   must not be used at all — restart and re-descend. *)
let node_version h ~gen =
  let v = Vlock.begin_read h ~gen in
  if Vlock.is_obsolete v then raise Restart;
  v

(* Base-relative offset of child slot [i]; [child_slot] is the
   absolute form used for parent-slot records. *)
let child_rel ty i = children_off.(ty) + (8 * i)

let byte_at rkey i = Char.code (String.unsafe_get rkey i)

(* ---------- node heads: one read per node line per visit ---------- *)

(* Nodes are at least 64 B, so the heap places them on 64-byte
   boundaries and a node's first line holds the lock word, type, plen,
   count, the stored prefix, the Node4/16 key bytes (Node48: the first
   32 index bytes) and the first child slots.  A visit reads that line
   with one [Pobj] call and decodes everything from the host copy.
   Any other line of the node is read whole, with one call, only when
   the visit needs a byte of it, and is kept while the visit stays on
   it: one line of Node48 index bytes and one line of child slots.  A
   [Pool] call is charged once per line it touches, so a visit costs
   one access per line it needs, like the data node's fingerprint
   line.  (Only an unordered walk of a Node48's slots, [child_list],
   can come back to a line.) *)
let line_size = 64

(* Line [li] of the node in [lb]; [li] = 0 while nothing is held. *)
type line_cache = { mutable li : int; mutable lb : Bytes.t }

type head = {
  n : node;
  ty : int;
  plen : int;
  count : int;
  l0 : Bytes.t; (* the node's first line *)
  bytes : line_cache; (* Node48 index bytes past [l0] *)
  slots : line_cache; (* child slots past [l0] *)
}

(* Decoding is defensive: during an optimistic descent the line may be
   a speculative read of something that is not a node. *)
let read_head n =
  let l0 = Bytes.create line_size in
  Pobj.blit_to_bytes n 0 l0 0 line_size;
  let ty = Bytes.get_uint8 l0 off_type in
  if ty > 3 then raise Restart;
  let count = Bytes.get_uint16_le l0 off_count in
  if count > capacity.(ty) then raise Restart;
  {
    n;
    ty;
    plen = Bytes.get_uint8 l0 off_plen;
    count;
    l0;
    bytes = { li = 0; lb = Bytes.empty };
    slots = { li = 0; lb = Bytes.empty };
  }

(* The line holding node-relative offset [rel], through cache [c]. *)
let line h c rel =
  let i = rel / line_size in
  if i = 0 then h.l0
  else begin
    if c.li <> i then begin
      if Bytes.length c.lb = 0 then c.lb <- Bytes.create line_size;
      let lrel = i * line_size in
      Pobj.blit_to_bytes h.n lrel c.lb 0 (min line_size (node_size.(h.ty) - lrel));
      c.li <- i
    end;
    c.lb
  end

let byte h rel = Bytes.get_uint8 (line h h.bytes rel) (rel mod line_size)

let child h i =
  let rel = child_rel h.ty i in
  Int64.to_int (Bytes.get_int64_le (line h h.slots rel) (rel mod line_size))

let child_slot h i = h.n.off + child_rel h.ty i

(* Key byte of Node4/16 entry [i]. *)
let key_byte h i = byte h (n4_keys + i)

(* Node48 index entry of byte [b]: 0 = absent, else slot + 1. *)
let slot48 h b =
  let s = byte h (n48_index + b) in
  if s > capacity.(2) then raise Restart;
  s

let stored_prefix h =
  Bytes.sub_string h.l0 off_prefix (min h.plen stored_prefix_max)

(* [find_child h b] returns the slot offset (for atomic replacement)
   and the pointer. *)
let find_child h b =
  match h.ty with
  | 0 | 1 ->
      let rec go i =
        if i >= h.count then None
        else if key_byte h i = b then
          let p = child h i in
          if Pptr.is_null p then go (i + 1) else Some (child_slot h i, p)
        else go (i + 1)
      in
      go 0
  | 2 ->
      let s = slot48 h b in
      if s = 0 then None
      else
        let p = child h (s - 1) in
        if Pptr.is_null p then None else Some (child_slot h (s - 1), p)
  | _ ->
      let p = child h b in
      if Pptr.is_null p then None else Some (child_slot h b, p)

(* Largest child with byte < [b] (None if none): the ordered-search
   primitive of lookup_le.  Bounded per-type probing — never a full
   enumeration. *)
let find_lt h b =
  match h.ty with
  | 0 | 1 ->
      let rec go best_b best i =
        if i >= h.count then (match best with None -> None | Some j -> Some (child h j))
        else
          let kb = key_byte h i in
          if kb < b && kb >= best_b then go kb (Some i) (i + 1)
          else go best_b best (i + 1)
      in
      let r = go (-1) None 0 in
      (match r with Some p when Pptr.is_null p -> None | _ -> r)
  | 2 ->
      let rec go byte =
        if byte < 0 then None
        else
          let s = slot48 h byte in
          if s = 0 then go (byte - 1)
          else
            let p = child h (s - 1) in
            if Pptr.is_null p then go (byte - 1) else Some p
      in
      go (b - 1)
  | _ ->
      let rec go byte =
        if byte < 0 then None
        else
          let p = child h byte in
          if Pptr.is_null p then go (byte - 1) else Some p
      in
      go (b - 1)

(* Child with the largest / smallest byte. *)
let last_child h = find_lt h 256

let first_child h =
  match h.ty with
  | 0 | 1 ->
      let rec go best_b best i =
        if i >= h.count then (match best with None -> None | Some j -> Some (child h j))
        else
          let kb = key_byte h i in
          if kb < best_b then go kb (Some i) (i + 1)
          else go best_b best (i + 1)
      in
      let r = go 256 None 0 in
      (match r with Some p when Pptr.is_null p -> None | _ -> r)
  | 2 ->
      let rec go byte =
        if byte > 255 then None
        else
          let s = slot48 h byte in
          if s = 0 then go (byte + 1)
          else
            let p = child h (s - 1) in
            if Pptr.is_null p then go (byte + 1) else Some p
      in
      go 0
  | _ ->
      let rec go byte =
        if byte > 255 then None
        else
          let p = child h byte in
          if Pptr.is_null p then go (byte + 1) else Some p
      in
      go 0

(* Children as (byte, ptr), sorted by byte. *)
let child_list h =
  match h.ty with
  | 0 | 1 ->
      let rec go acc i =
        if i < 0 then acc
        else
          let p = child h i in
          go (if Pptr.is_null p then acc else (key_byte h i, p) :: acc) (i - 1)
      in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) (go [] (h.count - 1)) in
      (* A crash during the in-place removal's hole compaction can
         leave the last entry present twice (same byte, same pointer);
         collapse such exact duplicates. *)
      let rec dedup = function
        | (a, p) :: (b, q) :: tl when a = b && p = q -> dedup ((a, p) :: tl)
        | hd :: tl -> hd :: dedup tl
        | [] -> []
      in
      dedup sorted
  | 2 ->
      let rec go acc b =
        if b < 0 then acc
        else
          let s = slot48 h b in
          if s = 0 then go acc (b - 1)
          else
            let p = child h (s - 1) in
            go (if Pptr.is_null p then acc else (b, p) :: acc) (b - 1)
      in
      go [] 255
  | _ ->
      let rec go acc b =
        if b < 0 then acc
        else
          let p = child h b in
          go (if Pptr.is_null p then acc else (b, p) :: acc) (b - 1)
      in
      go [] 255

(* ---------- persistence helpers ---------- *)

(* [persist n rel len]: base-relative targeted persistence. *)
let persist n rel len = Pobj.persist n rel len

(* ---------- pending log (allocation / retirement, §5.1(3)) ---------- *)

let free_pending_slots t =
  let tid = Des.Sched.current_id () land (pending_threads - 1) in
  let rec go acc slot =
    if slot >= pending_slots then acc
    else
      go (if Pobj.read_int t.mo (pending_off tid slot) = 0 then acc + 1 else acc)
        (slot + 1)
  in
  go 0 0

(* Mutating operations reserve their worst-case pending-log capacity
   BEFORE acquiring any lock: slots are per-thread, so nobody else can
   consume them afterwards, and waiting here (unpinned, lock-free)
   cannot deadlock with the epoch advancement that recycles slots. *)
let ensure_pending_capacity t n =
  let rec wait attempt =
    if free_pending_slots t < n then begin
      Epoch.unpin_while t.epoch (fun () ->
          Epoch.try_advance t.epoch;
          if attempt > 50_000 then failwith "Art: pending log exhausted";
          (* exponential: under saturation the blocking epochs span
             millisecond-long fences *)
          Des.Sched.delay (200e-9 *. float_of_int (1 lsl min attempt 10)));
      wait (attempt + 1)
    end
  in
  wait 0

let find_free_pending t =
  let tid = Des.Sched.current_id () land (pending_threads - 1) in
  let rec scan slot =
    if slot >= pending_slots then
      (* cannot happen: capacity was reserved before locking *)
      failwith "Art: pending log underflow (missing reservation)"
    else if Pobj.read_int t.mo (pending_off tid slot) = 0 then pending_off tid slot
    else scan (slot + 1)
  in
  scan 0

(* Allocate an inner node through the pending log: the allocator's
   malloc-to semantics persist the pointer into the log slot
   atomically with the allocation, so a crash can never leak it. *)
let alloc_node t ty =
  let slot = find_free_pending t in
  let ptr = Heap.alloc_to t.heap ~size:node_size.(ty) ~dest_pool:t.meta ~dest_off:slot () in
  t.stats.allocs <- t.stats.allocs + 1;
  (node_of ptr, ptr, slot)

let clear_pending t slot =
  Pobj.write_int t.mo slot 0;
  Pobj.clwb t.mo slot

(* Record a node about to become unreachable (CoW commit).  Must be
   persisted before the commit pointer swap. *)
let log_retire t ptr =
  let slot = find_free_pending t in
  Pobj.write_int t.mo slot ptr;
  Pobj.persist t.mo slot 8;
  slot

(* Free a retired node once no reader can hold it (two epochs). *)
let retire t ptr slot =
  t.stats.retires <- t.stats.retires + 1;
  Epoch.defer t.epoch (fun () ->
      Heap.free t.heap ptr;
      clear_pending t slot)

(* ---------- node construction (on unpublished nodes) ---------- *)

let init_node t n ty ~prefix_len ~prefix =
  Pobj.fill_zero n 0 node_size.(ty);
  Vlock.init (lockh n) ~gen:t.gen;
  Pobj.set_u8 n f_type ty;
  Pobj.set_u8 n f_plen prefix_len;
  let stored = min prefix_len stored_prefix_max in
  for i = 0 to stored - 1 do
    Pobj.write_u8 n (off_prefix + i) (byte_at prefix i)
  done

(* Append child [c] without any ordering constraints — only valid on a
   node not yet published. *)
let raw_add_child n ty c (b, ptr) =
  (match ty with
  | 0 | 1 ->
      Pobj.write_u8 n (n4_keys + c) b;
      Pobj.write_int n (child_rel ty c) ptr
  | 2 ->
      Pobj.write_int n (child_rel ty c) ptr;
      Pobj.write_u8 n (n48_index + b) (c + 1)
  | _ -> Pobj.write_int n (child_rel ty b) ptr);
  set_count n (c + 1)

(* Allocate a node of type [ty] holding [children] (in order) and
   persist its whole image; it is published by the caller's pointer
   store. *)
let new_node t ty ~prefix_len ~prefix children =
  let n, ptr, slot = alloc_node t ty in
  init_node t n ty ~prefix_len ~prefix;
  List.iteri (raw_add_child n ty) children;
  Pobj.flush n 0 node_size.(ty);
  Pobj.fence n;
  (n, ptr, slot)

(* ---------- prefix handling ---------- *)

(* Any leaf payload under [n]; used to reconstruct prefix bytes beyond
   the 16 stored ones (the classic ART "optimistic prefix" recovery).
   Each node's children are validated against its version before the
   descent uses them — a torn read must never be dereferenced. *)
let rec any_leaf t n =
  let h = lockh n in
  let v = node_version h ~gen:t.gen in
  let first = first_child (read_head n) in
  if not (Vlock.validate h ~gen:t.gen ~version:v) then raise Restart;
  match first with
  | None -> raise Restart (* transiently empty under concurrent SMO *)
  | Some p -> if Pptr.is_tagged p then Pptr.untag p else any_leaf t (node_of p)

(* Full prefix bytes of the node of head [h], whose subtree starts at
   key depth [depth]. *)
let full_prefix t h ~depth =
  let pl = h.plen in
  if pl <= stored_prefix_max then stored_prefix h
  else begin
    let leaf_key = t.key_of_leaf (any_leaf t h.n) in
    if String.length leaf_key < depth + pl then raise Restart;
    String.sub leaf_key depth pl
  end

(* Compare the key segment at [depth] against the full prefix.
   [`Equal d'] continues at depth [d']; [`Diverge (i, full)] reports
   the first differing position (the key segment may also simply be
   shorter); [`Before]/[`After] order the whole subtree against the
   key (used by ordered searches). *)
let compare_prefix t h ~depth rkey =
  let pl = h.plen in
  if pl = 0 then `Equal depth
  else begin
    let full = full_prefix t h ~depth in
    let klen = String.length rkey in
    let rec go i =
      if i >= pl then `Equal (depth + pl)
      else if depth + i >= klen then `Diverge (i, full) (* key exhausted: key < subtree *)
      else
        let kb = byte_at rkey (depth + i) and pb = byte_at full i in
        if kb = pb then go (i + 1) else `Diverge (i, full)
    in
    go 0
  end

let order_of_divergence rkey ~depth full i =
  if depth + i >= String.length rkey then `Before (* key < subtree *)
  else if byte_at rkey (depth + i) < byte_at full i then `Before
  else `After

(* ---------- retry wrapper ---------- *)

let check h ~gen v = if not (Vlock.validate h ~gen ~version:v) then raise Restart

let with_retry t f =
  let rec go attempt =
    match f () with
    | v -> v
    (* Invalid_argument here can only be a pool bounds fault from a
       speculative read that version validation would have discarded:
       treat it like any other optimistic conflict. *)
    | exception (Restart | Invalid_argument _) ->
        t.stats.restarts <- t.stats.restarts + 1;
        if attempt > 10_000 then failwith "Art: livelock (too many restarts)";
        Des.Sched.delay (Float.min (float_of_int attempt *. 50e-9) 2e-6);
        go (attempt + 1)
  in
  go 0

(* ---------- construction / open ---------- *)

let root_lockh t = { Vlock.pool = t.meta; off = off_meta_rootlock }

let read_root t = Pobj.get_int t.mo f_meta_root

let create ~heap ~meta ~epoch ~key_of_leaf =
  if Pool.capacity meta < meta_size then invalid_arg "Art.create: meta pool too small";
  let mo = Pobj.make meta 0 in
  let gen = Pobj.get_int mo f_meta_gen + 1 in
  Pobj.set_int mo f_meta_gen gen;
  Pobj.persist_field mo f_meta_gen;
  {
    heap;
    meta;
    mo;
    gen;
    key_of_leaf;
    epoch;
    stats = { restarts = 0; allocs = 0; retires = 0 };
  }

let stats t = t.stats

let generation t = t.gen

(* ---------- lookup ---------- *)

let lookup t rkey =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  with_retry t @@ fun () ->
  let gen = t.gen in
  let klen = String.length rkey in
  let rec descend n depth =
    let h = lockh n in
    let v = node_version h ~gen in
    let hd = read_head n in
    match compare_prefix t hd ~depth rkey with
    | `Diverge _ ->
        check h ~gen v;
        None
    | `Equal depth' ->
        if depth' >= klen then begin
          check h ~gen v;
          None
        end
        else begin
          let b = byte_at rkey depth' in
          let child = find_child hd b in
          check h ~gen v;
          match child with
          | None -> None
          | Some (_, p) ->
              if Pptr.is_tagged p then begin
                let payload = Pptr.untag p in
                if String.equal (t.key_of_leaf payload) rkey then Some payload else None
              end
              else descend (node_of p) (depth' + 1)
        end
  in
  let rh = root_lockh t in
  let rv = Vlock.begin_read rh ~gen in
  let root = read_root t in
  check rh ~gen rv;
  if Pptr.is_null root then None
  else if Pptr.is_tagged root then begin
    let payload = Pptr.untag root in
    if String.equal (t.key_of_leaf payload) rkey then Some payload else None
  end
  else descend (node_of root) 0

(* ---------- ordered search: greatest leaf <= key (§5.3 routing) ---------- *)

let rec max_leaf t n =
  let h = lockh n in
  let v = node_version h ~gen:t.gen in
  let last = last_child (read_head n) in
  check h ~gen:t.gen v;
  match last with
  | None -> raise Restart
  | Some p -> if Pptr.is_tagged p then Pptr.untag p else max_leaf t (node_of p)

let lookup_le t rkey =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  with_retry t @@ fun () ->
  let gen = t.gen in
  let klen = String.length rkey in
  let leaf_le p =
    let payload = Pptr.untag p in
    if String.compare (t.key_of_leaf payload) rkey <= 0 then Some payload else None
  in
  let rec descend n depth =
    let h = lockh n in
    let v = node_version h ~gen in
    let hd = read_head n in
    match compare_prefix t hd ~depth rkey with
    | `Diverge (i, full) -> (
        check h ~gen v;
        match order_of_divergence rkey ~depth full i with
        | `Before -> None (* whole subtree > key *)
        | `After -> Some (max_leaf t n) (* whole subtree < key *))
    | `Equal depth' ->
        if depth' >= klen then begin
          (* key exhausted inside the trie: all leaves below extend it
             and are therefore greater *)
          check h ~gen v;
          None
        end
        else begin
          let b = byte_at rkey depth' in
          let eq = find_child hd b in
          let lt = find_lt hd b in
          check h ~gen v;
          let from_lt () =
            match lt with
            | None -> None
            | Some p ->
                if Pptr.is_tagged p then Some (Pptr.untag p)
                else Some (max_leaf t (node_of p))
          in
          match eq with
          | Some (_, p) -> (
              let r =
                if Pptr.is_tagged p then leaf_le p else descend (node_of p) (depth' + 1)
              in
              match r with Some _ -> r | None -> from_lt ())
          | None -> from_lt ()
        end
  in
  let rh = root_lockh t in
  let rv = Vlock.begin_read rh ~gen in
  let root = read_root t in
  check rh ~gen rv;
  if Pptr.is_null root then None
  else if Pptr.is_tagged root then leaf_le root
  else descend (node_of root) 0

(* ---------- insert ---------- *)

type insert_outcome = Inserted | Replaced of Pptr.t
(* [Replaced old] returns the previous payload so the caller can
   reclaim it exactly once (the swap is atomic under the slot lock). *)

(* The slot holding the pointer to the current node, and the version
   of the lock guarding that slot. *)
type slot = { s_lock : Vlock.handle; s_version : int; s_pool : Pool.t; s_off : int }

let slot_obj slot = Pobj.make slot.s_pool slot.s_off

let read_slot slot = Pobj.read_int (slot_obj slot) 0

let write_slot slot ptr =
  let o = slot_obj slot in
  Pobj.write_int o 0 ptr;
  Pobj.persist o 0 8

let common_prefix_len a b start =
  let la = String.length a and lb = String.length b in
  let rec go i =
    if start + i < la && start + i < lb && a.[start + i] = b.[start + i] then go (i + 1)
    else i
  in
  go 0

(* Copy the node of head [src] (same type) with its prefix shortened
   to the bytes after position [cut]: used by prefix splits and
   merges.  Returns the new node. *)
let copy_with_prefix t src ~full ~cut =
  let pl = String.length full in
  new_node t src.ty ~prefix_len:(pl - cut) ~prefix:(String.sub full cut (pl - cut))
    (child_list src)

(* In-place child insertion protocols: entry persisted first, then the
   store that makes it visible (count / index / pointer).  [h] is the
   head of the locked node, read at the version that was locked. *)
let add_child_inplace h b ptr =
  let n = h.n and ty = h.ty and c = h.count in
  match ty with
  | 0 | 1 ->
      Pobj.write_u8 n (n4_keys + c) b;
      Pobj.write_int n (child_rel ty c) ptr;
      Pobj.clwb n (n4_keys + c);
      Pobj.clwb n (child_rel ty c);
      Pobj.fence n;
      set_count n (c + 1);
      persist n off_count 2
  | 2 ->
      (* find a free physical slot by scanning the index *)
      let used = Array.make capacity.(ty) false in
      for byte = 0 to 255 do
        let s = slot48 h byte in
        if s > 0 then used.(s - 1) <- true
      done;
      let rec free_slot i = if used.(i) then free_slot (i + 1) else i in
      let s = free_slot 0 in
      Pobj.write_int n (child_rel ty s) ptr;
      persist n (child_rel ty s) 8;
      (* Index publish is the commit point; count persists in its own
         epoch so a crash can only leave it high (early grow), never
         low (free-slot scan overrun). *)
      Pobj.write_u8 n (n48_index + b) (s + 1);
      persist n (n48_index + b) 1;
      set_count n (c + 1);
      persist n off_count 2
  | _ ->
      Pobj.write_int n (child_rel ty b) ptr;
      persist n (child_rel ty b) 8;
      set_count n (c + 1);
      persist n off_count 2

let insert t rkey payload =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  ensure_pending_capacity t 4;
  with_retry t @@ fun () ->
  let gen = t.gen in
  let klen = String.length rkey in
  let tagged_payload = Pptr.tagged payload in
  (* Split a leaf: make a Node4 holding the old leaf and the new one,
     commit by swapping the slot pointer (atomic). *)
  let split_leaf slot old_ptr depth =
    if not (Vlock.try_upgrade slot.s_lock ~gen ~version:slot.s_version) then raise Restart;
    let finish_release () = Vlock.release slot.s_lock ~gen ~version:(slot.s_version + 1) in
    let old_key = t.key_of_leaf (Pptr.untag old_ptr) in
    if String.equal old_key rkey then begin
      (* duplicate: replace the payload pointer *)
      write_slot slot tagged_payload;
      finish_release ();
      Replaced (Pptr.untag old_ptr)
    end
    else begin
      let cpl = common_prefix_len old_key rkey depth in
      assert (depth + cpl < klen && depth + cpl < String.length old_key);
      let _, nptr, pslot =
        new_node t 0 ~prefix_len:cpl ~prefix:(String.sub rkey depth cpl)
          [ (byte_at old_key (depth + cpl), old_ptr); (byte_at rkey (depth + cpl), tagged_payload) ]
      in
      write_slot slot nptr;
      clear_pending t pslot;
      finish_release ();
      Inserted
    end
  in
  (* Prefix split: CoW the node with a shortened prefix, hang it and
     the new leaf under a fresh Node4, commit via the parent slot. *)
  let prefix_split slot hd nv depth i full =
    let n = hd.n in
    if not (Vlock.try_upgrade slot.s_lock ~gen ~version:slot.s_version) then raise Restart;
    let release_parent () = Vlock.release slot.s_lock ~gen ~version:(slot.s_version + 1) in
    if not (Vlock.try_upgrade (lockh n) ~gen ~version:nv) then begin
      release_parent ();
      raise Restart
    end;
    assert (depth + i < klen);
    let old_ptr = read_slot slot in
    let copy, _cptr, cslot = copy_with_prefix t hd ~full ~cut:(i + 1) in
    let cptr_val = Pptr.make ~pool:(Pool.id copy.pool) ~off:copy.off in
    let _, nptr, pslot =
      new_node t 0 ~prefix_len:i ~prefix:(String.sub full 0 i)
        [ (byte_at full i, cptr_val); (byte_at rkey (depth + i), tagged_payload) ]
    in
    let rslot = log_retire t old_ptr in
    write_slot slot nptr (* commit *);
    clear_pending t cslot;
    clear_pending t pslot;
    retire t old_ptr rslot;
    Vlock.release_obsolete (lockh n) ~gen ~version:(nv + 1);
    release_parent ();
    Inserted
  in
  (* Grow a full node to the next type (CoW) and add the new child. *)
  let grow_and_add slot hd nv b =
    let n = hd.n in
    if not (Vlock.try_upgrade slot.s_lock ~gen ~version:slot.s_version) then raise Restart;
    let release_parent () = Vlock.release slot.s_lock ~gen ~version:(slot.s_version + 1) in
    if not (Vlock.try_upgrade (lockh n) ~gen ~version:nv) then begin
      release_parent ();
      raise Restart
    end;
    let old_ptr = read_slot slot in
    assert (hd.ty < 3);
    let _, bptr, bslot =
      new_node t (hd.ty + 1) ~prefix_len:hd.plen ~prefix:(stored_prefix hd)
        (child_list hd @ [ (b, tagged_payload) ])
    in
    let rslot = log_retire t old_ptr in
    write_slot slot bptr;
    clear_pending t bslot;
    retire t old_ptr rslot;
    Vlock.release_obsolete (lockh n) ~gen ~version:(nv + 1);
    release_parent ();
    Inserted
  in
  let rec descend slot cur depth =
    if Pptr.is_tagged cur then split_leaf slot cur depth
    else begin
      let n = node_of cur in
      let h = lockh n in
      let v = node_version h ~gen in
      let hd = read_head n in
      match compare_prefix t hd ~depth rkey with
      | `Diverge (i, full) ->
          check h ~gen v;
          prefix_split slot hd v depth i full
      | `Equal depth' ->
          if depth' >= klen then begin
            check h ~gen v;
            raise Restart (* impossible for prefix-free keys unless racing *)
          end
          else begin
            let b = byte_at rkey depth' in
            let child = find_child hd b in
            check h ~gen v;
            match child with
            | Some (slot_off, p) ->
                descend
                  { s_lock = h; s_version = v; s_pool = n.pool; s_off = slot_off }
                  p (depth' + 1)
            | None ->
                if hd.count < capacity.(hd.ty) then begin
                  if not (Vlock.try_upgrade h ~gen ~version:v) then raise Restart;
                  add_child_inplace hd b tagged_payload;
                  Vlock.release h ~gen ~version:(v + 1);
                  Inserted
                end
                else grow_and_add slot hd v b
          end
    end
  in
  let rh = root_lockh t in
  let rv = Vlock.begin_read rh ~gen in
  let root = read_root t in
  check rh ~gen rv;
  if Pptr.is_null root then begin
    if not (Vlock.try_upgrade rh ~gen ~version:rv) then raise Restart;
    Pobj.set_int t.mo f_meta_root tagged_payload;
    Pobj.persist_field t.mo f_meta_root;
    Vlock.release rh ~gen ~version:(rv + 1);
    Inserted
  end
  else
    descend
      { s_lock = rh; s_version = rv; s_pool = t.meta; s_off = off_meta_root }
      root 0

(* ---------- delete ---------- *)

(* Remove the child for byte [b] (present) from the locked node of
   head [h], read at the version that was locked. *)
let remove_child_inplace h b =
  let n = h.n and ty = h.ty and c = h.count in
  match ty with
  | 0 | 1 ->
      let rec find i = if key_byte h i = b then i else find (i + 1) in
      let i = find 0 in
      let last = c - 1 in
      if i <> last then begin
        (* Hole-punch protocol: compacting last into the hole rewrites
           a *live* slot, so each store gets its own fence — a crash
           between any two leaves a state readers handle (they skip
           null children; [child_list] collapses the transient exact
           duplicate of the last entry).  Writing key byte and pointer
           under one fence is not failure-atomic: on a Node16 they sit
           on different cache lines, and (new byte, old pointer) would
           route the moved key to the deleted child. *)
        Pobj.write_int n (child_rel ty i) Pptr.null;
        persist n (child_rel ty i) 8;
        Pobj.write_u8 n (n4_keys + i) (key_byte h last);
        persist n (n4_keys + i) 1;
        Pobj.write_int n (child_rel ty i) (child h last);
        persist n (child_rel ty i) 8
      end;
      set_count n last;
      persist n off_count 2
  | 2 ->
      (* The index clear commits the removal; count follows in its own
         epoch so it can only lag *high* — a low count would make the
         in-place add's free-slot scan run past 48 used slots. *)
      Pobj.write_u8 n (n48_index + b) 0;
      persist n (n48_index + b) 1;
      set_count n (c - 1);
      persist n off_count 2
  | _ ->
      Pobj.write_int n (child_rel ty b) Pptr.null;
      persist n (child_rel ty b) 8;
      set_count n (max 0 (c - 1));
      persist n off_count 2

let shrink_threshold = [| 0; 3; 12; 40 |]

let delete t rkey =
  Obs.Span.with_phase Obs.Span.Trie_search @@ fun () ->
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  ensure_pending_capacity t 4;
  with_retry t @@ fun () ->
  let gen = t.gen in
  let klen = String.length rkey in
  (* Remove byte [b] from [n] (whose prefix starts at key depth
     [depth]); if the node underflows, CoW-shrink (or path-compress a
     Node4 with one survivor) and commit via [slot]. *)
  let remove_and_shrink slot hd nv b ~depth =
    let n = hd.n and ty = hd.ty and c = hd.count in
    let needs_structural = (ty = 0 && c <= 2) || (ty > 0 && c - 1 <= shrink_threshold.(ty)) in
    if not needs_structural then begin
      if not (Vlock.try_upgrade (lockh n) ~gen ~version:nv) then raise Restart;
      let payload =
        match find_child hd b with Some (_, p) -> Pptr.untag p | None -> raise Restart
      in
      remove_child_inplace hd b;
      Vlock.release (lockh n) ~gen ~version:(nv + 1);
      Some payload
    end
    else begin
      if not (Vlock.try_upgrade slot.s_lock ~gen ~version:slot.s_version) then raise Restart;
      let release_parent () = Vlock.release slot.s_lock ~gen ~version:(slot.s_version + 1) in
      if not (Vlock.try_upgrade (lockh n) ~gen ~version:nv) then begin
        release_parent ();
        raise Restart
      end;
      (* every structural case below retires [n] *)
      let release_node () = Vlock.release_obsolete (lockh n) ~gen ~version:(nv + 1) in
      let old_ptr = read_slot slot in
      let payload =
        match find_child hd b with
        | Some (_, p) -> Pptr.untag p
        | None ->
            release_node ();
            release_parent ();
            raise Restart
      in
      let survivors = List.filter (fun (kb, _) -> kb <> b) (child_list hd) in
      (match survivors with
      | [] ->
          (* Root-only situation: the tree is emptying. *)
          let rslot = log_retire t old_ptr in
          write_slot slot Pptr.null;
          retire t old_ptr rslot
      | [ (sb, p) ] when ty = 0 ->
          if Pptr.is_tagged p then begin
            (* Path compression: the leaf replaces the node. *)
            let rslot = log_retire t old_ptr in
            write_slot slot p;
            retire t old_ptr rslot
          end
          else begin
            (* Merge prefixes: CoW the child with the combined prefix
               node.prefix + branch byte + child.prefix. *)
            let child = node_of p in
            let cv = Vlock.acquire (lockh child) ~gen in
            let ch = read_head child in
            let node_prefix = full_prefix t hd ~depth in
            let child_depth = depth + hd.plen + 1 in
            let child_prefix = full_prefix t ch ~depth:child_depth in
            let merged = node_prefix ^ String.make 1 (Char.chr sb) ^ child_prefix in
            let copy, _cp, cslot = copy_with_prefix t ch ~full:merged ~cut:0 in
            let cptr_val = Pptr.make ~pool:(Pool.id copy.pool) ~off:copy.off in
            let r1 = log_retire t old_ptr in
            let r2 = log_retire t p in
            write_slot slot cptr_val;
            clear_pending t cslot;
            retire t old_ptr r1;
            retire t p r2;
            Vlock.release_obsolete (lockh child) ~gen ~version:cv
          end
      | _ ->
          (* CoW shrink to the next smaller type (or same type for
             Node4 with >1 survivors — cannot happen given the guard). *)
          let new_ty = if ty = 0 then 0 else ty - 1 in
          let _, sptr, sslot =
            new_node t new_ty ~prefix_len:hd.plen ~prefix:(stored_prefix hd) survivors
          in
          let rslot = log_retire t old_ptr in
          write_slot slot sptr;
          clear_pending t sslot;
          retire t old_ptr rslot);
      release_node ();
      release_parent ();
      Some payload
    end
  in
  let rec descend slot cur depth =
    if Pptr.is_tagged cur then begin
      (* Leaf directly in the slot (root or under a node). *)
      if String.equal (t.key_of_leaf (Pptr.untag cur)) rkey then begin
        (* only reachable for the root leaf: inner leaves are handled
           by [remove_and_shrink] at their parent *)
        if not (Vlock.try_upgrade slot.s_lock ~gen ~version:slot.s_version) then
          raise Restart;
        write_slot slot Pptr.null;
        Vlock.release slot.s_lock ~gen ~version:(slot.s_version + 1);
        Some (Pptr.untag cur)
      end
      else None
    end
    else begin
      let n = node_of cur in
      let h = lockh n in
      let v = node_version h ~gen in
      let hd = read_head n in
      match compare_prefix t hd ~depth rkey with
      | `Diverge _ ->
          check h ~gen v;
          None
      | `Equal depth' ->
          if depth' >= klen then begin
            check h ~gen v;
            None
          end
          else begin
            let b = byte_at rkey depth' in
            let child = find_child hd b in
            check h ~gen v;
            match child with
            | None -> None
            | Some (slot_off, p) ->
                if Pptr.is_tagged p then begin
                  if String.equal (t.key_of_leaf (Pptr.untag p)) rkey then
                    remove_and_shrink slot hd v b ~depth
                  else None
                end
                else
                  descend
                    { s_lock = h; s_version = v; s_pool = n.pool; s_off = slot_off }
                    p (depth' + 1)
          end
    end
  in
  let rh = root_lockh t in
  let rv = Vlock.begin_read rh ~gen in
  let root = read_root t in
  check rh ~gen rv;
  if Pptr.is_null root then None
  else
    descend { s_lock = rh; s_version = rv; s_pool = t.meta; s_off = off_meta_root } root 0

(* ---------- ordered iteration (baseline scans) ---------- *)

exception Stop

(* Read a node's head and children consistently (small local retry
   loop). *)
let consistent_children t n =
  let h = lockh n in
  let rec go attempt =
    let v = Vlock.begin_read h ~gen:t.gen in
    if Vlock.is_obsolete v then raise Restart;
    let hd = read_head n in
    let cs = child_list hd in
    if Vlock.validate h ~gen:t.gen ~version:v then (hd, cs)
    else begin
      if attempt > 1000 then raise Restart;
      Des.Sched.delay 100e-9;
      go (attempt + 1)
    end
  in
  go 0

let iter_from t rkey f =
  Epoch.enter t.epoch;
  Fun.protect ~finally:(fun () -> Epoch.exit t.epoch) @@ fun () ->
  let klen = String.length rkey in
  let emit p = if not (f p) then raise Stop in
  let rec walk_all cur =
    if Pptr.is_tagged cur then emit (Pptr.untag cur)
    else
      let _, cs = consistent_children t (node_of cur) in
      List.iter (fun (_, p) -> walk_all p) cs
  in
  let rec walk_from cur depth =
    if Pptr.is_tagged cur then begin
      let payload = Pptr.untag cur in
      if String.compare (t.key_of_leaf payload) rkey >= 0 then emit payload
    end
    else begin
      let hd, cs = consistent_children t (node_of cur) in
      match compare_prefix t hd ~depth rkey with
      | `Diverge (i, full) -> (
          match order_of_divergence rkey ~depth full i with
          | `Before -> List.iter (fun (_, p) -> walk_all p) cs (* subtree > key *)
          | `After -> () (* subtree < key *))
      | `Equal depth' ->
          if depth' >= klen then List.iter (fun (_, p) -> walk_all p) cs
          else begin
            let b = byte_at rkey depth' in
            List.iter
              (fun (kb, p) ->
                if kb = b then walk_from p (depth' + 1)
                else if kb > b then walk_all p)
              cs
          end
    end
  in
  let root = read_root t in
  if not (Pptr.is_null root) then begin
    try with_retry t (fun () -> walk_from root 0) with Stop -> ()
  end

(* ---------- recovery (§5.1, §5.9) ---------- *)

(* Children of inner node [cur], read without concurrency control
   (recovery and test walks only). *)
let children cur = child_list (read_head (node_of cur))

(* Depth-first reachability of [target] (an untagged pointer that may
   be an inner node or a leaf payload). *)
let reachable t target =
  let rec visit cur =
    let p = Pptr.untag cur in
    p = target
    ||
    if Pptr.is_tagged cur then false
    else List.exists (fun (_, c) -> visit c) (children cur)
  in
  let root = read_root t in
  (not (Pptr.is_null root)) && visit root

let recover t =
  Obs.Span.with_phase Obs.Span.Recovery @@ fun () ->
  (* Bump the generation: every pre-crash lock becomes void (§5.7). *)
  let gen = Pobj.get_int t.mo f_meta_gen + 1 in
  Pobj.set_int t.mo f_meta_gen gen;
  Pobj.persist_field t.mo f_meta_gen;
  t.gen <- gen;
  (* Scan the pending log: free whatever never got linked (allocation
     interrupted) or already got unlinked (retirement committed). *)
  let freed = ref 0 in
  for tid = 0 to pending_threads - 1 do
    for slot = 0 to pending_slots - 1 do
      let off = pending_off tid slot in
      let ptr = Pobj.read_int t.mo off in
      if ptr <> 0 then begin
        if not (reachable t (Pptr.untag ptr)) then begin
          Heap.free t.heap (Pptr.untag ptr);
          incr freed
        end;
        Pobj.write_int t.mo off 0;
        Pobj.clwb t.mo off
      end
    done
  done;
  Pobj.fence t.mo;
  !freed

(* Drop the whole trie without freeing: used when the backing pool was
   volatile (DRAM search layer) and has been wiped by a crash. *)
let reset t =
  Pobj.set_int t.mo f_meta_root Pptr.null;
  Pobj.persist_field t.mo f_meta_root;
  for tid = 0 to pending_threads - 1 do
    for slot = 0 to pending_slots - 1 do
      let off = pending_off tid slot in
      if Pobj.read_int t.mo off <> 0 then begin
        Pobj.write_int t.mo off 0;
        Pobj.clwb t.mo off
      end
    done
  done;
  Pobj.fence t.mo

(* ---------- introspection (tests) ---------- *)

let rec subtree_size cur =
  if Pptr.is_tagged cur then 1
  else
    List.fold_left (fun acc (_, c) -> acc + subtree_size c) 0 (children cur)

let cardinal t =
  let root = read_root t in
  if Pptr.is_null root then 0 else subtree_size root

let node_path t rkey =
  let rec go cur depth acc =
    if Pptr.is_null cur || Pptr.is_tagged cur then List.rev acc
    else begin
      let h = read_head (node_of cur) in
      let acc = capacity.(h.ty) :: acc and depth = depth + h.plen in
      if depth >= String.length rkey then List.rev acc
      else
        match find_child h (byte_at rkey depth) with
        | None -> List.rev acc
        | Some (_, p) -> go p (depth + 1) acc
    end
  in
  go (read_root t) 0 []
