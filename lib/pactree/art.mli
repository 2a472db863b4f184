(** PDL-ART: Persistent Durable-Linearizable Adaptive Radix Tree
    (paper §5.1).

    Maps prefix-free radix keys ({!Key.to_radix}) to persistent
    payload pointers.  Used as PACTree's search layer (payload = data
    node) and standalone as the PDL-ART baseline index (payload = kv
    record).

    Concurrency: optimistic lock coupling over {!Vlock}; readers never
    write (except lazily re-initialising stale-generation locks).
    Crash consistency is log-free via ordered persists and
    copy-on-write structural changes committed by single 8-byte
    pointer swaps; a per-thread pending log plus the allocator's
    malloc-to semantics prevent persistent memory leaks. *)

type t

exception Restart

type stats = {
  mutable restarts : int;
  mutable allocs : int;
  mutable retires : int;
}

type insert_outcome = Inserted | Replaced of Pmalloc.Pptr.t

(** Bytes of meta-pool space the trie needs (root, generation, pending
    log). *)
val meta_size : int

(** [create ~heap ~meta ~epoch ~key_of_leaf] opens (or creates) a trie
    whose roots/logs live at the base of [meta].  Increments the
    persistent generation id, voiding all pre-crash locks.
    [key_of_leaf] must return the {e radix} key of a payload. *)
val create :
  heap:Pmalloc.Heap.t ->
  meta:Nvm.Pool.t ->
  epoch:Epoch.t ->
  key_of_leaf:(Pmalloc.Pptr.t -> string) ->
  t

val stats : t -> stats

val generation : t -> int

(** Exact match. *)
val lookup : t -> string -> Pmalloc.Pptr.t option

(** Greatest leaf with key <= the given radix key (anchor-key routing,
    §5.3). *)
val lookup_le : t -> string -> Pmalloc.Pptr.t option

(** Insert, or replace the payload of an equal key (returning the
    previous payload exactly once, so callers can reclaim it). *)
val insert : t -> string -> Pmalloc.Pptr.t -> insert_outcome

(** [delete t rkey] returns the removed payload when the key was
    present. *)
val delete : t -> string -> Pmalloc.Pptr.t option

(** In-order iteration over payloads with key >= the given radix key;
    stops when [f] returns [false].  Under concurrent structural
    modification a subtree may be re-visited (the PACTree proper never
    scans through the trie — only the PDL-ART baseline does). *)
val iter_from : t -> string -> (Pmalloc.Pptr.t -> bool) -> unit

(** Post-crash recovery: bumps the generation and frees unreachable
    pending-log entries.  Returns the number of freed nodes.  The
    heap's own {!Pmalloc.Heap.recover} must run first. *)
val recover : t -> int

(** Drop the whole trie without freeing any node — used when the
    backing pool was volatile (DRAM search layer) and a crash wiped
    it; the trie is then rebuilt from the data layer. *)
val reset : t -> unit

(** Number of leaves (test helper; walks the whole trie). *)
val cardinal : t -> int

(** Capacities (4, 16, 48 or 256) of the inner nodes an exact-match
    descent for the given radix key visits, root first (test helper;
    no concurrency control). *)
val node_path : t -> string -> int list

(** Leaf-depth histogram (test helper). *)
val depth_histogram : t -> (int, int) Hashtbl.t

(** Waits for pending-log capacity (instrumentation). *)
val pending_waits : int ref
