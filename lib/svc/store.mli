(** Range-partitioned sharded store over any {!Baselines.Index_intf}
    backend, with a per-shard group-commit log.

    A store owns [K] independent index instances ("shards"), each with
    its own heap/pools placed on NUMA domain [i mod numa_count] (the
    backends are built by the caller-supplied factory, which receives
    the target domain; allocation in this simulator is NUMA-local to
    the calling thread, so shard workers pinned to that domain keep
    the shard's data local).  A boundary-key map routes every key to
    exactly one shard; cross-shard [scan] k-way-merges the per-shard
    iterators so results stay globally ordered across boundaries.

    {b Group commit.}  Direct operations ({!insert} etc.) go straight
    to the owning shard's index and rely on the index's own persistence
    (every backend is durably linearizable op-by-op).  The service
    engine instead calls {!commit_batch}: the batch's writes are
    appended to the shard's persistent redo log (one 64-byte entry per
    write, sequence word stored last so a torn entry is detectable),
    then a {e single} fence makes the whole batch durable, then the
    writes are applied to the index with its normal internal
    persistence, and only then is the batch acknowledged — an acked
    write is both durable and visible to concurrent readers
    (read-your-writes at ack).  An applied-watermark is stored +
    flushed lazily (it rides the next batch's fence); {!recover}
    replays the log from the persisted watermark, stopping at the
    first entry whose sequence number does not match, then scrubs any
    orphaned entries past that point (entry lines persist
    independently before the batch fence, so a later entry of the
    interrupted batch may survive without an earlier one; its sequence
    number is exactly one a future committed write will use, and
    without scrubbing a second crash would resurrect it).  A crash
    during a batched commit therefore loses at most the unacked ops of
    the interrupted batch and replay is idempotent.  When the ring is
    about to reuse slots replay might still need, the watermark is
    checkpointed with its own fence first (amortised over
    [log_entries / batch] batches). *)

(** One shard's system, as built by {!Baselines.System.make}. *)
type backend = Baselines.System.t = {
  b_index : Baselines.Index_intf.index;
  b_recover : unit -> unit;  (** post-crash recovery of this shard's index *)
  b_invariants : unit -> unit;  (** raises on structural corruption *)
  b_quiesce : unit -> unit;  (** drain background work (epochs, SMO log) *)
  b_service : Workload.Runner.service option;
      (** background service (e.g. PACTree's updater), if any *)
}

type t

(** [create ~machine ~boundaries ~make_backend ()] builds
    [Array.length boundaries + 1] shards; shard [i] owns keys [k] with
    [boundaries.(i-1) <= k < boundaries.(i)].  Boundaries must be
    strictly increasing.  [make_backend ~shard ~numa] receives the
    shard's home domain [numa = shard mod numa_count] for pool
    placement (bulk data placement follows the loading/worker threads,
    which the engine pins to the same domain).  [log_entries] sizes
    each shard's redo-log ring (default 1024; must exceed the largest
    batch). *)
val create :
  machine:Nvm.Machine.t ->
  boundaries:Pactree.Key.t array ->
  make_backend:(shard:int -> numa:int -> backend) ->
  ?log_entries:int ->
  unit ->
  t

val machine : t -> Nvm.Machine.t

val shard_count : t -> int

val shard_numa : t -> int -> int

(** Owning shard of a key (binary search over the boundary map). *)
val shard_of_key : t -> Pactree.Key.t -> int

(** [boundaries_for ~kind ~keys ~shards] — equi-populated boundary
    keys for a {!Workload.Keyset} of [keys] keys: sorts the scattered
    keyset and cuts it into [shards] contiguous ranges. *)
val boundaries_for :
  kind:Workload.Keyset.kind -> keys:int -> shards:int -> Pactree.Key.t array

(** Per-shard background services (shard id, service), for spawning
    pinned to the shard's domain. *)
val services : t -> (int * Workload.Runner.service) list

(** {2 Direct operations} (routed, index-persisted; no group commit) *)

val insert : t -> Pactree.Key.t -> int -> unit

val lookup : t -> Pactree.Key.t -> int option

val update : t -> Pactree.Key.t -> int -> bool

val delete : t -> Pactree.Key.t -> bool

(** Ordered cross-shard scan: k-way merge of per-shard scans, fetching
    successor shards only while the result can still grow. *)
val scan : t -> Pactree.Key.t -> int -> (Pactree.Key.t * int) list

(** The store as a uniform index value (for oracles and the closed-
    loop runner). *)
val as_index : t -> Baselines.Index_intf.index

(** {2 Group commit} *)

type write = Put of Pactree.Key.t * int | Del of Pactree.Key.t

(** [commit_batch t ~shard ?on_durable writes] — append [writes] to
    shard's redo log, fence once (durability point), apply to the
    index, then call [on_durable]: the batch is acknowledged durable
    {e and} visible.  Serialised per shard by a mutex (also usable
    outside a scheduler, where locking is uncontended — e.g. from the
    crashmc harness).  All keys must belong to [shard]. *)
val commit_batch : t -> shard:int -> ?on_durable:(unit -> unit) -> write list -> unit

(** Fences spent checkpointing watermarks (ring-reuse guards), summed
    over shards — for fence accounting in tests. *)
val checkpoint_fences : t -> int

(** {2 Whole-store maintenance} *)

(** Recover every shard after {!Nvm.Machine.crash}: backend recovery,
    idempotent redo-log replay from the persisted watermark, then a
    scrub of orphaned entries past the replay tail (so a ghost from
    the interrupted batch cannot be resurrected by a later crash). *)
val recover : t -> unit

val invariants : t -> unit

val quiesce : t -> unit
