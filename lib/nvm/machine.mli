(** The simulated NVM machine: NUMA topology, CPU cache model and the
    clwb/sfence staging pipeline shared by all pools.

    Persistence model (ADR, paper §2.1): CPU caches are volatile.  A
    store only reaches the persistent media image after [clwb] stages
    a snapshot of its cache line {e and} a subsequent [fence] by the
    same thread completes.  On {!crash}, everything else is lost
    ([Strict]) or survives line-by-line with some probability
    ([Flaky]), which models arbitrary cache evictions and in-flight
    flushes. *)

type t

(** [Strict]: only fenced flushes survive a crash — catches missing
    [clwb]/[fence].  [Flaky (p, rng)]: additionally every dirty line
    independently survives with probability [p] — models cache
    evictions and un-fenced flushes, catching ordering bugs. *)
type crash_mode = Strict | Flaky of float * Des.Rng.t

val create :
  ?profile:Config.profile -> ?protocol:Config.protocol -> numa_count:int -> unit -> t

val profile : t -> Config.profile

val protocol : t -> Config.protocol

val numa_count : t -> int

val device : t -> int -> Device.t

(** Machine-level counters (flushes, fences, CPU cache).  Device
    traffic lives in each device's {!Device.stats}. *)
val stats : t -> Stats.t

(** Sum of machine-level and all device counters. *)
val total_stats : t -> Stats.t

(** Current simulated time (0 outside a simulation). *)
val now : t -> float

(** {2 Used by {!Pool}} *)

(** [fresh_pool_id t] is [(id, index)]: a process-global pool id (for
    persistent pointers) and the pool's index among this machine's
    pools, 0 for the first (for line and XPLine ids). *)
val fresh_pool_id : t -> int * int

(** [cache_access t gline] models a CPU cache access to machine-wide line
    [gline]; returns [true] on a hit.  Misses install the tag. *)
val cache_access : t -> int -> bool

val cache_invalidate : t -> int -> unit

type staged = {
  pool_id : int;
  dev : Device.t;
  xpline : int;  (** machine-wide XPLine id, for write-combining *)
  apply : unit -> unit;  (** persist the snapshot into the media image *)
}

(** Queue a flushed-line snapshot on the calling thread's staging
    list; it persists at that thread's next [fence]. *)
val stage : t -> staged -> unit

(** Register a callback run by {!crash}. *)
val on_crash : t -> (crash_mode -> unit) -> unit

(** {2 Persist events (crash-state model checking, sanitizer)}

    Listeners see every program-visible persistence event on the
    machine's non-volatile pools, each emitted once, in program order:
    enough to replay the ADR state machine offline ([lib/crashmc]) or
    to lint persist order as it happens ({!Pobj.Sanitizer}).  With no
    listener no event is built.  Events never touch the simulated
    clock. *)

type persist_event =
  | Store of { tid : int; pool : int; line : int; data : string Lazy.t }
      (** thread [tid] stored into the line; [data] is the post-store
          content of the full 64B line, read when forced — so only
          valid if forced inside the callback *)
  | Clwb of { tid : int; pool : int; line : int; staged : string option }
      (** an effective clwb by [tid], with the snapshot it staged
          (durable at [tid]'s next fence), or [None] when it staged
          nothing: elided by flush tracking (its persistence
          obligation is already met) or on eADR.  A clwb dropped by
          {!set_flush_fault} models a missing call and emits nothing. *)
  | Fence of { tid : int }
      (** applies [tid]'s staged snapshots to the media; eADR machines
          emit none (there is nothing to order) *)
  | Drain of { pool : int; line : int; data : string }
      (** eADR background drain: [data] is durable immediately *)

type listener

(** [add_listener t f] calls [f] on every later event, after the
    listeners added before it. *)
val add_listener : t -> (persist_event -> unit) -> listener

val remove_listener : t -> listener -> unit

(** [true] iff a listener is attached (used by {!Pool} to build no
    event otherwise). *)
val listening : t -> bool

(** Deliver an event to every listener (used by {!Pool}). *)
val emit : t -> persist_event -> unit

(** A type-cycle-free handle on a pool (Pool depends on Machine), used
    by crashmc to snapshot and re-materialize media images. *)
type pool_view = {
  pv_id : int;
  pv_name : string;
  pv_capacity : int;
  pv_volatile : bool;
  pv_media : unit -> Bytes.t;  (** copy of the current media image *)
  pv_restore : Bytes.t -> unit;
      (** install a media image; cache := media, dirty bits cleared.
          Volatile pools ignore the argument and zero their cache. *)
}

val register_pool_view : t -> pool_view -> unit

(** All pools of this machine, in creation order. *)
val pool_views : t -> pool_view list

(** {2 Fault injection (checker self-tests)} *)

(** [set_flush_fault t (Some k)] silently drops the [k]-th (0-based)
    subsequent [clwb] on this machine — a missing-flush mutation used
    to prove the crash checker catches persistence bugs.  [None]
    disables and resets the counter. *)
val set_flush_fault : t -> int option -> unit

(** Consumes one clwb tick; [true] iff this clwb must be dropped.
    (Called by {!Pool.clwb}.) *)
val flush_faulted : t -> bool

(** [true] once the armed fault has actually dropped a clwb — i.e. the
    mutation was really injected (enough clwbs happened). *)
val flush_fault_fired : t -> bool

(** {2 Flush elision (FliT-style tracking)}

    {!Pool.clwb} always detects redundant flushes — the line is already
    clean on media, or the calling thread staged it and has not stored
    to it since — and counts them in {!Stats}[.flushes_elided].  With
    elision {e off} (default) the redundant clwb is still executed in
    full, so timings are bit-identical to a tracking-free machine and
    the counter reports the elision {e opportunity}.  With elision
    {e on} the redundant clwb skips staging and the media write
    entirely (keeping only its CPU cost and FH4 cache invalidation),
    which changes fence batching and therefore the whole simulated
    schedule. *)

val set_flush_elision : t -> bool -> unit

val flush_elision : t -> bool

(** {2 Observability} *)

(** [set_wait_observer t (Some f)] has every in-simulation [fence]
    report its stall ([f seconds], after the delay completes) — the
    hook behind the observability layer's [flush_wait] phase.  nvm
    stays independent of lib/obs; the recorder installs itself here. *)
val set_wait_observer : t -> (float -> unit) option -> unit

(** {2 Program-visible operations} *)

(** Store fence: drains the calling thread's staged flushes through
    the write-combining cost model and applies them to the media
    images.  Blocks (simulated) until the media writes complete. *)
val fence : t -> unit

(** Power-failure / SIGKILL: volatile state (CPU caches, staged
    flushes, device buffers, DRAM pools) is lost; each pool's cache
    image is reset to its media image per [crash_mode]. *)
val crash : t -> crash_mode -> unit
