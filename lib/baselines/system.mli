(** The registry of benchmarked systems: PACTree and the four
    baselines of the paper's §6, built by one constructor.

    Every consumer — the workload runner, the sharded store, the
    crash-state model checker, the figure generators and the CLI —
    builds its systems through {!make}. *)

(** A background service (e.g. PACTree's asynchronous search-layer
    updater): [body] runs as its own simulated thread, [shutdown] asks
    it to finish once the workers are done. *)
type service = { body : unit -> unit; shutdown : unit -> unit }

(** One live system: the index plus the hooks crash checking and the
    service layer need. *)
type t = {
  b_index : Index_intf.index;
  b_recover : unit -> unit;  (** rebuild volatile state after a crash *)
  b_invariants : unit -> unit;  (** raises on structural corruption *)
  b_quiesce : unit -> unit;
      (** finish background work (SMO log, epoch-deferred frees) *)
  b_service : service option;
}

type kind = Pactree | Pdlart | Fastfair | Bztree | Fptree

(** All systems, PACTree first. *)
val all : kind list

(** The name printed in tables and reports ("PACTree", "PDL-ART", ...). *)
val name : kind -> string

(** Accepts every {!name}, case-insensitively, and "pdl-art"/"pdlart". *)
val of_string : string -> kind option

(** FPTree's reference binary lacks variable-length keys (paper §6),
    so string-key runs skip it. *)
val supports_strings : kind -> bool

(** The system record around an already-built PACTree, for callers
    that also inspect the tree (e.g. its jump-node histogram). *)
val pactree : Pactree.Tree.t -> t

(** [make machine ~data_capacity ~search_capacity kind] builds one
    system on [machine].  [data_capacity] is bytes per data pool
    (BzTree gets 4x: it copy-on-writes without reclaiming);
    [search_capacity] sizes PACTree's search layer.  [string_keys]
    selects the 23-byte-key layouts (PACTree [key_inline] 32).  [cfg]
    replaces PACTree's whole configuration, capacities included
    (factor analysis); the other systems ignore it. *)
val make :
  Nvm.Machine.t ->
  ?string_keys:bool ->
  ?cfg:Pactree.Tree.config ->
  data_capacity:int ->
  search_capacity:int ->
  kind ->
  t
