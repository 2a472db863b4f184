(** Persist-trace recorder.

    A persist-event listener on {!Nvm.Machine}: logs every store (with
    its thread and the line's post-store content), every [clwb] that
    staged a snapshot, every fence and every eADR drain, together with
    a snapshot of every pool's media image at recording start.  Clwbs
    that staged nothing (elided, or eADR) are dropped: they change no
    crash state.  The resulting trace is a complete, self-contained
    description of the machine's persistence behaviour over a run:
    {!Enum} replays it to enumerate reachable crash images. *)

type t

(** Snapshot all pool media images and add the listener.  Other
    listeners (e.g. {!Pobj.Sanitizer}) may share the machine. *)
val start : Nvm.Machine.t -> t

(** Remove the listener.  The trace stays readable. *)
val stop : t -> unit

val machine : t -> Nvm.Machine.t

(** Events recorded so far — the op-boundary cursor used by the
    durable-linearizability oracle. *)
val seq : t -> int

(** Recorded events; every [Store]'s [data] is already forced. *)
val events : t -> Nvm.Machine.persist_event array

(** Media image of a pool at {!start} ([None]: created later, or
    volatile — both mean an all-zero base). *)
val base_media : t -> int -> Bytes.t option
