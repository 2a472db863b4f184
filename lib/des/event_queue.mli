(** Mutable min-priority queue keyed by simulated time.

    Used as the event queue of the discrete-event scheduler.  Ties are
    broken by insertion order (FIFO), which keeps simulations
    deterministic. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

(** [add q ~time v] schedules [v] at [time]. *)
val add : 'a t -> time:float -> 'a -> unit

(** [pop_min q] removes and returns the earliest event as
    [(time, value)].  Raises [Not_found] if the queue is empty. *)
val pop_min : 'a t -> float * 'a
