(** Zipfian rank generator (Gray et al.), as used by YCSB.

    Draws ranks in [\[0, n)] where rank 0 is the hottest item.  With
    [scramble] (default), ranks are hashed over the item space so hot
    items are spread out, matching YCSB's scrambled Zipfian. *)

type t

(** [create ~n ~theta rng].  [theta] is the skew (YCSB default 0.99;
    the paper sweeps 0.5-0.99 in Fig 15).  [theta = 0] degenerates to
    uniform. *)
val create : ?scramble:bool -> n:int -> theta:float -> Des.Rng.t -> t

val next : t -> int

(** Number of items. *)
val n : t -> int

(** [zeta n theta] is the generalised harmonic number
    [sum_{i=1..n} 1/i^theta], computed afresh in O(n). *)
val zeta : int -> float -> float

(** The [zeta n theta] the generator draws with ([0.] when [theta = 0]).
    [create] computes it once per [(n, theta)] and reuses it. *)
val zetan : t -> float
