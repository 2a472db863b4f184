(** Recovery replay harness: record a persist trace of a single-writer
    op sequence, enumerate every (budgeted) crash image, materialise
    each one, run the index's recovery and check durable
    linearizability against the {!Oracle}. *)

type violation = { v_at : int; v_label : string; v_msg : string }

type report = {
  sut : string;  (** the SUT's name *)
  ops : int;
  trace_events : int;
  stats : Enum.stats;
  checked : int;  (** states materialised and checked *)
  violations : violation list;
}

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

(** [n] deterministic fresh-key inserts (drives node splits). *)
val insert_workload : ?base:int -> int -> Oracle.op list

(** Seed-deterministic insert/delete mix (~25% deletes of live keys). *)
val mixed_workload : seed:int -> int -> Oracle.op list

(** Drive [ops] against the SUT while recording, then sweep crash
    states.  Stops early after [max_violations] violations or
    [max_states] checked states.  The SUT is consumed: its pools end
    up holding the last materialised image.

    [batch] groups the ops into chunks sharing one trace window, for
    checking group-commit systems: a crash inside a chunk puts every
    chunk member in flight (the oracle accepts any in-order prefix of
    them).  [apply] overrides how a chunk is executed (default:
    sequential {!Oracle.run_op} against the SUT's index) — e.g. route
    it through a store's [commit_batch]. *)
val run :
  ?budget_per_point:int ->
  ?max_states:int ->
  ?max_violations:int ->
  ?seed:int ->
  ?batch:int ->
  ?apply:(Oracle.op list -> unit) ->
  sut:Sut.t ->
  ops:Oracle.op list ->
  unit ->
  report

(** [sweep ~ops kinds] runs {!run} on a fresh {!Sut.create} of each
    kind, printing each report (and the seed to replay on failure).
    [true] when every kind came out clean. *)
val sweep :
  budget_per_point:int ->
  max_states:int ->
  seed:int ->
  ops:Oracle.op list ->
  Baselines.System.kind list ->
  bool
