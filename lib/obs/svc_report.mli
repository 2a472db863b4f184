(** Machine-readable service saturation reports (schema
    ["pactree-svc/v1"]).

    One report = a service configuration plus a sweep of offered-load
    points; each point carries achieved throughput, the
    queue/service/total latency split (p50/p99/p99.99/mean/max),
    rejection rate, per-shard imbalance and group-commit/fence
    accounting.  {!validate} checks structure only (field presence,
    finiteness, percentile monotonicity, rates/ratios in range,
    offered loads strictly increasing); knee-shape assertions live in
    the bench driver, which knows it swept past saturation. *)

type point = {
  p_offered_mops : float;
  p_achieved_mops : float;
  p_generated : int;
  p_completed : int;
  p_rejected : int;
  p_rejection_rate : float;  (** in [0, 1] *)
  p_queue : Schema.latency;
  p_service : Schema.latency;
  p_total : Schema.latency;
  p_shard_completed : int list;
  p_imbalance : float;  (** max/mean completions per shard, >= 1 *)
  p_batches : int;
  p_writes_per_batch : float;
  p_fences_per_op : float;
  p_flushes_per_op : float;
}

type config = {
  c_index : string;
  c_shards : int;
  c_workers_per_shard : int;
  c_queue_capacity : int;
  c_admission : string;
  c_arrival : string;
  c_max_batch : int;
  c_max_batch_delay_us : float;
  c_keys : int;
  c_ops : int;
  c_mix : string;
  c_theta : float;
  c_numa : int;
}

val schema_version : string

val to_json : config -> point list -> Json.t

val validate : Json.t -> (unit, string) result

val validate_file : string -> (unit, string) result

(** Serialise, then re-read and {!validate} (fails loudly on schema
    drift). *)
val write_file : string -> Json.t -> unit

val pp_point : Format.formatter -> point -> unit
