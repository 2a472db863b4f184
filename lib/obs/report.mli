(** Canonical machine-readable bench output (BENCH_pactree.json).

    Schema ["pactree-bench/v1"]: a top-level object with [schema],
    [scale] {keys, ops, threads, mix} and a non-empty [results] array;
    each result carries throughput, latency percentiles, a per-phase
    time-percentage map over the full {!Span.all_phases} taxonomy
    (summing to ~100 whenever any time was attributed), and per-op
    persistence costs (flushes, fences, media bytes).  Future PRs
    regress against this file; {!validate} is run in CI so the
    trajectory can never silently go malformed. *)

type entry = {
  e_index : string;  (** "PACTree", "PDL-ART", ... *)
  e_mix : string;
  e_threads : int;
  e_keys : int;
  e_ops : int;
  e_elapsed_s : float;  (** simulated seconds *)
  e_throughput_mops : float;
  e_latency : Schema.latency;  (** of the sampled ops, microseconds *)
  e_phase_pct : (string * float) list;  (** over {!Span.all_phases} *)
  e_phase_us : (string * float) list;
  e_flushes_per_op : float;
  e_flushes_elided_per_op : float;
  e_fences_per_op : float;
  e_media_read_bytes_per_op : float;
  e_media_write_bytes_per_op : float;
  e_read_amplification : float;
  e_write_amplification : float;
}

val schema_version : string

(** Build the file-level JSON value. *)
val to_json :
  keys:int -> ops:int -> threads:int -> mix:string -> entries:entry list -> Json.t

(** Schema check of a parsed value. *)
val validate : Json.t -> (unit, string) result

(** Parse + validate a file on disk. *)
val validate_file : string -> (unit, string) result

(** Write (pretty-printed) and then re-read + validate; raises
    [Failure] if the round trip fails the schema. *)
val write_file : string -> Json.t -> unit

val pp_entry : Format.formatter -> entry -> unit
