(** Combinators shared by the report validators ({!Report},
    {!Svc_report}): field accessors that fail with a located message,
    the schema-version check, an indexed walk over a result array, the
    write-then-revalidate file writer, and the latency summary both
    schemas carry. *)

val ( let* ) : ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result

(** [require_number ctx key obj]: the finite number [obj.key]. *)
val require_number : string -> string -> Json.t -> (float, string) result

val require_string : string -> string -> Json.t -> (string, string) result

val require_obj : string -> string -> Json.t -> (Json.t, string) result

(** The top-level ["schema"] field equals [version]. *)
val check_version : string -> Json.t -> (unit, string) result

(** The non-empty top-level array [json.key]. *)
val require_list : string -> Json.t -> (Json.t list, string) result

(** [fold_indexed f init l] threads [f i acc x] over [l], stopping at
    the first error. *)
val fold_indexed :
  (int -> 'a -> Json.t -> ('a, string) result) -> 'a -> Json.t list -> ('a, string) result

(** Parse the file at [path] and apply [validate]. *)
val validate_file : (Json.t -> (unit, string) result) -> string -> (unit, string) result

(** Write [json] (one trailing newline).  With [validate], re-read the
    file and raise [Failure] if it does not validate. *)
val write_file : ?validate:(Json.t -> (unit, string) result) -> string -> Json.t -> unit

(** A latency distribution condensed for a report, in microseconds. *)
type latency = {
  p50_us : float;
  p99_us : float;
  p9999_us : float;
  mean_us : float;
  max_us : float;
}

(** [{p50, p99, p99.99, mean, max}], in that order. *)
val latency_json : latency -> Json.t

(** [require_latency ctx key obj]: [obj.key] is a {!latency_json}
    block with [0 <= p50 <= p99 <= p99.99 <= max]. *)
val require_latency : string -> string -> Json.t -> (unit, string) result
