(** Glue between the workload runner and lib/obs: instrumented runs
    that produce {!Obs.Report} entries for BENCH_pactree.json. *)

(** [bench_entry ~scale ~mix ~threads sys] builds the system, runs the
    workload with a fresh {!Obs.Recorder} installed, and condenses the
    result + recorder into one report entry.  The recorder is also
    returned for callers that want the full dump ([--obs]).
    [~sanitize:true] additionally enables the {!Pobj.Sanitizer} on the
    run's machine and leaves it active so the caller can inspect
    {!Pobj.Sanitizer.reports} when the run returns. *)
val bench_entry :
  ?string_keys:bool ->
  ?theta:float ->
  ?sanitize:bool ->
  scale:Scale.t ->
  mix:Workload.Ycsb.mix ->
  threads:int ->
  Baselines.System.kind ->
  Obs.Report.entry * Obs.Recorder.t

(** The report summary of a latency recorder (both report schemas). *)
val latency_summary : Workload.Latency.t -> Obs.Schema.latency

(** Condense an already-made run: [entry_of_result ~name ~keys r obs]. *)
val entry_of_result :
  name:string -> keys:int -> Workload.Runner.result -> Obs.Recorder.t -> Obs.Report.entry

(** The canonical instrumented bench (BENCH_pactree.json): YCSB-A on
    PACTree, PDL-ART and FastFair at [scale].  Prints each entry and
    its phase table, validates the report in memory (raising
    [Failure] if it is malformed) and returns it with the persist-order
    sanitizer's hazard count per system that had any ([sanitize]
    only). *)
val stats :
  ?sanitize:bool -> threads:int -> Scale.t -> Obs.Json.t * (string * int) list
