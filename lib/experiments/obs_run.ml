module Machine = Nvm.Machine
module System = Baselines.System
module Stats = Nvm.Stats
module Runner = Workload.Runner
module Latency = Workload.Latency
module Ycsb = Workload.Ycsb
module Keyset = Workload.Keyset

let latency_summary l =
  let us p = Latency.percentile l p *. 1e6 in
  {
    Obs.Schema.p50_us = us 50.0;
    p99_us = us 99.0;
    p9999_us = us 99.99;
    mean_us = Latency.mean l *. 1e6;
    max_us = Latency.max l *. 1e6;
  }

let entry_of_result ~name ~keys (r : Runner.result) (obs : Obs.Recorder.t) =
  let per_op x = float_of_int x /. float_of_int (max 1 r.Runner.ops) in
  let nvm = r.Runner.nvm in
  {
    Obs.Report.e_index = name;
    e_mix = Format.asprintf "%a" Ycsb.pp_mix r.Runner.mix;
    e_threads = r.Runner.threads;
    e_keys = keys;
    e_ops = r.Runner.ops;
    e_elapsed_s = r.Runner.elapsed;
    e_throughput_mops = Runner.mops r;
    e_latency = latency_summary r.Runner.latency;
    e_phase_pct =
      List.map
        (fun (p, pct) -> (Obs.Span.phase_name p, pct))
        (Obs.Span.percentages obs.Obs.Recorder.span);
    e_phase_us =
      List.map
        (fun row -> (Obs.Span.phase_name row.Obs.Span.r_phase, row.Obs.Span.r_seconds *. 1e6))
        (Obs.Span.rows obs.Obs.Recorder.span);
    e_flushes_per_op = per_op nvm.Stats.flushes;
    e_flushes_elided_per_op = per_op nvm.Stats.flushes_elided;
    e_fences_per_op = per_op nvm.Stats.fences;
    e_media_read_bytes_per_op = per_op (Stats.total_read_bytes nvm);
    e_media_write_bytes_per_op = per_op (Stats.total_write_bytes nvm);
    e_read_amplification = Stats.read_amplification nvm;
    e_write_amplification = Stats.write_amplification nvm;
  }

let bench_entry ?(string_keys = false) ?(theta = 0.99) ?(sanitize = false) ~scale ~mix
    ~threads sys =
  Gc.compact ();
  let machine = Machine.create ~numa_count:2 () in
  let system =
    System.make machine ~string_keys ~data_capacity:scale.Scale.data_capacity
      ~search_capacity:scale.Scale.search_capacity sys
  in
  let obs = Obs.Recorder.create machine () in
  let kind = if string_keys then Keyset.String_keys else Keyset.Int_keys in
  (* Enabled before load+run so the whole lifetime is linted; the
     caller reads {!Pobj.Sanitizer.reports} afterwards (the next
     [enable] — or process exit — retires this machine's observer). *)
  if sanitize then Pobj.Sanitizer.enable machine;
  let r =
    Runner.run ~machine ~index:system.System.b_index ?service:system.System.b_service
      ~obs ~mix ~kind ~loaded:scale.Scale.keys ~ops:scale.Scale.ops ~threads ~theta ()
  in
  (entry_of_result ~name:(System.name sys) ~keys:scale.Scale.keys r obs, obs)

let stats ?(sanitize = false) ~threads scale =
  let mix = Ycsb.Workload_a in
  let hazards = ref [] in
  let entries =
    List.map
      (fun sys ->
        let entry, obs = bench_entry ~scale ~mix ~threads ~sanitize sys in
        Format.printf "%a@." Obs.Report.pp_entry entry;
        Format.printf "%a@." Obs.Span.pp_table obs.Obs.Recorder.span;
        if sanitize then begin
          let name = System.name sys in
          match Pobj.Sanitizer.reports () with
          | [] -> Format.printf "sanitizer  : clean (%s)@." name
          | reports ->
              hazards := (name, Pobj.Sanitizer.total ()) :: !hazards;
              Format.printf "sanitizer  : %d unflushed store-lines (%s)@."
                (Pobj.Sanitizer.total ()) name;
              List.iter (fun r -> Format.printf "  %a@." Pobj.Sanitizer.pp_report r) reports
        end;
        entry)
      [ System.Pactree; System.Pdlart; System.Fastfair ]
  in
  let json =
    Obs.Report.to_json ~keys:scale.Scale.keys ~ops:scale.Scale.ops ~threads
      ~mix:(Format.asprintf "%a" Ycsb.pp_mix mix)
      ~entries
  in
  match Obs.Report.validate json with
  | Ok () -> (json, List.rev !hazards)
  | Error msg -> failwith ("stats: malformed bench output: " ^ msg)
