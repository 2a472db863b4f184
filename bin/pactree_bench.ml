(* Command-line driver for ad-hoc experiments on the simulated NVM
   machine.

     pactree_bench ycsb --index pactree --mix a --threads 28 ...
     pactree_bench figure fig10 --full
     pactree_bench crash *)

open Cmdliner
module System = Baselines.System

let index_conv =
  Arg.conv
    ( (fun s ->
        match System.of_string s with
        | Some sys -> Ok sys
        | None -> Error (`Msg ("unknown index: " ^ s))),
      fun ppf sys -> Format.pp_print_string ppf (System.name sys) )

(* Sizes and counts: a value below [min] is a usage error (exit 124)
   here, not a crash, hang or late failure deep inside a run. *)
let count ~min =
  Arg.conv
    ( (fun s ->
        match Arg.conv_parser Arg.int s with
        | Ok n when n < min ->
            Error (`Msg (Printf.sprintf "%d is below the minimum %d" n min))
        | r -> r),
      Format.pp_print_int )

let index_names = String.concat ", " (List.map System.name System.all)

let index_arg =
  Arg.(
    value
    & opt index_conv System.Pactree
    & info [ "index" ] ~docv:"INDEX" ~doc:("Index to benchmark: " ^ index_names ^ "."))

let mix_arg =
  let mix_conv =
    Arg.conv
      ( (fun s ->
          match Workload.Ycsb.mix_of_string s with
          | Some m -> Ok m
          | None -> Error (`Msg ("unknown mix: " ^ s))),
        Workload.Ycsb.pp_mix )
  in
  Arg.(
    value
    & opt mix_conv Workload.Ycsb.Workload_a
    & info [ "mix" ] ~docv:"MIX" ~doc:"YCSB mix: la, a, b, c, e, skew-insert.")

let keys_arg =
  Arg.(value & opt (count ~min:0) 100_000 & info [ "keys" ] ~doc:"Pre-loaded key count.")

let ops_arg =
  Arg.(value & opt (count ~min:1) 100_000 & info [ "ops" ] ~doc:"Operations to run.")

let threads_arg =
  Arg.(value & opt (count ~min:1) 28 & info [ "threads" ] ~doc:"Simulated worker threads.")

let theta_arg =
  Arg.(
    value & opt float 0.99
    & info [ "theta" ] ~doc:"Zipfian skew (0 = uniform, YCSB default 0.99).")

let string_keys_arg =
  Arg.(value & flag & info [ "string-keys" ] ~doc:"Use 23-byte string keys.")

let protocol_arg =
  Arg.(
    value & flag
    & info [ "directory" ]
        ~doc:"Use the directory cache-coherence protocol (default: snoop).")

let low_bw_arg =
  Arg.(
    value & flag
    & info [ "low-bandwidth" ] ~doc:"Use the low-bandwidth NVM machine profile (6.2).")

let elide_arg =
  Arg.(
    value & flag
    & info [ "elide" ]
        ~doc:
          "Actually skip redundant flushes (FliT-style elision) instead of only \
           counting them.  Changes fence batching, so results are not comparable \
           with non-elided runs line-by-line.")

let obs_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs" ] ~docv:"FILE"
        ~doc:
          "Instrument the measured phase and dump the per-phase attribution and the \
           bandwidth timeline as JSON to $(docv) (collapsed flamegraph stacks go \
           to $(docv).folded).")

(* Peak resident set size of this process ([VmHWM], Linux only). *)
let peak_rss_bytes () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                Some (kb * 1024))
        | _ -> scan ()
        | exception End_of_file -> None
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let run_ycsb sys mix keys ops threads theta string_keys directory low_bw elide obs_out =
  let wall0 = Unix.gettimeofday () in
  let protocol = if directory then Nvm.Config.Directory else Nvm.Config.Snoop in
  let profile = if low_bw then Nvm.Config.dcpmm_low_bw else Nvm.Config.dcpmm in
  let machine = Nvm.Machine.create ~profile ~protocol ~numa_count:2 () in
  Nvm.Machine.set_flush_elision machine elide;
  let scale = Experiments.Scale.make ~keys ~ops ~thread_counts:[] in
  let system =
    System.make machine ~string_keys ~data_capacity:scale.Experiments.Scale.data_capacity
      ~search_capacity:scale.Experiments.Scale.search_capacity sys
  in
  let kind =
    if string_keys then Workload.Keyset.String_keys else Workload.Keyset.Int_keys
  in
  let obs =
    Option.map (fun _ -> Obs.Recorder.create machine ~sample_interval:20e-6 ()) obs_out
  in
  let r =
    Workload.Runner.run ~machine ~index:system.System.b_index
      ?service:system.System.b_service ?obs ~mix ~kind ~loaded:keys ~ops
      ~threads ~theta ()
  in
  Format.printf "index      : %s@." (System.name sys);
  Format.printf "workload   : %a, %d keys, %d ops, %d threads, theta %.2f@."
    Workload.Ycsb.pp_mix mix keys ops threads theta;
  Format.printf "throughput : %.3f Mops/s (simulated)@." (Workload.Runner.mops r);
  Format.printf "elapsed    : %.3f ms (simulated)@." (r.Workload.Runner.elapsed *. 1e3);
  let p q = Workload.Latency.percentile r.Workload.Runner.latency q *. 1e6 in
  Format.printf "latency    : p50 %.1f us, p99 %.1f us, p99.9 %.1f us, p99.99 %.1f us@."
    (p 50.) (p 99.) (p 99.9) (p 99.99);
  Format.printf
    "NVM traffic: %.1f MB read, %.1f MB written, %d flushes (+%d elided), %d fences@."
    (float_of_int (Nvm.Stats.total_read_bytes r.Workload.Runner.nvm) /. 1e6)
    (float_of_int (Nvm.Stats.total_write_bytes r.Workload.Runner.nvm) /. 1e6)
    r.Workload.Runner.nvm.Nvm.Stats.flushes
    r.Workload.Runner.nvm.Nvm.Stats.flushes_elided r.Workload.Runner.nvm.Nvm.Stats.fences;
  Format.printf "host       : %.1f s wall (load + run), peak RSS %s@."
    (Unix.gettimeofday () -. wall0)
    (match peak_rss_bytes () with
    | Some b -> Printf.sprintf "%.0f MB" (float_of_int b /. 1e6)
    | None -> "unavailable");
  match (obs_out, obs) with
  | Some path, Some o ->
      Format.printf "%a@." Obs.Span.pp_table o.Obs.Recorder.span;
      Obs.Schema.write_file path (Obs.Recorder.to_json o);
      Obs.Span.write_collapsed o.Obs.Recorder.span (path ^ ".folded");
      Format.printf "observability dump: %s (stacks: %s.folded)@." path path
  | _ -> ()

let ycsb_cmd =
  let doc = "Run one YCSB workload against one index." in
  Cmd.v
    (Cmd.info "ycsb" ~doc)
    Term.(
      const run_ycsb $ index_arg $ mix_arg $ keys_arg $ ops_arg $ threads_arg
      $ theta_arg $ string_keys_arg $ protocol_arg $ low_bw_arg $ elide_arg $ obs_arg)

let figure_cmd =
  let doc = "Regenerate one of the paper's figures (see DESIGN.md)." in
  let figure_arg =
    Arg.(required & pos 0 (some (enum Experiments.Suite.all)) None & info [] ~docv:"FIGURE")
  in
  let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Paper-like scale (slow).") in
  let run_figure f full =
    f (if full then Experiments.Scale.full else Experiments.Scale.quick)
  in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run_figure $ figure_arg $ full_arg)

let run_crash obs_out =
  let scale =
    { Experiments.Scale.quick with Experiments.Scale.keys = 20_000; ops = 20_000 }
  in
  (* Time-only recorder (no single machine spans the rounds): shows
     how much simulated time the rounds spend in the recovery phase. *)
  let span = Option.map (fun _ -> Obs.Span.create ()) obs_out in
  Option.iter Obs.Span.install span;
  Fun.protect
    ~finally:(fun () -> Option.iter Obs.Span.uninstall span)
    (fun () -> Experiments.Figures.sec6_8 scale);
  match (obs_out, span) with
  | Some path, Some s ->
      Format.printf "%a@." Obs.Span.pp_table s;
      Obs.Schema.write_file path (Obs.Span.to_json s);
      Format.printf "observability dump: %s@." path
  | _ -> ()

let crash_cmd =
  let doc = "Crash-injection recovery test (6.8)." in
  Cmd.v (Cmd.info "crash" ~doc) Term.(const run_crash $ obs_arg)

(* ---------- stats: the canonical machine-readable bench ---------- *)

let run_stats quick sanitize out check threads =
  match check with
  | Some path -> (
      match Obs.Report.validate_file path with
      | Ok () -> Format.printf "%s: OK (schema %s)@." path Obs.Report.schema_version
      | Error msg ->
          Format.eprintf "%s: INVALID: %s@." path msg;
          exit 1)
  | None ->
      let scale =
        if quick then Experiments.Scale.make ~keys:20_000 ~ops:15_000 ~thread_counts:[]
        else Experiments.Scale.quick
      in
      let json, hazards = Experiments.Obs_run.stats ~sanitize ~threads scale in
      Obs.Report.write_file out json;
      Format.printf "wrote %s (schema %s)@." out Obs.Report.schema_version;
      if hazards <> [] then begin
        List.iter
          (fun (name, n) ->
            Format.eprintf "persist-order sanitizer: %d hazard(s) in %s@." n name)
          hazards;
        exit 1
      end

let stats_cmd =
  let doc =
    "Run the canonical instrumented benchmark (YCSB-A, PACTree + baselines) and emit \
     schema-validated BENCH_pactree.json; or validate an existing file with --check."
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced scale for CI (seconds).")
  in
  let sanitize_arg =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Run the persist-order sanitizer during the benchmark and fail (exit 1) on \
             any store left unflushed at its thread's ordering point.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "BENCH_pactree.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"Validate $(docv) against the schema and exit (no benchmark run).")
  in
  Cmd.v
    (Cmd.info "stats" ~doc)
    Term.(const run_stats $ quick_arg $ sanitize_arg $ out_arg $ check_arg $ threads_arg)

(* ---------- crashmc: systematic crash-state model checking ---------- *)

let run_crashmc kinds ops budget max_states seed workload mutate =
  let seed =
    match Des.Rng.env_seed ~default:(Int64.of_int seed) with
    | s -> Int64.to_int s
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 2
  in
  let ops =
    match workload with
    | `Insert -> Crashmc.Harness.insert_workload ops
    | `Mixed -> Crashmc.Harness.mixed_workload ~seed ops
  in
  let failed =
    ref
      (not
         (Crashmc.Harness.sweep ~budget_per_point:budget ~max_states ~seed ~ops kinds))
  in
  (* Mutation mode: drop one clwb late in the run and demand the
     checker notices — proof the oracle has teeth.  The persist-
     order sanitizer rides along as a cross-check.  A mutant whose
     dropped clwb is made redundant by a later flush of the same
     line is harmless — neither oracle can (or should) flag it —
     so the invariant is per-mutant containment: every mutant the
     exhaustive checker convicts must also be flagged dynamically
     (the lint is at least as sensitive as the oracle on
     missing-flush bugs), and at least one injected mutant must be
     flagged overall. *)
  if mutate then
    List.iter
      (fun kind ->
        let killed = ref 0 and tried = ref 0 in
        let injected = ref 0 and san_caught = ref 0 in
        let k = ref 1 in
        while !tried < 6 do
          incr tried;
          let sut = Crashmc.Sut.create kind in
          let m = sut.Crashmc.Sut.machine in
          Nvm.Machine.set_flush_fault m (Some !k);
          Pobj.Sanitizer.enable m;
          let r =
            Crashmc.Harness.run ~budget_per_point:budget ~max_states ~seed
              ~max_violations:1 ~sut ~ops ()
          in
          let fired = Nvm.Machine.flush_fault_fired m in
          let flagged = fired && Pobj.Sanitizer.total () > 0 in
          if fired then begin
            incr injected;
            if flagged then incr san_caught
          end;
          Pobj.Sanitizer.disable m;
          if not (Crashmc.Harness.ok r) then begin
            incr killed;
            if not flagged then begin
              Format.printf
                "  sanitizer missed a checker-convicted mutant (clwb %d) — seed %d@."
                !k seed;
              failed := true
            end
          end;
          k := !k * 3
        done;
        Format.printf "%s mutation check: %d/%d dropped-clwb mutants caught@."
          (System.name kind) !killed !tried;
        Format.printf "%s sanitizer cross-check: %d/%d injected mutants flagged@."
          (System.name kind) !san_caught !injected;
        if !killed = 0 then begin
          Format.printf "  no mutant caught — checker has no teeth? seed %d@." seed;
          failed := true
        end;
        if !san_caught = 0 then begin
          Format.printf "  sanitizer flagged no mutant at all — seed %d@." seed;
          failed := true
        end)
      kinds;
  if !failed then exit 1

let crashmc_cmd =
  let doc =
    "Systematic crash-state model checking: enumerate every crash image an op \
     trace allows under ADR semantics, recover each, check durable \
     linearizability."
  in
  let index_arg =
    let kinds_conv =
      Arg.conv
        ( (fun s ->
            if String.lowercase_ascii s = "all" then Ok System.all
            else Result.map (fun k -> [ k ]) (Arg.conv_parser index_conv s)),
          fun ppf kinds ->
            Format.pp_print_string ppf
              (if kinds = System.all then "all"
               else String.concat "," (List.map System.name kinds)) )
    in
    Arg.(
      value & opt kinds_conv System.all
      & info [ "index" ] ~docv:"INDEX" ~doc:("Index to check: " ^ index_names ^ ", all."))
  in
  let ops_arg =
    Arg.(
      value & opt (count ~min:1) 48 & info [ "ops" ] ~doc:"Operations in the recorded trace.")
  in
  let budget_arg =
    Arg.(
      value & opt int 48
      & info [ "budget" ] ~doc:"Max crash images enumerated per crash point.")
  in
  let max_states_arg =
    Arg.(
      value & opt int 20_000
      & info [ "max-states" ] ~doc:"Total crash-state cap per index.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~doc:"Workload/enumeration seed (PACTREE_SEED overrides).")
  in
  let workload_arg =
    Arg.(
      value
      & opt (enum [ ("insert", `Insert); ("mixed", `Mixed) ]) `Mixed
      & info [ "workload" ] ~doc:"Trace shape: insert (split-heavy) or mixed.")
  in
  let mutate_arg =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:"Also run dropped-clwb mutants and require the checker to catch one.")
  in
  Cmd.v
    (Cmd.info "crashmc" ~doc)
    Term.(
      const run_crashmc $ index_arg $ ops_arg $ budget_arg $ max_states_arg
      $ seed_arg $ workload_arg $ mutate_arg)

(* ---------- service: sharded KV service saturation sweep ---------- *)

let run_service sys shards quick keys ops workers queue batch batch_delay_us admission
    arrival mix theta out check obs_out =
  match check with
  | Some path -> (
      match Obs.Svc_report.validate_file path with
      | Ok () -> Format.printf "%s: OK (schema %s)@." path Obs.Svc_report.schema_version
      | Error msg ->
          Format.eprintf "%s: INVALID: %s@." path msg;
          exit 1)
  | None -> (
      let admission =
        match Svc.Engine.admission_of_string admission with
        | Ok a -> a
        | Error msg ->
            prerr_endline msg;
            exit 2
      in
      let process =
        match Workload.Arrival.process_of_string arrival with
        | Ok p -> p
        | Error msg ->
            prerr_endline msg;
            exit 2
      in
      let d = Experiments.Svc_run.default ~quick sys in
      let cfg =
        {
          d with
          Experiments.Svc_run.shards;
          keys = Option.value keys ~default:d.Experiments.Svc_run.keys;
          ops = Option.value ops ~default:d.Experiments.Svc_run.ops;
          workers_per_shard = workers;
          queue_capacity = queue;
          admission;
          process;
          max_batch = batch;
          max_batch_delay = batch_delay_us *. 1e-6;
          mix;
          theta;
        }
      in
      if cfg.Experiments.Svc_run.keys < shards then begin
        (* every shard needs a boundary key of its own *)
        Format.eprintf "pactree_bench: --keys %d is fewer than --shards %d@."
          cfg.Experiments.Svc_run.keys shards;
        exit Cmd.Exit.cli_error
      end;
      (* Time-only recorder (each sweep point runs on a fresh machine):
         attributes simulated time to the svc_queue / svc_batch phases
         across the whole sweep. *)
      let span = Option.map (fun _ -> Obs.Span.create ()) obs_out in
      Option.iter Obs.Span.install span;
      let report =
        Fun.protect
          ~finally:(fun () -> Option.iter Obs.Span.uninstall span)
          (fun () -> Experiments.Svc_run.run cfg)
      in
      match report with
      | Error msg ->
          Format.eprintf "service sweep %s@." msg;
          exit 1
      | Ok json -> (
          Obs.Svc_report.write_file out json;
          Format.printf "wrote %s (schema %s)@." out Obs.Svc_report.schema_version;
          match (obs_out, span) with
          | Some path, Some s ->
              Format.printf "%a@." Obs.Span.pp_table s;
              Obs.Schema.write_file path (Obs.Span.to_json s);
              Format.printf "observability dump: %s@." path
          | _ -> ()))

let service_cmd =
  let doc =
    "Saturation sweep of the sharded KV service (lib/svc): open-loop load against a \
     range-partitioned store with group-commit batching, reporting \
     throughput-vs-offered, queue/service latency split and rejection rates as \
     schema-validated JSON; or validate an existing file with --check."
  in
  let shards_arg =
    Arg.(
      value & opt (count ~min:1) 4 & info [ "shards" ] ~doc:"Range partitions (one log each).")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced scale for CI (seconds).")
  in
  let keys_opt_arg =
    Arg.(
      value
      & opt (some (count ~min:0)) None
      & info [ "keys" ] ~doc:"Pre-loaded key count (default: scale preset).")
  in
  let ops_opt_arg =
    Arg.(
      value
      & opt (some (count ~min:1)) None
      & info [ "ops" ] ~doc:"Requests per sweep point (default: scale preset).")
  in
  let workers_arg =
    Arg.(value & opt (count ~min:1) 2 & info [ "workers" ] ~doc:"Worker threads per shard.")
  in
  let queue_arg =
    Arg.(value & opt (count ~min:1) 64 & info [ "queue" ] ~doc:"Per-shard queue capacity.")
  in
  let batch_arg =
    Arg.(value & opt (count ~min:1) 8 & info [ "batch" ] ~doc:"Max writes per group commit.")
  in
  let batch_delay_arg =
    Arg.(
      value & opt float 2.0
      & info [ "batch-delay-us" ]
          ~doc:"Max time a worker waits to fill a batch (microseconds).")
  in
  let admission_arg =
    Arg.(
      value & opt string "reject"
      & info [ "admission" ] ~docv:"POLICY"
          ~doc:"Full-queue policy: reject (open-loop preserving) or block.")
  in
  let arrival_arg =
    Arg.(
      value & opt string "poisson"
      & info [ "arrival" ] ~docv:"PROCESS" ~doc:"Arrival process: poisson or uniform.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "SVC_pactree.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "check" ] ~docv:"FILE"
          ~doc:"Validate $(docv) against the schema and exit (no sweep run).")
  in
  Cmd.v
    (Cmd.info "service" ~doc)
    Term.(
      const run_service $ index_arg $ shards_arg $ quick_arg $ keys_opt_arg $ ops_opt_arg
      $ workers_arg $ queue_arg $ batch_arg $ batch_delay_arg $ admission_arg
      $ arrival_arg $ mix_arg $ theta_arg $ out_arg $ check_arg $ obs_arg)

let () =
  let doc = "PACTree (SOSP'21) reproduction benchmarks on a simulated NVM machine." in
  let info = Cmd.info "pactree_bench" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ycsb_cmd; figure_cmd; crash_cmd; crashmc_cmd; stats_cmd; service_cmd ]))
