(* Mini YCSB comparison: PACTree vs FastFair vs PDL-ART on workloads
   A and C, at 1 and 28 simulated threads — a taste of the full
   benchmark suite (bench/main.exe).

     dune exec examples/ycsb_demo.exe *)

let scale_keys = 20_000

let run sys mix threads =
  let machine = Nvm.Machine.create ~numa_count:2 () in
  let scale =
    Experiments.Scale.make ~keys:scale_keys ~ops:scale_keys ~thread_counts:[]
  in
  let system =
    Baselines.System.make machine ~data_capacity:scale.Experiments.Scale.data_capacity
      ~search_capacity:scale.Experiments.Scale.search_capacity sys
  in
  Workload.Runner.run ~machine ~index:system.Baselines.System.b_index
    ?service:system.Baselines.System.b_service ~mix ~kind:Workload.Keyset.Int_keys
    ~loaded:scale_keys ~ops:scale_keys ~threads ()

let () =
  let systems =
    [ Baselines.System.Pactree; Baselines.System.Fastfair; Baselines.System.Pdlart ]
  in
  Printf.printf "YCSB demo: %d keys, %d ops, Zipfian 0.99 (simulated Mops/s)\n\n"
    scale_keys scale_keys;
  List.iter
    (fun mix ->
      Format.printf "-- %a --@." Workload.Ycsb.pp_mix mix;
      Format.printf "%10s %12s %12s@." "index" "1 thread" "28 threads";
      List.iter
        (fun sys ->
          let one = Workload.Runner.mops (run sys mix 1) in
          let many = Workload.Runner.mops (run sys mix 28) in
          Format.printf "%10s %12.2f %12.2f@." (Baselines.System.name sys) one many)
        systems;
      Format.printf "@.")
    [ Workload.Ycsb.Workload_c; Workload.Ycsb.Workload_a ]
