module System = Baselines.System

let header title = Format.printf "@.=== %s ===@." title

(* A bounded crash-state sweep (lib/crashmc): every enumerated crash
   image of a mixed single-writer trace must recover to a durably
   linearizable state, on every index.  One size (a 40-op trace, 24
   images per crash point) at every scale. *)
let crashmc _scale =
  let seed = Int64.to_int (Des.Rng.env_seed ~default:1L) in
  header "crashmc: durable-linearizability crash sweep";
  ignore
    (Crashmc.Harness.sweep ~budget_per_point:24 ~max_states:10_000 ~seed
       ~ops:(Crashmc.Harness.mixed_workload ~seed 40)
       System.all
      : bool)

(* The BENCH_pactree.json rows (`pactree_bench stats` writes the
   file), validated in memory. *)
let stats scale =
  header "stats: phase attribution + per-op persistence costs";
  ignore (Obs_run.stats ~threads:28 scale : Obs.Json.t * _)

(* Sharded-store saturation curves for PACTree and FastFair backends
   (`pactree_bench service` writes the JSON), at the quick preset for
   every scale. *)
let service _scale =
  header "service: sharded store saturation sweep";
  List.iter
    (fun sys ->
      match Svc_run.run (Svc_run.default ~quick:true sys) with
      | Ok _ -> ()
      | Error msg -> failwith ("service sweep: " ^ msg))
    [ System.Pactree; System.Fastfair ]

let all =
  [
    ("fig2", Figures.fig2);
    ("fig3", Figures.fig3);
    ("fig4", Figures.fig4);
    ("fig5", Figures.fig5);
    ("fig6", Figures.fig6);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("fig11", Figures.fig11);
    ("fig12", Figures.fig12);
    ("fig13", Figures.fig13);
    ("fig14", Figures.fig14);
    ("fig15", Figures.fig15);
    ("eadr", Figures.eadr);
    ("fh5", Figures.fh5);
    ("sec6_7", Figures.sec6_7);
    ("sec6_8", Figures.sec6_8);
    ("crashmc", crashmc);
    ("stats", stats);
    ("service", service);
  ]
