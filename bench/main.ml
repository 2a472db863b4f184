(* Benchmark harness: runs the named experiments of
   Experiments.Suite — every table and figure of the paper's
   evaluation plus the crashmc, stats and service targets (see
   DESIGN.md section 3 for the index) — and the bechamel
   micro-benchmarks.  Any other argument exits 2 with the valid names.

   Usage:
     dune exec bench/main.exe                 # all figures, quick scale
     dune exec bench/main.exe -- --full       # paper-like scale (slow)
     dune exec bench/main.exe -- fig9 fig13   # a subset
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks

   Throughputs are simulated Mops/s on the modelled DCPMM machine;
   shapes (ordering, ratios, crossovers), not absolute numbers, are
   the comparison target against the paper. *)

let microbench () =
  (* Bechamel micro-benchmarks: host-side cost of one simulated
     operation per index (single-threaded, small working set).  One
     Test.make per measured system. *)
  let open Bechamel in
  let scale = Experiments.Scale.tiny in
  let make_op sys =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    let index =
      (Baselines.System.make machine ~data_capacity:scale.Experiments.Scale.data_capacity
         ~search_capacity:scale.Experiments.Scale.search_capacity sys)
        .Baselines.System.b_index
    in
    for i = 0 to 4_095 do
      Baselines.Index_intf.insert index (Pactree.Key.of_int i) i
    done;
    let counter = ref 0 in
    Staged.stage (fun () ->
        counter := (!counter + 7919) land 0xFFF;
        ignore (Baselines.Index_intf.lookup index (Pactree.Key.of_int !counter)))
  in
  let test_of sys = Test.make ~name:(Baselines.System.name sys) (make_op sys) in
  let test = Test.make_grouped ~name:"lookup-4k" (List.map test_of Baselines.System.all) in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  Format.printf "@.=== micro: host-side cost per simulated lookup ===@.";
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-24s %10.0f ns/op@." name est
      | Some _ | None -> Format.printf "%-24s (no estimate)@." name)
    results

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = List.map fst Experiments.Suite.all @ [ "micro" ] in
  (match List.filter (fun a -> a <> "--full" && not (List.mem a names)) args with
  | [] -> ()
  | bad ->
      Format.eprintf "unknown argument%s: %s@.usage: main.exe [--full] [NAME...]@.names: %s@."
        (if List.length bad > 1 then "s" else "")
        (String.concat " " bad) (String.concat " " names);
      exit 2);
  let full = List.mem "--full" args in
  let scale = if full then Experiments.Scale.full else Experiments.Scale.quick in
  let selected = List.filter (fun a -> a <> "--full") args in
  let wants name = selected = [] || List.mem name selected in
  Format.printf "PACTree benchmark suite (%s scale: %d keys, %d ops)@."
    (if full then "full" else "quick")
    scale.Experiments.Scale.keys scale.Experiments.Scale.ops;
  List.iter
    (fun (name, f) ->
      if wants name then begin
        let t0 = Unix.gettimeofday () in
        f scale;
        Format.printf "[%s took %.1fs host time]@." name (Unix.gettimeofday () -. t0)
      end)
    Experiments.Suite.all;
  if wants "micro" then microbench ()
