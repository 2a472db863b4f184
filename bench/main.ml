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

(* Bechamel micro-benchmarks.  [lookup-4k]: host-side cost of one
   simulated lookup per index (single-threaded, small working set).
   [nvm-access]: host cost of one simulated NVM access on each path
   the cost model takes, measured inside a simulated thread so that
   charges, misses and fences run exactly as in a benchmark. *)
let microbench () =
  let open Bechamel in
  let scale = Experiments.Scale.tiny in
  let lookup sys =
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
    Test.make ~name:(Baselines.System.name sys)
      (Staged.stage (fun () ->
           counter := (!counter + 7919) land 0xFFF;
           ignore (Baselines.Index_intf.lookup index (Pactree.Key.of_int !counter))))
  in
  let page = 4096 in
  let pool ?(capacity = 1 lsl 20) () =
    let machine = Nvm.Machine.create ~numa_count:2 () in
    (machine, Nvm.Pool.create machine ~name:"micro" ~numa:0 ~capacity ())
  in
  let access =
    let _, hot = pool () in
    Nvm.Pool.write_int hot 0 1;
    (* 64x more lines than the CPU cache model holds: nearly every read misses *)
    let lines = 64 lsl Nvm.Config.dcpmm.Nvm.Config.cache_slots_log2 in
    let _, cold = pool ~capacity:(lines * 64) () in
    let miss = ref 0 in
    let _, flushed = pool () in
    let _, npool = pool () in
    Pmalloc.Registry.register npool;
    let node = { Pactree.Data_node.pool = npool; off = 256 } in
    Pactree.Data_node.init
      (Pactree.Data_node.layout ~key_inline:8 ())
      node ~gen:1 ~anchor:"" ~next:Pmalloc.Pptr.null ~prev:Pmalloc.Pptr.null;
    let ptr = Pactree.Data_node.to_ptr node in
    (* 256 pages resident in both images; each crash drops one unflushed line *)
    let crash_machine, crashed = pool ~capacity:(256 * page) () in
    for i = 0 to 255 do
      Nvm.Pool.write_int crashed (i * page) i;
      Nvm.Pool.persist crashed (i * page) 8
    done;
    [
      Test.make ~name:"Pool.read_int hit" (Staged.stage (fun () -> Nvm.Pool.read_int hot 0));
      Test.make ~name:"Pool.read_int miss"
        (Staged.stage (fun () ->
             miss := (!miss + 7919) land (lines - 1);
             Nvm.Pool.read_int cold (!miss * 64)));
      Test.make ~name:"Pool.write_int" (Staged.stage (fun () -> Nvm.Pool.write_int hot 0 2));
      Test.make ~name:"write+clwb+fence"
        (Staged.stage (fun () ->
             Nvm.Pool.write_int flushed 0 3;
             Nvm.Pool.clwb flushed 0;
             Nvm.Pool.fence flushed));
      Test.make ~name:"Registry.resolve"
        (Staged.stage (fun () -> Pmalloc.Registry.resolve ptr == npool));
      Test.make ~name:"Data_node.read_head"
        (Staged.stage (fun () -> Pactree.Data_node.read_head node));
      Test.make ~name:"Machine.crash 256 pages"
        (Staged.stage (fun () ->
             Nvm.Pool.write_int crashed 64 1;
             Nvm.Machine.crash crash_machine Nvm.Machine.Strict));
    ]
  in
  let run name tests =
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
    let results =
      Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] (Test.make_grouped ~name tests)
    in
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let report title results =
    Format.printf "@.=== micro: %s ===@." title;
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> Format.printf "%-36s %10.0f ns/op@." name est
        | Some _ | None -> Format.printf "%-36s (no estimate)@." name)
      (List.sort (fun (a, _) (b, _) -> String.compare a b) (List.of_seq (Hashtbl.to_seq results)))
  in
  report "host-side cost per simulated lookup"
    (run "lookup-4k" (List.map lookup Baselines.System.all));
  let results = ref (Hashtbl.create 0) in
  let sched = Des.Sched.create () in
  Des.Sched.spawn sched ~name:"micro" (fun () -> results := run "nvm-access" access);
  Des.Sched.run sched;
  report "host-side cost per simulated NVM access" !results

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
