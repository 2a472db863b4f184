(* Systematic crash-state model checking (lib/crashmc) as a test
   suite: small bounded sweeps per index so the whole thing stays
   inside tier-1 runtime, plus a mutation check proving the oracle has
   teeth (a dropped clwb must be caught). *)

module Harness = Crashmc.Harness
module Sut = Crashmc.Sut
module System = Baselines.System
module Oracle = Crashmc.Oracle
module Key = Pactree.Key

let seed () = Int64.to_int (Des.Rng.env_seed ~default:1L)

let check_clean ?string_keys kind ~ops ~budget ~max_states =
  let sut = Sut.create ?string_keys kind in
  let r =
    Harness.run ~budget_per_point:budget ~max_states ~seed:(seed ()) ~sut ~ops ()
  in
  if not (Harness.ok r) then
    Alcotest.failf "%a@.seed %d (override with PACTREE_SEED)" Harness.pp_report r
      (seed ())

(* Mixed insert/delete trace on every index. *)
let test_mixed () =
  List.iter
    (fun kind ->
      check_clean kind
        ~ops:(Harness.mixed_workload ~seed:(seed ()) 32)
        ~budget:24 ~max_states:4_000)
    System.all

(* The same mixed trace over 23-byte string keys, built with the
   string-key layouts: PACTree's 32-byte inline keys, the B+-trees'
   out-of-node key records (Baselines.Krep) and PDL-ART's longer radix
   paths.  FPTree has no string-key variant. *)
let test_mixed_string_keys () =
  let key k = Workload.Keyset.key Workload.Keyset.String_keys (Key.to_int k) in
  let ops =
    List.map
      (function
        | Oracle.Insert (k, v) -> Oracle.Insert (key k, v)
        | Oracle.Delete k -> Oracle.Delete (key k))
      (Harness.mixed_workload ~seed:(seed ()) 32)
  in
  List.iter
    (fun kind -> check_clean ~string_keys:true kind ~ops ~budget:24 ~max_states:4_000)
    (List.filter System.supports_strings System.all)

(* Split-heavy monotone inserts: exercises FastFair node splits,
   FPTree leaf splits + micro-log, PACTree data-node SMOs. *)
let test_splits () =
  List.iter
    (fun kind ->
      check_clean kind ~ops:(Harness.insert_workload 72) ~budget:16
        ~max_states:4_000)
    [ System.Pactree; System.Fastfair; System.Fptree ]

(* Teeth: injecting a dropped clwb into the recorded run must produce
   at least one durable-linearizability violation across a small
   mutant family.  If every mutant survives, the checker is
   vacuous. *)
let test_mutation_teeth kind () =
  let killed = ref 0 in
  List.iter
    (fun k ->
      if !killed = 0 then begin
        let sut = Sut.create kind in
        Nvm.Machine.set_flush_fault sut.Sut.machine (Some k);
        let r =
          Harness.run ~budget_per_point:24 ~max_states:4_000 ~max_violations:1
            ~seed:(seed ()) ~sut
            ~ops:(Harness.mixed_workload ~seed:(seed ()) 32)
            ()
        in
        if not (Harness.ok r) then incr killed
      end)
    [ 1; 3; 9; 27; 81; 243 ];
  if !killed = 0 then
    Alcotest.failf "no dropped-clwb mutant caught on %s — checker has no teeth (seed %d)"
      (System.name kind) (seed ())

(* The in-flight window accepts exactly the in-order prefixes of the
   interrupted batch, jointly across keys: a state where a later batch
   member applied without an earlier one (replay skipping a hole) must
   be rejected even though each key's value is individually
   reachable. *)
let test_oracle_prefix_only () =
  let ka = Key.of_int 1 and kb = Key.of_int 2 and kc = Key.of_int 3 in
  let history =
    [
      (* completed before the crash window: decided *)
      { Oracle.op = Oracle.Insert (kc, 7); start_seq = 0; end_seq = 1 };
      (* a two-op batch sharing one trace window, in flight at [at=2] *)
      { Oracle.op = Oracle.Insert (ka, 1); start_seq = 1; end_seq = 3 };
      { Oracle.op = Oracle.Insert (kb, 2); start_seq = 1; end_seq = 3 };
    ]
  in
  let violations state =
    let state = List.sort (fun (a, _) (b, _) -> Key.compare a b) state in
    Oracle.check ~history ~at:2
      ~lookup:(fun k ->
        Option.map snd (List.find_opt (fun (k', _) -> Key.equal k k') state))
      ~scan:(fun k n ->
        List.filteri
          (fun i _ -> i < n)
          (List.filter (fun (k', _) -> Key.compare k' k >= 0) state))
      ~invariants:(fun () -> ())
  in
  List.iter
    (fun (label, state) ->
      Alcotest.(check (list string)) label [] (violations state))
    [
      ("prefix 0 accepted", [ (kc, 7) ]);
      ("prefix 1 accepted", [ (kc, 7); (ka, 1) ]);
      ("prefix 2 accepted", [ (kc, 7); (ka, 1); (kb, 2) ]);
    ];
  List.iter
    (fun (label, state) ->
      Alcotest.(check bool) label true (violations state <> []))
    [
      ("hole-skipping state rejected", [ (kc, 7); (kb, 2) ]);
      ("decided op lost rejected", [ (ka, 1); (kb, 2) ]);
      ("unreachable value rejected", [ (kc, 7); (ka, 99) ]);
    ]

(* A crashmc trace and the persist-order sanitizer listen to one
   machine at once, as in [pactree_bench crashmc --mutate]. *)
let test_two_listeners () =
  let module Machine = Nvm.Machine in
  let module Pool = Nvm.Pool in
  let module Sanitizer = Pobj.Sanitizer in
  let m = Machine.create ~numa_count:1 () in
  let p = Pool.create m ~name:"two-listeners" ~numa:0 ~capacity:4096 () in
  let tid = ref (-1) in
  let on_thread f =
    let sched = Des.Sched.create () in
    (* an idle first thread, so the worker's id is not the default 0 *)
    Des.Sched.spawn sched ~name:"idle" ignore;
    Des.Sched.spawn sched ~name:"worker" (fun () ->
        tid := Des.Sched.current_id ();
        f ());
    Des.Sched.run sched
  in
  let trace = Crashmc.Trace.start m in
  Sanitizer.enable m;
  on_thread (fun () ->
      (* line 0: store -> clwb -> fence; line 2: store -> fence *)
      Pool.write_int p 0 42;
      Pool.clwb p 0;
      Pool.fence p;
      Pool.write_int p 128 7;
      Pool.fence p);
  let describe = function
    | Machine.Store { tid; line; data; _ } ->
        Printf.sprintf "store t%d L%d %d" tid line
          (Int64.to_int (String.get_int64_le (Lazy.force data) 0))
    | Machine.Clwb { tid; line; staged; _ } ->
        Printf.sprintf "clwb t%d L%d %b" tid line (staged <> None)
    | Machine.Fence { tid } -> Printf.sprintf "fence t%d" tid
    | Machine.Drain { line; _ } -> Printf.sprintf "drain L%d" line
  in
  let t = !tid in
  Alcotest.(check int) "worker thread id" 1 t;
  Alcotest.(check (list string))
    "trace: both sequences, stores name their thread"
    [
      Printf.sprintf "store t%d L0 42" t;
      Printf.sprintf "clwb t%d L0 true" t;
      Printf.sprintf "fence t%d" t;
      Printf.sprintf "store t%d L2 7" t;
      Printf.sprintf "fence t%d" t;
    ]
    (Array.to_list (Array.map describe (Crashmc.Trace.events trace)));
  let flagged () =
    List.map (fun r -> (r.Sanitizer.r_line, r.Sanitizer.r_tid)) (Sanitizer.reports ())
  in
  Alcotest.(check (list (pair int int))) "sanitizer: only the unflushed line" [ (2, t) ]
    (flagged ());
  (* Detach the trace: the sanitizer still hears the machine. *)
  Crashmc.Trace.stop trace;
  on_thread (fun () ->
      Pool.write_int p 256 1;
      Pool.fence p);
  Alcotest.(check int) "stopped trace records nothing" 5 (Crashmc.Trace.seq trace);
  Alcotest.(check (list (pair int int))) "sanitizer still listening" [ (2, t); (4, t) ]
    (List.sort compare (flagged ()));
  (* And the other way round. *)
  Sanitizer.disable m;
  let trace = Crashmc.Trace.start m in
  on_thread (fun () ->
      Pool.write_int p 320 1;
      Pool.fence p);
  Crashmc.Trace.stop trace;
  Alcotest.(check int) "trace still listening" 2 (Crashmc.Trace.seq trace);
  Alcotest.(check bool) "sanitizer detached" false (Sanitizer.active ())

let suite =
  [
    Alcotest.test_case "oracle: joint in-order-prefix check" `Quick
      test_oracle_prefix_only;
    Alcotest.test_case "mixed trace, all indexes" `Quick test_mixed;
    Alcotest.test_case "mixed trace, string keys" `Quick test_mixed_string_keys;
    Alcotest.test_case "split-heavy trace" `Quick test_splits;
    Alcotest.test_case "mutation teeth (fastfair)" `Quick
      (test_mutation_teeth System.Fastfair);
    Alcotest.test_case "mutation teeth (pactree)" `Quick
      (test_mutation_teeth System.Pactree);
    Alcotest.test_case "trace and sanitizer share a machine" `Quick test_two_listeners;
  ]
