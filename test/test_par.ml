module Par = Probdb_par.Par
module KL = Probdb_approx.Karp_luby
module Lift = Probdb_lifted.Lift
module L = Probdb_logic
module Gen = Probdb_workload.Gen

exception Boom of int

let test_run_order () =
  let pool = Par.create ~domains:4 () in
  let tasks = List.init 37 (fun i () -> i * i) in
  Alcotest.(check (list int))
    "results in task order"
    (List.init 37 (fun i -> i * i))
    (Par.run pool tasks);
  Alcotest.(check int) "tasks counted" 37 (Par.tasks_run pool);
  Alcotest.(check (list int)) "empty list" [] (Par.run pool [])

let test_run_nested () =
  let pool = Par.create ~domains:3 () in
  (* a task that itself calls [run] must not deadlock: nested calls run
     sequentially on the worker *)
  let results =
    Par.run pool
      (List.init 5 (fun i () ->
           List.fold_left ( + ) 0 (Par.run pool (List.init 4 (fun j () -> i + j)))))
  in
  Alcotest.(check (list int))
    "nested totals"
    (List.init 5 (fun i -> (4 * i) + 6))
    results

let test_run_exceptions () =
  let pool = Par.create ~domains:4 () in
  let tasks =
    List.init 8 (fun i () -> if i = 2 || i = 5 then raise (Boom i) else i)
  in
  (* the lowest-indexed failure is re-raised, deterministically *)
  Alcotest.check_raises "lowest index wins" (Boom 2) (fun () ->
      ignore (Par.run pool tasks))

let test_map_reduce () =
  let seq = Par.create ~domains:1 () in
  let par = Par.create ~domains:4 () in
  let sum pool =
    Par.map_reduce pool ~map:float_of_int ~reduce:( +. ) ~init:0.0 1000
  in
  (* reduction happens in index order, so even float sums are bit-equal *)
  Alcotest.(check bool) "bit-identical across pool sizes" true (sum seq = sum par);
  Alcotest.(check (float 0.0)) "value" 499500.0 (sum par)

let test_rng_streams () =
  let take n rng = List.init n (fun _ -> Par.Rng.float rng 1.0) in
  let a = take 100 (Par.Rng.make ~seed:7 ~stream:3) in
  let b = take 100 (Par.Rng.make ~seed:7 ~stream:3) in
  let c = take 100 (Par.Rng.make ~seed:7 ~stream:4) in
  Alcotest.(check bool) "same (seed, stream) replays" true (a = b);
  Alcotest.(check bool) "distinct streams differ" true (a <> c);
  List.iter
    (fun x -> Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0))
    a;
  let ints = List.init 100 (fun _ -> Par.Rng.int (Par.Rng.make ~seed:1 ~stream:0) 10) in
  List.iter (fun i -> Alcotest.(check bool) "int bound" true (i >= 0 && i < 10)) ints

(* A DNF small enough for the exact oracle but with overlapping clauses. *)
let dnf = [ [ 1; 2 ]; [ 2; 3 ]; [ 4 ]; [ 1; 5 ] ]

let prob v = 0.1 +. (0.07 *. float_of_int v)

let test_estimate_par_deterministic () =
  let est d =
    KL.estimate_par ~seed:11 ~pool:(Par.create ~domains:d ()) ~samples:5000 ~prob dnf
  in
  let e1 = est 1 and e3 = est 3 and e8 = est 8 in
  Alcotest.(check bool) "mean identical 1 vs 3 domains" true
    (e1.KL.mean = e3.KL.mean);
  Alcotest.(check bool) "mean identical 1 vs 8 domains" true
    (e1.KL.mean = e8.KL.mean);
  Alcotest.(check bool) "std_error identical" true
    (e1.KL.std_error = e3.KL.std_error);
  (* and without a pool at all (caller-domain batches) *)
  let e0 = KL.estimate_par ~seed:11 ~samples:5000 ~prob dnf in
  Alcotest.(check bool) "no-pool = pool" true (e0.KL.mean = e3.KL.mean)

let test_estimate_par_accuracy () =
  let truth = KL.exact_via_sampling_identity ~prob dnf in
  let e =
    KL.estimate_par ~seed:3 ~pool:(Par.create ~domains:4 ()) ~samples:60_000 ~prob dnf
  in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.4f within 4 standard errors of %.4f" e.KL.mean truth)
    true
    (Float.abs (e.KL.mean -. truth) <= 4.0 *. e.KL.std_error +. 1e-9);
  Alcotest.(check int) "sample count" 60_000 e.KL.samples

let test_estimate_par_edge_cases () =
  let pool = Par.create ~domains:3 () in
  let zero = KL.estimate_par ~pool ~samples:100 ~prob [] in
  Alcotest.(check (float 0.0)) "empty DNF" 0.0 zero.KL.mean;
  let dead = KL.estimate_par ~pool ~samples:100 ~prob:(fun _ -> 0.0) [ [ 1 ] ] in
  Alcotest.(check (float 0.0)) "zero-weight union" 0.0 dead.KL.mean;
  Alcotest.check_raises "non-positive samples"
    (Invalid_argument "Karp_luby.estimate_par: need at least one sample") (fun () ->
      ignore (KL.estimate_par ~pool ~samples:0 ~prob dnf))

(* Lifted inference with a pool: identical probability AND identical rule
   tallies, for queries exercising independent joins, independent unions
   and the separator rule's per-constant fan-out. *)
let test_lift_pool_equals_sequential () =
  let queries =
    [ "exists x y. R(x) && T(y)";
      "exists x y. R(x) && S(x,y)";
      "exists x y. R(x) || T(y)";
      "forall x y. R(x) || S(x,y)" ]
  in
  let pool = Par.create ~domains:4 () in
  List.iteri
    (fun qi text ->
      let q = L.Parser.parse_sentence text in
      for seed = 1 to 5 do
        let db =
          Gen.random_tid ~seed ~domain_size:3
            [ Gen.spec ~density:0.7 "R" 1;
              Gen.spec ~density:0.7 "S" 2;
              Gen.spec ~density:0.7 "T" 1 ]
        in
        let s_seq = Lift.fresh_stats () and s_par = Lift.fresh_stats () in
        let p_seq = Lift.probability ~stats:s_seq db q in
        let p_par = Lift.probability ~stats:s_par ~pool db q in
        if not (p_seq = p_par) then
          Alcotest.failf "query %d seed %d: %.17g (seq) <> %.17g (pool)" qi seed
            p_seq p_par;
        Alcotest.(check int)
          (Printf.sprintf "query %d seed %d base lookups" qi seed)
          s_seq.Lift.base_lookups s_par.Lift.base_lookups;
        Alcotest.(check int)
          (Printf.sprintf "query %d seed %d separator steps" qi seed)
          s_seq.Lift.separator_steps s_par.Lift.separator_steps
      done)
    queries

let test_engine_domains_config () =
  let module E = Probdb_engine.Engine in
  let module Stats = Probdb_obs.Stats in
  let db =
    Gen.random_tid ~seed:2 ~domain_size:3
      [ Gen.spec ~density:0.7 "R" 1; Gen.spec ~density:0.7 "S" 2 ]
  in
  let q = L.Parser.parse_sentence "exists x y. R(x) && S(x,y)" in
  let eval domains =
    (* lifted inference is the strategy that forks on the pool *)
    let config = { E.default_config with E.domains; strategies = [ E.Lifted ] } in
    let stats = Stats.create () in
    match E.eval ~config ~stats db q with
    | Ok a -> (a.Probdb_engine.Answer.value, stats)
    | Error _ -> Alcotest.fail "engine failed"
  in
  let v1, s1 = eval 1 and v4, s4 = eval 4 in
  Alcotest.(check bool) "same value at 1 and 4 domains" true (v1 = v4);
  Alcotest.(check int) "domains_used sequential" 1 s1.Stats.domains_used;
  Alcotest.(check int) "domains_used parallel" 4 s4.Stats.domains_used;
  Alcotest.(check bool) "par_tasks counted" true (s4.Stats.par_tasks > 0)

(* ---------- the persistent worker service ---------- *)

let test_service_completes_everything () =
  let processed = Atomic.make 0 in
  let svc =
    Par.Service.start ~domains:3 ~capacity:128 (fun n ->
        Atomic.fetch_and_add processed n |> ignore)
  in
  let accepted = ref 0 in
  for i = 1 to 100 do
    match Par.Service.try_submit svc i with
    | `Accepted _ -> incr accepted
    | `Overloaded | `Closed -> ()
  done;
  Par.Service.wait_idle svc;
  Alcotest.(check int) "everything accepted" 100 !accepted;
  Alcotest.(check int) "sum of processed items" 5050 (Atomic.get processed);
  Alcotest.(check int) "submitted" 100 (Par.Service.submitted svc);
  Alcotest.(check int) "completed" 100 (Par.Service.completed svc);
  Alcotest.(check int) "no failures" 0 (Par.Service.failures svc);
  Alcotest.(check (list int)) "drain-shutdown drops nothing" []
    (Par.Service.shutdown svc)

let test_service_backpressure () =
  (* one worker wedged on a slow item: the queue fills to capacity and
     further submissions report [`Overloaded] without blocking *)
  let release = Atomic.make false in
  let svc =
    Par.Service.start ~domains:1 ~capacity:2 (fun _ ->
        while not (Atomic.get release) do
          Thread.yield ()
        done)
  in
  (* first item goes in flight; wait until the worker picked it up *)
  (match Par.Service.try_submit svc 0 with
  | `Accepted _ -> ()
  | _ -> Alcotest.fail "first submit refused");
  while Par.Service.in_flight svc = 0 do
    Thread.yield ()
  done;
  (match Par.Service.try_submit svc 1 with
  | `Accepted d -> Alcotest.(check int) "depth after second" 1 d
  | _ -> Alcotest.fail "second submit refused");
  (match Par.Service.try_submit svc 2 with
  | `Accepted d -> Alcotest.(check int) "depth at capacity" 2 d
  | _ -> Alcotest.fail "third submit refused");
  (match Par.Service.try_submit svc 3 with
  | `Overloaded -> ()
  | `Accepted _ | `Closed -> Alcotest.fail "expected overload at capacity");
  Atomic.set release true;
  Par.Service.wait_idle svc;
  ignore (Par.Service.shutdown svc);
  Alcotest.(check int) "only the accepted items ran" 3 (Par.Service.completed svc)

let test_service_shutdown_drops () =
  let release = Atomic.make false in
  let svc =
    Par.Service.start ~domains:1 ~capacity:8 (fun _ ->
        while not (Atomic.get release) do
          Thread.yield ()
        done)
  in
  List.iter (fun i -> ignore (Par.Service.try_submit svc i)) [ 0; 1; 2; 3 ];
  while Par.Service.in_flight svc = 0 do
    Thread.yield ()
  done;
  (* no-drain shutdown returns the queued (never-started) items; the
     in-flight one still completes. The shutdown must be issued before
     releasing the worker, from another thread since it joins. *)
  let dropped = ref [] in
  let th =
    Thread.create (fun () -> dropped := Par.Service.shutdown ~drain:false svc) ()
  in
  (* give the shutdown a moment to close the queue, then release *)
  Thread.delay 0.05;
  Atomic.set release true;
  Thread.join th;
  Alcotest.(check (list int)) "queued items returned in order" [ 1; 2; 3 ] !dropped;
  Alcotest.(check int) "in-flight item completed" 1 (Par.Service.completed svc);
  (match Par.Service.try_submit svc 9 with
  | `Closed -> ()
  | `Accepted _ | `Overloaded -> Alcotest.fail "submit after shutdown not closed");
  Alcotest.(check (list int)) "second shutdown is a no-op" []
    (Par.Service.shutdown svc)

let test_service_swallows_failures () =
  let svc =
    Par.Service.start ~domains:2 ~capacity:16 (fun n ->
        if n mod 2 = 0 then raise (Boom n))
  in
  for i = 0 to 9 do
    ignore (Par.Service.try_submit svc i)
  done;
  Par.Service.wait_idle svc;
  ignore (Par.Service.shutdown svc);
  Alcotest.(check int) "all ran" 10 (Par.Service.completed svc);
  Alcotest.(check int) "failures counted" 5 (Par.Service.failures svc)

let test_service_workers_run_nested_sequential () =
  (* a handler that calls into a [run] pool must execute its tasks
     sequentially on the worker domain rather than spawning domains *)
  let saw_extra_domain = Atomic.make false in
  let svc =
    Par.Service.start ~domains:1 ~capacity:4 (fun () ->
        let self = Domain.self () in
        let pool = Par.create ~domains:4 () in
        Par.run pool
          (List.init 4 (fun _ () ->
               if Domain.self () <> self then Atomic.set saw_extra_domain true))
        |> ignore)
  in
  ignore (Par.Service.try_submit svc ());
  Par.Service.wait_idle svc;
  ignore (Par.Service.shutdown svc);
  Alcotest.(check bool) "nested run stayed on the worker" false
    (Atomic.get saw_extra_domain)

let suites =
  [
    ( "par",
      [
        Alcotest.test_case "run preserves task order" `Quick test_run_order;
        Alcotest.test_case "nested run is sequential" `Quick test_run_nested;
        Alcotest.test_case "exceptions re-raised deterministically" `Quick
          test_run_exceptions;
        Alcotest.test_case "map_reduce deterministic" `Quick test_map_reduce;
        Alcotest.test_case "rng stream splitting" `Quick test_rng_streams;
        Alcotest.test_case "estimate_par identical across domain counts" `Quick
          test_estimate_par_deterministic;
        Alcotest.test_case "estimate_par accuracy" `Quick test_estimate_par_accuracy;
        Alcotest.test_case "estimate_par edge cases" `Quick
          test_estimate_par_edge_cases;
        Alcotest.test_case "lifted pool = sequential" `Quick
          test_lift_pool_equals_sequential;
        Alcotest.test_case "engine --domains wiring" `Quick test_engine_domains_config;
        Alcotest.test_case "service completes everything" `Quick
          test_service_completes_everything;
        Alcotest.test_case "service backpressure at capacity" `Quick
          test_service_backpressure;
        Alcotest.test_case "service no-drain shutdown returns queue" `Quick
          test_service_shutdown_drops;
        Alcotest.test_case "service swallows handler failures" `Quick
          test_service_swallows_failures;
        Alcotest.test_case "service workers run nested pools sequentially" `Quick
          test_service_workers_run_nested_sequential;
      ] );
  ]
