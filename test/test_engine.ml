module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen

let db_for q ~seed ~domain_size =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.7 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed ~domain_size specs

let test_safe_queries_use_lifted () =
  (* the lifted rules alone answer every safe query; the default chain
     promotes the prepared safe plan ahead of them *)
  let config = { E.default_config with E.strategies = [ E.Lifted ] } in
  List.iter
    (fun (e : Q.entry) ->
      if e.Q.expected = Q.Ptime then begin
        let db = db_for e.Q.query ~seed:3 ~domain_size:2 in
        let r = E.evaluate ~config db e.Q.query in
        Alcotest.(check string)
          (Printf.sprintf "%s via lifted" e.Q.name)
          "lifted"
          (E.strategy_name r.E.strategy);
        Test_util.check_float e.Q.name
          (L.Brute_force.probability db e.Q.query)
          (E.value r.E.outcome)
      end)
    Q.all;
  let db = db_for Q.q_hier.Q.query ~seed:3 ~domain_size:2 in
  Alcotest.(check string) "default chain answers q_hier via safe-plan" "safe-plan"
    (E.strategy_name (E.evaluate db Q.q_hier.Q.query).E.strategy)

let test_hard_queries_fall_to_grounded () =
  (* complete bipartite H0 instance: the lineage contains the triangle
     pattern, so even read-once factorisation refuses *)
  let db = Gen.h0_db ~seed:5 ~n:3 () in
  let r = E.evaluate db Q.h0.Q.query in
  (* lifted and safe-plan must be skipped, an exact grounded method wins *)
  Alcotest.(check bool) "lifted skipped" true
    (List.mem_assoc E.Lifted r.E.skipped);
  Alcotest.(check bool) "safe plan skipped" true
    (List.mem_assoc E.Safe_plan r.E.skipped);
  Alcotest.(check string) "OBDD answers" "obdd" (E.strategy_name r.E.strategy);
  Test_util.check_float "exact value"
    (L.Brute_force.probability db Q.h0.Q.query)
    (E.value r.E.outcome)

let test_budget_falls_to_sampling () =
  (* a larger H0 instance with tiny exact budgets must end at Karp-Luby *)
  let db = Gen.h0_db ~seed:2 ~n:10 () in
  let config =
    { E.default_config with E.obdd_max_nodes = 10; E.wmc_max_decisions = 10;
      E.max_enum_support = 5; E.kl_samples = 60_000 }
  in
  let r = E.evaluate ~config db Q.h0.Q.query in
  Alcotest.(check string) "karp-luby answers" "karp-luby" (E.strategy_name r.E.strategy);
  match r.E.outcome with
  | E.Approximate { std_error; _ } -> Alcotest.(check bool) "se positive" true (std_error > 0.0)
  | E.Exact _ -> Alcotest.fail "expected an approximate outcome"

let test_no_method () =
  let db = Gen.h0_db ~seed:2 ~n:10 () in
  let config =
    { E.default_config with
      E.strategies = [ E.Lifted; E.Obdd ]; E.obdd_max_nodes = 10 }
  in
  match E.evaluate ~config db Q.h0.Q.query with
  | exception E.No_method skipped -> Alcotest.(check int) "two reasons" 2 (List.length skipped)
  | _ -> Alcotest.fail "expected No_method"

let test_safe_plan_strategy () =
  (* with lifted disabled, hierarchical CQs answer via a safe plan *)
  let db = db_for Q.q_hier.Q.query ~seed:8 ~domain_size:3 in
  let config = { E.default_config with E.strategies = [ E.Safe_plan; E.Obdd ] } in
  let r = E.evaluate ~config db Q.q_hier.Q.query in
  Alcotest.(check string) "safe-plan answers" "safe-plan" (E.strategy_name r.E.strategy);
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.q_hier.Q.query)
    (E.value r.E.outcome)

let test_all_exact_strategies_agree () =
  let db = db_for Q.q_j.Q.query ~seed:12 ~domain_size:2 in
  let truth = L.Brute_force.probability db Q.q_j.Q.query in
  List.iter
    (fun s ->
      let config = { E.default_config with E.strategies = [ s ] } in
      let r = E.evaluate ~config db Q.q_j.Q.query in
      Test_util.check_float (E.strategy_name s) truth (E.value r.E.outcome))
    [ E.Lifted; E.Wmc; E.Obdd; E.World_enum ]

let test_general_fo_via_grounding () =
  (* sentences outside the unate ∃*/∀* fragment still evaluate *)
  let db = db_for (L.Parser.parse_sentence "forall x. exists y. S(x,y)") ~seed:4 ~domain_size:3 in
  let q = L.Parser.parse_sentence "forall x. exists y. S(x,y)" in
  let r = E.evaluate db q in
  Alcotest.(check bool) "lifted skipped (fragment)" true (List.mem_assoc E.Lifted r.E.skipped);
  Test_util.check_float "grounded exact" (L.Brute_force.probability db q) (E.value r.E.outcome)

let test_ranking_limited_query_still_answers () =
  let e = Q.self_join_symmetric in
  let db = db_for e.Q.query ~seed:6 ~domain_size:3 in
  let r = E.evaluate db e.Q.query in
  Alcotest.(check bool) "lifted rejected it" true (List.mem_assoc E.Lifted r.E.skipped);
  Test_util.check_float "grounded exact"
    (L.Brute_force.probability db e.Q.query)
    (E.value r.E.outcome)

let test_symmetric_strategy () =
  (* a materialised symmetric database lets the engine answer #P-hard H0
     exactly via the FO² cell algorithm (Thm. 8.1) *)
  let sym = Probdb_symmetric.Sym_db.make ~n:3 [ ("R", 1, 0.3); ("S", 2, 0.7); ("T", 1, 0.5) ] in
  let db = Probdb_symmetric.Sym_db.to_tid sym in
  let r = E.evaluate db Q.h0_forall.Q.query in
  Alcotest.(check string) "symmetric answers" "symmetric" (E.strategy_name r.E.strategy);
  Alcotest.(check bool) "lifted was skipped" true (List.mem_assoc E.Lifted r.E.skipped);
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.h0_forall.Q.query)
    (E.value r.E.outcome);
  (* a non-symmetric db skips the strategy *)
  let db2 = db_for Q.h0.Q.query ~seed:3 ~domain_size:2 in
  let r2 = E.evaluate db2 Q.h0.Q.query in
  Alcotest.(check bool) "skipped on asymmetric db" true
    (List.mem_assoc E.Symmetric r2.E.skipped)

let test_read_once_strategy () =
  (* with everything cheaper disabled, hierarchical lineages answer via
     read-once factorisation in linear time *)
  let db = db_for Q.q_hier.Q.query ~seed:9 ~domain_size:3 in
  let config = { E.default_config with E.strategies = [ E.Read_once; E.Obdd ] } in
  let r = E.evaluate ~config db Q.q_hier.Q.query in
  Alcotest.(check string) "read-once answers" "read-once" (E.strategy_name r.E.strategy);
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.q_hier.Q.query)
    (E.value r.E.outcome);
  (* H0's lineage is not read-once *)
  let db2 = db_for Q.h0.Q.query ~seed:9 ~domain_size:3 in
  let r2 = E.evaluate ~config db2 Q.h0.Q.query in
  Alcotest.(check string) "falls through to obdd" "obdd" (E.strategy_name r2.E.strategy);
  Alcotest.(check bool) "read-once skipped" true (List.mem_assoc E.Read_once r2.E.skipped)

(* Read-once runs under the evaluation's guard: a deadline already past
   trips it at the first poll, which on q_j over the domain-8
   grounded-exact TID falls inside the DNF grounding, and under a 500 ms
   deadline it comes back within the deadline plus the time it takes to
   ground the DNF. *)
let test_read_once_obeys_deadline () =
  let db =
    Gen.random_tid ~seed:3 ~domain_size:8
      [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:0.4 "S" 2;
        Gen.spec ~density:0.6 "T" 1; Gen.spec ~density:0.3 "S1" 2;
        Gen.spec ~density:0.5 "S2" 2; Gen.spec ~density:0.5 "S3" 2 ]
  in
  let q = Q.q_j.Q.query in
  let config deadline_s =
    { E.default_config with
      E.strategies = [ E.Read_once ]; deadline_s = Some deadline_s; degrade = None }
  in
  (match E.eval ~config:(config 1e-9) db q with
  | Ok _ -> Alcotest.fail "expected the deadline to trip read-once"
  | Error _ -> ());
  let stats = Probdb_obs.Stats.create () in
  ignore (E.eval ~config:(config 1e-9) ~stats db q);
  Alcotest.(check (list (triple string string string)))
    "tripped while grounding the DNF"
    [ ("read-once", "tripped", "deadline 0.000s exhausted at lineage.dnf") ]
    (List.map
       (fun (s, k, d) ->
         (s, k, (try String.sub d 0 (String.index d '(') |> String.trim with Not_found -> d)))
       stats.Probdb_obs.Stats.chain);
  let ground_s =
    let t0 = Unix.gettimeofday () in
    let ctx = Probdb_lineage.Lineage.create db in
    ignore (Probdb_lineage.Lineage.dnf_of_ucq ctx (fst (L.Ucq.of_sentence q)));
    Unix.gettimeofday () -. t0
  in
  let t0 = Unix.gettimeofday () in
  ignore (E.eval ~config:(config 0.5) db q);
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 0.5 +. ground_s +. 0.25 then
    Alcotest.failf "read-once ran %.3fs past a 0.5s deadline (grounding %.3fs)" elapsed
      ground_s

let test_strategy_names () =
  (* one name table: every strategy round-trips through its name, in the
     default chain order, and the retired tree-DPLL name is unknown *)
  Alcotest.(check int) "eight strategies" 8 (List.length E.all_strategies);
  Alcotest.(check bool) "default chain is the full list" true
    (E.default_config.E.strategies = E.all_strategies);
  List.iter
    (fun s ->
      Alcotest.(check bool) (E.strategy_name s) true
        (E.strategy_of_name (E.strategy_name s) = Some s))
    E.all_strategies;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " is unknown") true (E.strategy_of_name name = None))
    [ "dpll"; "auto"; "" ]

let test_answers () =
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3); (t [ 2 ], 0.9) ] in
  let s = Core.Relation.of_list "S" [ (t [ 1; 2 ], 0.5); (t [ 2; 2 ], 1.0) ] in
  let db = Core.Tid.make [ r; s ] in
  let q = L.Parser.parse ~free:[ "x" ] "exists y. R(x) && S(x,y)" in
  let results = E.answers ~free:[ "x" ] db q in
  Alcotest.(check int) "two answers" 2 (List.length results);
  List.iter
    (fun (binding, report) ->
      let expected =
        List.assoc binding (L.Brute_force.answers db ~free:[ "x" ] q)
      in
      Test_util.check_float "answer" expected (E.value report.E.outcome))
    results

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_expected_answer_count () =
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3); (t [ 2 ], 0.9) ] in
  let db = Core.Tid.make [ r ] in
  let q = L.Parser.parse ~free:[ "x" ] "R(x)" in
  (* E[#answers] = sum of marginals by linearity *)
  Test_util.check_float "linearity of expectation" 1.2
    (E.expected_answer_count ~free:[ "x" ] db q);
  (* agrees with direct expectation over worlds *)
  let direct =
    Core.Worlds.expectation db (fun w ->
        float_of_int (List.length (Core.World.tuples_of w "R")))
  in
  Test_util.check_float "matches world expectation" direct
    (E.expected_answer_count ~free:[ "x" ] db q)

let test_report_printing () =
  let db = Gen.h0_db ~seed:5 ~n:2 () in
  let r = E.evaluate db Q.h0.Q.query in
  let s = Format.asprintf "%a" E.pp_report r in
  Alcotest.(check bool) "mentions strategy" true (contains s "obdd");
  Alcotest.(check bool) "mentions skipped lifted" true (contains s "lifted skipped")

(* property: engine = brute force on random TIDs across the zoo *)
let prop_engine_matches_brute_force =
  Test_util.qcheck ~count:40 "engine exact = brute force (zoo x random TIDs)"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      List.for_all
        (fun (e : Q.entry) ->
          let db = db_for e.Q.query ~seed ~domain_size:2 in
          let r = E.evaluate ~config:E.exact_only db e.Q.query in
          let truth = L.Brute_force.probability db e.Q.query in
          Float.abs (E.value r.E.outcome -. truth) < 1e-9)
        Q.all)

(* The DNF is grounded once per evaluation and shared. A trip inside it is
   re-raised to every later strategy that forces it, and each records it
   as a typed trip of its own — never as an untyped exception. *)
let test_shared_dnf_trip_is_typed () =
  let db = Gen.h0_db ~seed:5 ~n:20 () in
  let config =
    { E.default_config with
      E.strategies = [ E.Read_once; E.Karp_luby ];
      fault = Some (Probdb_guard.Guard.Trip_at_poll { poll = 1; resource = Probdb_guard.Guard.Fault });
      degrade = None }
  in
  let stats = Probdb_obs.Stats.create () in
  (match E.eval ~config ~stats db Q.h0.Q.query with
  | Ok _ -> Alcotest.fail "expected the shared DNF to trip"
  | Error _ -> ());
  Alcotest.(check (list (pair string string)))
    "both strategies tripped in the grounding"
    [ ("read-once", "tripped"); ("karp-luby", "tripped") ]
    (List.map (fun (s, k, _) -> (s, k)) stats.Probdb_obs.Stats.chain);
  List.iter
    (fun (_, _, detail) ->
      Alcotest.(check bool) ("at lineage.dnf: " ^ detail) true
        (contains detail "lineage.dnf"))
    stats.Probdb_obs.Stats.chain

(* The (ε,δ) fallback grounds its own DNF when no exact strategy built one,
   under a child guard that inherits the evaluation's deadline and fault
   hook. Safe-plan declines h0 without polling, so the injected deadline
   trip can only come from the fallback's grounding: it must surface as a
   typed karp-luby step and an Exhausted error, never as a hang. *)
let test_fallback_grounding_trip_is_typed () =
  let db = Gen.h0_db ~seed:5 ~n:20 () in
  let config =
    { E.default_config with
      E.strategies = [ E.Safe_plan ];
      fault =
        Some
          (Probdb_guard.Guard.Trip_at_poll
             { poll = 1; resource = Probdb_guard.Guard.Deadline }) }
  in
  let stats = Probdb_obs.Stats.create () in
  (match E.eval ~config ~stats db Q.h0.Q.query with
  | Error (Core.Probdb_error.Exhausted { resource; site; _ }) ->
      Alcotest.(check string) "resource" "deadline" resource;
      Alcotest.(check string) "site" "lineage.dnf" site
  | Error e -> Alcotest.failf "expected Exhausted, got %s" (Core.Probdb_error.render e)
  | Ok _ -> Alcotest.fail "expected the fallback's grounding to trip");
  Alcotest.(check (list (pair string string)))
    "the fallback's trip is the chain's last step"
    [ ("safe-plan", "skipped"); ("karp-luby", "tripped") ]
    (List.map (fun (s, k, _) -> (s, k)) stats.Probdb_obs.Stats.chain)

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "safe queries use lifted" `Quick test_safe_queries_use_lifted;
        Alcotest.test_case "hard queries fall to grounded" `Quick test_hard_queries_fall_to_grounded;
        Alcotest.test_case "budgets fall to sampling" `Quick test_budget_falls_to_sampling;
        Alcotest.test_case "no method" `Quick test_no_method;
        Alcotest.test_case "safe-plan strategy" `Quick test_safe_plan_strategy;
        Alcotest.test_case "exact strategies agree" `Quick test_all_exact_strategies_agree;
        Alcotest.test_case "general FO via grounding" `Quick test_general_fo_via_grounding;
        Alcotest.test_case "beyond-rules query still answers" `Quick test_ranking_limited_query_still_answers;
        Alcotest.test_case "symmetric strategy" `Quick test_symmetric_strategy;
        Alcotest.test_case "read-once strategy" `Quick test_read_once_strategy;
        Alcotest.test_case "read-once obeys the deadline" `Quick test_read_once_obeys_deadline;
        Alcotest.test_case "shared DNF trip is typed" `Quick test_shared_dnf_trip_is_typed;
        Alcotest.test_case "fallback grounding trip is typed" `Quick
          test_fallback_grounding_trip_is_typed;
        Alcotest.test_case "strategy name table" `Quick test_strategy_names;
        Alcotest.test_case "non-Boolean answers" `Quick test_answers;
        Alcotest.test_case "expected answer count" `Quick test_expected_answer_count;
        Alcotest.test_case "report printing" `Quick test_report_printing;
        prop_engine_matches_brute_force;
      ] );
  ]
