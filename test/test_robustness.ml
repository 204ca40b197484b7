(* Edge cases and failure injection across the stack: malformed inputs,
   missing relations, extreme probabilities, empty databases, resource
   guards, and the exact-to-(eps,delta) degradation path. *)

module Core = Probdb_core
module Err = Probdb_core.Probdb_error
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Lift = Probdb_lifted.Lift
module Guard = Probdb_guard.Guard

let t xs = List.map Core.Value.int xs
let parse_s = L.Parser.parse_sentence

(* ---------- CSV loader ---------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_csv_malformed_probability () =
  let path = tmp "bad_prob.csv" in
  write_file path "1,2,not_a_number\n";
  match Core.Csv_io.load_relation "R" path with
  | exception Err.Error (Err.Csv { path = p; line; _ }) ->
      Alcotest.(check string) "path in error" path p;
      Alcotest.(check int) "line number" 1 line
  | _ -> Alcotest.fail "expected a typed Csv error on malformed probability"

let test_csv_missing_columns () =
  let path = tmp "short_row.csv" in
  write_file path "0.5\n";
  match Core.Csv_io.load_relation "R" path with
  | exception Err.Error (Err.Csv _) -> ()
  | _ -> Alcotest.fail "expected a typed Csv error on missing value columns"

let test_csv_probability_validation () =
  (* NaN, infinities, and out-of-range values must all be rejected with the
     offending line; ~strict:false admits out-of-range weights but never
     non-finite ones. *)
  List.iter
    (fun (name, bad) ->
      let path = tmp (Printf.sprintf "bad_%s.csv" name) in
      write_file path (Printf.sprintf "1,0.5\n2,%s\n" bad);
      match Core.Csv_io.load_relation "R" path with
      | exception Err.Error (Err.Csv { line; _ }) ->
          Alcotest.(check int) (name ^ " line") 2 line
      | _ -> Alcotest.fail ("expected a Csv error for " ^ name))
    [ ("nan", "nan"); ("inf", "inf"); ("neg_inf", "-inf");
      ("negative", "-0.5"); ("above_one", "1.5") ];
  let path = tmp "weights.csv" in
  write_file path "1,1.25\n2,-0.25\n";
  let rel = Core.Csv_io.load_relation ~strict:false "R" path in
  Alcotest.(check int) "weights accepted non-strict" 2 (Core.Relation.cardinal rel);
  (match Core.Csv_io.load_relation "R" path with
  | exception Err.Error (Err.Csv _) -> ()
  | _ -> Alcotest.fail "weights must be rejected in strict mode");
  let path = tmp "nan_weight.csv" in
  write_file path "1,nan\n";
  match Core.Csv_io.load_relation ~strict:false "R" path with
  | exception Err.Error (Err.Csv _) -> ()
  | _ -> Alcotest.fail "NaN must be rejected even with ~strict:false"

let test_csv_io_fault_injection () =
  (* [Fail_io_at 1] makes the first guarded open fail like a dead disk; the
     loader must surface it as a typed Io error naming the path. *)
  let path = tmp "io_fault.csv" in
  write_file path "1,0.5\n";
  let guard = Guard.create ~fault:(Guard.Fail_io_at 1) () in
  (match Core.Csv_io.load_relation ~guard "R" path with
  | exception Err.Error (Err.Io { path = p; _ }) ->
      Alcotest.(check string) "fault names the path" path p
  | _ -> Alcotest.fail "expected a typed Io error from the injected fault");
  (* the same guard does not fire twice with Fail_io_at 1 *)
  let rel = Core.Csv_io.load_relation ~guard "R" path in
  Alcotest.(check int) "second load succeeds" 1 (Core.Relation.cardinal rel)

let test_csv_comments_and_blanks () =
  let path = tmp "comments.csv" in
  write_file path "# header comment\n\n1,0.5\n  \n2,0.25\n";
  let rel = Core.Csv_io.load_relation "R" path in
  Alcotest.(check int) "two rows" 2 (Core.Relation.cardinal rel)

(* ---------- missing relations: probability-0 semantics everywhere ---------- *)

let test_missing_relation_consistency () =
  (* the query mentions T, the database has no T at all: every method must
     treat T as empty *)
  let db = Core.Tid.make ~domain:(List.map Core.Value.int [ 0; 1 ])
      [ Core.Relation.of_list "R" [ (t [ 0 ], 0.5) ];
        Core.Relation.of_list "S" [ (t [ 0; 1 ], 0.5) ] ] in
  let q = parse_s "exists x y. R(x) && S(x,y) && T(y)" in
  let truth = L.Brute_force.probability db q in
  Test_util.check_float "brute = 0" 0.0 truth;
  List.iter
    (fun s ->
      let config = { E.default_config with E.strategies = [ s ] } in
      match E.evaluate ~config db q with
      | r -> Test_util.check_float (E.strategy_name s) truth (E.value r.E.outcome)
      | exception E.No_method _ -> () (* refusing is also fine *))
    [ E.Obdd; E.Wmc; E.World_enum; E.Read_once ];
  (* a universally-quantified query over the missing relation is true *)
  let q2 = parse_s "forall x y. T(y) => R(x)" in
  Test_util.check_float "vacuous forall" 1.0 (E.probability db q2)

(* ---------- extreme probabilities ---------- *)

let test_zero_and_one_probabilities () =
  let db =
    Core.Tid.make
      [ Core.Relation.of_list "R" [ (t [ 0 ], 0.0); (t [ 1 ], 1.0) ];
        Core.Relation.of_list "S" [ (t [ 1; 1 ], 1.0); (t [ 0; 0 ], 0.0) ] ]
  in
  let q = parse_s "exists x y. R(x) && S(x,y)" in
  List.iter
    (fun s ->
      let config = { E.default_config with E.strategies = [ s ] } in
      match E.evaluate ~config db q with
      | r -> Test_util.check_float (E.strategy_name s) 1.0 (E.value r.E.outcome)
      | exception E.No_method _ -> ())
    [ E.Lifted; E.Obdd; E.Wmc; E.World_enum ];
  (* certain complement *)
  let q2 = parse_s "exists x. R(x) && !S(x,x)" in
  Test_util.check_float "mixed negation with extremes"
    (L.Brute_force.probability db q2)
    (E.probability db q2)

(* ---------- empty databases and trivial queries ---------- *)

let test_empty_database () =
  let db = Core.Tid.make ~domain:[ Core.Value.int 0 ] [] in
  Test_util.check_float "exists over empty db" 0.0
    (E.probability db (parse_s "exists x. R(x)"));
  Test_util.check_float "forall over empty db" 1.0
    (E.probability db (parse_s "forall x. R(x) => R(x)"));
  Test_util.check_float "true" 1.0 (E.probability db L.Fo.True);
  Test_util.check_float "false" 0.0 (E.probability db L.Fo.False)

let test_trivial_queries_via_lifted () =
  let db = Core.Tid.make [ Core.Relation.of_list "R" [ (t [ 0 ], 0.4) ] ] in
  Test_util.check_float "single ground atom" 0.4 (Lift.probability db (parse_s "R(0)"));
  Test_util.check_float "negated ground atom via forall" 0.6
    (Lift.probability db (parse_s "forall x. !R(0)"));
  Test_util.check_float "tautology" 1.0
    (E.probability db (parse_s "R(0) || !R(0)"))

(* ---------- engine argument validation ---------- *)

let test_engine_validation () =
  let db = Core.Tid.make [ Core.Relation.of_list "R" [ (t [ 0 ], 0.4) ] ] in
  (match E.evaluate db (L.Parser.parse ~free:[ "x" ] "R(x)") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "open formula must be rejected by evaluate");
  match E.answers ~free:[] db (L.Parser.parse ~free:[ "x" ] "R(x)") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared free variables must be rejected"

(* ---------- duplicate variables & constants through every layer ---------- *)

let test_repeated_vars_and_constants () =
  let db =
    Core.Tid.make
      [ Core.Relation.of_list "S"
          [ (t [ 0; 0 ], 0.5); (t [ 0; 1 ], 0.5); (t [ 1; 1 ], 0.25) ] ]
  in
  List.iter
    (fun text ->
      let q = parse_s text in
      Test_util.check_float text
        (L.Brute_force.probability db q)
        (E.probability ~config:E.exact_only db q))
    [
      "exists x. S(x,x)";
      "exists x. S(0,x) && S(x,1)";
      "forall x. S(x,x) => S(0,x)";
      "exists x y. S(x,y) && S(y,x)";
    ]

(* ---------- non-standard probabilities flow through exact methods ---------- *)

let test_nonstandard_probabilities () =
  (* weights outside [0,1] (MLN Or-encoding) must work through lineage-based
     exact inference, and Karp-Luby must refuse them *)
  let db =
    Core.Tid.make
      [ Core.Relation.of_list "R" [ (t [ 0 ], 1.25); (t [ 1 ], -0.25) ];
        Core.Relation.of_list "S" [ (t [ 0; 1 ], 0.5) ] ]
  in
  let q = parse_s "exists x y. R(x) && S(x,y)" in
  let truth = L.Brute_force.probability db q in
  List.iter
    (fun s ->
      let config = { E.default_config with E.strategies = [ s ] } in
      let r = E.evaluate ~config db q in
      Test_util.check_float (E.strategy_name s) truth (E.value r.E.outcome))
    [ E.Lifted; E.Obdd; E.Wmc ];
  let config = { E.default_config with E.strategies = [ E.Karp_luby ] } in
  match E.evaluate ~config db q with
  | exception E.No_method [ (E.Karp_luby, _) ] -> ()
  | _ -> Alcotest.fail "Karp-Luby must refuse non-standard probabilities"

(* ---------- resource guards and graceful degradation ---------- *)

(* A small non-hierarchical instance: every exact grounded method can do it,
   so trips must come from guards/budgets, not from genuine hardness. *)
let unsafe_db () =
  Core.Tid.make
    [ Core.Relation.of_list "R" [ (t [ 0 ], 0.5); (t [ 1 ], 0.6) ];
      Core.Relation.of_list "S"
        [ (t [ 0; 0 ], 0.5); (t [ 0; 1 ], 0.7); (t [ 1; 0 ], 0.4); (t [ 1; 1 ], 0.5) ];
      Core.Relation.of_list "T" [ (t [ 0 ], 0.8); (t [ 1 ], 0.3) ] ]

let unsafe_q () = parse_s "exists x y. R(x) && S(x,y) && T(y)"

(* The complement of [unsafe_q]: its lineage is CNF-shaped (one clause per
   pair), so WMC claims it even when it shares the chain with OBDD, and the
   Karp–Luby fallback samples it through the monotone DNF of [unsafe_q]. *)
let cnf_q () = parse_s "forall x y. !R(x) || !S(x,y) || !T(y)"

let test_guard_primitives () =
  (* unlimited never trips *)
  Guard.poll Guard.unlimited ~site:"test";
  Guard.charge Guard.unlimited ~site:"test" "work" 1_000_000;
  (* budgets trip with the right payload *)
  let g = Guard.create () in
  Guard.set_budget g "work" 10;
  Guard.charge g ~site:"a" "work" 10;
  (match Guard.charge g ~site:"b" "work" 1 with
  | exception Guard.Exhausted { resource = Guard.Work "work"; site = "b"; _ } -> ()
  | _ -> Alcotest.fail "expected the work budget to trip at site b");
  Alcotest.(check int) "spent recorded" 11 (Guard.budget_spent g "work");
  (* cancellation *)
  let g = Guard.create () in
  Guard.cancel g;
  (match Guard.poll g ~site:"c" with
  | exception Guard.Exhausted { resource = Guard.Cancelled; _ } -> ()
  | _ -> Alcotest.fail "expected cancellation to trip");
  (* deterministic fault injection *)
  let g = Guard.create ~fault:(Guard.Trip_at_poll { poll = 3; resource = Guard.Deadline }) () in
  Guard.poll g ~site:"p";
  Guard.poll g ~site:"p";
  match Guard.poll g ~site:"p" with
  | exception Guard.Exhausted { resource = Guard.Deadline; _ } ->
      Alcotest.(check int) "three polls" 3 (Guard.polls g)
  | _ -> Alcotest.fail "expected the injected deadline trip at poll 3"

let test_deadline_trip_degrades () =
  (* inject a deadline trip at the very first poll: every guarded exact
     strategy trips immediately and eval must degrade to Karp-Luby *)
  let db = unsafe_db () and q = cnf_q () in
  let config =
    { E.default_config with
      E.strategies = [ E.Wmc; E.Obdd ];
      fault = Some (Guard.Trip_at_poll { poll = 1; resource = Guard.Deadline });
      degrade = Some { E.eps = 0.05; delta = 0.05; max_samples = 30_000 } }
  in
  match E.eval ~config db q with
  | Error e -> Alcotest.fail ("expected a degraded answer, got error: " ^ Err.render e)
  | Ok a ->
      Alcotest.(check bool) "degraded" true a.Answer.degraded;
      Alcotest.(check bool) "not exact" false a.Answer.exact;
      Alcotest.(check string) "strategy" "karp-luby" a.Answer.strategy;
      let tripped =
        List.filter (function Answer.Tripped _ -> true | _ -> false) a.Answer.chain
      in
      Alcotest.(check int) "both strategies tripped" 2 (List.length tripped);
      (* the (eps,delta) interval must bracket the exact answer *)
      let truth = L.Brute_force.probability db q in
      (match a.Answer.confidence with
      | None -> Alcotest.fail "degraded answer must carry a confidence interval"
      | Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "ci [%g, %g] brackets %g" c.Answer.ci_low c.Answer.ci_high
               truth)
            true
            (c.Answer.ci_low <= truth && truth <= c.Answer.ci_high));
      (* stats mirror the degradation *)
      Alcotest.(check bool) "stats.degraded" true a.Answer.stats.Probdb_obs.Stats.degraded

let test_decision_budget_trip () =
  (* a tiny WMC decision budget must surface as a typed Tripped step, and
     with degradation off the failure is a typed Exhausted error *)
  let db = unsafe_db () and q = unsafe_q () in
  let config =
    { E.default_config with
      E.strategies = [ E.Wmc ];
      wmc_max_decisions = 1;
      degrade = None }
  in
  match E.eval ~config db q with
  | Ok _ -> Alcotest.fail "expected failure with a 1-decision budget and no fallback"
  | Error (Err.Exhausted { resource; site; _ }) ->
      Alcotest.(check string) "resource" "wmc.decisions" resource;
      Alcotest.(check string) "site" "wmc.decide" site
  | Error e -> Alcotest.fail ("expected Exhausted, got: " ^ Err.render e)

let test_degraded_answer_close_to_exact () =
  (* degradation with generous samples lands near the truth (seeded rng) *)
  let db = unsafe_db () and q = unsafe_q () in
  let truth = L.Brute_force.probability db q in
  let config =
    { E.default_config with
      E.strategies = [ E.Wmc ];
      wmc_max_decisions = 1;
      degrade = Some { E.eps = 0.02; delta = 0.01; max_samples = 60_000 } }
  in
  match E.eval ~config db q with
  | Error e -> Alcotest.fail ("expected a degraded answer, got: " ^ Err.render e)
  | Ok a ->
      Alcotest.(check bool) "degraded" true a.Answer.degraded;
      Alcotest.(check bool)
        (Printf.sprintf "value %g within 2%% of %g" a.Answer.value truth)
        true
        (Float.abs (a.Answer.value -. truth) <= 0.02 *. truth)

let test_exact_answer_not_degraded () =
  (* a safe query under the same config must stay exact: degradation only
     kicks in when exact inference is exhausted *)
  let db = unsafe_db () in
  let q = parse_s "exists x y. R(x) && S(x,y)" in
  let config =
    { E.default_config with
      E.deadline_s = Some 30.0 (* a live guard, but roomy *) }
  in
  match E.eval ~config db q with
  | Error e -> Alcotest.fail ("expected an exact answer, got: " ^ Err.render e)
  | Ok a ->
      Alcotest.(check bool) "not degraded" false a.Answer.degraded;
      Alcotest.(check bool) "exact" true a.Answer.exact;
      Test_util.check_float "value" (L.Brute_force.probability db q) a.Answer.value

let test_degradation_bookkeeping_complete () =
  (* Property: {e every} degraded answer — whatever drove the degradation
     (budget trip, injected fault, or the server's force_degrade under
     load) — carries complete bookkeeping: a non-empty degradation chain
     whose steps all name a strategy and a kind, a confidence interval
     bracketing the value, a positive sample count, and the same facts
     mirrored in [Stats.t]. *)
  let db = unsafe_db () in
  let d = { E.eps = 0.05; delta = 0.05; max_samples = 20_000 } in
  let configs seed =
    [ ( "trip-at-poll",
        { E.default_config with
          E.seed;
          strategies = [ E.Wmc; E.Obdd ];
          fault = Some (Guard.Trip_at_poll { poll = 1; resource = Guard.Deadline });
          degrade = Some d },
        cnf_q () );
      ( "tiny-decision-budget",
        { E.default_config with
          E.seed;
          strategies = [ E.Wmc ];
          wmc_max_decisions = 1;
          degrade = Some d },
        unsafe_q () );
      ( "force-degrade",
        E.force_degrade { E.default_config with E.seed; degrade = Some d },
        unsafe_q () );
      ( "force-degrade-no-targets",
        (* degradation was off in the base config: force_degrade installs
           the defaults, and the bookkeeping contract still holds *)
        E.force_degrade { E.default_config with E.seed; degrade = None },
        unsafe_q () )
    ]
  in
  List.iter
    (fun seed ->
      List.iter
        (fun (name, config, q) ->
          let ctx fmt = Printf.ksprintf (fun s -> Printf.sprintf "%s/seed=%d: %s" name seed s) fmt in
          let stats = Probdb_obs.Stats.create () in
          match E.eval ~config ~stats db q with
          | Error e -> Alcotest.fail (ctx "expected a degraded answer, got: %s" (Err.render e))
          | Ok a ->
              Alcotest.(check bool) (ctx "degraded") true a.Answer.degraded;
              (* answer-side bookkeeping *)
              Alcotest.(check bool) (ctx "chain non-empty") true (a.Answer.chain <> []);
              List.iter
                (fun step ->
                  Alcotest.(check bool)
                    (ctx "chain step names a strategy")
                    true
                    (Answer.step_strategy step <> "");
                  Alcotest.(check bool)
                    (ctx "chain step kind")
                    true
                    (List.mem (Answer.step_kind step) [ "skipped"; "tripped" ]))
                a.Answer.chain;
              let c =
                match a.Answer.confidence with
                | Some c -> c
                | None -> Alcotest.fail (ctx "degraded answer must carry a CI")
              in
              Alcotest.(check bool)
                (ctx "ci [%g, %g] brackets value %g" c.Answer.ci_low c.Answer.ci_high
                   a.Answer.value)
                true
                (c.Answer.ci_low <= a.Answer.value && a.Answer.value <= c.Answer.ci_high);
              Alcotest.(check bool) (ctx "samples > 0") true (c.Answer.samples > 0);
              (* the same facts must land in Stats.t: the serving path
                 (stats-json, BENCH joins) reads them from there *)
              Alcotest.(check bool) (ctx "stats.degraded") true stats.Probdb_obs.Stats.degraded;
              Alcotest.(check (option (float 1e-12))) (ctx "stats.ci_low")
                (Some c.Answer.ci_low) stats.Probdb_obs.Stats.ci_low;
              Alcotest.(check (option (float 1e-12))) (ctx "stats.ci_high")
                (Some c.Answer.ci_high) stats.Probdb_obs.Stats.ci_high;
              Alcotest.(check (option int)) (ctx "stats.samples")
                (Some c.Answer.samples) stats.Probdb_obs.Stats.samples;
              Alcotest.(check int) (ctx "stats.chain mirrors answer chain")
                (List.length a.Answer.chain)
                (List.length stats.Probdb_obs.Stats.chain))
        (configs seed))
    [ 1; 7; 42; 1234 ]

let test_no_method_stays_typed () =
  (* nothing applicable and no trip: the error class is No_method, not
     Exhausted *)
  let db = unsafe_db () and q = unsafe_q () in
  let config =
    { E.default_config with E.strategies = [ E.Safe_plan ]; degrade = None }
  in
  match E.eval ~config db q with
  | Error (Err.No_method [ ("safe-plan", _) ]) -> ()
  | Error e -> Alcotest.fail ("expected No_method, got: " ^ Err.render e)
  | Ok _ -> Alcotest.fail "safe-plan cannot answer a non-hierarchical query"

(* ---------- Karp–Luby answers stay inside their interval ---------- *)

(* H0 over the domain-10 complete bipartite TID is near-certain: there the
   raw estimate Σwᵢ·E[1/N] lands just above 1 by sampling noise. *)
let near_one_db () = Probdb_workload.Gen.h0_db ~seed:1 ~n:10 ()

let test_karp_luby_inside_interval () =
  let db = near_one_db () in
  (* forced by backpressure, and reached by the chain itself once OBDD
     trips its node cap; the complement goes through the same fallback in
     complemented mode *)
  let forced = E.force_degrade E.default_config in
  let reached = { E.default_config with E.obdd_max_nodes = 1_000 } in
  List.iter
    (fun (name, config, q) ->
      match E.eval ~config db q with
      | Error e -> Alcotest.failf "%s: expected a degraded answer, got: %s" name (Err.render e)
      | Ok a -> (
          Alcotest.(check bool) (name ^ ": degraded") true a.Answer.degraded;
          match a.Answer.confidence with
          | None -> Alcotest.failf "%s: degraded answer without an interval" name
          | Some c ->
              let v = a.Answer.value in
              Alcotest.(check bool)
                (Printf.sprintf "%s: 0 <= %.17g <= %.17g <= %.17g <= 1" name
                   c.Answer.ci_low v c.Answer.ci_high)
                true
                (0.0 <= c.Answer.ci_low && c.Answer.ci_low <= v && v <= c.Answer.ci_high
               && c.Answer.ci_high <= 1.0)))
    [ ("forced", forced, unsafe_q ());
      ("chain-reached", reached, unsafe_q ());
      ("forced complement", forced, cnf_q ()) ]

let test_obdd_trip_degrades_without_dpll () =
  (* the default chain on H0: WMC skips the DNF lineage, OBDD trips its
     node cap, and the engine degrades straight to Karp–Luby *)
  let db = near_one_db () in
  let config = { E.default_config with E.obdd_max_nodes = 1_000 } in
  match E.eval ~config db (unsafe_q ()) with
  | Error e -> Alcotest.fail ("expected a degraded answer, got: " ^ Err.render e)
  | Ok a ->
      Alcotest.(check string) "strategy" "karp-luby" a.Answer.strategy;
      Alcotest.(check (list (pair string string)))
        "chain"
        [ ("lifted", "skipped"); ("symmetric", "skipped"); ("safe-plan", "skipped");
          ("read-once", "skipped"); ("wmc", "skipped"); ("obdd", "tripped");
          ("world-enum", "skipped") ]
        (List.map (fun s -> (Answer.step_strategy s, Answer.step_kind s)) a.Answer.chain)

let suites =
  [
    ( "robustness",
      [
        Alcotest.test_case "csv malformed probability" `Quick test_csv_malformed_probability;
        Alcotest.test_case "csv missing columns" `Quick test_csv_missing_columns;
        Alcotest.test_case "csv probability validation" `Quick test_csv_probability_validation;
        Alcotest.test_case "csv io fault injection" `Quick test_csv_io_fault_injection;
        Alcotest.test_case "csv comments and blanks" `Quick test_csv_comments_and_blanks;
        Alcotest.test_case "missing relation = empty" `Quick test_missing_relation_consistency;
        Alcotest.test_case "zero/one probabilities" `Quick test_zero_and_one_probabilities;
        Alcotest.test_case "empty database" `Quick test_empty_database;
        Alcotest.test_case "trivial queries" `Quick test_trivial_queries_via_lifted;
        Alcotest.test_case "engine validation" `Quick test_engine_validation;
        Alcotest.test_case "repeated vars and constants" `Quick test_repeated_vars_and_constants;
        Alcotest.test_case "non-standard probabilities" `Quick test_nonstandard_probabilities;
        Alcotest.test_case "guard primitives" `Quick test_guard_primitives;
        Alcotest.test_case "deadline trip degrades to (eps,delta)" `Quick
          test_deadline_trip_degrades;
        Alcotest.test_case "decision budget trip is typed" `Quick test_decision_budget_trip;
        Alcotest.test_case "degraded answer close to exact" `Quick
          test_degraded_answer_close_to_exact;
        Alcotest.test_case "exact answer not degraded" `Quick test_exact_answer_not_degraded;
        Alcotest.test_case "no-method stays typed" `Quick test_no_method_stays_typed;
        Alcotest.test_case "degradation bookkeeping complete" `Quick
          test_degradation_bookkeeping_complete;
        Alcotest.test_case "karp-luby answer inside its interval" `Quick
          test_karp_luby_inside_interval;
        Alcotest.test_case "obdd trip degrades without dpll" `Quick
          test_obdd_trip_degrades_without_dpll;
      ] );
  ]
