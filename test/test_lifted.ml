module Core = Probdb_core
module L = Probdb_logic
module Lift = Probdb_lifted.Lift
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen
module Guard = Probdb_guard.Guard
module Par = Probdb_par.Par
module E = Probdb_engine.Engine
module Prepare = Probdb_prepare.Prepare

let parse_s = L.Parser.parse_sentence

let is_safe v = match v with Lift.Safe -> true | _ -> false

let test_classifier_on_zoo () =
  List.iter
    (fun (e : Q.entry) ->
      let v = Lift.classify e.Q.query in
      let expected_safe = e.Q.expected = Q.Ptime in
      if is_safe v <> expected_safe then
        Alcotest.failf "%s: expected %s, classifier said %s" e.Q.name
          (if expected_safe then "safe" else "unsafe/beyond-rules")
          (Format.asprintf "%a" Lift.pp_verdict v))
    Q.all

let test_classifier_unsupported () =
  match Lift.classify (parse_s "forall x. exists y. S(x,y)") with
  | Lift.Unsupported _ -> ()
  | v -> Alcotest.failf "expected Unsupported, got %a" Lift.pp_verdict v

(* For each safe zoo query, lifted inference must equal brute force on
   several random databases. *)
let db_for_query ?(domain_size = 2) ~seed q =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.7 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed ~domain_size specs

let check_query_numerically ?domain_size (e : Q.entry) =
  for seed = 1 to 10 do
    let db = db_for_query ?domain_size ~seed e.Q.query in
    let expected = L.Brute_force.probability db e.Q.query in
    let got = Lift.probability db e.Q.query in
    Test_util.check_float
      (Printf.sprintf "%s (seed %d)" e.Q.name seed)
      expected got
  done

let test_lifted_matches_brute_force () =
  List.iter
    (fun (e : Q.entry) -> if e.Q.expected = Q.Ptime then check_query_numerically e)
    Q.all

let test_lifted_larger_domain () =
  (* same on a 3-element domain for the cheap queries *)
  List.iter
    (fun name -> check_query_numerically ~domain_size:3 (Q.find name))
    [ "q_hier"; "example_2_1"; "q_j" ]

let test_example_2_1_closed_form () =
  let db = Test_util.fig1_tid () in
  Test_util.check_float "Example 2.1 via lifted inference"
    (Test_util.example_2_1_expected ())
    (Lift.probability db Q.example_2_1.Q.query)

let test_qj_needs_inclusion_exclusion () =
  (* Sec. 5: basic rules fail on Q_J, the full rule set succeeds. *)
  (match Lift.classify ~config:Lift.basic_rules_only Q.q_j.Q.query with
  | Lift.Unsafe_by_rules _ -> ()
  | v -> Alcotest.failf "basic rules should fail on Q_J, got %a" Lift.pp_verdict v);
  Alcotest.(check bool) "full rules succeed" true (is_safe (Lift.classify Q.q_j.Q.query));
  let stats = Lift.fresh_stats () in
  let db = db_for_query ~seed:7 Q.q_j.Q.query in
  let _p = Lift.probability ~stats db Q.q_j.Q.query in
  Alcotest.(check bool) "I/E fired" true (stats.Lift.ie_expansions > 0)

let test_qw_needs_cancellation () =
  (* Sec. 5's cancellation discussion: without cancelling equivalent I/E
     terms the expansion hits the #P-hard h3-shaped subquery. *)
  (match Lift.classify ~config:Lift.no_cancellation Q.q_w.Q.query with
  | Lift.Unsafe_by_rules _ -> ()
  | v -> Alcotest.failf "no-cancellation should fail on Q_W, got %a" Lift.pp_verdict v);
  Alcotest.(check bool) "with cancellation: safe" true (is_safe (Lift.classify Q.q_w.Q.query));
  let stats = Lift.fresh_stats () in
  let db = db_for_query ~seed:3 Q.q_w.Q.query in
  let p = Lift.probability ~stats db Q.q_w.Q.query in
  Test_util.check_float "Q_W matches brute force"
    (L.Brute_force.probability db Q.q_w.Q.query) p;
  Alcotest.(check bool) "terms were cancelled" true (stats.Lift.cancelled_terms > 0)

let test_separator_positions () =
  (* the separator may sit at different positions of different relations *)
  let q = parse_s "exists x y. S(y,x) && R(x)" in
  Alcotest.(check bool) "cross-position separator" true (is_safe (Lift.classify q));
  check_query_numerically
    { Q.name = "cross_pos"; text = ""; query = q; expected = Q.Ptime; about = "" };
  (* but inconsistent positions within one relation are rejected *)
  let bad = parse_s "exists x y. S(x,y) && S(y,x)" in
  match Lift.classify bad with
  | Lift.Unsafe_by_rules _ -> ()
  | v -> Alcotest.failf "expected unsafe (needs ranking), got %a" Lift.pp_verdict v

let test_stats_counters () =
  let stats = Lift.fresh_stats () in
  let db = db_for_query ~seed:5 Q.q_hier.Q.query in
  let _ = Lift.probability ~stats db Q.q_hier.Q.query in
  Alcotest.(check bool) "separator used" true (stats.Lift.separator_steps > 0);
  Alcotest.(check bool) "base lookups" true (stats.Lift.base_lookups > 0);
  let stats2 = Lift.fresh_stats () in
  let q = parse_s "(exists x. R(x)) && (exists y. T(y))" in
  let db2 = db_for_query ~seed:5 q in
  let _ = Lift.probability ~stats:stats2 db2 q in
  Alcotest.(check bool) "independent join used" true (stats2.Lift.independent_joins > 0)

let test_forall_mode () =
  (* ∀-sentences go through the complemented dual *)
  let q = parse_s "forall x y. R(x) || S(x,y)" in
  for seed = 1 to 10 do
    let db = db_for_query ~seed q in
    Test_util.check_float
      (Printf.sprintf "forall dual (seed %d)" seed)
      (L.Brute_force.probability db q)
      (Lift.probability db q)
  done

let test_constants_in_query () =
  (* ground atoms and mixed constants work through the base case *)
  let q = parse_s "exists y. S(0,y) && R(0)" in
  for seed = 1 to 5 do
    let db = db_for_query ~seed q in
    Test_util.check_float
      (Printf.sprintf "constants (seed %d)" seed)
      (L.Brute_force.probability db q)
      (Lift.probability db q)
  done

let test_hierarchical_chain_family () =
  List.iter
    (fun k ->
      let q = Q.hierarchical_chain k in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d safe" k)
        true
        (is_safe (Lift.classify q)))
    [ 1; 2; 3; 4 ];
  let q = Q.hierarchical_chain 2 in
  for seed = 1 to 5 do
    let db = db_for_query ~seed q in
    Test_util.check_float
      (Printf.sprintf "chain2 (seed %d)" seed)
      (L.Brute_force.probability db q)
      (Lift.probability db q)
  done

(* ---------- properties ---------- *)

(* Random self-join-free CQs over a fixed vocabulary: safety by the lifted
   rules must coincide with the hierarchy test (Thm. 4.3 vs Thm. 5.1). *)
let gen_sjf_cq =
  QCheck2.Gen.(
    let var = map (fun i -> Printf.sprintf "v%d" i) (int_range 0 2) in
    let pick name arity =
      let+ args = flatten_l (List.init arity (fun _ -> var)) in
      L.Cq.of_vars name args
    in
    let* use_r = bool and* use_s = bool and* use_t = bool and* use_u = bool in
    let atoms =
      List.filter_map Fun.id
        [
          (if use_r then Some (pick "R" 1) else None);
          (if use_s then Some (pick "S" 2) else None);
          (if use_t then Some (pick "T" 1) else None);
          (if use_u then Some (pick "U" 2) else None);
        ]
    in
    match atoms with
    | [] -> map (fun a -> L.Cq.make [ a ]) (pick "R" 1)
    | _ -> map L.Cq.make (flatten_l atoms))

let prop_dichotomy_agreement =
  Test_util.qcheck ~count:400 "lifted rules = hierarchy test on sjf CQs" gen_sjf_cq
    (fun cq ->
      let hier = L.Dichotomy.classify_sjf_cq cq = L.Dichotomy.Safe in
      let lifted = is_safe (Lift.classify_ucq [ cq ]) in
      hier = lifted)

let prop_lifted_correct_on_safe_cqs =
  Test_util.qcheck ~count:150 "lifted = brute force on safe sjf CQs"
    QCheck2.Gen.(pair gen_sjf_cq (int_range 1 1000))
    (fun (cq, seed) ->
      if L.Dichotomy.classify_sjf_cq cq <> L.Dichotomy.Safe then true
      else begin
        let q = L.Cq.to_fo cq in
        let db = db_for_query ~seed q in
        let expected = L.Brute_force.probability db q in
        let got = Lift.probability_ucq db [ cq ] in
        Float.abs (expected -. got) < 1e-9
      end)


(* ---------- compiled plans ---------- *)

(* The grounded-exact workload's TID ([probdb gen --domain 8 --seed 3
   R:1:1.0 S:2:0.4 T:1:0.6 S1:2:0.3 S2:2:0.5 S3:2:0.5]). *)
let grounded_exact_db () =
  Gen.random_tid ~seed:3 ~domain_size:8
    [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:0.4 "S" 2;
      Gen.spec ~density:0.6 "T" 1; Gen.spec ~density:0.3 "S1" 2;
      Gen.spec ~density:0.5 "S2" 2; Gen.spec ~density:0.5 "S3" 2 ]

(* Rule tallies and guard polls of a plan evaluation are those of the
   derivation it was compiled from, node visit for node visit. *)
let test_plan_tallies () =
  let db = grounded_exact_db () in
  let tallies (e : Q.entry) =
    let stats = Lift.fresh_stats () and guard = Guard.create () in
    ignore (Lift.probability ~stats ~guard db e.Q.query);
    ( [ stats.Lift.independent_unions; stats.Lift.independent_joins;
        stats.Lift.separator_steps; stats.Lift.ie_expansions; stats.Lift.ie_terms;
        stats.Lift.cancelled_terms; stats.Lift.base_lookups ],
      Guard.polls guard )
  in
  let check name expected_tallies expected_polls e =
    let got, polls = tallies e in
    Alcotest.(check (list int)) (name ^ " tallies") expected_tallies got;
    Option.iter (fun n -> Alcotest.(check int) (name ^ " lifted.* polls") n polls) expected_polls
  in
  check "q_w" [ 123; 472; 136; 25; 77; 2; 1608 ] (Some 3925) Q.q_w;
  check "q_j" [ 8; 24; 27; 1; 3; 0; 224 ] None Q.q_j;
  (* compile once, evaluate many times: the same answer and tallies *)
  let plan = Lift.compile Q.q_w.Q.query in
  let p = Lift.probability db Q.q_w.Q.query in
  for _ = 1 to 3 do
    let stats = Lift.fresh_stats () in
    let v = Lift.eval ~stats plan ~binding:[||] db in
    if not (v = p) then Alcotest.failf "q_w re-evaluated: %h <> %h" v p;
    Alcotest.(check int) "q_w lookups per evaluation" 1608 stats.Lift.base_lookups
  done

(* A template whose plan fails at its root is skipped without a poll: a
   fault hook tripping the first poll never fires, and the skip reads as
   it does cold. A query that does poll trips under the same hook. *)
let test_structural_skip () =
  let db = grounded_exact_db () in
  let cache = Prepare.Cache.create ~capacity:8 () in
  let base = { E.default_config with E.plan_cache = Some cache } in
  let render r =
    match r with
    | Ok a ->
        List.map Probdb_engine.Answer.step_detail a.Probdb_engine.Answer.chain
        |> String.concat " | "
    | Error e -> Probdb_core.Probdb_error.render e
  in
  let cold = render (E.eval ~config:base db Q.h0.Q.query) in
  let hooked =
    { base with
      E.strategies = [ E.Lifted ];
      fault = Some (Guard.Trip_at_poll { poll = 1; resource = Guard.Fault }) }
  in
  (match E.evaluate ~config:hooked db Q.h0.Q.query with
  | exception E.No_method [ (E.Lifted, reason) ] ->
      Alcotest.(check string) "h0 skip text"
        "rules fail: no lifted rule applies to clause: R(x) && S(x,y) && T(y)" reason
  | exception E.No_method _ -> Alcotest.fail "h0: unexpected chain"
  | _ -> Alcotest.fail "h0 answered by lifted inference");
  Alcotest.(check string) "h0 chain warm = cold" cold
    (render (E.eval ~config:base db Q.h0.Q.query));
  match E.evaluate ~config:hooked db Q.q_j.Q.query with
  | exception E.No_method [ (E.Lifted, reason) ] ->
      Alcotest.(check bool) "q_j trips at its first poll" true
        (not (String.starts_with ~prefix:"rules fail" reason))
  | _ -> Alcotest.fail "q_j: the fault hook did not fire"

(* Where the derivation depends on a separator constant equalling a
   constant of the query, the plan shatters on it: [x = 0] merges the two
   atoms into one lookup, [x = 1] leaves two ground atoms of one relation
   and fails. Parameters bound in either order render the failing clause
   sorted by value, as the concrete derivation does. *)
let test_equality_shattering () =
  let q = parse_s "exists x. S(x,0) && S(x,x)" in
  let one =
    Core.Tid.make ~domain:[ Core.Value.Int 0 ]
      [ Core.Relation.of_list "S" [ (Core.Tuple.of_ints [ 0; 0 ], 0.3) ] ]
  in
  Test_util.check_float "domain {0}" 0.3 (Lift.probability one q);
  let two = Gen.random_tid ~seed:1 ~domain_size:2 [ Gen.spec ~density:1.0 "S" 2 ] in
  (match Lift.probability two q with
  | exception Lift.Unsafe msg ->
      Alcotest.(check string) "domain {0,1}"
        "no lifted rule applies to clause: S(1,0) || S(1,1)" msg
  | _ -> Alcotest.fail "expected the rules to fail at x = 1");
  let db = grounded_exact_db () in
  let cache = Prepare.Cache.create ~capacity:8 () in
  let config = { E.default_config with E.plan_cache = Some cache; strategies = [ E.Lifted ] } in
  List.iter
    (fun text ->
      match E.evaluate ~config db (parse_s text) with
      | exception E.No_method [ (E.Lifted, reason) ] ->
          Alcotest.(check string) text
            "rules fail: no lifted rule applies to clause: S(0,2) || S(0,5)" reason
      | _ -> Alcotest.fail (text ^ ": expected the rules to fail"))
    [ "exists x. S(x,2) && S(x,5)"; "exists x. S(x,5) && S(x,2)" ];
  Alcotest.(check int) "one template" 1 (Prepare.Cache.counters cache).Prepare.Cache.entries

(* Random unate ∃ and ∀ sentences over R/1, S/2 and T/1, with the
   constants [0 .. constants - 1]. *)
let gen_sentence ~constants =
  QCheck2.Gen.(
    let term = oneof [ map (fun i -> L.Fo.Var (Printf.sprintf "v%d" i)) (int_range 0 2);
                       map (fun i -> L.Fo.Const (Core.Value.Int i)) (int_range 0 (constants - 1)) ] in
    let atom =
      let* rel, arity = oneofl [ ("R", 1); ("S", 2); ("T", 1) ] in
      let+ args = flatten_l (List.init arity (fun _ -> term)) in
      L.Fo.Atom { L.Fo.rel; args }
    in
    let cq = let* n = int_range 1 3 in map L.Fo.conj (list_repeat n atom) in
    let* universal = bool in
    if universal then
      (* ∀ vars. a clause of literals, one polarity per relation *)
      let* n = int_range 1 3 in
      let* atoms = list_repeat n atom in
      let* negate_r = bool and* negate_s = bool and* negate_t = bool in
      let lit = function
        | L.Fo.Atom { L.Fo.rel; _ } as a ->
            let neg = match rel with "R" -> negate_r | "S" -> negate_s | _ -> negate_t in
            if neg then L.Fo.Not a else a
        | f -> f
      in
      let body = L.Fo.disj (List.map lit atoms) in
      return (L.Fo.forall (L.Fo.free_vars body) body)
    else
      let* n = int_range 1 2 in
      let+ cqs = list_repeat n cq in
      L.Fo.disj (List.map (fun c -> L.Fo.exists (L.Fo.free_vars c) c) cqs))

(* The rules take the query's constants to be in the domain, so a domain
   of one element draws the constant 0 only. *)
let gen_case =
  QCheck2.Gen.(
    let* domain_size = int_range 1 3 in
    let* q = gen_sentence ~constants:(min 2 domain_size) in
    let+ seed = int_range 1 1000 in
    (q, domain_size, seed))

let pool2 = lazy (Par.create ~domains:2 ())

(* Wherever the rules succeed on a random sentence, the plan's answer
   matches world enumeration, and a pool of 2 returns it bit for bit. In a
   domain of one element every separator constant equals the query's
   constant. *)
let prop_plan_matches_worlds =
  QCheck_alcotest.to_alcotest
  @@ QCheck2.Test.make ~count:500
       ~name:"plan = world enumeration (constants in domain, pools 1 and 2)"
       ~print:(fun (q, n, seed) -> Printf.sprintf "%s, domain %d, seed %d" (L.Fo.to_string q) n seed)
    gen_case
    (fun (q, domain_size, seed) ->
      let db =
        Gen.random_tid ~seed ~domain_size
          [ Gen.spec ~density:0.7 "R" 1; Gen.spec ~density:0.5 "S" 2;
            Gen.spec ~density:0.7 "T" 1 ]
      in
      match Lift.probability db q with
      | exception Lift.Unsafe _ -> true
      | exception L.Ucq.Unsupported _ -> true
      | p ->
          let expected = L.Brute_force.probability db q in
          let p_par = Lift.probability ~pool:(Lazy.force pool2) db q in
          Float.abs (p -. expected) < 1e-12 && p = p_par)

let suites =
  [
    ( "lifted",
      [
        Alcotest.test_case "classifier on the query zoo" `Quick test_classifier_on_zoo;
        Alcotest.test_case "unsupported fragment" `Quick test_classifier_unsupported;
        Alcotest.test_case "lifted = brute force (safe zoo)" `Quick test_lifted_matches_brute_force;
        Alcotest.test_case "larger domain" `Quick test_lifted_larger_domain;
        Alcotest.test_case "Example 2.1 closed form" `Quick test_example_2_1_closed_form;
        Alcotest.test_case "Q_J needs inclusion-exclusion" `Quick test_qj_needs_inclusion_exclusion;
        Alcotest.test_case "Q_W needs cancellation" `Quick test_qw_needs_cancellation;
        Alcotest.test_case "separator positions" `Quick test_separator_positions;
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "forall sentences via dual" `Quick test_forall_mode;
        Alcotest.test_case "constants in query" `Quick test_constants_in_query;
        Alcotest.test_case "hierarchical chain family" `Quick test_hierarchical_chain_family;
        prop_dichotomy_agreement;
        prop_lifted_correct_on_safe_cqs;
        Alcotest.test_case "plan tallies on grounded-exact" `Quick test_plan_tallies;
        Alcotest.test_case "structural skip without polls" `Quick test_structural_skip;
        Alcotest.test_case "equality shattering" `Quick test_equality_shattering;
        prop_plan_matches_worlds;
      ] );
  ]
