open Probdb_lineage
module Core = Probdb_core
module F = Probdb_boolean.Formula
module Logic = Probdb_logic

let parse_s = Logic.Parser.parse_sentence

let small_tid () =
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3); (t [ 2 ], 0.8) ] in
  let s =
    Core.Relation.of_list "S" [ (t [ 1; 1 ], 0.5); (t [ 1; 2 ], 0.4); (t [ 2; 2 ], 0.9) ]
  in
  let u = Core.Relation.of_list "T" [ (t [ 1 ], 0.25); (t [ 2 ], 0.75) ] in
  Core.Tid.make [ r; s; u ]

let lineage_prob ctx f = Probdb_boolean.Brute_wmc.probability (Lineage.prob ctx) f

(* Lineage WMC must equal world-enumeration PQE for any sentence. *)
let check_query db q =
  let ctx = Lineage.create db in
  let f = Lineage.of_query ctx q in
  Test_util.check_float
    (Printf.sprintf "lineage WMC = brute force for %s" (Logic.Fo.to_string q))
    (Logic.Brute_force.probability db q)
    (lineage_prob ctx f)

let test_lineage_vs_brute_force () =
  let db = small_tid () in
  List.iter
    (fun s -> check_query db (parse_s s))
    [
      "exists x y. R(x) && S(x,y)";
      "exists x y. R(x) && S(x,y) && T(y)";
      "forall x y. S(x,y) => R(x)";
      "forall x y. R(x) || S(x,y) || T(y)";
      "exists x. R(x) && !T(x)";
      "(exists x. R(x)) || (forall y. T(y))";
      "forall x. exists y. S(x,y)";
      "exists x. R(3)";
      "R(1) && T(2)";
    ]

let test_lineage_example_2_1 () =
  let db = Test_util.fig1_tid () in
  let ctx = Lineage.create db in
  let f = Lineage.of_query ctx (parse_s "forall x y. S(x,y) => R(x)") in
  Test_util.check_float "Example 2.1 via lineage"
    (Test_util.example_2_1_expected ())
    (lineage_prob ctx f)

let test_lineage_structure () =
  (* H0's lineage on a 2x2 complete bipartite database: a positive CNF with
     one clause per (x,y) pair. *)
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 0 ], 0.5); (t [ 1 ], 0.5) ] in
  let s =
    Core.Relation.of_list "S"
      [ (t [ 0; 0 ], 0.5); (t [ 0; 1 ], 0.5); (t [ 1; 0 ], 0.5); (t [ 1; 1 ], 0.5) ]
  in
  let u = Core.Relation.of_list "T" [ (t [ 0 ], 0.5); (t [ 1 ], 0.5) ] in
  let db = Core.Tid.make [ r; s; u ] in
  let ctx = Lineage.create db in
  let f = Lineage.of_query ctx (parse_s "forall x y. R(x) || S(x,y) || T(y)") in
  (match f with
  | F.And clauses ->
      Alcotest.(check int) "4 clauses" 4 (List.length clauses)
  | _ -> Alcotest.failf "expected conjunction, got %s" (F.to_string f));
  Alcotest.(check int) "8 variables" 8 (F.var_count f)

let test_unlisted_tuples_are_false () =
  (* with an empty S, ∃xy R(x)∧S(x,y) grounds to false *)
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3) ] in
  let db = Core.Tid.make [ r ] in
  let ctx = Lineage.create db in
  let f = Lineage.of_query ctx (parse_s "exists x y. R(x) && S(x,y)") in
  Alcotest.(check bool) "false lineage" true (F.equal f F.fls);
  (* and a universally quantified negated S grounds to true *)
  let g = Lineage.of_query ctx (parse_s "forall x y. !S(x,y)") in
  Alcotest.(check bool) "true lineage" true (F.equal g F.tru)

let test_fact_var_roundtrip () =
  let db = small_tid () in
  let ctx = Lineage.create db in
  let t xs = List.map Core.Value.int xs in
  (match Lineage.var_of_fact ctx "S" (t [ 1; 2 ]) with
  | None -> Alcotest.fail "expected a variable for S(1,2)"
  | Some id ->
      let rel, tuple = Lineage.fact_of_var ctx id in
      Alcotest.(check string) "rel" "S" rel;
      Alcotest.(check bool) "tuple" true (Core.Tuple.equal tuple (t [ 1; 2 ]));
      Test_util.check_float "prob" 0.4 (Lineage.prob ctx id));
  Alcotest.(check bool) "unlisted" true (Lineage.var_of_fact ctx "S" (t [ 9; 9 ]) = None)

(* The fact index numbers variables 0..n-1 in [Tid.support] order, the
   inverse maps agree, and the lazily built pool carries the labels and
   probabilities a pool interning every listed fact in order would. *)
let check_fact_index db =
  let ctx = Lineage.create db in
  let support = Core.Tid.support db in
  let reference = Probdb_boolean.Var_pool.create () in
  List.iteri
    (fun id (rel, tuple, p) ->
      let label = rel ^ Core.Tuple.to_string tuple in
      Alcotest.(check int) "interned in support order" id
        (Probdb_boolean.Var_pool.intern reference ~prob:p label);
      Alcotest.(check (option int)) "support order" (Some id) (Lineage.var_of_fact ctx rel tuple);
      let rel', tuple' = Lineage.fact_of_var ctx id in
      Alcotest.(check bool) "fact_of_var . var_of_fact" true
        (rel = rel' && Core.Tuple.equal tuple tuple');
      Alcotest.(check (float 0.0)) "prob" p (Lineage.prob ctx id))
    support;
  let pool = Lineage.pool ctx in
  let n = List.length support in
  Alcotest.(check int) "pool size" n (Probdb_boolean.Var_pool.size pool);
  for id = 0 to n - 1 do
    Alcotest.(check string) "pool label"
      (Probdb_boolean.Var_pool.label reference id)
      (Probdb_boolean.Var_pool.label pool id);
    Alcotest.(check (float 0.0)) "pool prob"
      (Probdb_boolean.Var_pool.prob reference id)
      (Probdb_boolean.Var_pool.prob pool id)
  done;
  Alcotest.(check bool) "foreign variable" true
    (match Lineage.fact_of_var ctx n with _ -> false | exception Not_found -> true)

let test_fact_index () =
  check_fact_index (small_tid ());
  check_fact_index (Test_util.fig1_tid ());
  check_fact_index
    (Probdb_workload.Gen.random_tid ~seed:3 ~domain_size:6
       [ Probdb_workload.Gen.spec ~density:0.5 "R" 1;
         Probdb_workload.Gen.spec ~density:0.4 "S" 2;
         Probdb_workload.Gen.spec ~density:0.3 "U" 3 ])

let ucq_of s =
  match Logic.Ucq.of_sentence (parse_s s) with
  | ucq, Logic.Ucq.Direct -> ucq
  | _ -> Alcotest.failf "expected a direct UCQ: %s" s

let formula_of_dnf clauses = F.disj (List.map (fun c -> F.conj (List.map F.var c)) clauses)

let test_dnf_of_ucq_matches_of_query () =
  let db = small_tid () in
  let ctx = Lineage.create db in
  List.iter
    (fun s ->
      let q = parse_s s in
      let ucq = ucq_of s in
      let f1 = Lineage.of_query ctx q in
      let f2 = formula_of_dnf (Lineage.dnf_of_ucq ctx ucq) in
      Test_util.check_float
        (Printf.sprintf "dnf_of_ucq = of_query for %s" s)
        (lineage_prob ctx f1) (lineage_prob ctx f2))
    [
      "exists x y. R(x) && S(x,y)";
      "exists x y. R(x) && S(x,y) && T(y)";
      "exists x y. R(x) && S(x,y) || exists u v. T(u) && S(u,v)";
      "exists x. R(x) && T(x)";
    ]

let test_dnf_lineage () =
  let db = small_tid () in
  let ctx = Lineage.create db in
  let ucq = ucq_of "exists x y. R(x) && S(x,y)" in
  let clauses = Lineage.dnf_of_ucq ctx ucq in
  (* R has 2 tuples; S-tuples joining: R(1)S(1,1), R(1)S(1,2), R(2)S(2,2) *)
  Alcotest.(check int) "3 clauses" 3 (List.length clauses);
  (* DNF probability equals query probability *)
  let f = formula_of_dnf clauses in
  Test_util.check_float "dnf prob"
    (Logic.Brute_force.probability db (parse_s "exists x y. R(x) && S(x,y)"))
    (lineage_prob ctx f);
  let mult = Lineage.multiplicities clauses in
  (* R(1) occurs in 2 clauses, R(2) in 1 *)
  let id_r1 = Option.get (Lineage.var_of_fact ctx "R" [ Core.Value.int 1 ]) in
  let id_r2 = Option.get (Lineage.var_of_fact ctx "R" [ Core.Value.int 2 ]) in
  Alcotest.(check int) "k of R(1)" 2 (List.assoc id_r1 mult);
  Alcotest.(check int) "k of R(2)" 1 (List.assoc id_r2 mult)

(* Property: on random small TIDs and a fixed query zoo, lineage WMC always
   equals world enumeration. *)
let gen_tid =
  QCheck2.Gen.(
    let prob = float_bound_inclusive 1.0 in
    let value = int_range 0 2 in
    let* n_r = int_range 0 3 and* n_s = int_range 0 4 and* n_t = int_range 0 3 in
    let row1 = map2 (fun v p -> ([ Core.Value.int v ], p)) value prob in
    let row2 =
      map2
        (fun (v1, v2) p -> ([ Core.Value.int v1; Core.Value.int v2 ], p))
        (pair value value) prob
    in
    let dedup rows =
      List.fold_left
        (fun acc (t, p) -> if List.mem_assoc t acc then acc else (t, p) :: acc)
        [] rows
    in
    let* r_rows = flatten_l (List.init n_r (fun _ -> row1)) in
    let* s_rows = flatten_l (List.init n_s (fun _ -> row2)) in
    let+ t_rows = flatten_l (List.init n_t (fun _ -> row1)) in
    let add name rows rels =
      match dedup rows with [] -> rels | rows -> Core.Relation.of_list name rows :: rels
    in
    Core.Tid.make (add "R" r_rows (add "S" s_rows (add "T" t_rows []))))

let query_zoo =
  [
    "exists x y. R(x) && S(x,y)";
    "exists x y. R(x) && S(x,y) && T(y)";
    "forall x y. R(x) || S(x,y) || T(y)";
    "forall x y. S(x,y) => R(x)";
    "exists x. R(x) && !T(x)";
    "forall x. exists y. S(x,y)";
  ]

let prop_lineage_equals_brute_force =
  Test_util.qcheck ~count:100 "lineage WMC = world enumeration (random TIDs)" gen_tid
    (fun db ->
      List.for_all
        (fun s ->
          let q = parse_s s in
          let ctx = Lineage.create db in
          let f = Lineage.of_query ctx q in
          let a = Logic.Brute_force.probability db q in
          let b = lineage_prob ctx f in
          Float.abs (a -. b) < 1e-9)
        query_zoo)

(* Property: the join's DNF is, bit for bit, the absorbed DNF of the naive
   grounding that gives every variable every domain value — on random
   positive UCQs with constants, repeated variables and self-joins, over
   random TIDs where any relation may be empty. *)
let naive_dnf ctx db ucq =
  let clause cq values =
    let env = List.combine (Logic.Cq.vars cq) values in
    let arg = function Logic.Fo.Const v -> v | Logic.Fo.Var x -> List.assoc x env in
    let fact (a : Logic.Cq.atom) = Lineage.var_of_fact ctx a.rel (List.map arg a.args) in
    let ids = List.map fact cq in
    if List.mem None ids then None
    else Some (List.sort_uniq Int.compare (List.filter_map Fun.id ids))
  in
  let valuations cq = Core.Tuple.all (List.length (Logic.Cq.vars cq)) (Core.Tid.domain db) in
  F.absorb (List.concat_map (fun cq -> List.filter_map (clause cq) (valuations cq)) ucq)

let gen_ucq =
  QCheck2.Gen.(
    let term =
      frequency
        [ (4, map (fun i -> Logic.Fo.Var [| "x"; "y"; "z" |].(i)) (int_range 0 2));
          (1, map (fun v -> Logic.Fo.Const (Core.Value.int v)) (int_range 0 2)) ]
    in
    let atom =
      oneof
        [ map (fun t -> Logic.Cq.atom "R" [ t ]) term;
          map2 (fun t u -> Logic.Cq.atom "S" [ t; u ]) term term;
          map (fun t -> Logic.Cq.atom "T" [ t ]) term ]
    in
    let cq = map Logic.Cq.make (list_size (int_range 1 3) atom) in
    list_size (int_range 1 3) cq)

let prop_dnf_equals_naive_grounding =
  Test_util.qcheck ~count:300 "dnf_of_ucq = absorbed naive grounding (random UCQs)"
    QCheck2.Gen.(pair gen_tid gen_ucq)
    (fun (db, ucq) ->
      let ctx = Lineage.create db in
      Lineage.dnf_of_ucq ctx ucq = naive_dnf ctx db ucq)

(* Fault injection at the grounding poll sites. H0 on a complete domain-20
   TID has 400 valuations and 420 quantifier instances, and absorbing 400
   clauses tests 400, each more than one poll interval of ticks, so the
   first real poll happens inside the grounding step and the injected fault
   names its site. *)
let check_trips_at site ground =
  let db = Probdb_workload.Gen.h0_db ~seed:5 ~n:20 () in
  let guard =
    Probdb_guard.Guard.create
      ~fault:(Probdb_guard.Guard.Trip_at_poll { poll = 1; resource = Probdb_guard.Guard.Fault })
      ()
  in
  match ground guard (Lineage.create db) with
  | () -> Alcotest.failf "expected a trip at %s" site
  | exception Probdb_guard.Guard.Exhausted trip ->
      Alcotest.(check string) "site" site trip.Probdb_guard.Guard.site

let test_dnf_trips_at_poll () =
  check_trips_at "lineage.dnf" (fun guard ctx ->
      ignore (Lineage.dnf_of_ucq ~guard ctx (ucq_of "exists x y. R(x) && S(x,y) && T(y)")))

let test_of_query_trips_at_poll () =
  check_trips_at "lineage.ground" (fun guard ctx ->
      ignore (Lineage.of_query ~guard ctx (parse_s "exists x y. R(x) && S(x,y) && T(y)")))

let test_absorb_trips_at_poll () =
  check_trips_at "dnf.absorb" (fun guard _ ->
      ignore (F.absorb ~guard (List.init 400 (fun i -> [ i ]))))

let suites =
  [
    ( "lineage",
      [
        Alcotest.test_case "lineage vs brute force (query zoo)" `Quick test_lineage_vs_brute_force;
        Alcotest.test_case "Example 2.1 via lineage" `Quick test_lineage_example_2_1;
        Alcotest.test_case "H0 lineage structure" `Quick test_lineage_structure;
        Alcotest.test_case "unlisted tuples are false" `Quick test_unlisted_tuples_are_false;
        Alcotest.test_case "fact/var roundtrip" `Quick test_fact_var_roundtrip;
        Alcotest.test_case "fact index and lazy pool" `Quick test_fact_index;
        Alcotest.test_case "dnf_of_ucq matches of_query" `Quick test_dnf_of_ucq_matches_of_query;
        Alcotest.test_case "DNF lineage and multiplicities" `Quick test_dnf_lineage;
        prop_lineage_equals_brute_force;
        prop_dnf_equals_naive_grounding;
        Alcotest.test_case "DNF grounding trips at lineage.dnf" `Quick test_dnf_trips_at_poll;
        Alcotest.test_case "FO grounding trips at lineage.ground" `Quick
          test_of_query_trips_at_poll;
        Alcotest.test_case "absorption trips at dnf.absorb" `Quick test_absorb_trips_at_poll;
      ] );
  ]
