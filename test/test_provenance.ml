module Core = Probdb_core
module L = Probdb_logic
module S = Probdb_provenance.Semiring
module A = Probdb_provenance.Annotate
module F = Probdb_boolean.Formula

let t xs = List.map Core.Value.int xs
let domain3 = List.init 3 Core.Value.int

let cq_of s =
  match L.Ucq.of_sentence (L.Parser.parse_sentence s) with
  | [ cq ], L.Ucq.Direct -> cq
  | _ -> Alcotest.failf "not a single positive CQ: %s" s

let ucq_of s = fst (L.Ucq.of_sentence (L.Parser.parse_sentence s))

(* ---------- semiring laws (qcheck) ---------- *)

let semiring_laws (type a) name (module K : S.S with type t = a) gen =
  Test_util.qcheck ~count:200 (name ^ " semiring laws")
    QCheck2.Gen.(triple gen gen gen)
    (fun (a, b, c) ->
      K.equal (K.plus a (K.plus b c)) (K.plus (K.plus a b) c)
      && K.equal (K.plus a b) (K.plus b a)
      && K.equal (K.plus a K.zero) a
      && K.equal (K.times a (K.times b c)) (K.times (K.times a b) c)
      && K.equal (K.times a K.one) a
      && K.equal (K.times a K.zero) K.zero
      && K.equal (K.times a (K.plus b c)) (K.plus (K.times a b) (K.times a c)))

let gen_poly =
  QCheck2.Gen.(
    let mono = pair (list_size (int_range 0 3) (int_range 0 3)) (int_range 0 4) in
    map S.Polynomial.of_monomials (list_size (int_range 0 4) mono))

(* Note: Formula's times does not distribute syntactically (only
   semantically), so we test its laws semantically. *)
let formula_laws =
  let gen =
    QCheck2.Gen.(
      sized_size (int_range 0 4) @@ fix (fun self n ->
          if n = 0 then oneof [ return F.tru; return F.fls; map F.var (int_range 0 3) ]
          else
            oneof
              [ map F.var (int_range 0 3);
                map2 F.conj2 (self (n / 2)) (self (n / 2));
                map2 F.disj2 (self (n / 2)) (self (n / 2)) ]))
  in
  Test_util.qcheck ~count:200 "Formula semiring laws (semantic)"
    QCheck2.Gen.(pair (triple gen gen gen) (int_bound 1_000_000))
    (fun ((a, b, c), seed) ->
      let assignment x = (seed lsr (x mod 20)) land 1 = 1 in
      let eq f g = F.eval assignment f = F.eval assignment g in
      eq (S.Formula.plus a (S.Formula.plus b c)) (S.Formula.plus (S.Formula.plus a b) c)
      && eq (S.Formula.times a (S.Formula.plus b c))
           (S.Formula.plus (S.Formula.times a b) (S.Formula.times a c)))

(* ---------- annotated evaluation ---------- *)

let world =
  Core.World.of_facts
    [ ("R", t [ 0 ]); ("R", t [ 1 ]); ("S", t [ 0; 1 ]); ("S", t [ 1; 1 ]); ("S", t [ 2; 0 ]) ]

let test_bool_semiring_is_satisfaction () =
  let module B = A.Make (S.Bool) in
  let ann = B.of_world world in
  List.iter
    (fun s ->
      let q = L.Parser.parse_sentence s in
      let ucq, _ = L.Ucq.of_sentence q in
      Alcotest.(check bool) s
        (L.Semantics.holds ~domain:domain3 world q)
        (B.eval_ucq ann ucq))
    [
      "exists x y. R(x) && S(x,y)";
      "exists x. R(x) && S(x,x)";
      "exists x y. R(x) && S(x,y) && R(y)";
      "exists x. S(x,2)";
    ]

let test_counting_semiring_counts_valuations () =
  let module C = A.Make (S.Counting) in
  let ann = C.of_world world in
  (* valuations satisfying R(x) ∧ S(x,y): (0,1), (1,1) *)
  Alcotest.(check int) "two derivations" 2
    (C.eval_cq ann (cq_of "exists x y. R(x) && S(x,y)"));
  (* ∃x S(x,y) for each y... Boolean: count all sat valuations of S(x,y): 3 *)
  Alcotest.(check int) "three S-facts" 3
    (C.eval_cq ann (cq_of "exists x y. S(x,y)"))

let test_tropical_semiring_cheapest () =
  let module T = A.Make (S.Tropical) in
  (* cost of using each fact; min-cost derivation of R(x)∧S(x,y) *)
  let cost =
    [ ("R", t [ 0 ], 5.0); ("R", t [ 1 ], 1.0); ("S", t [ 0; 1 ], 1.0);
      ("S", t [ 1; 1 ], 10.0) ]
  in
  Test_util.check_float "cheapest derivation" 6.0
    (T.eval_cq cost (cq_of "exists x y. R(x) && S(x,y)"))
  (* (R(0)=5) + (S(0,1)=1) = 6 beats (R(1)=1) + (S(1,1)=10) *)

let test_formula_semiring_is_lineage () =
  (* annotating each fact with its lineage variable recovers the lineage *)
  let db =
    Core.Tid.make
      [
        Core.Relation.of_list "R" [ (t [ 0 ], 0.4); (t [ 1 ], 0.5) ];
        Core.Relation.of_list "S" [ (t [ 0; 1 ], 0.6); (t [ 1; 1 ], 0.7) ];
      ]
  in
  let ctx = Probdb_lineage.Lineage.create db in
  let module FS = A.Make (S.Formula) in
  let ann =
    List.map
      (fun (rel, tuple, _) ->
        (rel, tuple, F.var (Option.get (Probdb_lineage.Lineage.var_of_fact ctx rel tuple))))
      (Core.Tid.support db)
  in
  List.iter
    (fun s ->
      let ucq = ucq_of s in
      let via_semiring = FS.eval_ucq ann ucq in
      let via_lineage =
        F.disj
          (List.map
             (fun c -> F.conj (List.map F.var c))
             (Probdb_lineage.Lineage.dnf_of_ucq ctx ucq))
      in
      (* may differ syntactically; compare by WMC *)
      Test_util.check_float s
        (Probdb_boolean.Brute_wmc.probability (Probdb_lineage.Lineage.prob ctx) via_lineage)
        (Probdb_boolean.Brute_wmc.probability (Probdb_lineage.Lineage.prob ctx) via_semiring))
    [
      "exists x y. R(x) && S(x,y)";
      "exists x y. R(x) && S(x,y) || exists z. R(z) && S(z,z)";
    ]

let test_polynomial_provenance () =
  let module P = A.Make (S.Polynomial) in
  (* facts annotated with distinct indeterminates *)
  let ann =
    [ ("R", t [ 0 ], S.Polynomial.var 0); ("R", t [ 1 ], S.Polynomial.var 1);
      ("S", t [ 0; 1 ], S.Polynomial.var 2); ("S", t [ 1; 1 ], S.Polynomial.var 3) ]
  in
  let p = P.eval_cq ann (cq_of "exists x y. R(x) && S(x,y)") in
  (* x0·x2 + x1·x3 *)
  Alcotest.(check int) "two monomials" 2 (List.length (S.Polynomial.monomials p));
  Alcotest.(check bool) "expected polynomial" true
    (S.Polynomial.equal p (S.Polynomial.of_monomials [ ([ 0; 2 ], 1); ([ 1; 3 ], 1) ]));
  (* specialising to 1/0 recovers counting on the world *)
  Alcotest.(check int) "eval at indicator" 2 (S.Polynomial.eval (fun _ -> 1) p);
  (* self-join square: R(x) ∧ R(y) gives (x0+x1)^2 with multiplicities *)
  let sq = P.eval_cq ann (cq_of "exists x y. R(x) && R(y)") in
  Alcotest.(check bool) "square with multiplicities" true
    (S.Polynomial.equal sq
       (S.Polynomial.of_monomials [ ([ 0; 0 ], 1); ([ 0; 1 ], 2); ([ 1; 1 ], 1) ]))

(* property: Bool semiring = Semantics on random CQs and worlds *)
let gen_cq =
  QCheck2.Gen.(
    let term = map (fun i -> Probdb_logic.Fo.Var (Printf.sprintf "v%d" i)) (int_range 0 2) in
    let atom =
      oneof
        [ map (fun v -> L.Cq.atom "R" [ v ]) term;
          map2 (fun v w -> L.Cq.atom "S" [ v; w ]) term term ]
    in
    let* n = int_range 1 3 in
    map L.Cq.make (flatten_l (List.init n (fun _ -> atom))))

let prop_bool_matches_semantics =
  let gen_world =
    QCheck2.Gen.(
      let value = map Core.Value.int (int_range 0 2) in
      let fact =
        oneof
          [ map (fun v -> ("R", [ v ])) value;
            map2 (fun v w -> ("S", [ v; w ])) value value ]
      in
      let* n = int_range 0 5 in
      map Core.World.of_facts (flatten_l (List.init n (fun _ -> fact))))
  in
  Test_util.qcheck ~count:300 "Bool semiring = satisfaction"
    QCheck2.Gen.(pair gen_cq gen_world)
    (fun (cq, w) ->
      let module B = A.Make (S.Bool) in
      B.eval_cq (B.of_world w) cq
      = L.Semantics.holds ~domain:domain3 w (L.Cq.to_fo cq))

let suites =
  [
    ( "provenance",
      [
        semiring_laws "Bool" (module S.Bool) QCheck2.Gen.bool;
        semiring_laws "Counting" (module S.Counting) QCheck2.Gen.(int_range 0 20);
        semiring_laws "Tropical" (module S.Tropical)
          QCheck2.Gen.(map float_of_int (int_range 0 40));
        semiring_laws "Polynomial" (module S.Polynomial) gen_poly;
        formula_laws;
        Alcotest.test_case "Bool = satisfaction" `Quick test_bool_semiring_is_satisfaction;
        Alcotest.test_case "Counting = #valuations" `Quick test_counting_semiring_counts_valuations;
        Alcotest.test_case "Tropical = cheapest derivation" `Quick test_tropical_semiring_cheapest;
        Alcotest.test_case "Formula = lineage" `Quick test_formula_semiring_is_lineage;
        Alcotest.test_case "Polynomial provenance" `Quick test_polynomial_provenance;
        prop_bool_matches_semantics;
      ] );
  ]
