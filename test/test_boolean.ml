open Probdb_boolean
module F = Formula

let x0 = F.var 0
let x1 = F.var 1
let x2 = F.var 2

let test_smart_constructors () =
  Alcotest.(check bool) "and unit" true (F.equal (F.conj [ F.tru; x0 ]) x0);
  Alcotest.(check bool) "and absorbing" true (F.equal (F.conj [ F.fls; x0 ]) F.fls);
  Alcotest.(check bool) "or unit" true (F.equal (F.disj [ F.fls; x0 ]) x0);
  Alcotest.(check bool) "or absorbing" true (F.equal (F.disj [ F.tru; x0 ]) F.tru);
  Alcotest.(check bool) "dedup" true (F.equal (F.conj [ x0; x0 ]) x0);
  Alcotest.(check bool)
    "flatten" true
    (F.equal (F.conj [ x0; F.conj [ x1; x2 ] ]) (F.conj [ x0; x1; x2 ]));
  Alcotest.(check bool)
    "complement detection" true
    (F.equal (F.conj [ x0; F.neg x0 ]) F.fls);
  Alcotest.(check bool)
    "complement in or" true
    (F.equal (F.disj [ x0; F.neg x0 ]) F.tru);
  Alcotest.(check bool) "double negation" true (F.equal (F.neg (F.neg x0)) x0)

let test_eval () =
  let f = F.disj2 (F.conj2 x0 x1) (F.neg x2) in
  let assign l x = List.mem x l in
  Alcotest.(check bool) "sat" true (F.eval (assign [ 0; 1; 2 ]) f);
  Alcotest.(check bool) "sat via neg" true (F.eval (assign []) f);
  Alcotest.(check bool) "unsat" false (F.eval (assign [ 2 ]) f)

let test_condition () =
  let f = F.disj2 (F.conj2 x0 x1) x2 in
  Alcotest.(check bool)
    "condition true" true
    (F.equal (F.condition 0 true f) (F.disj2 x1 x2));
  Alcotest.(check bool) "condition false" true (F.equal (F.condition 0 false f) x2)

let test_counting () =
  (* The running example of the Appendix, Eq. (14): F = (x1 v x2)(x1 v x3)(x2 v x3)
     has 4 models (Fig. 3). *)
  let f =
    F.conj [ F.disj2 x0 x1; F.disj2 x0 x2; F.disj2 x1 x2 ]
  in
  Alcotest.(check int) "models of Eq.(14)" 4 (Brute_wmc.count_models f);
  (* probability at p=1/2 is 4/8 *)
  Test_util.check_float "uniform probability" 0.5 (Brute_wmc.probability (fun _ -> 0.5) f)

let test_weight_vs_probability () =
  (* weight(F)/Z = p(F) when p_i = w_i / (1 + w_i) (Appendix, Eq. (15)/(17)). *)
  let f = F.conj [ F.disj2 x0 x1; F.disj2 x0 x2; F.disj2 x1 x2 ] in
  let w = function 0 -> 0.5 | 1 -> 2.0 | _ -> 3.0 in
  let p x = w x /. (1.0 +. w x) in
  let z = (1.0 +. w 0) *. (1.0 +. w 1) *. (1.0 +. w 2) in
  Test_util.check_float "weight/Z = probability"
    (Brute_wmc.probability p f)
    (Brute_wmc.weight w f /. z)

let test_fig3_weight_table () =
  (* Fig. 3: weight(F) = w2 w3 + w1 w3 + w1 w2 + w1 w2 w3 (the four models). *)
  let f = F.conj [ F.disj2 x0 x1; F.disj2 x0 x2; F.disj2 x1 x2 ] in
  let w1, w2, w3 = (0.7, 1.3, 2.9) in
  let w = function 0 -> w1 | 1 -> w2 | _ -> w3 in
  Test_util.check_float "Fig. 3 weight"
    ((w2 *. w3) +. (w1 *. w3) +. (w1 *. w2) +. (w1 *. w2 *. w3))
    (Brute_wmc.weight w f)

let test_dnf () =
  let f = F.conj2 (F.disj2 x0 x1) x2 in
  Alcotest.(check (list (list int))) "dnf" [ [ 0; 2 ]; [ 1; 2 ] ] (F.to_dnf f);
  let g = F.disj2 x0 (F.conj2 x0 x1) in
  Alcotest.(check (list (list int))) "absorption" [ [ 0 ] ] (F.to_dnf g);
  Alcotest.check_raises "dnf rejects negation"
    (Invalid_argument "Formula.to_dnf: formula is not positive") (fun () ->
      ignore (F.to_dnf (F.neg x0)))

let test_read_once () =
  Alcotest.(check bool) "read-once" true
    (F.is_syntactically_read_once (F.conj2 (F.disj2 x0 x1) x2));
  Alcotest.(check bool) "not read-once" false
    (F.is_syntactically_read_once (F.disj2 (F.conj2 x0 x1) (F.conj2 x0 x2)))

let test_var_pool () =
  let pool = Var_pool.create () in
  let a = Var_pool.intern pool ~prob:0.3 "R(1)" in
  let b = Var_pool.intern pool "S(1,2)" in
  Alcotest.(check int) "same label same id" a (Var_pool.intern pool "R(1)");
  Alcotest.(check bool) "distinct ids" true (a <> b);
  Test_util.check_float "prob stored" 0.3 (Var_pool.prob pool a);
  Test_util.check_float "default prob" 0.5 (Var_pool.prob pool b);
  Alcotest.(check string) "label" "R(1)" (Var_pool.label pool a);
  let c = Var_pool.fresh pool "R(1)" in
  Alcotest.(check bool) "fresh distinct" true (c <> a);
  Alcotest.(check int) "size" 3 (Var_pool.size pool)

(* Random formula generator over variables 0..4. *)
let gen_formula =
  QCheck2.Gen.(
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then
          oneof [ return F.tru; return F.fls; map F.var (int_range 0 4) ]
        else
          oneof
            [
              map F.var (int_range 0 4);
              map F.neg (self (n - 1));
              map2 F.conj2 (self (n / 2)) (self (n / 2));
              map2 F.disj2 (self (n / 2)) (self (n / 2));
            ]))

let gen_positive_formula =
  QCheck2.Gen.(
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then
          oneof [ return F.tru; return F.fls; map F.var (int_range 0 4) ]
        else
          oneof
            [
              map F.var (int_range 0 4);
              map2 F.conj2 (self (n / 2)) (self (n / 2));
              map2 F.disj2 (self (n / 2)) (self (n / 2));
            ]))

let random_assignment seed x = (seed lsr (x mod 30)) land 1 = 1

let prop_nnf_preserves_semantics =
  Test_util.qcheck "nnf preserves semantics"
    QCheck2.Gen.(pair gen_formula (int_bound 1_000_000))
    (fun (f, seed) ->
      let a = random_assignment seed in
      F.eval a f = F.eval a (F.nnf f))

let prop_condition_agrees_with_eval =
  Test_util.qcheck "conditioning agrees with eval"
    QCheck2.Gen.(triple gen_formula (int_bound 4) (pair bool (int_bound 1_000_000)))
    (fun (f, x, (b, seed)) ->
      let a y = if y = x then b else random_assignment seed y in
      F.eval a f = F.eval a (F.condition x b f))

let prop_shannon_expansion =
  (* Eq. (11) of the paper on the brute-force counter. *)
  Test_util.qcheck "Shannon expansion"
    QCheck2.Gen.(pair gen_formula (int_bound 4))
    (fun (f, x) ->
      let p y = 0.2 +. (0.1 *. float_of_int y) in
      let lhs = Brute_wmc.probability p f in
      (* enumerate over the same variable set on both sides: condition may
         drop variables, so compare against a version with x pinned. *)
      let f0 = F.condition x false f in
      let f1 = F.condition x true f in
      let margin g =
        (* probability over vars(f) \ {x} is insensitive to extra vars *)
        Brute_wmc.probability p g
      in
      let rhs = (margin f0 *. (1.0 -. p x)) +. (margin f1 *. p x) in
      Float.abs (lhs -. rhs) < 1e-9)

let prop_dnf_equivalent =
  Test_util.qcheck "to_dnf preserves semantics"
    QCheck2.Gen.(pair gen_positive_formula (int_bound 1_000_000))
    (fun (f, seed) ->
      let a = random_assignment seed in
      let dnf = F.to_dnf f in
      let dnf_true = List.exists (List.for_all a) dnf in
      F.eval a f = dnf_true)

(* The quadratic definition of absorption, kept as the oracle for the
   indexed [F.absorb]: drop every clause some other clause is a subset of. *)
let naive_absorb clauses =
  let clauses = List.sort_uniq (List.compare Int.compare) clauses in
  List.filter
    (fun c ->
      not
        (List.exists
           (fun c' ->
             (not (List.equal Int.equal c c')) && List.for_all (fun x -> List.mem x c) c')
           clauses))
    clauses

let prop_absorb_matches_naive =
  Test_util.qcheck ~count:500 "absorb = naive quadratic absorption"
    QCheck2.Gen.(
      list_size (int_range 0 14)
        (map (List.sort_uniq Int.compare) (list_size (int_range 0 4) (int_range 0 7))))
    (fun clauses ->
      List.equal (List.equal Int.equal) (naive_absorb clauses) (F.absorb clauses))

let prop_demorgan =
  Test_util.qcheck "De Morgan via nnf"
    QCheck2.Gen.(pair gen_formula (int_bound 1_000_000))
    (fun (f, seed) ->
      let a = random_assignment seed in
      F.eval a (F.nnf (F.neg f)) = not (F.eval a f))

let suites =
  [
    ( "boolean",
      [
        Alcotest.test_case "smart constructors" `Quick test_smart_constructors;
        Alcotest.test_case "eval" `Quick test_eval;
        Alcotest.test_case "condition" `Quick test_condition;
        Alcotest.test_case "counting Eq.(14)" `Quick test_counting;
        Alcotest.test_case "weights vs probabilities" `Quick test_weight_vs_probability;
        Alcotest.test_case "Fig. 3 weight table" `Quick test_fig3_weight_table;
        Alcotest.test_case "dnf" `Quick test_dnf;
        Alcotest.test_case "read-once detection" `Quick test_read_once;
        Alcotest.test_case "var pool" `Quick test_var_pool;
        prop_nnf_preserves_semantics;
        prop_condition_agrees_with_eval;
        prop_shannon_expansion;
        prop_dnf_equivalent;
        prop_absorb_matches_naive;
        prop_demorgan;
      ] );
  ]
