open Probdb_kc
module F = Probdb_boolean.Formula
module W = Probdb_boolean.Brute_wmc

let x0 = F.var 0
let x1 = F.var 1
let x2 = F.var 2
let x3 = F.var 3

let probs x = 0.15 +. (0.1 *. float_of_int x)

(* ---------- OBDD ---------- *)

let test_obdd_basics () =
  let m = Obdd.manager ~order:[ 0; 1; 2 ] () in
  let f = F.disj2 (F.conj2 x0 x1) x2 in
  let b = Obdd.of_formula m f in
  Alcotest.(check bool) "eval 110" true (Obdd.eval (fun v -> v <> 2) b);
  Alcotest.(check bool) "eval 000" false (Obdd.eval (fun _ -> false) b);
  Test_util.check_float "wmc" (W.probability probs f) (Obdd.wmc m probs b);
  Test_util.check_float "sat count" (float_of_int (W.count_models f))
    (Obdd.sat_count m ~over_vars:3 b)

let test_obdd_canonicity () =
  let m = Obdd.manager ~order:[ 0; 1; 2 ] () in
  (* equivalent formulas compile to the same node *)
  let a = Obdd.of_formula m (F.disj2 x0 (F.conj2 x0 x1)) in
  let b = Obdd.of_formula m x0 in
  Alcotest.(check bool) "absorption law" true (a == b);
  let c = Obdd.of_formula m (F.conj2 x0 (F.neg x0)) in
  Alcotest.(check bool) "contradiction is zero" true (c == Obdd.zero m);
  let d = Obdd.of_formula m (F.disj2 x0 (F.neg x0)) in
  Alcotest.(check bool) "tautology is one" true (d == Obdd.one m)

let test_obdd_order_matters () =
  (* The classic multiplexer-ish example: (x0∧x1) ∨ (x2∧x3) is small under
     the interleaved-good order and bigger under the bad order. *)
  let f = F.disj2 (F.conj2 x0 x1) (F.conj2 x2 x3) in
  let good = Obdd.manager ~order:[ 0; 1; 2; 3 ] () in
  let bad = Obdd.manager ~order:[ 0; 2; 1; 3 ] () in
  let bg = Obdd.of_formula good f in
  let bb = Obdd.of_formula bad f in
  Alcotest.(check bool) "bad order at least as large" true (Obdd.size bb >= Obdd.size bg);
  Test_util.check_float "same wmc"
    (Obdd.wmc good probs bg) (Obdd.wmc bad probs bb)

let test_obdd_node_limit () =
  let m = Obdd.manager ~max_nodes:2 ~order:[ 0; 1; 2; 3 ] () in
  match Obdd.of_formula m (F.disj2 (F.conj2 x0 x1) (F.conj2 x2 x3)) with
  | exception Obdd.Node_limit 2 -> ()
  | _ -> Alcotest.fail "expected Node_limit"

let test_obdd_default_order () =
  Alcotest.(check (list int)) "first-appearance order" [ 2; 0; 1 ]
    (Obdd.default_order (F.disj2 x2 (F.conj2 x0 x1)))

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

let prop_obdd_wmc_matches_brute_force =
  Test_util.qcheck "OBDD wmc = brute force" gen_formula (fun f ->
      let m = Obdd.manager ~order:[ 0; 1; 2; 3; 4 ] () in
      let b = Obdd.of_formula m f in
      Float.abs (Obdd.wmc m probs b -. W.probability probs f) < 1e-9)

let prop_obdd_canonical_equivalence =
  Test_util.qcheck "equivalent formulas share a node"
    QCheck2.Gen.(pair gen_formula gen_formula)
    (fun (f, g) ->
      let m = Obdd.manager ~order:[ 0; 1; 2; 3; 4 ] () in
      let bf = Obdd.of_formula m f and bg = Obdd.of_formula m g in
      let equivalent =
        (* brute-force equivalence over the union of variables *)
        let vars = List.sort_uniq Int.compare (F.vars f @ F.vars g) in
        let rec all assignment = function
          | [] ->
              let a v = List.assoc v assignment in
              F.eval a f = F.eval a g
          | v :: rest ->
              all ((v, true) :: assignment) rest && all ((v, false) :: assignment) rest
        in
        all [] vars
      in
      equivalent = (bf == bg))

let gen_clauses =
  QCheck2.Gen.(
    let clause = list_size (int_range 1 3) (int_range 0 5) in
    list_size (int_range 0 5) clause)

(* Building one function through different operation orders must land on
   the same memoised handle: [==] is node identity. *)
let prop_obdd_shuffled_orders_share_handle =
  Test_util.qcheck "shuffled constructions are =="
    QCheck2.Gen.(pair gen_clauses (int_bound 1_000_000))
    (fun (clauses, seed) ->
      let m = Obdd.manager ~order:[ 0; 1; 2; 3; 4; 5 ] () in
      let rng = Random.State.make [| seed |] in
      let shuffle l =
        List.map snd
          (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) l))
      in
      let build clauses =
        List.fold_left
          (fun acc c ->
            Obdd.disj m acc
              (List.fold_left (fun acc v -> Obdd.conj m acc (Obdd.var m v)) (Obdd.one m) c))
          (Obdd.zero m) clauses
      in
      let a = build clauses in
      let b = build (List.map shuffle (shuffle clauses)) in
      let f = F.disj (List.map (fun c -> F.conj (List.map F.var c)) clauses) in
      a == b && a == Obdd.of_formula m f)

(* The cap counts distinct nodes: a fresh manager capped at exactly the
   node count a compilation needs succeeds, one below it trips. *)
let prop_obdd_node_limit_boundary =
  Test_util.qcheck "Node_limit trips at node_count - 1, not at node_count" gen_formula
    (fun f ->
      let order = [ 0; 1; 2; 3; 4 ] in
      let free = Obdd.manager ~order () in
      ignore (Obdd.of_formula free f);
      let n = Obdd.node_count free in
      let at_count =
        let m = Obdd.manager ~max_nodes:n ~order () in
        match Obdd.of_formula m f with
        | _ -> Obdd.node_count m = n
        | exception Obdd.Node_limit _ -> false
      in
      let below =
        n = 0
        ||
        match Obdd.of_formula (Obdd.manager ~max_nodes:(n - 1) ~order ()) f with
        | _ -> false
        | exception Obdd.Node_limit k -> k = n - 1
      in
      at_count && below)

(* ---------- Circuits ---------- *)

let test_circuit_fig2a () =
  (* Fig. 2(a): FBDD for (!X)YZ v XY v XZ.  vars: X=0, Y=1, Z=2 *)
  let b = Circuit.builder () in
  let tru = Circuit.tru b and fls = Circuit.fls b in
  let z_leaf = Circuit.decision b 2 ~lo:fls ~hi:tru in
  (* X=1 branch: Y ? 1 : (Z ? 1 : 0) *)
  let x1_branch = Circuit.decision b 1 ~lo:z_leaf ~hi:tru in
  (* X=0 branch: Y ? (Z?1:0) : 0 *)
  let x0_branch = Circuit.decision b 1 ~lo:fls ~hi:z_leaf in
  let root = Circuit.decision b 0 ~lo:x0_branch ~hi:x1_branch in
  let f =
    F.disj
      [ F.conj [ F.neg x0; x1; x2 ]; F.conj [ x0; x1 ]; F.conj [ x0; x2 ] ]
  in
  (* the circuit computes the formula *)
  List.iter
    (fun bits ->
      let a v = List.nth bits v in
      Alcotest.(check bool)
        (Printf.sprintf "agree on %b%b%b" (a 0) (a 1) (a 2))
        (F.eval a f) (Circuit.eval a root))
    [ [ false; false; false ]; [ false; true; true ]; [ true; false; true ];
      [ true; true; false ]; [ true; true; true ]; [ false; true; false ] ];
  Test_util.check_float "wmc matches" (W.probability probs f) (Circuit.wmc probs root);
  Alcotest.(check bool) "valid" true (Result.is_ok (Circuit.check root));
  Alcotest.(check bool) "is an FBDD" true (Circuit.kind ~order:None root = Circuit.Fbdd)

let test_circuit_fig2b () =
  (* Fig. 2(b): decision-DNNF for (!X)YZU v XYZ v XZU, with an AND node.
     vars: X=0, Y=1, Z=2, U=3 *)
  let b = Circuit.builder () in
  let tru = Circuit.tru b and fls = Circuit.fls b in
  let u_leaf = Circuit.decision b 3 ~lo:fls ~hi:tru in
  let y_leaf = Circuit.decision b 1 ~lo:fls ~hi:tru in
  let z_leaf = Circuit.decision b 2 ~lo:fls ~hi:tru in
  (* X=0: Y ∧ Z ∧ U ; X=1: Z ∧ (Y v U) *)
  let yu = Circuit.decision b 1 ~lo:u_leaf ~hi:tru in
  let x0_branch = Circuit.band b [ y_leaf; z_leaf; u_leaf ] in
  let x1_branch = Circuit.band b [ z_leaf; yu ] in
  let root = Circuit.decision b 0 ~lo:x0_branch ~hi:x1_branch in
  let f =
    F.disj
      [
        F.conj [ F.neg x0; x1; x2; x3 ];
        F.conj [ x0; x1; x2 ];
        F.conj [ x0; x2; x3 ];
      ]
  in
  Test_util.check_float "wmc matches" (W.probability probs f) (Circuit.wmc probs root);
  Alcotest.(check bool) "valid" true (Result.is_ok (Circuit.check root));
  Alcotest.(check bool) "decision-DNNF" true
    (Circuit.kind ~order:None root = Circuit.Decision_dnnf);
  (* and it embeds into a d-DNNF with the same WMC *)
  let d = Ddnnf.of_circuit root in
  Alcotest.(check bool) "decomposable" true (Ddnnf.check_decomposable d);
  Alcotest.(check bool) "deterministic" true (Ddnnf.check_deterministic d);
  Test_util.check_float "d-DNNF wmc" (W.probability probs f) (Ddnnf.wmc probs d)

let test_circuit_check_catches_violations () =
  let b = Circuit.builder () in
  let tru = Circuit.tru b and fls = Circuit.fls b in
  let x_leaf = Circuit.decision b 0 ~lo:fls ~hi:tru in
  (* re-reads variable 0 below its own decision *)
  let bad = Circuit.decision b 0 ~lo:x_leaf ~hi:tru in
  Alcotest.(check bool) "re-read detected" true (Result.is_error (Circuit.check bad));
  (* overlapping AND scopes *)
  let bad2 = Circuit.band b [ x_leaf; Circuit.decision b 0 ~lo:tru ~hi:fls ] in
  Alcotest.(check bool) "overlap detected" true (Result.is_error (Circuit.check bad2))

let test_circuit_hash_consing () =
  let b = Circuit.builder () in
  let tru = Circuit.tru b and fls = Circuit.fls b in
  let n1 = Circuit.decision b 0 ~lo:fls ~hi:tru in
  let n2 = Circuit.decision b 0 ~lo:fls ~hi:tru in
  Alcotest.(check bool) "shared" true (n1 == n2);
  let collapsed = Circuit.decision b 1 ~lo:n1 ~hi:n1 in
  Alcotest.(check bool) "redundant test collapsed" true (collapsed == n1);
  Alcotest.(check int) "size counts distinct nodes" 1 (Circuit.size n1)

let test_obdd_to_circuit () =
  let m = Obdd.manager ~order:[ 0; 1; 2 ] () in
  let f = F.disj2 (F.conj2 x0 x1) x2 in
  let bdd = Obdd.of_formula m f in
  let b = Circuit.builder () in
  let c = Obdd.to_circuit b bdd in
  Test_util.check_float "same wmc" (Obdd.wmc m probs bdd) (Circuit.wmc probs c);
  Alcotest.(check bool) "obdd-like" true
    (Circuit.kind ~order:(Some (Obdd.order m)) c = Circuit.Obdd_like);
  Alcotest.(check int) "same size" (Obdd.size bdd) (Circuit.size c)

(* ---------- read-once factorisation ---------- *)

let test_read_once_basic () =
  (* x0 x1 ∨ x0 x2 = x0 (x1 ∨ x2): read-once *)
  let clauses = [ [ 0; 1 ]; [ 0; 2 ] ] in
  (match Read_once.factor clauses with
  | None -> Alcotest.fail "expected read-once"
  | Some f ->
      Alcotest.(check bool) "syntactically read-once" true
        (F.is_syntactically_read_once f);
      let dnf_f =
        F.disj (List.map (fun c -> F.conj (List.map F.var c)) clauses)
      in
      Test_util.check_float "same probability" (W.probability probs dnf_f)
        (Option.get (Read_once.probability probs clauses)));
  (* the triangle x0x1 ∨ x1x2 ∨ x0x2 is the canonical non-read-once DNF *)
  Alcotest.(check bool) "triangle not read-once" false
    (Read_once.is_read_once [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2 ] ]);
  (* P4-shaped: x0x1 ∨ x1x2 ∨ x2x3 — not read-once *)
  Alcotest.(check bool) "P4 not read-once" false
    (Read_once.is_read_once [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ])

let test_read_once_edge_cases () =
  Alcotest.(check bool) "empty DNF" true (Read_once.factor [] = Some F.fls);
  Alcotest.(check bool) "true DNF" true (Read_once.factor [ [] ] = Some F.tru);
  Alcotest.(check bool) "single var" true (Read_once.factor [ [ 5 ] ] = Some (F.var 5));
  (* absorption applied internally: x0 ∨ x0x1 = x0 *)
  Alcotest.(check bool) "absorption" true (Read_once.factor [ [ 0 ]; [ 0; 1 ] ] = Some (F.var 0));
  (* disjoint disjunction *)
  (match Read_once.factor [ [ 0; 1 ]; [ 2; 3 ] ] with
  | Some f -> Alcotest.(check bool) "or of products" true (F.is_syntactically_read_once f)
  | None -> Alcotest.fail "disjoint DNF is read-once")

let test_hierarchical_lineage_is_read_once () =
  (* the lineage of the hierarchical R(x) ∧ S(x,y) is read-once; H0's is not *)
  let db = Probdb_workload.Gen.h0_db ~seed:5 ~n:4 () in
  let ctx = Probdb_lineage.Lineage.create db in
  let qh, _ =
    Probdb_logic.Ucq.of_sentence Probdb_workload.Queries.q_hier.Probdb_workload.Queries.query
  in
  let clauses = Probdb_lineage.Lineage.dnf_of_ucq ctx qh in
  (match Read_once.probability (Probdb_lineage.Lineage.prob ctx) clauses with
  | None -> Alcotest.fail "hierarchical lineage should be read-once"
  | Some p ->
      Test_util.check_float "read-once wmc = brute force"
        (Probdb_logic.Brute_force.probability db
           Probdb_workload.Queries.q_hier.Probdb_workload.Queries.query)
        p);
  let h0, _ =
    Probdb_logic.Ucq.of_sentence Probdb_workload.Queries.h0.Probdb_workload.Queries.query
  in
  let h0_clauses = Probdb_lineage.Lineage.dnf_of_ucq ctx h0 in
  Alcotest.(check bool) "H0 lineage not read-once" false
    (Read_once.is_read_once h0_clauses)

let test_read_once_polls_guard () =
  (* a fault injected at the first poll trips at the factorisation site *)
  let guard =
    Probdb_guard.Guard.create
      ~fault:(Probdb_guard.Guard.Trip_at_poll { poll = 1; resource = Probdb_guard.Guard.Fault })
      ()
  in
  match Read_once.probability ~guard probs [ [ 0; 1 ]; [ 1; 2 ] ] with
  | _ -> Alcotest.fail "expected the guard to trip"
  | exception Probdb_guard.Guard.Exhausted trip ->
      Alcotest.(check string) "site" "read_once.factor" trip.Probdb_guard.Guard.site

(* Property: factoring preserves semantics whenever it succeeds; and the
   factored form never repeats a variable. *)
let prop_read_once_sound =
  Test_util.qcheck ~count:300 "read-once factorisation is sound" gen_clauses
    (fun clauses ->
      let clauses = List.map (List.sort_uniq Int.compare) clauses in
      match Read_once.factor clauses with
      | None -> true
      | Some f ->
          let dnf_f =
            F.disj (List.map (fun c -> F.conj (List.map F.var c)) clauses)
          in
          F.is_syntactically_read_once f
          && Float.abs (W.probability probs f -. W.probability probs dnf_f) < 1e-9)

let prop_read_once_complete_on_roformulas =
  (* build a random read-once formula, expand to DNF, re-factor: must
     succeed *)
  let gen_ro =
    QCheck2.Gen.(
      let rec build vars n =
        if n <= 1 || List.length vars <= 1 then
          return (F.var (List.hd vars))
        else
          let* split = int_range 1 (List.length vars - 1) in
          let left = List.filteri (fun i _ -> i < split) vars in
          let right = List.filteri (fun i _ -> i >= split) vars in
          let* l = build left (n / 2) and* r = build right (n / 2) in
          oneof [ return (F.conj2 l r); return (F.disj2 l r) ]
      in
      let* k = int_range 1 6 in
      build (List.init k Fun.id) 8)
  in
  Test_util.qcheck ~count:300 "read-once DNFs are recognised" gen_ro (fun f ->
      let dnf = F.to_dnf f in
      match Read_once.factor dnf with
      | None -> false
      | Some g -> Float.abs (W.probability probs f -. W.probability probs g) < 1e-9)

let suites =
  [
    ( "kc.read_once",
      [
        Alcotest.test_case "basics" `Quick test_read_once_basic;
        Alcotest.test_case "edge cases" `Quick test_read_once_edge_cases;
        Alcotest.test_case "hierarchical lineage is read-once" `Quick
          test_hierarchical_lineage_is_read_once;
        Alcotest.test_case "polls the guard" `Quick test_read_once_polls_guard;
        prop_read_once_sound;
        prop_read_once_complete_on_roformulas;
      ] );
    ( "kc.obdd",
      [
        Alcotest.test_case "basics" `Quick test_obdd_basics;
        Alcotest.test_case "canonicity" `Quick test_obdd_canonicity;
        Alcotest.test_case "order sensitivity" `Quick test_obdd_order_matters;
        Alcotest.test_case "node limit" `Quick test_obdd_node_limit;
        Alcotest.test_case "default order" `Quick test_obdd_default_order;
        prop_obdd_wmc_matches_brute_force;
        prop_obdd_canonical_equivalence;
        prop_obdd_shuffled_orders_share_handle;
        prop_obdd_node_limit_boundary;
      ] );
    ( "kc.circuit",
      [
        Alcotest.test_case "Fig. 2(a) FBDD" `Quick test_circuit_fig2a;
        Alcotest.test_case "Fig. 2(b) decision-DNNF" `Quick test_circuit_fig2b;
        Alcotest.test_case "validity checker" `Quick test_circuit_check_catches_violations;
        Alcotest.test_case "hash consing" `Quick test_circuit_hash_consing;
        Alcotest.test_case "obdd to circuit" `Quick test_obdd_to_circuit;
      ] );
  ]
