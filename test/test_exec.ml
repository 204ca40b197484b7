module Core = Probdb_core
module L = Probdb_logic
module P = Probdb_plans
module Exec = Probdb_exec.Exec
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen

let cq_of (e : Q.entry) =
  match L.Ucq.of_sentence e.Q.query with
  | [ cq ], L.Ucq.Direct -> cq
  | _ -> Alcotest.failf "%s is not a single ∃-CQ" e.Q.name

let db_for cq ~seed ~domain_size =
  let rels =
    List.map (fun (name, _comp) -> name) (L.Cq.symbols cq)
    |> List.map (fun name ->
           let arity =
             List.find_map
               (fun (a : L.Cq.atom) ->
                 if String.equal a.L.Cq.rel name then Some (List.length a.L.Cq.args)
                 else None)
               cq
             |> Option.get
           in
           Gen.spec ~density:0.8 name arity)
  in
  Gen.random_tid ~seed ~domain_size rels

(* Ptables from the two paths may order rows differently; compare as sorted
   multisets with a float tolerance on the probabilities. *)
let check_same_table what (a : P.Ptable.t) (b : P.Ptable.t) =
  Alcotest.(check (list string)) (what ^ ": vars") a.P.Ptable.vars b.P.Ptable.vars;
  let norm t =
    List.sort
      (fun (t1, _) (t2, _) -> Core.Tuple.compare t1 t2)
      t.P.Ptable.rows
  in
  let ra = norm a and rb = norm b in
  Alcotest.(check int) (what ^ ": cardinality") (List.length ra) (List.length rb);
  List.iter2
    (fun (t1, p1) (t2, p2) ->
      if Core.Tuple.compare t1 t2 <> 0 then
        Alcotest.failf "%s: tuple %s vs %s" what (Core.Tuple.to_string t1)
          (Core.Tuple.to_string t2);
      Test_util.check_float (what ^ ": prob of " ^ Core.Tuple.to_string t1) p1 p2)
    ra rb

(* Every enumerated plan (safe or not), both entry points: the columnar
   executor and the list-based reference compute the same table. *)
let agree_on entry ~domain_size seed =
  let cq = cq_of entry in
  let db = db_for cq ~seed ~domain_size in
  List.iter
    (fun plan ->
      check_same_table
        (Printf.sprintf "%s seed %d" entry.Q.name seed)
        (P.Plan.eval_reference db plan)
        (P.Plan.eval db plan);
      Test_util.check_float
        (Printf.sprintf "%s seed %d boolean_prob" entry.Q.name seed)
        (P.Plan.boolean_prob_reference db plan)
        (P.Plan.boolean_prob db plan))
    (P.Plan.enumerate cq);
  true

let prop_exec_agrees_h0 =
  Test_util.qcheck ~count:60 "columnar = reference on H0 plans"
    QCheck2.Gen.(int_range 1 10_000)
    (agree_on Q.h0 ~domain_size:2)

let prop_exec_agrees_hier =
  Test_util.qcheck ~count:60 "columnar = reference on q_hier plans"
    QCheck2.Gen.(int_range 1 10_000)
    (agree_on Q.q_hier ~domain_size:3)

(* Open plans too: projections that keep variables, not just the Boolean
   γ-to-nothing at the root. *)
let test_open_plans () =
  let r = L.Cq.of_vars "R" [ "x" ] in
  let s = L.Cq.of_vars "S" [ "x"; "y" ] in
  let plans =
    [ P.Plan.Scan s;
      P.Plan.Project ([ "x" ], P.Plan.Scan s);
      P.Plan.Project ([ "y" ], P.Plan.Scan s);
      P.Plan.Join (P.Plan.Scan r, P.Plan.Scan s);
      P.Plan.Project ([ "y" ], P.Plan.Join (P.Plan.Scan r, P.Plan.Scan s));
      P.Plan.Join (P.Plan.Scan r, P.Plan.Project ([ "x" ], P.Plan.Scan s)) ]
  in
  for seed = 1 to 10 do
    let db =
      Gen.random_tid ~seed ~domain_size:3
        [ Gen.spec ~density:0.8 "R" 1; Gen.spec ~density:0.8 "S" 2 ]
    in
    List.iter
      (fun plan ->
        check_same_table
          (Printf.sprintf "open plan seed %d" seed)
          (P.Plan.eval_reference db plan)
          (P.Plan.eval db plan))
      plans
  done

let test_scan_constants_and_repeats () =
  let t xs = List.map Core.Value.int xs in
  let s =
    Core.Relation.of_list "S"
      [ (t [ 1; 1 ], 0.3); (t [ 1; 2 ], 0.5); (t [ 2; 2 ], 0.7) ]
  in
  let db = Core.Tid.make [ s ] in
  let dict = Core.Dict.create () in
  let diag = Exec.scan dict db (L.Cq.of_vars "S" [ "x"; "x" ]) in
  Alcotest.(check int) "diagonal rows" 2 (Exec.nrows diag);
  Alcotest.(check (array string)) "one column" [| "x" |] diag.Exec.vars;
  let sel =
    Exec.scan dict db (L.Cq.atom "S" [ L.Fo.Const (Core.Value.int 1); L.Fo.Var "y" ])
  in
  Alcotest.(check int) "selected rows" 2 (Exec.nrows sel);
  (* missing relation scans as empty, like the reference *)
  let missing = Exec.scan dict db (L.Cq.of_vars "T" [ "z" ]) in
  Alcotest.(check int) "missing relation" 0 (Exec.nrows missing)

let test_disjoint_union () =
  let t xs = List.map Core.Value.int xs in
  let s =
    Core.Relation.of_list "S" [ (t [ 1; 2 ], 0.25); (t [ 2; 3 ], 0.5) ]
  in
  let db = Core.Tid.make [ s ] in
  let dict = Core.Dict.create () in
  let a = Exec.scan dict db (L.Cq.of_vars "S" [ "x"; "y" ]) in
  (* same columns in swapped order: S(y,x) *)
  let b = Exec.scan dict db (L.Cq.of_vars "S" [ "y"; "x" ]) in
  let u = Exec.disjoint_union a b in
  Alcotest.(check int) "row count adds" 4 (Exec.nrows u);
  (* rows that coincide as tuples merge, probabilities adding *)
  let u2 = Exec.disjoint_union a a in
  Alcotest.(check int) "coinciding tuples merge" 2 (Exec.nrows u2);
  let rows = Exec.to_rows dict u2 in
  List.iter (fun (_, p) -> Alcotest.(check bool) "probs added" true (p = 0.5 || p = 1.0)) rows;
  (* mismatched columns are rejected *)
  let c = Exec.project [ "x" ] a in
  Alcotest.check_raises "column mismatch"
    (Invalid_argument "Exec.disjoint_union: column sets differ") (fun () ->
      ignore (Exec.disjoint_union a c))

let test_counters () =
  let db =
    Gen.random_tid ~seed:7 ~domain_size:4
      [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:1.0 "S" 2 ]
  in
  let counters = Exec.fresh_counters () in
  let plan =
    P.Plan.Project
      ([], P.Plan.Join (P.Plan.Scan (L.Cq.of_vars "R" [ "x" ]),
                        P.Plan.Scan (L.Cq.of_vars "S" [ "x"; "y" ])))
  in
  let _table, dict = P.Plan.eval_exec ~counters db plan in
  ignore dict;
  Alcotest.(check int) "operators" 4 counters.Exec.operators;
  Alcotest.(check bool) "rows processed" true (counters.Exec.rows_processed > 0);
  Alcotest.(check bool) "peak rows" true (counters.Exec.peak_rows >= 4)

(* The filtered gather over mapped columns allocates per output row at
   most, never per input row: a 100k-row diagonal scan S(x,x) keeps ~100
   rows and must stay under one minor word per input row. *)
let test_gather_allocation () =
  let n = 100_000 in
  let rng = Random.State.make [| 5 |] in
  let col () =
    let c = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    for i = 0 to n - 1 do c.{i} <- Random.State.int rng 1000 done;
    c
  in
  let cols = [| col (); col () |] in
  let probs = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill probs 0.5;
  let atom = L.Cq.of_vars "S" [ "x"; "x" ] in
  let scan () = Exec.scan_cols ~lookup:(fun _ -> None) ~cols ~probs atom in
  ignore (scan ());
  let before = Gc.minor_words () in
  let r = scan () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "some diagonal rows kept" true (Exec.nrows r > 0);
  if words >= float_of_int n then
    Alcotest.failf "gather allocated %.0f minor words over %d input rows" words n

let suites =
  [
    ( "exec",
      [
        Alcotest.test_case "scan constants/repeats" `Quick test_scan_constants_and_repeats;
        Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        Alcotest.test_case "open plans agree with reference" `Quick test_open_plans;
        Alcotest.test_case "plan counters" `Quick test_counters;
        Alcotest.test_case "gather allocates per output row only" `Quick
          test_gather_allocation;
        prop_exec_agrees_h0;
        prop_exec_agrees_hier;
      ] );
  ]
