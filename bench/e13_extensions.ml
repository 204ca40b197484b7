(* E13 — the extension modules around the paper's margins: read-once
   factorisation ([34]), open-world intervals (Sec. 9), BID tables ([16]),
   and semiring provenance ([1]). Each is demonstrated against the exact
   reference. *)

module Core = Probdb_core
module L = Probdb_logic
module Kc = Probdb_kc
module Gen = Probdb_workload.Gen
module Q = Probdb_workload.Queries
module Lineage = Probdb_lineage.Lineage
module O = Probdb_openworld.Open_db
module S = Probdb_provenance.Semiring
module A = Probdb_provenance.Annotate

let read_once_part () =
  Common.section "read-once factorisation: linear-time WMC on hierarchical lineages";
  let q = Q.q_hier.Q.query in
  let ucq, _ = L.Ucq.of_sentence q in
  let rows =
    List.map
      (fun n ->
        let db =
          Gen.random_tid ~seed:n ~domain_size:n
            [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:1.0 "S" 2 ]
        in
        let ctx = Lineage.create db in
        let clauses = Lineage.dnf_of_ucq ctx ucq in
        let p = ref None in
        let dt =
          Common.timed (fun () ->
              p := Kc.Read_once.probability (Lineage.prob ctx) clauses)
        in
        [ string_of_int n;
          string_of_int (List.length clauses);
          (match !p with Some p -> Common.f6 p | None -> "not read-once");
          Common.pretty_time dt ])
      [ 5; 10; 20; 40 ]
  in
  Common.table ([ "n"; "DNF clauses"; "p(Q) via read-once"; "time" ] :: rows);
  let db = Gen.h0_db ~seed:3 ~n:4 () in
  let ctx = Lineage.create db in
  let h0ucq, _ = L.Ucq.of_sentence Q.h0.Q.query in
  Printf.printf "H0 lineage read-once? %b (as Thm. 7.1 predicts: no)\n"
    (Kc.Read_once.is_read_once (Lineage.dnf_of_ucq ctx h0ucq))

let open_world_part () =
  Common.section "open-world intervals (lambda-completions, Sec. 9)";
  let t xs = List.map Core.Value.int xs in
  let db =
    Core.Tid.make
      ~domain:(List.map Core.Value.int [ 0; 1; 2; 3 ])
      [
        Core.Relation.of_list "R" [ (t [ 0 ], 0.8); (t [ 1 ], 0.6) ];
        Core.Relation.of_list "S" [ (t [ 0; 1 ], 0.7); (t [ 1; 2 ], 0.4) ];
      ]
  in
  let q = L.Parser.parse_sentence "exists x y. R(x) && S(x,y)" in
  let rows =
    List.map
      (fun lambda ->
        let ow = O.make ~lambda ~open_relations:[ ("S", 2) ] db in
        let iv = O.probability_interval ow q in
        [ Common.f4 lambda; Common.f6 iv.O.lower; Common.f6 iv.O.upper;
          Common.f6 (iv.O.upper -. iv.O.lower) ])
      [ 0.0; 0.05; 0.1; 0.2; 0.4 ]
  in
  Common.table ([ "lambda"; "lower"; "upper"; "width" ] :: rows);
  Printf.printf "(width 0 at lambda = 0: the closed-world assumption recovered)\n"

let bid_part () =
  Common.section "BID tables: disjoint blocks vs the independent approximation";
  let t xs = List.map Core.Value.int xs in
  let bid =
    Core.Bid.make (Core.Schema.make "Sensor" [ "id"; "v" ]) ~key_arity:1
      [
        { Core.Bid.key = t [ 1 ]; options = [ (t [ 40 ], 0.2); (t [ 41 ], 0.5); (t [ 42 ], 0.3) ] };
        { Core.Bid.key = t [ 2 ]; options = [ (t [ 40 ], 0.6); (t [ 41 ], 0.4) ] };
      ]
  in
  let tid = Core.Tid.make [ Core.Bid.to_tid_relation bid ] in
  let approx ev =
    Core.Worlds.probability tid (fun w ->
        ev (Core.World.of_facts (List.map (fun tu -> ("bid", tu)) (Core.World.tuples_of w "Sensor"))))
  in
  let row name ev =
    [ name; Common.f6 (Core.Bid.probability bid ev); Common.f6 (approx ev) ]
  in
  Common.table
    [
      [ "event"; "BID semantics"; "independent approx." ];
      row "sensor 1 reads 40 AND 41 (one block)" (fun w ->
          Core.World.mem w "bid" (t [ 1; 40 ]) && Core.World.mem w "bid" (t [ 1; 41 ]));
      row "sensor 1 reads 40 OR 41 (one block)" (fun w ->
          Core.World.mem w "bid" (t [ 1; 40 ]) || Core.World.mem w "bid" (t [ 1; 41 ]));
      row "both sensors read 40 (across blocks)" (fun w ->
          Core.World.mem w "bid" (t [ 1; 40 ]) && Core.World.mem w "bid" (t [ 2; 40 ]));
    ];
  Printf.printf
    "(within a block the approximation is wrong — blocks are disjoint choices;\n\
    \ across blocks the marginals suffice, which is why BID queries still have\n\
    \ dichotomies, see [16])\n";
  Printf.printf "expected tuples present: %.2f\n" (Core.Bid.expected_size bid)

let provenance_part () =
  Common.section "semiring provenance: one evaluator, four semantics";
  let t xs = List.map Core.Value.int xs in
  let world =
    Core.World.of_facts
      [ ("R", t [ 0 ]); ("R", t [ 1 ]); ("S", t [ 0; 1 ]); ("S", t [ 1; 1 ]) ]
  in
  let cq =
    match L.Ucq.of_sentence (L.Parser.parse_sentence "exists x y. R(x) && S(x,y)") with
    | [ cq ], _ -> cq
    | _ -> assert false
  in
  let module B = A.Make (S.Bool) in
  let module C = A.Make (S.Counting) in
  let module P = A.Make (S.Polynomial) in
  let indeterminate rel tuple =
    match rel, tuple with
    | "R", [ Core.Value.Int i ] -> S.Polynomial.var i
    | "S", [ Core.Value.Int i; Core.Value.Int j ] -> S.Polynomial.var (10 + (3 * i) + j)
    | _ -> S.Polynomial.zero
  in
  let facts_poly =
    List.map (fun (rel, tuple) -> (rel, tuple, indeterminate rel tuple)) (Core.World.facts world)
  in
  Printf.printf "query: exists x y. R(x) && S(x,y), world: {R(0),R(1),S(0,1),S(1,1)}\n";
  Printf.printf "  Bool      : %b\n" (B.eval_cq (B.of_world world) cq);
  Printf.printf "  Counting  : %d derivations\n" (C.eval_cq (C.of_world world) cq);
  Printf.printf "  Polynomial: %s\n"
    (Format.asprintf "%a" S.Polynomial.pp (P.eval_cq facts_poly cq))

let run () =
  Common.header "E13: extensions — read-once, open world, BID, provenance";
  read_once_part ();
  open_world_part ();
  bid_part ();
  provenance_part ()

let bechamel_tests =
  let db =
    Gen.random_tid ~seed:11 ~domain_size:30
      [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:1.0 "S" 2 ]
  in
  let ctx = Lineage.create db in
  let ucq, _ = L.Ucq.of_sentence Q.q_hier.Q.query in
  let clauses = Lineage.dnf_of_ucq ctx ucq in
  [
    Bechamel.Test.make ~name:"e13/read-once-n30"
      (Bechamel.Staged.stage (fun () ->
           Kc.Read_once.probability (Lineage.prob ctx) clauses));
  ]
