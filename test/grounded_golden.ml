(* The grounded-tier golden rendering: every answer of the query zoo (plus
   the binary self-join of the grounded-exact workload) over four seeded
   TIDs, under the default chain and under each grounded strategy alone,
   and the OBDD node count and size of each lineage. Floats print as %h, so
   the text pins answers bit for bit. [test_golden] compares it with the
   checked-in file; [gen_golden] prints it to regenerate that file. *)

module Core = Probdb_core
module Engine = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Lineage = Probdb_lineage.Lineage
module Obdd = Probdb_kc.Obdd
module Gen = Probdb_workload.Gen
module Q = Probdb_workload.Queries

let queries =
  List.map (fun (e : Q.entry) -> (e.Q.name, e.Q.text)) Q.all
  @ [ ("self_join_s1", "exists x y z. S1(x,y) && S1(y,z)") ]

(* The grounded-exact schema at four sizes; domain 8 uses sparser binary
   relations so the whole rendering stays a few seconds. *)
let tids =
  let schema ~s ~s123 =
    [ Gen.spec ~density:1.0 "R" 1; Gen.spec ~density:s "S" 2;
      Gen.spec ~density:0.6 "T" 1; Gen.spec ~density:s123 "S1" 2;
      Gen.spec ~density:s123 "S2" 2; Gen.spec ~density:s123 "S3" 2 ]
  in
  List.map
    (fun (seed, n, s, s123) ->
      ( Printf.sprintf "seed%d-dom%d" seed n,
        Gen.random_tid ~seed ~domain_size:n (schema ~s ~s123) ))
    [ (1, 4, 0.5, 0.5); (2, 5, 0.4, 0.4); (3, 6, 0.4, 0.4); (4, 8, 0.25, 0.2) ]

let chains =
  [ ("default", Engine.all_strategies); ("obdd", [ Engine.Obdd ]);
    ("read-once", [ Engine.Read_once ]); ("karp-luby", [ Engine.Karp_luby ]) ]

let answer_line = function
  | Ok (a : Answer.t) ->
      let ci =
        match a.Answer.confidence with
        | None -> ""
        | Some c ->
            Printf.sprintf " ci=[%h,%h] samples=%d" c.Answer.ci_low c.Answer.ci_high
              c.Answer.samples
      in
      let steps =
        List.map
          (fun s ->
            Printf.sprintf "%s %s: %s" (Answer.step_strategy s) (Answer.step_kind s)
              (Answer.step_detail s))
          a.Answer.chain
      in
      Printf.sprintf "%s %h%s%s%s" a.Answer.strategy a.Answer.value
        (if a.Answer.exact then "" else " approx")
        ci
        (String.concat "" (List.map (fun s -> " | " ^ s) steps))
  | Error e -> "error " ^ Core.Probdb_error.render e

let obdd_line db q =
  let ctx = Lineage.create db in
  match Lineage.of_query ctx q with
  | exception Invalid_argument msg -> "lineage error " ^ msg
  | f -> (
      let m =
        Obdd.manager ~max_nodes:Engine.default_config.Engine.obdd_max_nodes
          ~order:(Obdd.default_order f) ()
      in
      match Obdd.of_formula m f with
      | bdd ->
          Printf.sprintf "nodes=%d size=%d wmc=%h" (Obdd.node_count m) (Obdd.size bdd)
            (Obdd.wmc m (Lineage.prob ctx) bdd)
      | exception Obdd.Node_limit n -> Printf.sprintf "node-limit %d" n)

let render () =
  let buf = Buffer.create 16384 in
  List.iter
    (fun (tid_name, db) ->
      List.iter
        (fun (qname, text) ->
          let q = Probdb_logic.Parser.parse_sentence text in
          List.iter
            (fun (cname, strategies) ->
              let config = { Engine.default_config with Engine.strategies } in
              Printf.bprintf buf "%s %s %s: %s\n" tid_name qname cname
                (answer_line (Engine.eval ~config db q)))
            chains;
          Printf.bprintf buf "%s %s obdd-size: %s\n" tid_name qname (obdd_line db q))
        queries)
    tids;
  Buffer.contents buf
