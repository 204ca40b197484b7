module Core = Probdb_core
module Fo = Probdb_logic.Fo
module E = Probdb_engine.Engine

type t = {
  db : Core.Tid.t;
  lambda : float;
  open_rels : (string * int) list;
}

let make ?(lambda = 0.1) ~open_relations db =
  if lambda < 0.0 || lambda > 1.0 then invalid_arg "Open_db.make: lambda outside [0,1]";
  List.iter
    (fun (name, arity) ->
      match Core.Tid.relation_opt db name with
      | Some rel when Core.Relation.arity rel <> arity ->
          invalid_arg (Printf.sprintf "Open_db.make: arity mismatch for %s" name)
      | _ -> ())
    open_relations;
  { db; lambda; open_rels = open_relations }

let lambda t = t.lambda

let complete_relation db lambda name arity =
  let domain = Core.Tid.domain db in
  let listed =
    match Core.Tid.relation_opt db name with
    | Some rel -> fun t -> Core.Relation.mem rel t
    | None -> fun _ -> false
  in
  let rows =
    List.map
      (fun t -> (t, if listed t then Core.Tid.prob db name t else lambda))
      (Core.Tuple.all arity domain)
  in
  Core.Relation.make (Core.Schema.of_arity name arity) rows

let complete_some t names =
  List.fold_left
    (fun db (name, arity) ->
      if List.mem name names then
        Core.Tid.replace_relation db (complete_relation t.db t.lambda name arity)
      else db)
    t.db t.open_rels

let completion t = complete_some t (List.map fst t.open_rels)

type interval = { lower : float; upper : float }

let probability_interval ?config t q =
  let polarities = Fo.polarities q in
  let polarity_of name =
    Option.value ~default:`Pos (List.assoc_opt name polarities)
  in
  List.iter
    (fun (name, _) ->
      if polarity_of name = `Both then
        raise
          (Probdb_logic.Ucq.Unsupported
             (Printf.sprintf "open relation %s occurs with both polarities" name)))
    t.open_rels;
  let positive, negative =
    List.partition (fun (name, _) -> polarity_of name = `Pos) t.open_rels
  in
  (* monotone direction: adding tuples to positive relations raises p(Q),
     adding to negative relations lowers it *)
  let low_db = complete_some t (List.map fst negative) in
  let high_db = complete_some t (List.map fst positive) in
  let p_low = E.probability ?config low_db q in
  let p_high = E.probability ?config high_db q in
  { lower = Float.min p_low p_high; upper = Float.max p_low p_high }
