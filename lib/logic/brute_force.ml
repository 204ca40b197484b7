module Core = Probdb_core

let probability db q =
  if not (Fo.is_sentence q) then
    invalid_arg "Brute_force.probability: query has free variables";
  Core.Worlds.probability db (fun w -> Semantics.holds_in_tid db w q)

let answers db ~free q =
  let remaining = List.filter (fun v -> not (List.mem v free)) (Fo.free_vars q) in
  if remaining <> [] then
    invalid_arg
      (Printf.sprintf "Brute_force.answers: undeclared free variables %s"
         (String.concat ", " remaining));
  let domain = Core.Tid.domain db in
  Core.Tuple.all (List.length free) domain
  |> List.filter_map (fun binding ->
         let env = List.combine free binding in
         let p =
           Core.Worlds.probability db (fun w -> Semantics.holds ~env ~domain w q)
         in
         if p > 0.0 then Some (binding, p) else None)
  |> List.sort (fun (a, _) (b, _) -> Core.Tuple.compare a b)

let complement_tid db arities =
  let domain = Core.Tid.domain db in
  let complement_relation name arity =
    let rows =
      List.map (fun t -> (t, 1.0 -. Core.Tid.prob db name t)) (Core.Tuple.all arity domain)
    in
    Core.Relation.make (Core.Schema.of_arity name arity) rows
  in
  Core.Tid.make ~domain (List.map (fun (name, k) -> complement_relation name k) arities)
