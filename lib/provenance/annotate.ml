module Core = Probdb_core
module Cq = Probdb_logic.Cq

module Make (K : Semiring.S) = struct
  type fact = string * Core.Tuple.t * K.t

  let of_world world =
    List.map (fun (rel, tuple) -> (rel, tuple, K.one)) (Core.World.facts world)

  (* Only the join's valuations are summed: any other valuation uses an
     unlisted fact, whose [K.zero] annihilates its product. *)
  let eval_ucq facts ucq =
    let facts = Array.of_list facts in
    let index = Cq.index (Array.map (fun (rel, tuple, _) -> (rel, tuple)) facts) in
    let product ids =
      List.fold_left (fun acc i -> let _, _, k = facts.(i) in K.times acc k) K.one ids
    in
    List.fold_left
      (fun acc cq ->
        let sum = ref acc in
        Cq.join index cq (fun ids -> sum := K.plus !sum (product ids));
        !sum)
      K.zero ucq

  let eval_cq facts cq = eval_ucq facts [ cq ]
end
