module Core = Probdb_core
module Fo = Probdb_logic.Fo
module Semantics = Probdb_logic.Semantics

type soft = { weight : float; delta : Fo.t }

type t = soft list

let soft weight delta =
  if weight <= 0.0 then invalid_arg "Mln.soft: weight must be positive";
  { weight; delta }

let vocabulary mln =
  List.concat_map (fun s -> Fo.relations s.delta) mln
  |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)

let groundings ~domain s =
  let free = Fo.free_vars s.delta in
  Core.Tuple.all (List.length free) domain
  |> List.map (fun values ->
         (s.weight, List.fold_left2 (fun f x v -> Fo.subst_const x v f) s.delta free values))

let world_weight ~domain mln world =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (w, f) -> if Semantics.holds ~domain world f then acc *. w else acc)
        acc (groundings ~domain s))
    1.0 mln

exception Too_large of int

let possible_tuples ~domain vocab =
  List.concat_map
    (fun (name, arity) -> List.map (fun t -> (name, t)) (Core.Tuple.all arity domain))
    vocab

let fold_worlds ~domain vocab f init =
  let tup = possible_tuples ~domain vocab in
  let n = List.length tup in
  if n > 22 then raise (Too_large n);
  let rec go facts world acc =
    match facts with
    | [] -> f world acc
    | fact :: rest -> go rest (Core.World.add fact world) (go rest world acc)
  in
  go tup Core.World.empty init

let partition_function ~domain mln =
  fold_worlds ~domain (vocabulary mln)
    (fun w acc -> acc +. world_weight ~domain mln w)
    0.0

let probability ~domain mln q =
  let num, den =
    fold_worlds ~domain (vocabulary mln)
      (fun w (num, den) ->
        let wt = world_weight ~domain mln w in
        let num = if Semantics.holds ~domain w q then num +. wt else num in
        (num, den +. wt))
      (0.0, 0.0)
  in
  num /. den

(* ---------- Prop. 3.1 ---------- *)

type encoding = Or_encoding | Iff_encoding

type translation = { db : Core.Tid.t; gamma : Fo.t; aux : string list }

let fresh_aux_name vocab i =
  let rec pick candidate =
    if List.mem_assoc candidate vocab then pick (candidate ^ "X") else candidate
  in
  pick (Printf.sprintf "A%d" i)

let complete_relation name arity domain prob =
  let rows = List.map (fun t -> (t, prob)) (Core.Tuple.all arity domain) in
  Core.Relation.make (Core.Schema.of_arity name arity) rows

let translate ?(encoding = Iff_encoding) ~domain mln =
  let vocab = vocabulary mln in
  let original =
    List.map (fun (name, arity) -> complete_relation name arity domain 0.5) vocab
  in
  let per_constraint i s =
    let free = Fo.free_vars s.delta in
    let name = fresh_aux_name vocab i in
    let aux_prob =
      match encoding with
      | Iff_encoding -> s.weight /. (1.0 +. s.weight)
      | Or_encoding ->
          if s.weight = 1.0 then
            invalid_arg "Mln.translate: Or encoding needs weight <> 1";
          (* tuple *weight* 1/(w-1), hence probability 1/w (the Appendix's
             second approach; non-standard when w < 1) *)
          1.0 /. s.weight
    in
    let rel = complete_relation name (List.length free) domain aux_prob in
    let aux_atom = Fo.Atom { Fo.rel = name; args = List.map (fun v -> Fo.Var v) free } in
    let body =
      match encoding with
      | Or_encoding -> Fo.Or (aux_atom, s.delta)
      | Iff_encoding -> Fo.And (Fo.Implies (aux_atom, s.delta), Fo.Implies (s.delta, aux_atom))
    in
    (rel, name, Fo.forall free body)
  in
  let triples = List.mapi per_constraint mln in
  let db = Core.Tid.make ~domain (original @ List.map (fun (r, _, _) -> r) triples) in
  let gamma = Fo.conj (List.map (fun (_, _, g) -> g) triples) in
  { db; gamma; aux = List.map (fun (_, n, _) -> n) triples }

let conditional_probability db ~given q =
  let sat = Probdb_logic.Brute_force.probability db (Fo.And (q, given)) in
  let norm = Probdb_logic.Brute_force.probability db given in
  sat /. norm

let probability_via_tid ?encoding ~domain mln q =
  let { db; gamma; _ } = translate ?encoding ~domain mln in
  conditional_probability db ~given:gamma q

let manager_example =
  [
    soft 3.9
      (Probdb_logic.Parser.parse ~free:[ "m"; "e" ]
         "Manager(m,e) => HighlyCompensated(m)");
  ]
